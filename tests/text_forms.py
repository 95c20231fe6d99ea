"""Text forms the tests build inputs from: a config written back out as
canonical text, and LIBSVM rows parsed from a string instead of a file."""

import io
from dataclasses import asdict

from gossipopt.cli import _SECTIONS, ExperimentConfig
from gossipopt.oracles import DataSample, _parse_lines


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) equals cfg."""
    def fmt(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return ", ".join(str(x) for x in v)
        return str(v)

    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, value in asdict(getattr(cfg, section)).items():
            if value is not None:
                lines.append(f"{key} = {fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def parse_libsvm_lines(text: str, d_hint: int) -> list[DataSample]:
    # split at line ends only, as iterating the file does
    return _parse_lines(io.StringIO(text, newline=None), d_hint)
