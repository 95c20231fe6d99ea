"""Text forms the tests build inputs from: a config written back out as
canonical text, and LIBSVM rows parsed from a string instead of a file,
with a bitwise comparison of two parsed sets."""

import io
from dataclasses import asdict, fields

from gossipopt.cli import _SECTIONS, ExperimentConfig
from gossipopt.oracles import LibsvmData, _parse_lines


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) equals cfg."""
    def fmt(v) -> str:
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


def parse_libsvm_lines(text: str, d_hint: int) -> LibsvmData:
    # split at line ends only, as reading the file does
    return _parse_lines(io.StringIO(text, newline=None), d_hint)


def same_data(a: LibsvmData, b: LibsvmData) -> bool:
    """Labels, indptr, indices and values equal in dtype and in every bit."""
    return all(
        getattr(a, f.name).dtype == getattr(b, f.name).dtype
        and getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
        for f in fields(LibsvmData)
    )
