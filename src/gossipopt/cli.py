"""Experiment runner: config parsing, seed sweeps, traces, and summaries.

Configs are sectioned key/value text (INI syntax, case-sensitive keys) with
four sections: [problem], [topology], [algorithm], [run]. Each key is a
field of its section's dataclass (ProblemConfig, TopologyConfig,
AlgorithmConfig, RunSection) and is parsed by that field's type; the
field's metadata declares the words the key takes or the range its value
must lie in. eta and D accept comma-separated lists; the runner expands
their cross product as a tuning grid. All randomness flows from [run]
seeds; the same config and seed reproduce a byte-identical trace.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import operator
import os
import sys
from dataclasses import Field, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import TRACE_FORMAT, __version__
from .core import (
    ORACLE_TYPES,
    PlanError,
    RunPlan,
    plan_parameters,
    run_baseline_full_participation,
    run_docs,
)
from .metrics import CSV_COLUMNS, MetricsSink
from .oracles import (
    CappedHingeSvmProblem,
    LibsvmParseError,
    PiecewiseProblem,
    load_libsvm,
    shard,
    subsample,
    write_synthetic_libsvm,
)
from .rng import stream
from .topology import (
    MixingMatrix,
    TopologyError,
    build_complete,
    build_ring,
    load_weights_file,
    single_client,
)

OUTPUT_DIR_ENV = "GOSSIPOPT_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


# -- configuration -----------------------------------------------------------


def _at_least(least, *, default):
    return field(default=default, metadata={"range": (">=", least)})


def _above(bound, *, default):
    return field(default=default, metadata={"range": (">", bound)})


def _one_of(words, *, default):
    return field(default=default, metadata={"words": words})


@dataclass(frozen=True)
class ProblemConfig:
    kind: str = _one_of(("capped_l1_svm", "synthetic_piecewise"), default="capped_l1_svm")
    dataset: str | None = None
    d: int = _at_least(1, default=0)
    lam: float | None = _above(0, default=None)
    alpha: float = _above(0, default=2.0)
    subsample: int | None = _at_least(1, default=None)
    data_seed: int = _at_least(0, default=0)
    samples_per_client: int = _at_least(1, default=8)
    gen_seed: int = _at_least(0, default=7)
    lipschitz: float | None = _above(0, default=None)
    grad_bound: float | None = _above(0, default=None)


@dataclass(frozen=True)
class TopologyConfig:
    kind: str = _one_of(("ring", "complete", "file"), default="ring")
    n: int = _at_least(1, default=16)
    neighbors_per_side: int = _at_least(1, default=1)
    path: str | None = None


@dataclass(frozen=True)
class AlgorithmConfig:
    method: str = _one_of(("docs", "baseline"), default="docs")
    oracle: str = _one_of(ORACLE_TYPES, default="first")
    delta: float = _above(0, default=0.5)
    epsilon: float = _above(0, default=0.5)
    delta_prime: float | None = _at_least(0, default=None)
    eta: tuple[float, ...] | None = _above(0, default=None)
    D: tuple[float, ...] | None = _above(0, default=None)
    R: int | None = _at_least(1, default=None)
    K: int | None = _at_least(1, default=None)
    T: int | None = _at_least(1, default=None)
    eps_prime: float | None = _above(0, default=None)
    sigma: float | None = _at_least(0, default=None)
    c0: float = _above(0, default=1.0)
    nu: float = _at_least(0, default=1.0)


@dataclass(frozen=True)
class RunSection:
    seeds: tuple[int, ...] = _at_least(0, default=(1,))
    metrics_every: int = _at_least(1, default=50)
    goldstein_every: int = _at_least(0, default=0)
    goldstein_samples: int = _at_least(1, default=64)
    goldstein_final_samples: int = _at_least(1, default=4096)
    # the probe always reports the worst client; the key stays only so that the
    # benchmark's workload configs, which write it, parse; it goes with benchmark v2
    probe_policy: str = _one_of(("all_clients",), default="all_clients")
    out_dir: str = "runs/out"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig
    topology: TopologyConfig
    algorithm: AlgorithmConfig
    run: RunSection


_SECTIONS = {
    "problem": ProblemConfig,
    "topology": TopologyConfig,
    "algorithm": AlgorithmConfig,
    "run": RunSection,
}

def _parse_list(item):
    return lambda raw: tuple(item(tok) for tok in raw.split(",") if tok.strip())


# field annotation (without "| None") -> (parser, what the error says was expected)
_PARSERS = {
    "str": (str, ""),
    "int": (int, "integer"),
    "float": (float, "number"),
    "tuple[float, ...]": (_parse_list(float), "comma-separated numbers"),
    "tuple[int, ...]": (_parse_list(int), "comma-separated integers"),
}


def _convert(keypath: str, spec: Field, raw: str):
    raw = raw.strip()
    words = spec.metadata.get("words")
    if words is not None:
        if raw not in words:
            raise ConfigError(f"{keypath}: expected one of {list(words)}, got {raw!r}")
        return raw
    parse, expected = _PARSERS[spec.type.removesuffix(" | None")]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{keypath}: expected {expected}, got {raw!r}") from None


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; unknown sections or keys, type
    mismatches, and constraint violations all raise ConfigError naming the
    offending key path."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keys are case-sensitive (d vs D)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        specs = {f.name: f for f in fields(_SECTIONS[section])}
        for key, raw in parser.items(section):
            if key not in specs:
                raise ConfigError(f"unknown key {section}.{key}")
            if raw.strip() == "":
                continue
            values[section][key] = _convert(f"{section}.{key}", specs[key], raw)

    cfg = ExperimentConfig(**{name: cls(**values[name]) for name, cls in _SECTIONS.items()})
    _check_ranges(cfg)
    _validate(cfg)
    return cfg


_HOLDS = {">=": operator.ge, ">": operator.gt}


def _check_ranges(cfg: ExperimentConfig) -> None:
    """Hold every set value, and every entry of a list, to the range declared
    on its field. The comparison is written so that NaN fails it."""
    for name in _SECTIONS:
        section = getattr(cfg, name)
        for spec in fields(section):
            if "range" not in spec.metadata:
                continue
            op, bound = spec.metadata["range"]
            value = getattr(section, spec.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(v is not None and not _HOLDS[op](v, bound) for v in entries):
                raise ConfigError(f"{name}.{spec.name}: must be {op} {bound}")


def _validate(cfg: ExperimentConfig) -> None:
    """The rules that join two keys or look at a whole list."""
    p, topo, alg, run = cfg.problem, cfg.topology, cfg.algorithm, cfg.run
    if p.kind == "capped_l1_svm" and not p.dataset:
        raise ConfigError("problem.dataset: required for kind capped_l1_svm")
    if topo.kind == "file" and not topo.path:
        raise ConfigError("topology.path: required for kind file")
    if alg.delta_prime == 0 and alg.oracle == "zeroth":
        raise ConfigError("algorithm.delta_prime: must be > 0 for oracle zeroth")
    if alg.eps_prime is not None and any(alg.eps_prime >= dv for dv in alg.D or ()):
        raise ConfigError(
            "algorithm.eps_prime: consensus tolerance must be strictly "
            "below the update diameter D (eps_prime < D)"
        )
    if not run.seeds:
        raise ConfigError("run.seeds: at least one seed is required")
    # each grid cell writes under its own eta..._D... directory and each seed's
    # run writes trace_<seed>.csv there, so a repeat would overwrite a trace
    for key, values in (("run.seeds", run.seeds), ("algorithm.eta", alg.eta),
                        ("algorithm.D", alg.D)):
        repeated = [v for i, v in enumerate(values or ()) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{key}: must be distinct; {repeated[0]} is repeated")


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantically meaningful fields (output dir excluded)."""
    payload = {section: asdict(getattr(cfg, section)) for section in _SECTIONS}
    del payload["run"]["out_dir"]
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- wiring ------------------------------------------------------------------


def build_topology(cfg: TopologyConfig) -> MixingMatrix:
    """The configured mixing matrix; a topology the builders reject is a
    configuration error that names its key, and the file if there is one."""
    if cfg.kind == "file":
        try:
            matrix = load_weights_file(cfg.path)
        except TopologyError as exc:
            raise ConfigError(f"topology.path: {cfg.path}: {exc}") from None
        if matrix.n != cfg.n:
            raise ConfigError(
                f"topology.n: declared {cfg.n} clients but {cfg.path} holds {matrix.n}"
            )
        return matrix
    if cfg.n == 1:
        return single_client()
    try:
        if cfg.kind == "ring":
            return build_ring(cfg.n, cfg.neighbors_per_side)
        return build_complete(cfg.n)
    except TopologyError as exc:
        raise ConfigError(f"topology.{exc.key}: {exc}") from None


def load_dataset(cfg: ProblemConfig):
    """Load (and optionally subsample) the configured dataset once; the
    result can be shared across every seed and grid cell of a sweep. A
    malformed file is a configuration error that names it."""
    if cfg.kind != "capped_l1_svm":
        return None
    try:
        data = load_libsvm(cfg.dataset, cfg.d)
    except LibsvmParseError as exc:
        raise ConfigError(f"problem.dataset: {cfg.dataset}: {exc}") from None
    if cfg.subsample is not None:
        data = subsample(data, cfg.subsample, cfg.data_seed)
    return data


def build_problem(cfg: ProblemConfig, n: int, seed: int, data):
    if cfg.kind == "synthetic_piecewise":
        return PiecewiseProblem.generate(n, cfg.d, cfg.samples_per_client, cfg.gen_seed)
    return CappedHingeSvmProblem.from_shards(
        data, shard(data, n, seed), cfg.d, lam=cfg.lam, alpha=cfg.alpha
    )


@dataclass
class RunResult:
    seed: int
    eta: float
    D: float
    R: int
    K: int
    T: int
    eps_prime: float
    final_objective: float | None = None
    final_goldstein: float | None = None
    samples_total: int = 0
    computation_rounds: int = 0
    communication_rounds: int = 0
    function_evals: int = 0
    trace_path: str = ""
    error: str | None = None


@dataclass
class RunSummary:
    version: str
    config_hash: str
    method: str
    oracle: str
    runs: list[RunResult] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {**asdict(self), "trace_format": TRACE_FORMAT}
        return json.dumps(payload, indent=2, sort_keys=True)


def _aggregate(runs: list[RunResult]) -> dict:
    ok = [r for r in runs if r.error is None]
    agg: dict = {"completed": len(ok), "failed": len(runs) - len(ok)}
    for key in ("final_objective", "final_goldstein"):
        vals = [getattr(r, key) for r in ok if getattr(r, key) is not None]
        if vals:
            agg[key] = {
                "mean": float(np.mean(vals)),
                "min": float(min(vals)),
                "max": float(max(vals)),
            }
    return agg


def plan_experiment(cfg: ExperimentConfig) -> tuple[Path, MixingMatrix, list]:
    """Resolve every (grid cell, seed) of the config before anything is
    written.

    Returns the output directory, the mixing matrix and, in sweep order
    (grid cells outer, seeds inner), one (trace path, plan, problem) per
    run; grid runs trace under eta.../D... subdirectories. A dataset that
    cannot be loaded or sharded, or a plan the planner rejects, raises here,
    so such a sweep creates no directory or file.
    """
    alg, n = cfg.algorithm, cfg.topology.n
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, cfg.run.out_dir))
    matrix = build_topology(cfg.topology)
    # the whole sweep shares one dataset
    dataset = load_dataset(cfg.problem)
    if dataset is not None and len(dataset) < n:
        key = "problem.subsample" if cfg.problem.subsample is not None else "problem.dataset"
        raise ConfigError(
            f"{key}: {len(dataset)} samples cannot be sharded across topology.n = {n} clients"
        )
    # a problem depends on its seed alone, so each seed's is built once and
    # shared by every grid cell
    problems = {seed: build_problem(cfg.problem, n, seed, dataset) for seed in cfg.run.seeds}
    grid = [(eta, diameter) for eta in alg.eta or (None,) for diameter in alg.D or (None,)]
    runs = []
    for eta, diameter in grid:
        cell_dir = out_dir
        if len(grid) > 1:
            cell_dir = out_dir / f"eta{eta if eta is not None else 'auto'}_D{diameter if diameter is not None else 'auto'}"
        for seed in cfg.run.seeds:
            problem = problems[seed]
            try:
                plan = plan_parameters(
                    alg.delta, alg.epsilon, n, cfg.problem.d, matrix.gamma,
                    cfg.problem.lipschitz or problem.lipschitz,
                    cfg.problem.grad_bound or problem.lipschitz,
                    alg.oracle, seed,
                    sigma=alg.sigma, c0=alg.c0, nu=alg.nu, delta_prime=alg.delta_prime,
                    eta=eta, D=diameter, K=alg.K, T=alg.T, eps_prime=alg.eps_prime,
                    # the baseline mixes with one plain round, whatever the planner would pick
                    R=1 if alg.method == "baseline" else alg.R,
                )
            except PlanError as exc:
                key = f"algorithm.{exc.key}" if exc.key else "algorithm"
                raise ConfigError(f"{key}: {exc}") from exc
            runs.append((cell_dir / f"trace_{seed}.csv", plan, problem))
    return out_dir, matrix, runs


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute every (grid cell, seed) combination of the config.

    Every plan is resolved first (plan_experiment). Each run then writes
    its trace_<seed>.csv, and one summary.json under the output directory
    covers all runs. A failing seed is recorded in the summary and does not
    stop the sweep, but a sweep where every run failed raises the last
    error.
    """
    out_dir, matrix, runs = plan_experiment(cfg)
    summary = RunSummary(
        version=__version__,
        config_hash=config_hash(cfg),
        method=cfg.algorithm.method,
        oracle=cfg.algorithm.oracle,
    )
    driver = run_docs if cfg.algorithm.method == "docs" else run_baseline_full_participation
    last_error: Exception | None = None
    for trace_path, plan, problem in runs:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        result = RunResult(
            seed=plan.seed, eta=plan.eta, D=plan.D, R=plan.R, K=plan.K,
            T=plan.T, eps_prime=plan.eps_prime, trace_path=str(trace_path),
        )
        try:
            with MetricsSink(str(trace_path)) as sink:
                outputs = driver(
                    plan,
                    problem,
                    matrix,
                    sink,
                    metrics_every=cfg.run.metrics_every,
                    goldstein_every=cfg.run.goldstein_every,
                    goldstein_samples=cfg.run.goldstein_samples,
                )
            result.final_goldstein = float(
                _final_goldstein(problem, outputs.w_out, plan, cfg.run.goldstein_final_samples)
            )
            result.final_objective = float(problem.full_value(outputs.w_out.mean(axis=0)))
        except Exception as exc:  # recorded per seed; sweep continues
            result.error = f"{type(exc).__name__}: {exc}"
            last_error = exc
            summary.runs.append(result)
            print(f"seed {plan.seed} failed: {result.error}", file=sys.stderr)
            continue
        summary.runs.append(replace(result, **asdict(outputs.counters)))

    summary.aggregate = _aggregate(summary.runs)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(summary.to_json() + "\n", encoding="ascii")
    if summary.runs and all(r.error is not None for r in summary.runs):
        raise RuntimeError(f"all runs failed; last error: {last_error}")
    return summary


def _final_goldstein(problem, w_out: np.ndarray, plan: RunPlan, samples: int) -> float:
    # the benchmark wraps metrics.goldstein_probe where it stands, so the
    # final probe looks it up there at call time through this lazy import
    from .metrics import goldstein_probe

    return goldstein_probe(problem, w_out, plan.delta, samples, stream(plan.seed, "goldstein", 0))


def _format_plan(plan: RunPlan, method: str) -> str:
    pairs = [("method", method)] + [(f.name, getattr(plan, f.name)) for f in fields(RunPlan)]
    return "\n".join(f"{k} = {v}" for k, v in pairs)


# -- trace comparison ---------------------------------------------------------

_X_AXES = {
    "samples": "samples_total",
    "computation": "computation_rounds",
    "communication": "communication_rounds",
}


def emit_comparison(
    trace_paths: list[str],
    x_axis: str,
    labels: list[str] | None = None,
) -> str:
    """Merge traces into long-format CSV rows (method, seed, x, objective,
    goldstein_estimate) against the chosen counter axis.

    Traces keep their own x points (no interpolation). The method label
    defaults to the trace's parent directory name; seed is parsed from the
    trace_<seed>.csv filename.
    """
    if x_axis not in _X_AXES:
        raise ConfigError(f"x_axis must be one of {sorted(_X_AXES)}, got {x_axis!r}")
    if labels is not None and len(labels) != len(trace_paths):
        raise ConfigError("labels must match the number of traces")
    x_col = _X_AXES[x_axis]
    out = ["method,seed,x,objective,goldstein_estimate"]
    for pos, path in enumerate(trace_paths):
        p = Path(path)
        label = labels[pos] if labels else p.parent.name
        seed = p.stem.split("_")[-1]
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_COLUMNS:
                raise ConfigError(f"{path}: trace schema mismatch: {header}")
            idx = {name: i for i, name in enumerate(header)}
            for line in fh:
                cells = line.rstrip("\n").split(",")
                out.append(
                    f"{label},{seed},{cells[idx[x_col]]},"
                    f"{cells[idx['objective']]},{cells[idx['goldstein_estimate']]}"
                )
    return "\n".join(out) + "\n"


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossipopt",
        description="Decentralized nonsmooth optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every (grid cell, seed) in a config")
    p_run.add_argument("config")

    p_plan = sub.add_parser("plan", help="print every (grid cell, seed) plan, run nothing")
    p_plan.add_argument("config")

    p_cmp = sub.add_parser("compare", help="merge traces into a long-format CSV")
    p_cmp.add_argument("traces", nargs="+")
    p_cmp.add_argument(
        "--x-axis",
        default="samples",
        choices=sorted(_X_AXES),
        help="counter to use as the x column",
    )
    p_cmp.add_argument("--labels", default=None, help="comma-separated method labels")
    p_cmp.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p_val = sub.add_parser("validate-topology", help="validate a weight-matrix file")
    p_val.add_argument("path")

    p_mk = sub.add_parser("make-data", help="generate a synthetic LIBSVM dataset")
    p_mk.add_argument("path")
    p_mk.add_argument("--samples", type=int, default=8000)
    p_mk.add_argument("--dim", type=int, default=123)
    p_mk.add_argument("--seed", type=int, default=7)

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "plan"):
            cfg = parse_config(args.config)
            if args.command == "plan":
                _, _, runs = plan_experiment(cfg)
                print("\n\n".join(_format_plan(plan, cfg.algorithm.method) for _, plan, _ in runs))
            else:
                run_experiment(cfg)
            return 0
        if args.command == "compare":
            labels = args.labels.split(",") if args.labels else None
            text = emit_comparison(args.traces, args.x_axis, labels)
            if args.out:
                Path(args.out).write_text(text, encoding="ascii")
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "validate-topology":
            matrix = load_weights_file(args.path)
            print(
                f"valid mixing matrix: n = {matrix.n}, lambda2 = {matrix.lambda2!r}, "
                f"gamma = {matrix.gamma!r}"
            )
            return 0
        if args.command == "make-data":
            for flag, least in (("samples", 1), ("dim", 1), ("seed", 0)):
                if getattr(args, flag) < least:
                    raise ConfigError(f"--{flag}: must be >= {least}")
            write_synthetic_libsvm(args.path, args.samples, args.dim, args.seed)
            print(f"wrote {args.samples} samples of dimension {args.dim} to {args.path}")
            return 0
    except (ConfigError, TopologyError, PlanError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
