#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `gossipopt run`.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (gossipopt is imported from ./src).
The seed generates an a9a-shaped LIBSVM file and the workload's config
(README.md in this directory describes the workloads). For --seconds
seconds the harness then runs `gossipopt run <config>` again and again,
each time in a fresh child process with BLAS threads pinned to 1, one at a
time. Every run passes a correctness gate, and all runs of one seed must
write byte-identical traces.

--trace 0 reports the end-to-end metrics, as medians over the untraced
runs. --trace 1 alternates untraced runs with traced ones, in which every
cross-module call is wrapped, and reports the per-layer metrics as medians
over the traced runs plus the tracing overhead. The last line of standard
output is one JSON object; the lines before it are a readable report.
Everything the runs write goes under ./.perfbench_work/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DATA_DIM,
    DATA_ROWS,
    STREAM_SITES,
    WORKLOADS,
    Workload,
    check_run,
    expected_layer_counts,
    expected_rounds,
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
LAYER_UNITS = {"_s": "s", "_us_p50": "us", "_us_p99": "us", "_frac": "ratio"}
PER_LAYER = (
    "cli.parse_config_s", "cli.import_s", "cli.self_s",
    "topology.build_s",
    "oracles.load_libsvm_s", "oracles.rows_parsed", "oracles.build_problem_s",
    "oracles.estimator_calls", "oracles.estimator_s",
    "oracles.full_value_calls", "oracles.full_value_s",
    "oracles.full_subgradients_calls", "oracles.full_subgradients_points",
    "oracles.full_subgradients_s",
    "rng.stream_calls", "rng.stream_s",
    "gossip.fast_gossip_calls", "gossip.plain_gossip_calls", "gossip.rounds_simulated",
    "gossip.mix_s",
    "core.driver_s", "core.steps", "core.inner_update_calls", "core.inner_update_s",
    "core.engine_self_s", "core.step_us_p50", "core.step_us_p99",
    "core.samples_total", "core.computation_rounds", "core.communication_rounds",
    "core.function_evals",
    "metrics.consensus_errors_calls", "metrics.consensus_errors_s",
    "metrics.probe_calls", "metrics.probe_s", "metrics.final_probe_s",
    "metrics.sink_record_calls", "metrics.sink_record_s",
    "trace.overhead_frac",
)
PINNED_THREADS = "1"
MIN_UNTRACED = 2  # the determinism check compares at least two untraced runs
HARD_LIMIT_S = 165.0  # the whole invocation must end within 180 s
WORK_DIR = ".perfbench_work"


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- inputs ---------------------------------------------------------------------


def ensure_dataset(root: Path, work: Path, seed: int) -> Path:
    """Generate (once per seed) the a9a-shaped LIBSVM file with the program's
    own generator; generation is not timed."""
    path = work / "data" / f"a9a_seed{seed}.libsvm"
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    subprocess.run(
        [sys.executable, "-m", "gossipopt", "make-data", str(tmp),
         "--samples", str(DATA_ROWS), "--dim", str(DATA_DIM), "--seed", str(seed)],
        cwd=root, env=child_env({"PYTHONPATH": str(root / "src")}), check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )
    os.replace(tmp, path)
    return path


def child_env(extra: dict) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    env.update(extra)
    return env


# -- one child run ----------------------------------------------------------------


@dataclasses.dataclass
class Child:
    index: int
    traced: bool
    seconds: float = 0.0
    result: dict = dataclasses.field(default_factory=dict)
    summary: dict | None = None
    trace_sha: str | None = None
    problems: list = dataclasses.field(default_factory=list)


def run_child(root: Path, w: Workload, seed: int, config: Path, index: int,
              traced: bool, timeout: float) -> Child:
    """Run the config once in a fresh process and gate its outputs."""
    child = Child(index=index, traced=traced)
    run_dir = config.parent
    out = run_dir / f"run{index}"
    out.mkdir(parents=True)
    result_path = out / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(config), str(result_path),
           "1" if traced else "0", str(run_dir / "spans.csv"), f"{w.name}/seed{seed}/run{index}"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env({"GOSSIPOPT_OUTPUT_DIR": str(out)}),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        child.seconds = time.perf_counter() - t0
        child.problems.append(f"timed out after {timeout:.0f} s")
        return child
    child.seconds = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        child.problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return child
    child.result = json.loads(result_path.read_text(encoding="ascii"))

    summary_path = out / "summary.json"
    trace_path = out / f"trace_{seed}.csv"
    trace_bytes = trace_path.read_bytes() if trace_path.exists() else None
    if summary_path.exists():
        child.summary = json.loads(summary_path.read_text(encoding="ascii"))
    child.problems += check_run(
        w, child.result["exit_code"], child.summary,
        trace_bytes.decode("ascii") if trace_bytes is not None else None)
    if trace_bytes is not None:
        child.trace_sha = hashlib.sha256(trace_bytes).hexdigest()
    if traced and not child.problems:
        child.problems += check_coverage(w, child.result["layers"], child.summary)
    return child


def check_coverage(w: Workload, layers: dict, summary: dict) -> list[str]:
    """Every patched call site must have recorded exactly the calls the
    run's own laws predict; 0 means a wrapper no longer sits on the path."""
    comm = expected_rounds(w, int(summary["runs"][0]["R"]))
    problems = [f"patch point {key}: recorded {layers.get(key, 0)}, expected {want}"
                for key, want in expected_layer_counts(w, comm).items()
                if layers.get(key, 0) != want]
    problems += [f"patch point {site}: no calls recorded"
                 for site in STREAM_SITES if not layers.get(site)]
    return problems


def check_determinism(children: list[Child]) -> None:
    """All runs of one (workload, seed) must write the same trace bytes and
    the same final figures, traced or not."""
    done = [c for c in children if not c.problems]
    if not done:
        return
    ref_sha = statistics.mode(c.trace_sha for c in done)
    ref = next(c for c in done if c.trace_sha == ref_sha).summary["runs"][0]
    for c in done:
        run = c.summary["runs"][0]
        if c.trace_sha != ref_sha:
            c.problems.append("trace bytes differ from the other runs of this seed")
        for key in ("final_objective", "final_goldstein"):
            if run[key] != ref[key]:
                c.problems.append(f"{key} {run[key]!r} differs from {ref[key]!r}")


# -- aggregation --------------------------------------------------------------------


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return f"p{p} {q:.6g}"
    return "no percentile has 10 samples beyond it"


def end_to_end(w: Workload, untraced: list[Child], attempted: int, failed: int) -> dict:
    samples = {
        "wall_s": [c.result["wall_s"] for c in untraced],
        "setup_s": [c.result["setup_s"] for c in untraced],
        "steps_per_s": [w.steps / c.result["driver_s"] for c in untraced],
        "peak_rss_mb": [c.result["peak_rss_mb"] for c in untraced],
    }
    out = {k: (statistics.median(v), v) for k, v in samples.items() if v}
    out["success_rate"] = ((attempted - failed) / attempted, [])
    return out


def per_layer(traced: list[Child], untraced: list[Child]) -> dict:
    out: dict = {}
    if not traced:
        return out
    for name in PER_LAYER[:-1]:
        values = [c.result["layers"].get(name, 0) for c in traced]
        # counts are exact, so report one that was recorded, not a midpoint
        median = statistics.median_low if layer_unit(name) == "count" else statistics.median
        out[name] = (median(values), values)
    if untraced:
        t_wall = [c.result["wall_s"] for c in traced]
        u_wall = [c.result["wall_s"] for c in untraced]
        out["trace.overhead_frac"] = (statistics.median(t_wall) / statistics.median(u_wall) - 1.0,
                                      [])
    return out


def layer_shares(layers: dict, wall: float) -> dict:
    """Shares of driver and wall time, for the README's layer table."""
    drv = layers["core.driver_s"]
    return {
        "gossip/driver": layers["gossip.mix_s"] / drv,
        "estimator+inner_update/driver":
            (layers["oracles.estimator_s"] + layers["core.inner_update_s"]) / drv,
        "rng/driver": layers["rng.stream_s"] / drv,
        "engine_self/driver": layers["core.engine_self_s"] / drv,
        "probe/wall": layers["metrics.probe_s"] / wall,
        "setup/wall": (layers["cli.parse_config_s"] + layers["topology.build_s"]
                       + layers["oracles.load_libsvm_s"] + layers["oracles.build_problem_s"]) / wall,
    }


def stamp(root: Path, w: Workload, seed: int, children: list[Child], config_text: str) -> dict:
    git = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            git = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "gossipopt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env = next((c.result["env"] for c in children if c.result), {})
    summary = next((c.summary for c in children if c.summary), {}) or {}
    return {
        **env,
        "pinned_threads": PINNED_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": git,
        "src_sha256": src.hexdigest()[:16],
        "workload": w.name,
        "workload_seed": seed,
        "config_hash": summary.get("config_hash"),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest()[:16],
    }


# -- entry points -----------------------------------------------------------------------


def prepare(root: Path, w: Workload, seed: int) -> tuple[Path, Path, str]:
    work = root / WORK_DIR
    dataset = ensure_dataset(root, work, seed)
    run_dir = work / w.name / f"seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.ini"
    # paths relative to the checkout, where every child runs, keep the
    # program's config_hash independent of where the checkout lives
    text = w.config_text(str(dataset.relative_to(root)), seed,
                         str((run_dir / "out").relative_to(root)))
    config.write_text(text, encoding="ascii")
    return run_dir, config, text


def measure(root: Path, w: Workload, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    run_dir, config, config_text = prepare(root, w, seed)
    spans = run_dir / "spans.csv"
    children: list[Child] = []
    t0 = time.perf_counter()
    while True:
        n_traced = sum(c.traced for c in children)
        n_untraced = len(children) - n_traced
        need = n_untraced < MIN_UNTRACED or (trace and n_traced < 1)
        est = statistics.median(c.seconds for c in children) if children else 0.0
        now = time.perf_counter()
        left = started + HARD_LIMIT_S - now
        if est > left or (not need and now - t0 + est > seconds):
            break
        traced = trace and n_traced < n_untraced
        children.append(run_child(root, w, seed, config, len(children), traced, left))
    check_determinism(children)

    valid = [c for c in children if not c.problems]
    attempted, failed = len(children), len(children) - len(valid)
    untraced = [c for c in valid if not c.traced]
    traced = [c for c in valid if c.traced]
    correct = failed == 0 and len(untraced) >= MIN_UNTRACED and (len(traced) > 0 or not trace)
    if trace:
        metrics = per_layer(traced, untraced)
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        metrics = end_to_end(w, untraced, attempted, failed)
        units = END_TO_END

    env = stamp(root, w, seed, children, config_text)
    print(f"workload {w.name}, seed {seed}, trace {int(trace)}: {attempted} runs "
          f"({len(untraced)} untraced, {len(traced)} traced valid), {failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for c in children:
        for problem in c.problems:
            print(f"  run{c.index} FAILED: {problem}")
    for name, (value, values) in metrics.items():
        detail = f"median of n={len(values)}; {tail_note(values)}" if values else ""
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} {detail}")
    if traced:
        wall = statistics.median(c.result["wall_s"] for c in traced)
        shares = layer_shares({k: v for k, (v, _) in metrics.items()}, wall)
        print("  shares " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        print(f"  spans of the last traced run: {spans.relative_to(root)}")

    report = {
        "workload": w.name, "seed": seed, "trace": int(trace), "env": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k], "samples": s} for k, (v, s) in metrics.items()},
        "runs": [{"index": c.index, "traced": c.traced, "seconds": c.seconds,
                  "problems": c.problems, **{k: v for k, v in c.result.items() if k != "env"}}
                 for c in children],
    }
    (run_dir / f"result_trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="ascii")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


def self_test(root: Path, seed: int) -> int:
    """Quick traced and untraced runs of every workload, shrunk to 60 steps:
    every patch point must record its predicted calls and the traced run
    must write the same trace bytes as the untraced ones."""
    ok = True
    for w in WORKLOADS.values():
        small = dataclasses.replace(w, K=1, T=60)
        run_dir, config, _ = prepare(root, small, seed)
        children = [run_child(root, small, seed, config, i, traced, HARD_LIMIT_S)
                    for i, traced in enumerate((False, True, False))]
        check_determinism(children)
        problems = [f"run{c.index}: {p}" for c in children for p in c.problems]
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {w.name}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gossipopt" / "cli.py").is_file():
        print(f"error: {root} is not a gossipopt checkout (no src/gossipopt/cli.py)",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
