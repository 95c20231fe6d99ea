"""The benchmark's workloads: generated `gossipopt run` configs and the
laws their outputs must satisfy.

Every workload runs the same a9a-shaped synthetic LIBSVM set (32561 rows,
d = 123), subsampled to 8000 rows and sharded over a 16-client ring with
one neighbour per side, first-order oracle, delta = epsilon = 0.5. They
differ in which layer dominates the run; see README.md in this directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DATA_ROWS = 32561
DATA_DIM = 123
SUBSAMPLE = 8000
CLIENTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str  # "docs" or "baseline"
    K: int
    T: int
    metrics_every: int
    final_samples: int
    goldstein_every: int = 0
    goldstein_samples: int = 64
    R: int | None = None  # None leaves R to the planner
    algorithm_extra: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.K * self.T

    @property
    def planner_r(self) -> bool:
        # a docs run at the planner's R has consensus_guaranteed = True, so
        # the engine runs its per-step invariant checks
        return self.method == "docs" and self.R is None

    def record_steps(self) -> list[int]:
        """Steps at which the engine writes a trace row."""
        return [s for s in range(1, self.steps + 1)
                if s % self.metrics_every == 0 or s == self.steps]

    def in_loop_probes(self) -> int:
        """Number of trace rows that carry an in-loop stationarity probe."""
        if self.goldstein_every <= 0:
            return 0
        rows = self.record_steps()
        return sum(1 for idx, s in enumerate(rows)
                   if idx % self.goldstein_every == 0 or s == self.steps)

    def config_text(self, dataset: str, seed: int, out_dir: str) -> str:
        alg = {"method": self.method, "oracle": "first", "delta": 0.5, "epsilon": 0.5,
               **self.algorithm_extra, "K": self.K, "T": self.T}
        if self.R is not None:
            alg["R"] = self.R
        run = {
            "seeds": seed,
            "metrics_every": self.metrics_every,
            "goldstein_every": self.goldstein_every,
            "goldstein_samples": self.goldstein_samples,
            "goldstein_final_samples": self.final_samples,
            "probe_policy": "all_clients",
            "out_dir": out_dir,
        }
        sections = {
            "problem": {"kind": "capped_l1_svm", "dataset": dataset, "d": DATA_DIM,
                        "subsample": SUBSAMPLE},
            "topology": {"kind": "ring", "n": CLIENTS, "neighbors_per_side": 1},
            "algorithm": alg,
            "run": run,
        }
        lines = []
        for name, body in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{k} = {v}" for k, v in body.items())
            lines.append("")
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="docs_planned_r",
            why="client-sampled driver at the planner's R (about 210): accelerated gossip "
                "dominates the driver",
            method="docs", K=1, T=1000, metrics_every=100, final_samples=256,
        ),
        Workload(
            name="docs_readme_probe",
            why="the README cell (eta 0.005, D 0.01, R 2) with in-loop and final "
                "all-clients probes: the stationarity probe dominates",
            method="docs", K=2, T=900, metrics_every=25, final_samples=1024,
            goldstein_every=10, goldstein_samples=64, R=2,
            algorithm_extra={"eta": 0.005, "D": 0.01},
        ),
        Workload(
            name="baseline_full",
            why="full-participation baseline: 16 estimator calls and clipped updates per "
                "step, one plain gossip round per stack",
            method="baseline", K=2, T=1500, metrics_every=100, final_samples=256,
            algorithm_extra={"eta": 0.005, "D": 0.01},
        ),
    )
}


def expected_rounds(w: Workload, summary_r: int) -> int:
    """Communication rounds a run must charge. The baseline charges two plain
    rounds per step whatever R the summary reports (it reports the planner's
    R, which that driver never uses), so summary_r is read for docs only."""
    if w.method == "baseline":
        return 2 * w.steps
    return 2 * summary_r * w.steps


def check_run(w: Workload, exit_code: int, summary: dict | None, trace_text: str | None) -> list[str]:
    """The correctness gate of one `gossipopt run`; returns the failures."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if summary is None or trace_text is None:
        return ["summary.json or the trace is missing"]
    problems = []
    agg = summary.get("aggregate", {})
    runs = summary.get("runs", [])
    if agg.get("completed") != 1 or agg.get("failed") != 0 or len(runs) != 1:
        return [f"summary aggregate {agg} is not one completed run"]
    run = runs[0]
    if run.get("error") is not None:
        problems.append(f"run error {run['error']}")

    lines = trace_text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    want_rows = len(w.record_steps())
    if len(rows) != want_rows:
        problems.append(f"trace has {len(rows)} rows, metrics_every wants {want_rows}")
    header = lines[0].split(",") if lines else []
    col = {name: i for i, name in enumerate(header)}
    try:
        objectives = [float(r[col["objective"]]) for r in rows]
    except (KeyError, IndexError, ValueError) as exc:
        return problems + [f"unreadable trace objective column: {exc}"]
    if not all(math.isfinite(v) for v in objectives):
        problems.append("non-finite objective in the trace")
    final = run.get("final_objective")
    if not (isinstance(final, float) and math.isfinite(final) and final < 1.0):
        problems.append(f"final_objective {final} is not below 1.0, the all-zero start")
    gold = run.get("final_goldstein")
    if not (isinstance(gold, float) and math.isfinite(gold) and gold >= 0.0):
        problems.append(f"final_goldstein {gold} is not a finite norm")

    steps = w.steps
    samples = steps if w.method == "docs" else CLIENTS * steps
    laws = {
        "samples_total": samples,
        "computation_rounds": steps,
        "communication_rounds": expected_rounds(w, int(run.get("R", 0))),
        "function_evals": 0,
    }
    for key, want in laws.items():
        if run.get(key) != want:
            problems.append(f"{key} = {run.get(key)}, law wants {want}")
    if rows:
        last = rows[-1]
        for key in ("samples_total", "computation_rounds", "communication_rounds"):
            if int(last[col[key]]) != laws[key]:
                problems.append(f"last trace row {key} = {last[col[key]]}, law wants {laws[key]}")
    if w.R is not None and run.get("R") != w.R:
        problems.append(f"summary R = {run.get('R')}, config sets {w.R}")
    return problems


def expected_layer_counts(w: Workload, comm_rounds: int) -> dict[str, int]:
    """Exact call counts each patched call site must record in a traced run.

    A count that comes out 0 or off means a wrapper no longer sits where the
    program looks the name up, so that layer's time would silently vanish.
    """
    steps = w.steps
    rows = len(w.record_steps())
    estimator_calls = steps if w.method == "docs" else CLIENTS * steps
    probes = w.in_loop_probes() + 1  # the final probe is one more call
    samples = w.in_loop_probes() * w.goldstein_samples + w.final_samples
    return {
        "cli.parse_config_calls": 1,
        "topology.build_calls": 1,
        "oracles.rows_parsed": DATA_ROWS,
        "oracles.estimator_calls": estimator_calls,
        "core.inner_update_calls": estimator_calls,
        "core.steps": steps,
        "core.samples_total": estimator_calls,
        "core.computation_rounds": steps,
        "core.communication_rounds": comm_rounds,
        "gossip.fast_gossip_calls": 2 * steps if w.method == "docs" else 0,
        "gossip.plain_gossip_calls": 2 * steps if w.method == "baseline" else 0,
        "gossip.rounds_simulated": comm_rounds,
        "metrics.sink_record_calls": rows,
        "metrics.consensus_errors_calls": rows + (steps if w.planner_r else 0),
        "oracles.full_value_calls": rows + 1,
        "metrics.probe_calls": probes,
        "metrics.final_probe_calls": 1,
        # all_clients probes every client, one full_subgradients call each
        "oracles.full_subgradients_calls": CLIENTS * probes,
        "oracles.full_subgradients_points": CLIENTS * samples,
    }


# stream is imported by name into three modules; each binding must be hit
STREAM_SITES = ("rng.stream_calls.cli", "rng.stream_calls.core", "rng.stream_calls.oracles")
