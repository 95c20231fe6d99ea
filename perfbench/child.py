"""Run `gossipopt run <config>` once, in this fresh process, and time it.

    python3 perfbench/child.py <checkout> <config> <result.json> <trace 0|1> <spans.csv> <run id>

gossipopt is imported from <checkout>/src and nowhere else. `cli.main` is
called in-process so that its time excludes interpreter start-up and
imports. Untraced, only the two drivers are wrapped (entry and exit times
give set-up and driver time). Traced, every public function the program
looks up across a module boundary is wrapped at the name the caller
resolves, each call records a span (name, start, end, parent) in memory,
and the spans are written out when the run ends. No file of the program
is touched.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from array import array
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    """Spans kept in flat arrays; span ids are array positions, 0 is the root."""

    def __init__(self) -> None:
        self.names: list[str] = ["root"]
        self.name_ids: dict[str, int] = {"root": 0}
        self.name = array("H", [0])
        self.parent = array("q", [-1])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        self.stack = [0]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_call=None):
        code = self.name_ids.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Rebind owner.attr, the name a caller resolves at call time."""
        fn = owner.__dict__[attr]
        if isinstance(fn, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, fn.__func__, on_call)))
        else:
            setattr(owner, attr, self.wrap(name, fn, on_call))

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(calls, inclusive seconds, self seconds) per span name."""
        calls, busy, child = Counter(), Counter(), Counter()
        for sid in range(1, len(self.name)):
            dur = self.end[sid] - self.start[sid]
            key = self.names[self.name[sid]]
            calls[key] += 1
            busy[key] += dur
            child[self.parent[sid]] += dur
        own = Counter()
        for sid in range(1, len(self.name)):
            key = self.names[self.name[sid]]
            own[key] += self.end[sid] - self.start[sid] - child[sid]
        return calls, busy, own

    def write(self, path: str, run_id: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for sid in range(1, len(self.name)):
                fh.write(f"{run_id},{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                         f"{self.start[sid]!r},{self.end[sid]!r}\n")


def install_drivers(tracer: Tracer, cli, driver_out: dict, step_times: list | None) -> None:
    """Wrap the two drivers at the names run_experiment resolves."""
    def keep_outputs(args, kwargs, result):
        driver_out["counters"] = vars(result.counters).copy()

    for attr in ("run_docs", "run_baseline_full_participation"):
        fn = getattr(cli, attr)
        if step_times is not None:
            fn = _with_step_observer(fn, step_times)
        setattr(cli, attr, tracer.wrap("core.driver", fn, keep_outputs))


def _with_step_observer(driver, step_times: list):
    """Pass the engine's public step_observer hook a callback that stamps
    the end of every step."""
    stamp = step_times.append

    def run(*args, **kwargs):
        step_times.append(perf_counter())
        return driver(*args, step_observer=lambda snap: stamp(perf_counter()), **kwargs)

    return run


def install_layers(tracer: Tracer) -> None:
    """Wrap every cross-module call site the engine and CLI look up."""
    from gossipopt import cli, core, metrics, oracles

    count = tracer.counts

    def counter(key, amount):
        def on_call(args, kwargs, result):
            count[key] += amount(args, kwargs, result)
        return on_call

    tracer.patch(cli, "parse_config", "cli.parse_config")
    for attr in ("build_ring", "build_complete", "load_weights_file", "single_client"):
        tracer.patch(cli, attr, "topology.build")
    tracer.patch(cli, "load_libsvm", "oracles.load_libsvm",
                 counter("oracles.rows_parsed", lambda a, k, r: len(r)))
    for attr in ("subsample", "shard"):
        tracer.patch(cli, attr, "oracles.build_problem")
    svm = oracles.CappedHingeSvmProblem
    tracer.patch(svm, "from_shards", "oracles.build_problem")
    tracer.patch(svm, "full_value", "oracles.full_value")
    tracer.patch(svm, "full_subgradients", "oracles.full_subgradients",
                 counter("oracles.full_subgradients_points", lambda a, k, r: len(r)))
    # stream is bound by name in three modules; each site is counted on its own
    for module in (cli, core, oracles):
        site = module.__name__.rsplit(".", 1)[-1]
        tracer.patch(module, "stream", "rng.stream",
                     counter(f"rng.stream_calls.{site}", lambda a, k, r: 1))
    tracer.patch(core, "fast_gossip", "gossip.fast_gossip",
                 counter("gossip.rounds_simulated", lambda a, k, r: a[0].rounds))
    tracer.patch(core, "plain_gossip", "gossip.plain_gossip",
                 counter("gossip.rounds_simulated", lambda a, k, r: a[2]))
    for attr in ("first_order_estimator", "zeroth_order_estimator"):
        tracer.patch(core, attr, "oracles.estimator")
    tracer.patch(core, "inner_update", "core.inner_update")
    tracer.patch(core, "consensus_errors", "metrics.consensus_errors")
    # in-loop probes resolve core.goldstein_probe; the final probe resolves
    # metrics.goldstein_probe through a lazy import in cli._final_goldstein
    tracer.patch(core, "goldstein_probe", "metrics.probe")
    tracer.patch(metrics, "goldstein_probe", "metrics.final_probe")
    tracer.patch(metrics.MetricsSink, "record", "metrics.sink_record")


def layer_metrics(tracer: Tracer, import_s: float, driver_out: dict, step_times: list) -> dict:
    calls, busy, own = tracer.totals()
    in_loop = calls["metrics.probe"]
    final = calls["metrics.final_probe"]
    steps_us = sorted((b - a) * 1e6 for a, b in zip(step_times, step_times[1:]))
    out = {
        "cli.parse_config_s": busy["cli.parse_config"],
        "cli.parse_config_calls": calls["cli.parse_config"],
        "cli.import_s": import_s,
        "cli.self_s": own["cli.main"],
        "topology.build_s": busy["topology.build"],
        "topology.build_calls": calls["topology.build"],
        "oracles.load_libsvm_s": busy["oracles.load_libsvm"],
        "oracles.rows_parsed": tracer.counts["oracles.rows_parsed"],
        "oracles.build_problem_s": busy["oracles.build_problem"],
        "oracles.estimator_calls": calls["oracles.estimator"],
        "oracles.estimator_s": busy["oracles.estimator"],
        "oracles.full_value_calls": calls["oracles.full_value"],
        "oracles.full_value_s": busy["oracles.full_value"],
        "oracles.full_subgradients_calls": calls["oracles.full_subgradients"],
        "oracles.full_subgradients_points": tracer.counts["oracles.full_subgradients_points"],
        "oracles.full_subgradients_s": busy["oracles.full_subgradients"],
        "rng.stream_calls": calls["rng.stream"],
        "rng.stream_s": busy["rng.stream"],
        "gossip.fast_gossip_calls": calls["gossip.fast_gossip"],
        "gossip.plain_gossip_calls": calls["gossip.plain_gossip"],
        "gossip.rounds_simulated": tracer.counts["gossip.rounds_simulated"],
        "gossip.mix_s": busy["gossip.fast_gossip"] + busy["gossip.plain_gossip"],
        "core.driver_s": busy["core.driver"],
        "core.steps": len(step_times) - 1,
        "core.inner_update_calls": calls["core.inner_update"],
        "core.inner_update_s": busy["core.inner_update"],
        "core.engine_self_s": own["core.driver"],
        "core.step_us_p50": _quantile(steps_us, 0.50),
        "core.step_us_p99": _quantile(steps_us, 0.99),
        "metrics.consensus_errors_calls": calls["metrics.consensus_errors"],
        "metrics.consensus_errors_s": busy["metrics.consensus_errors"],
        # probe_* covers every probe call, in-loop and final
        "metrics.probe_calls": in_loop + final,
        "metrics.final_probe_calls": final,
        "metrics.probe_s": busy["metrics.probe"] + busy["metrics.final_probe"],
        "metrics.final_probe_s": busy["metrics.final_probe"],
        "metrics.sink_record_calls": calls["metrics.sink_record"],
        "metrics.sink_record_s": busy["metrics.sink_record"],
    }
    for key, value in driver_out.get("counters", {}).items():
        out[f"core.{key}"] = value
    for key, value in tracer.counts.items():
        if key.startswith("rng.stream_calls."):
            out[key] = value
    return out


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile: p99 of 1000 steps has 10 steps beyond it."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment(gossipopt, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": gossipopt.active_backend(),
        "gossipopt": gossipopt.__version__,
    }


def main(argv: list[str]) -> int:
    checkout, config, result_path, trace = argv[:4]
    traced = trace == "1"
    src = os.path.join(checkout, "src")
    t0 = perf_counter()
    sys.path.insert(0, src)
    import numpy as np

    import gossipopt
    from gossipopt import cli
    import_s = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gossipopt was imported from {cli.__file__}, not {src}")

    tracer = Tracer()
    driver_out: dict = {}
    step_times: list | None = [] if traced else None
    install_drivers(tracer, cli, driver_out, step_times)
    if traced:
        install_layers(tracer)
    main_fn = tracer.wrap("cli.main", cli.main)

    cpu0 = time.process_time()
    exit_code = main_fn(["run", config])
    cpu_s = time.process_time() - cpu0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    (main_start, main_end), (drv_start, drv_end) = (
        _first_span(tracer, name) for name in ("cli.main", "core.driver"))
    result = {
        "exit_code": exit_code,
        "wall_s": main_end - main_start,
        "setup_s": drv_start - main_start,
        "driver_s": drv_end - drv_start,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "env": environment(gossipopt, np),
    }
    if traced:
        result["layers"] = layer_metrics(tracer, import_s, driver_out, step_times)
        tracer.write(argv[4], argv[5])
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def _first_span(tracer: Tracer, name: str) -> tuple[float, float]:
    code = tracer.name_ids.get(name)
    for sid in range(1, len(tracer.name)):
        if tracer.name[sid] == code:
            return tracer.start[sid], tracer.end[sid]
    return float("nan"), float("nan")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
