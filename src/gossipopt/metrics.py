"""Progress measurement: counters, consensus errors, objective traces, and
a smoothed-gradient stationarity estimate.

The stationarity probe averages full-data subgradients at points sampled
uniformly from the ball of radius delta/2 around the probe point; the norm
of that average estimates the gradient norm of the delta/2-smoothed
objective, whose limit lies in the delta-subdifferential, making it a
surrogate for the min-norm stationarity measure. It upper-bounds the
min-norm quantity only in the infinite-sample limit; no min-norm-point
solve is attempted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

CSV_COLUMNS = (
    "k",
    "t",
    "samples_total",
    "computation_rounds",
    "communication_rounds",
    "objective",
    "consensus_x",
    "consensus_delta",
    "goldstein_estimate",
)

_COUNTER_FIELDS = ("samples_total", "computation_rounds", "communication_rounds")


class InvariantViolation(AssertionError):
    """A checked guarantee failed at epoch k, step t.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``; observed is the offending value and bound the
    limit it had to respect.
    """

    def __init__(self, what: str, k: int, t: int, observed, bound):
        super().__init__(f"{what} at ({k}, {t}): observed {observed}, bound {bound}")
        self.k = k
        self.t = t
        self.observed = observed
        self.bound = bound


@dataclass(frozen=True)
class MetricsRecord:
    """One trace row; goldstein_estimate is None when not probed."""

    k: int
    t: int
    samples_total: int
    computation_rounds: int
    communication_rounds: int
    objective: float
    consensus_x: float
    consensus_delta: float
    goldstein_estimate: float | None = None

    def csv_row(self) -> str:
        cells = []
        for f in fields(self):
            v = getattr(self, f.name)
            cells.append("" if v is None else str(v))
        return ",".join(cells)


class MetricsSink:
    """Collects records in memory and/or streams them to a CSV file.

    In streaming mode (keep_in_memory=False) no rows are retained, so
    arbitrarily long traces run in constant memory. The file is flushed
    and closed on close()/context exit/garbage collection; write errors
    propagate to the caller.
    """

    def __init__(self, path: str | None = None, keep_in_memory: bool = True):
        self.records: list[MetricsRecord] = []
        self.keep_in_memory = keep_in_memory
        self._fh: io.TextIOBase | None = None
        self._last_counters: tuple[int, int, int] | None = None
        if path is not None:
            self._fh = open(path, "w", encoding="ascii")
            self._fh.write(",".join(CSV_COLUMNS) + "\n")

    def record(self, rec: MetricsRecord) -> None:
        counters = tuple(getattr(rec, f) for f in _COUNTER_FIELDS)
        last = self._last_counters
        if last is not None and not all(new >= old for new, old in zip(counters, last)):
            raise InvariantViolation("counters regressed", rec.k, rec.t, counters, last)
        self._last_counters = counters
        if not np.isfinite(rec.objective):
            raise InvariantViolation(
                "non-finite objective in metrics record", rec.k, rec.t, rec.objective, "finite"
            )
        if self.keep_in_memory:
            self.records.append(rec)
        if self._fh is not None:
            self._fh.write(rec.csv_row() + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def consensus_errors(x: np.ndarray, delta_half: np.ndarray) -> tuple[float, float]:
    """(mean client distance of x to its mean, max client distance of the
    mixed updates to their mean)."""
    xc = x - x.mean(axis=0, keepdims=True)
    dc = delta_half - delta_half.mean(axis=0, keepdims=True)
    mean_x = float(np.linalg.norm(xc, axis=1).mean())
    max_delta = float(np.linalg.norm(dc, axis=1).max())
    return mean_x, max_delta


PROBE_POLICIES = ("mean_of_clients", "client_0", "all_clients")


@dataclass(frozen=True)
class GoldsteinProbeConfig:
    """Stationarity probe settings.

    radius is the stationarity radius delta (points are perturbed within
    radius/2); num_smoothing_samples is the ball-sample count M;
    probe_point_policy picks which client iterates are probed
    (all_clients reports the worst client).
    """

    radius: float
    num_smoothing_samples: int = 64
    probe_point_policy: str = "all_clients"

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.num_smoothing_samples < 1:
            raise ValueError(
                f"num_smoothing_samples must be >= 1, got {self.num_smoothing_samples}"
            )
        if self.probe_point_policy not in PROBE_POLICIES:
            raise ValueError(
                f"probe_point_policy must be one of {PROBE_POLICIES}, "
                f"got {self.probe_point_policy!r}"
            )


def _ball_points(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(count) ** (1.0 / d)
    return r[:, None] * g


def goldstein_norm_estimate(
    problem, x: np.ndarray, cfg: GoldsteinProbeConfig, rng: np.random.Generator
) -> float:
    """Norm of the averaged full-data subgradient over M uniform draws from
    the ball of radius cfg.radius / 2 around x."""
    u = _ball_points(rng, cfg.num_smoothing_samples, problem.d)
    points = x[None, :] + (cfg.radius / 2.0) * u
    grads = problem.full_subgradients(points)
    return float(np.linalg.norm(grads.mean(axis=0)))


def goldstein_probe(
    problem,
    w: np.ndarray,
    cfg: GoldsteinProbeConfig,
    rng: np.random.Generator,
) -> float:
    """Apply the probe policy to the stacked per-client points w (n, d).

    mean_of_clients probes the client average, client_0 probes client 0,
    all_clients probes every client and reports the worst (largest)
    estimate, matching the per-client flavor of the convergence guarantee.
    """
    if cfg.probe_point_policy == "mean_of_clients":
        return goldstein_norm_estimate(problem, w.mean(axis=0), cfg, rng)
    if cfg.probe_point_policy == "client_0":
        return goldstein_norm_estimate(problem, w[0], cfg, rng)
    return max(goldstein_norm_estimate(problem, w[i], cfg, rng) for i in range(w.shape[0]))
