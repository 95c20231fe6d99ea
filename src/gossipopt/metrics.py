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

import functools
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .rng import ball

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


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


class MetricsSink:
    """Streams records to a CSV file, or keeps them in memory when there is
    no file.

    A file sink retains no rows, so arbitrarily long traces run in constant
    memory. The file is flushed and closed on close()/context exit/garbage
    collection; write errors propagate to the caller.
    """

    def __init__(self, path: str | None = None):
        self.records: list[MetricsRecord] = []
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
        if self._fh is None:
            self.records.append(rec)
        else:
            self._fh.write(rec.csv_row() + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()  # idempotent; a later record() raises

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# Every consensus number, of the step checks and of trace rows, is bit for bit
# one formula within a TRACE_FORMAT: row j of K @ a, with the integer K =
# n I - 1 1^T, is n (a_j - mean), exactly 0 for equal rows of small integers;
# one vecdot sums its squares, and the final scalars are divided by n. It is
# np.linalg's value to 64 n eps max_j |a_j|, but overflows at n times smaller rows.


@functools.cache
def _centring(n: int) -> np.ndarray:
    k = n * np.eye(n) - 1.0  # K, read-only since every caller shares it
    k.setflags(write=False)
    return k


def _row_sq_distances(a: np.ndarray) -> np.ndarray:
    """n^2 times each row's squared distance to the mean of the (n, d) stack a."""
    c = _centring(a.shape[0]).dot(a)  # K @ a, with less dispatch than @
    return np.vecdot(c, c)


def _max_row_distance(a: np.ndarray) -> float:
    """Largest row distance to the mean of the (n, d) stack a (sqrt is monotone)."""
    return math.sqrt(np.maximum.reduce(_row_sq_distances(a))) / a.shape[0]


def consensus_errors(x: np.ndarray, delta_half: np.ndarray) -> tuple[float, float]:
    """(mean client distance of x to its mean, max client distance of the
    mixed updates to their mean)."""
    mean_x = float(np.add.reduce(np.sqrt(_row_sq_distances(x)))) / x.shape[0] ** 2
    return mean_x, _max_row_distance(delta_half)


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
        if not self.radius > 0:  # written so that NaN fails
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


def goldstein_norm_estimate(
    problem, x: np.ndarray, cfg: GoldsteinProbeConfig, rng: np.random.Generator
) -> float:
    """Norm of the averaged full-data subgradient over M uniform draws from
    the ball of radius cfg.radius / 2 around x."""
    u = ball(rng, cfg.num_smoothing_samples, problem.d)
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
