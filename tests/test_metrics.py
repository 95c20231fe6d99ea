import numpy as np
import pytest

from gossipopt.metrics import (
    GoldsteinProbeConfig,
    MetricsRecord,
    MetricsSink,
    _max_row_distance,
    consensus_errors,
    goldstein_norm_estimate,
    goldstein_probe,
)
from gossipopt.oracles import PiecewiseProblem
from gossipopt.rng import stream


def abs_value_problem():
    """f(x) = |x| in one dimension."""
    return PiecewiseProblem.from_arrays(1, [[1.0]], [[0.0]], [[0.0]], [0.0], [0.0])


def linear_problem(c):
    c = np.asarray(c, dtype=float)
    zero = np.zeros_like(c)
    return PiecewiseProblem.from_arrays(1, zero[None, :], c[None, :], c[None, :], [0.0], [0.0])


class _ShiftedQuadratic:
    """f(x) = ||x - center||^2, as a duck-typed probe target."""

    def __init__(self, d, center=None):
        self.d = d
        self.center = np.zeros(d) if center is None else np.asarray(center, dtype=float)

    def full_subgradients(self, X):
        return 2.0 * (X - self.center[None, :])


def test_estimate_exact_for_linear_objective():
    c = np.array([3.0, -4.0])
    p = linear_problem(c)
    for m in (1, 7, 64):
        cfg = GoldsteinProbeConfig(radius=0.5, num_smoothing_samples=m)
        est = goldstein_norm_estimate(p, np.array([0.3, 9.0]), cfg, stream(0, "goldstein", m))
        assert est == pytest.approx(5.0, abs=1e-12)


def test_abs_value_estimate_small_at_kink():
    # mean of 10^4 +-1 signs concentrates near 0 (sd = 0.01)
    p = abs_value_problem()
    cfg = GoldsteinProbeConfig(radius=0.2, num_smoothing_samples=10_000)
    est = goldstein_norm_estimate(p, np.zeros(1), cfg, stream(17, "goldstein", 0))
    assert est <= 0.05


def test_abs_value_estimate_one_sided_ball():
    p = abs_value_problem()
    delta = 0.2
    cfg = GoldsteinProbeConfig(radius=delta, num_smoothing_samples=500)
    est = goldstein_norm_estimate(p, np.array([delta]), cfg, stream(18, "goldstein", 0))
    assert est == 1.0  # every probed point sits strictly right of the kink


def test_estimate_at_quadratic_minimizer_scales_with_radius():
    q = _ShiftedQuadratic(6)
    for radius in (0.4, 0.1, 0.025):
        cfg = GoldsteinProbeConfig(radius=radius, num_smoothing_samples=2000)
        est = goldstein_norm_estimate(q, np.zeros(6), cfg, stream(19, "goldstein", 1))
        assert est <= radius  # smoothing bias is O(radius), tiny at the minimizer


def test_estimate_translation_equivariant_and_constant_invariant():
    base = _ShiftedQuadratic(4)
    a = np.array([0.7, -1.2, 0.0, 3.3])
    shifted = _ShiftedQuadratic(4, center=a)
    x = np.array([0.2, 0.1, -0.5, 1.0])
    cfg = GoldsteinProbeConfig(radius=0.3, num_smoothing_samples=512)
    e1 = goldstein_norm_estimate(base, x, cfg, stream(20, "goldstein", 2))
    e2 = goldstein_norm_estimate(shifted, x + a, cfg, stream(20, "goldstein", 2))
    assert e1 == e2  # matched draws make this exact

    p = PiecewiseProblem.generate(n=1, d=4, samples_per_client=3, seed=6)
    bumped = PiecewiseProblem.from_arrays(1, p.C, p.U, p.V, p.p + 5.0, p.q + 5.0)
    e3 = goldstein_norm_estimate(p, x, cfg, stream(20, "goldstein", 3))
    e4 = goldstein_norm_estimate(bumped, x, cfg, stream(20, "goldstein", 3))
    assert e3 == e4  # adding a constant to f leaves the estimate untouched


def test_probe_policies():
    q = _ShiftedQuadratic(3)
    w = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    cfg_mean = GoldsteinProbeConfig(radius=0.1, num_smoothing_samples=64,
                                    probe_point_policy="mean_of_clients")
    cfg_zero = GoldsteinProbeConfig(radius=0.1, num_smoothing_samples=64,
                                    probe_point_policy="client_0")
    cfg_all = GoldsteinProbeConfig(radius=0.1, num_smoothing_samples=64,
                                   probe_point_policy="all_clients")
    m = goldstein_probe(q, w, cfg_mean, stream(21, "goldstein", 0))
    z = goldstein_probe(q, w, cfg_zero, stream(21, "goldstein", 0))
    a = goldstein_probe(q, w, cfg_all, stream(21, "goldstein", 0))
    assert m == pytest.approx(2.0, abs=0.05)   # gradient at the midpoint
    assert z == pytest.approx(0.0, abs=0.05)   # client 0 sits at the minimizer
    assert a == pytest.approx(4.0, abs=0.1)    # worst client dominates


def test_probe_config_validation():
    with pytest.raises(ValueError):
        GoldsteinProbeConfig(radius=0.0)
    with pytest.raises(ValueError, match="radius must be > 0, got nan"):
        GoldsteinProbeConfig(radius=float("nan"))
    with pytest.raises(ValueError):
        GoldsteinProbeConfig(radius=0.1, num_smoothing_samples=0)
    with pytest.raises(ValueError):
        GoldsteinProbeConfig(radius=0.1, probe_point_policy="median")


def test_consensus_errors_formulas():
    all_equal = np.tile([1.0, 2.0], (5, 1))
    assert consensus_errors(all_equal, all_equal) == (0.0, 0.0)
    v = np.array([3.0, 4.0])
    two = np.stack([v, -v])
    cx, cd = consensus_errors(two, two)
    assert cx == pytest.approx(5.0, abs=1e-12)
    assert cd == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("n", (1, 2, 3, 5, 16))
def test_equal_rows_of_small_integers_give_exact_zeros(n):
    # the centring weights are integers, so every partial sum is exact
    rng = np.random.default_rng(n)
    for d in (1, 7, 123):
        rows = np.tile(rng.integers(-1000, 1000, size=d).astype(float), (n, 1))
        assert consensus_errors(rows, rows) == (0.0, 0.0)
        assert _max_row_distance(rows) == 0.0


def test_consensus_errors_match_scalar_reimplementation(rng):
    x = rng.standard_normal((7, 4))
    dh = rng.standard_normal((7, 4))
    cx, cd = consensus_errors(x, dh)
    xbar = x.mean(axis=0)
    manual_cx = sum(np.sqrt(((x[i] - xbar) ** 2).sum()) for i in range(7)) / 7
    dbar = dh.mean(axis=0)
    manual_cd = max(np.sqrt(((dh[i] - dbar) ** 2).sum()) for i in range(7))
    assert abs(cx - manual_cx) <= 1e-12
    assert abs(cd - manual_cd) <= 1e-12


def _rec(step, gold=None):
    return MetricsRecord(
        k=1, t=step, samples_total=step, computation_rounds=step,
        communication_rounds=4 * step, objective=1.0 / step,
        consensus_x=0.0, consensus_delta=0.0, goldstein_estimate=gold,
    )


def test_sink_writes_header_and_rows(tmp_path):
    path = tmp_path / "trace.csv"
    with MetricsSink(str(path)) as sink:
        sink.record(_rec(1, gold=0.5))
        sink.record(_rec(2))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == (
        "k,t,samples_total,computation_rounds,communication_rounds,"
        "objective,consensus_x,consensus_delta,goldstein_estimate"
    )
    assert lines[1].endswith(",0.5")
    assert lines[2].endswith(",")  # empty cell when not probed
    assert sink.records == []  # a sink with a file keeps no rows in memory


def test_sink_rejects_regressing_counters():
    sink = MetricsSink()
    sink.record(_rec(5))
    with pytest.raises(AssertionError, match="regress"):
        sink.record(_rec(3))


def test_sink_streaming_mode_retains_nothing(tmp_path):
    path = tmp_path / "big.csv"
    with MetricsSink(str(path)) as sink:
        for step in range(1, 100_001):
            sink.record(_rec(step))
        assert sink.records == []
    with open(path) as fh:
        assert sum(1 for _ in fh) == 100_001
    # without a file every row stays in memory
    sink = MetricsSink()
    rows = [_rec(step) for step in range(1, 1001)]
    for rec in rows:
        sink.record(rec)
    assert sink.records == rows


def test_sink_io_errors_surface(tmp_path):
    with pytest.raises(OSError):
        MetricsSink(str(tmp_path / "missing_dir" / "trace.csv"))
