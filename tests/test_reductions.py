"""The per-step norms, means and maxima. The consensus numbers follow one
documented formula: K = n I - 1 1^T, the row sums of squares of K @ a,
and the division by n on the final scalars; within one TRACE_FORMAT each
must equal that formula, written here in plain numpy, bit for bit, so
traces repeat bit for bit within a format. They agree with the np.linalg form,
norm(a - a.mean(axis=0), axis=1), to 64 n eps of the largest row norm, and
overflow at rows n times smaller than it does. The clipped update and the
direction draws still return exactly what np.linalg gives. The one value
read in closed form, the mixed update norm of the client-sampled step's
check, is held to a relative 1e-13; it reaches no trace."""

import numpy as np
import pytest

from gossipopt import core
from gossipopt.core import inner_update, plan_parameters, run_docs
from gossipopt.metrics import _max_row_distance, consensus_errors
from gossipopt.oracles import PiecewiseProblem
from gossipopt.rng import ball, sphere
from gossipopt.topology import build_ring

# the huge stacks overflow on purpose, in the reference as in the reductions
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def ref_row_distances(a):
    return np.linalg.norm(a - a.mean(axis=0, keepdims=True), axis=1)


def ref_linalg_consensus_errors(x, delta_half):
    return float(ref_row_distances(x).mean()), float(ref_row_distances(delta_half).max())


def ref_centred_sq_norms(a):
    """Row sums of squares of K @ a, K = n I - 1 1^T: n^2 times the squared
    row distances to the mean."""
    n = a.shape[0]
    c = (n * np.eye(n) - np.ones((n, n))) @ a
    return np.array([row.dot(row) for row in c])


def ref_max_row_distance(a):
    return float(np.sqrt(ref_centred_sq_norms(a)).max()) / a.shape[0]


def ref_consensus_errors(x, delta_half):
    n = x.shape[0]
    return float(np.sqrt(ref_centred_sq_norms(x)).sum()) / (n * n), ref_max_row_distance(delta_half)


def linalg_bound(a):
    """How far the formula may stray from the np.linalg form on the stack a."""
    n = a.shape[0]
    return 64 * n * np.finfo(float).eps * float(np.linalg.norm(a, axis=1).max())


def ref_inner_update(delta_half, g, eta, D, n):
    v = delta_half - eta * g
    norm = float(np.linalg.norm(v))
    return n * v if norm <= D else (n * D / norm) * v


def stack(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    if kind == "zero_row":
        a[0] = 0.0
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "huge":
        # the squares of these entries, and of most of their sums, overflow
        a *= 1e154
    elif kind == "huge_positive":
        a = 1e154 * (2.0 + rng.random((n, d)))
    return a


KINDS = ("gaussian", "zero_row", "zero", "huge", "huge_positive")
SHAPES = [(n, d) for n in (1, 2, 16) for d in (1, 123)]


def same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("n,d", SHAPES)
def test_consensus_reductions_match_linalg_bitwise(n, d):
    """Bit for bit the documented formula, on every kind and shape, the
    overflowing ones included."""
    for seed, kind in enumerate(KINDS):
        x = stack(kind, n, d, seed)
        delta_half = stack(kind, n, d, seed + 100)
        assert same(consensus_errors(x, delta_half), ref_consensus_errors(x, delta_half)), kind
        for a in (x, delta_half):
            assert same(_max_row_distance(a), ref_max_row_distance(a)), kind


@pytest.mark.parametrize("n,d", SHAPES)
def test_consensus_reductions_agree_with_linalg(n, d):
    for seed, kind in enumerate(KINDS[:3]):  # the huge kinds overflow
        x = stack(kind, n, d, seed)
        delta_half = stack(kind, n, d, seed + 100)
        got = consensus_errors(x, delta_half)
        want = ref_linalg_consensus_errors(x, delta_half)
        assert abs(got[0] - want[0]) <= linalg_bound(x), kind
        assert abs(got[1] - want[1]) <= linalg_bound(delta_half), kind


@pytest.mark.parametrize("n", (2, 16))
def test_consensus_overflow_threshold_is_n_times_lower(n):
    """The formula squares n (a_j - mean), so a row at distance r from the
    mean overflows once n r passes sqrt(max float); np.linalg's form
    overflows only once r does."""
    root = np.sqrt(np.finfo(float).max)
    a = np.zeros((n, 1))
    for r, overflows in ((0.7 * root, True), (0.7 * root / n, False)):
        a[0], a[1] = r, -r  # mean 0, so rows 0 and 1 lie r from it
        assert np.isfinite(ref_row_distances(a).max())
        got = _max_row_distance(a)
        assert got == np.inf if overflows else got == pytest.approx(r, rel=1e-15)


@pytest.mark.parametrize("n,d", SHAPES)
def test_inner_update_matches_linalg_bitwise(n, d):
    for seed, kind in enumerate(KINDS):
        a = stack(kind, n, d, seed)
        delta_half, g = a[0], a[-1]
        # D above and below |v| exercises both branches
        for D in (1e-3, 1.0, 1e300):
            got = inner_update(delta_half, g, 0.5, D, n)
            assert same(got, ref_inner_update(delta_half, g, 0.5, D, n)), (kind, D)


@pytest.mark.parametrize("d", (1, 123))
def test_sphere_matches_linalg_bitwise(d):
    for seed in range(50):
        for count in (1, 16):
            g = np.random.default_rng(seed).standard_normal((count, d))
            want = g / np.linalg.norm(g, axis=1, keepdims=True)
            assert same(sphere(np.random.default_rng(seed), count, d), want)


def ref_ball_points(rng, count, d):
    """The stationarity probe's former ball sampler, verbatim."""
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(count) ** (1.0 / d)
    return r[:, None] * g


@pytest.mark.parametrize("d", (1, 2, 123))
def test_ball_matches_former_probe_sampler_bitwise(d):
    for seed in range(20):
        for count in (1, 16, 1024):
            got = ball(np.random.default_rng(seed), count, d)
            assert same(got, ref_ball_points(np.random.default_rng(seed), count, d))


def test_step_checks_observe_the_linalg_values(monkeypatch):
    """Every value the client-sampled step checks, recorded as the check
    sees it, equals its reference computed from the step's own snapshot:
    the clipped update norm np.linalg's exactly, the two consensus values
    the documented formula's exactly, and the mixed update norm np.linalg's
    to a relative 1e-13. At the planner's R the mixed-update consensus
    error is itself roundoff, about 7e-20, where the formula and np.linalg
    part in the second digit; the test below compares them where the
    errors carry signal."""
    n, d = 8, 12
    problem = PiecewiseProblem.generate(n=n, d=d, samples_per_client=3, seed=5)
    matrix = build_ring(n, 1)
    plan = plan_parameters(
        0.4, 0.9, n, d, matrix.gamma, problem.lipschitz, problem.lipschitz,
        "first", seed=3, K=2, T=30,
    )
    assert plan.consensus_guaranteed
    seen = []
    require = core._require

    def recording_require(what, observed, bound, k, t, **kw):
        seen.append((what, observed))
        require(what, observed, bound, k, t, **kw)

    monkeypatch.setattr(core, "_require", recording_require)

    def observer(s):
        want = [
            ("clipped update norm", float(np.linalg.norm(s.delta_pre_mix[s.active_client]))),
            ("mixed-update consensus", ref_max_row_distance(s.delta_half)),
            ("mixed update norm", float(np.linalg.norm(s.delta_half, axis=1).max())),
            ("iterate consensus", ref_max_row_distance(s.y)),
        ]
        assert [what for what, _ in seen] == [what for what, _ in want]
        for (what, got), (_, value) in zip(seen, want):
            if what == "mixed update norm":
                # read in closed form, reach[i] * |upd|, from the one
                # nonzero pre-mix row; the stack's rows are rounded
                # products M_R[j, i] * upd, so it agrees to rounding only
                assert got == pytest.approx(value, rel=1e-13, abs=0.0), what
            else:
                assert got == value, what
        seen.clear()
        steps.append(s.t)

    steps = []
    run_docs(plan, problem, matrix, step_observer=observer)
    assert len(steps) == plan.K * plan.T


@pytest.mark.parametrize("n,d", [(8, 5), (16, 123)])
def test_consensus_values_above_roundoff_agree_with_linalg(n, d):
    """At R = 2 the mixed updates and iterates are far from consensus, so
    the values the checks and trace rows read carry signal; each agrees
    with np.linalg within 64 n eps of the largest row norm."""
    problem = PiecewiseProblem.generate(n=n, d=d, samples_per_client=3, seed=n)
    matrix = build_ring(n, 1)
    plan = plan_parameters(
        0.4, 0.9, n, d, matrix.gamma, problem.lipschitz, problem.lipschitz,
        "first", seed=1, K=2, T=20, R=2,
    )
    signal = []

    def observer(s):
        got = consensus_errors(s.x, s.delta_half)
        want = ref_linalg_consensus_errors(s.x, s.delta_half)
        assert abs(got[0] - want[0]) <= linalg_bound(s.x)
        assert abs(got[1] - want[1]) <= linalg_bound(s.delta_half)
        y_dist = float(ref_row_distances(s.y).max())
        assert abs(_max_row_distance(s.y) - y_dist) <= linalg_bound(s.y)
        signal.append((s.k, min(*want, y_dist)))

    run_docs(plan, problem, matrix, step_observer=observer)
    assert len(signal) == plan.K * plan.T
    # x and y start at consensus; by the second epoch no value is roundoff
    assert min(value for k, value in signal if k == 2) > 1e-5
