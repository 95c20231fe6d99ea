"""The per-step norms, means and maxima are the ufunc reductions that
np.linalg.norm and ndarray.mean/max run underneath; each must return
exactly what those calls return, so traces do not move by a single bit.
The one value read in closed form instead, the mixed update norm of the
client-sampled step's check, is held to a relative 1e-13; it reaches no
trace."""

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


def ref_consensus_errors(x, delta_half):
    return float(ref_row_distances(x).mean()), float(ref_row_distances(delta_half).max())


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
    for seed, kind in enumerate(KINDS):
        x = stack(kind, n, d, seed)
        delta_half = stack(kind, n, d, seed + 100)
        assert same(consensus_errors(x, delta_half), ref_consensus_errors(x, delta_half)), kind
        for a in (x, delta_half):
            assert same(_max_row_distance(a), float(ref_row_distances(a).max())), kind


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
    sees it, equals its np.linalg reference computed from the step's own
    snapshot: exactly, but for the mixed update norm, which agrees to a
    relative 1e-13."""
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
            ("mixed-update consensus", float(ref_row_distances(s.delta_half).max())),
            ("mixed update norm", float(np.linalg.norm(s.delta_half, axis=1).max())),
            ("iterate consensus", float(ref_row_distances(s.y).max())),
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
