import math

import numpy as np
import pytest

from gossipopt.gossip import (
    GossipConfig,
    GossipError,
    fast_gossip,
    momentum_coefficient,
    plain_gossip,
    plan_rounds,
)
from gossipopt.topology import build_complete, build_ring, single_client
from gossip_bounds import consensus_sq_error, contraction_bound


def recursion_reference(matrix, rounds, z):
    """The accelerated recursion run round by round, independent of the
    precomputed operator: z^(r+1) = (1 + phi) P z^(r) - phi z^(r-1)."""
    P, phi = matrix.weights, momentum_coefficient(matrix.lambda2)
    prev, cur = z, z.copy()
    for _ in range(rounds):
        prev, cur = cur, (1.0 + phi) * (P @ cur) - phi * prev
    return cur


def test_momentum_coefficient_formula():
    for lam in (0.0, 0.3, 0.5, 0.9, 0.999):
        root = math.sqrt(1 - lam * lam)
        assert momentum_coefficient(lam) == pytest.approx((1 - root) / (1 + root), abs=1e-15)
    assert momentum_coefficient(0.0) == 0.0


def test_config_rejects_negative_rounds_and_given_phi():
    m = build_ring(5, 1)
    with pytest.raises(GossipError, match="rounds must be >= 0, got -1"):
        GossipConfig(m, -1)
    with pytest.raises(TypeError):
        GossipConfig(m, 1, 0.0)


def test_zero_rounds_is_identity():
    m = build_ring(8, 1)
    z = np.random.default_rng(1).standard_normal((8, 5))
    assert np.array_equal(fast_gossip(GossipConfig(m, 0), z), z)
    assert np.array_equal(plain_gossip(m, z, 0), z)


def test_gossip_result_never_aliases_the_input():
    m = build_ring(8, 1)
    z = np.random.default_rng(1).standard_normal((8, 5))
    for r in (0, 1):
        for out in (plain_gossip(m, z, r), fast_gossip(GossipConfig(m, r), z)):
            assert not np.shares_memory(out, z), r


def test_consensus_is_fixed_point():
    m = build_ring(8, 2)
    v = np.random.default_rng(2).standard_normal(5)
    z = np.tile(v, (8, 1))
    for r in (1, 3, 7):
        out = fast_gossip(GossipConfig(m, r), z)
        assert np.allclose(out, z, atol=1e-12)


def test_plain_gossip_one_round_complete_graph_reaches_mean():
    m = build_complete(6)
    z = np.random.default_rng(3).standard_normal((6, 4))
    out = plain_gossip(m, z, 1)
    assert np.allclose(out, z.mean(axis=0, keepdims=True), atol=1e-14)


def test_mean_preservation_both_flavors():
    rng = np.random.default_rng(4)
    m = build_ring(16, 1)
    for r in (1, 2, 5, 9):
        z = rng.standard_normal((16, 7)) * 10
        mean0 = z.mean(axis=0)
        for out in (fast_gossip(GossipConfig(m, r), z), plain_gossip(m, z, r)):
            drift = np.abs(out.mean(axis=0) - mean0)
            assert drift.max() <= 1e-10 * max(1.0, np.abs(mean0).max())


def test_contraction_bound_holds_on_seeded_inputs():
    m = build_ring(16, 1)
    rng = np.random.default_rng(5)
    for r in (1, 2, 4, 8):
        bound = contraction_bound(m.gamma, r)
        cfg = GossipConfig(m, r)
        for _ in range(25):
            z = rng.standard_normal((16, 6))
            before = consensus_sq_error(z)
            after = consensus_sq_error(fast_gossip(cfg, z))
            assert after <= bound * before


def test_plain_gossip_error_nonincreasing_per_round():
    rng = np.random.default_rng(6)
    for m in (build_ring(12, 1), build_ring(16, 3), build_complete(5)):
        for _ in range(34):
            z = rng.standard_normal((m.n, 4))
            errs = [consensus_sq_error(z)]
            for _ in range(5):
                z = plain_gossip(m, z, 1)
                errs.append(consensus_sq_error(z))
            # absolute floor guards the complete graph, where one round hits
            # exact consensus and later errors are pure roundoff
            assert all(b <= a * (1 + 1e-12) + 1e-24 for a, b in zip(errs, errs[1:]))


def test_fast_beats_plain_majority_on_poorly_connected_ring():
    m = build_ring(16, 1)
    rng = np.random.default_rng(7)
    for rounds in (3, 4, 8):
        cfg = GossipConfig(m, rounds)
        wins = 0
        for _ in range(100):
            z = rng.standard_normal((16, 5))
            fast_err = consensus_sq_error(fast_gossip(cfg, z))
            plain_err = consensus_sq_error(plain_gossip(m, z, rounds))
            wins += fast_err <= plain_err
        assert wins > 50


def test_determinism_bitwise():
    m = build_ring(16, 2)
    z = np.random.default_rng(8).standard_normal((16, 9))
    cfg = GossipConfig(m, 6)
    a = fast_gossip(cfg, z)
    b = fast_gossip(cfg, z)
    assert a.tobytes() == b.tobytes()


def test_operator_matches_recursion():
    rng = np.random.default_rng(10)
    for m in (build_ring(16, 1), build_ring(16, 3), build_complete(5)):
        for r in (1, 2, 7, 75, 222):
            z = rng.standard_normal((m.n, 9)) * 10
            gap = np.abs(fast_gossip(GossipConfig(m, r), z) - recursion_reference(m, r, z))
            assert gap.max() <= 1e-12 * np.abs(z).max()


def test_operator_is_read_only():
    cfg = GossipConfig(build_ring(8, 1), 3)
    assert not cfg.operator.flags.writeable
    with pytest.raises(ValueError):
        cfg.operator[0, 0] = 1.0


def test_single_client_mix_is_bitwise_identity():
    # the n = 1 equivalence with the single-machine loop relies on this
    m = single_client()
    z = np.random.default_rng(11).standard_normal((1, 7))
    for r in (0, 1, 2, 7, 75, 222):
        assert fast_gossip(GossipConfig(m, r), z).tobytes() == z.tobytes()


def test_dimension_mismatch_rejected():
    m = build_ring(8, 1)
    with pytest.raises(GossipError, match="shape"):
        fast_gossip(GossipConfig(m, 1), np.zeros((7, 3)))
    with pytest.raises(GossipError, match="shape"):
        plain_gossip(m, np.zeros(8), 1)


# plan_rounds


def test_plan_rounds_matches_high_precision_oracle():
    # frozen from a 50-digit evaluation of the formula:
    # ceil(log(sqrt(14*16*15) * 0.01 / 1e-5) / ((1 - 1/sqrt(2)) * sqrt(0.25)))
    # = ceil(74.89148058730695...) = 75
    assert plan_rounds(0.25, 16, 0.01, 1e-5) == 75


def test_plan_rounds_smallest_reachable_count():
    # n = 2, gamma = 1 and tolerance just below the diameter bring the log
    # argument down to sqrt(28): ceil(log(sqrt(28)) / (1 - 1/sqrt(2))) =
    # ceil(5.688...) = 6, the fewest rounds the public inputs can give
    assert plan_rounds(1.0, 2, 1.0, 1 - 1e-15) == 6


def test_plan_rounds_monotone_in_tolerance():
    r_prev = 0
    tol = 0.005
    for _ in range(6):
        r = plan_rounds(0.5, 16, 0.01, tol)
        assert r >= r_prev
        r_prev = r
        tol /= 2  # halving the tolerance never decreases the round count


def test_plan_rounds_validates_inputs():
    with pytest.raises(GossipError):
        plan_rounds(0.0, 16, 0.01, 1e-5)
    with pytest.raises(GossipError):
        plan_rounds(0.5, 1, 0.01, 1e-5)
    with pytest.raises(GossipError):
        plan_rounds(0.5, 16, -0.01, 1e-5)
    with pytest.raises(GossipError, match="tolerance"):
        plan_rounds(0.5, 16, 0.01, 0.02)


def test_planned_rounds_reach_tolerance_from_worst_case_spread():
    # one client at norm n*D, the rest at zero: the planned round count must
    # push every client within eps' of the mean
    m = build_ring(16, 1)
    n, diameter, tol = 16, 0.01, 1e-4
    r = plan_rounds(m.gamma, n, diameter, tol)
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.standard_normal(8)
        v *= n * diameter / np.linalg.norm(v)
        z = np.zeros((16, 8))
        z[int(rng.integers(16))] = v
        out = fast_gossip(GossipConfig(m, r), z)
        dev = np.linalg.norm(out - out.mean(axis=0, keepdims=True), axis=1).max()
        assert dev <= tol


def test_contraction_bound_frozen_values():
    # gamma = 1, one round: 14 * (1/sqrt(2))^2 = 7 exactly
    assert contraction_bound(1.0, 1) == pytest.approx(7.0, abs=1e-12)
    # gamma = 1/4, two rounds, frozen from a 40-digit evaluation
    assert contraction_bound(0.25, 2) == pytest.approx(7.4310606012293745, rel=1e-14)
