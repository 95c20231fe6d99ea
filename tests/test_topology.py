import numpy as np
import pytest

from gossipopt.topology import (
    TopologyError,
    build_complete,
    build_ring,
    from_weights,
    load_weights_file,
    single_client,
)


def eig_oracle_lambda2(weights):
    """Dense symmetric eigendecomposition, independent of the constructor."""
    vals = np.sort(np.linalg.eigvalsh(weights))
    return vals[-2]


def test_ring_4_matches_circulant_eigenvalues():
    m = build_ring(4, 1)
    assert m.weights[0, 0] == 0.5
    assert m.weights[0, 1] == 0.25
    # circulant eigenvalues 1/2 + (1/2) cos(2 pi k / 4)
    expected = sorted(0.5 + 0.5 * np.cos(2 * np.pi * k / 4) for k in range(4))
    assert np.allclose(np.sort(np.linalg.eigvalsh(m.weights)), expected, atol=1e-12)
    assert m.lambda2 == pytest.approx(0.5, abs=1e-12)
    assert m.gamma == pytest.approx(0.5, abs=1e-12)


def test_ring_16_gamma_matches_eig_oracle():
    m = build_ring(16, 1)
    assert m.gamma == pytest.approx(1.0 - eig_oracle_lambda2(m.weights), abs=1e-10)


def test_complete_graph_properties():
    for n in (2, 5, 8):
        m = build_complete(n)
        assert np.allclose(m.weights, 1.0 / n)
        assert m.lambda2 == pytest.approx(0.0, abs=1e-12)
        assert m.gamma == 1.0
    # averaging identity: P v has all coordinates equal to mean(v)
    m = build_complete(6)
    v = np.random.default_rng(0).standard_normal(6)
    assert np.allclose(m.weights @ v, v.mean(), atol=1e-14)


def test_complete_n3_is_rank_one_averaging():
    m = build_complete(3)
    assert np.allclose(m.weights, np.full((3, 3), 1 / 3))
    assert m.gamma == 1.0


@pytest.mark.parametrize("n,k", [(4, 1), (16, 1), (16, 2), (16, 4), (9, 3), (31, 5)])
def test_mixing_matrix_invariants(n, k):
    m = build_ring(n, k)
    ones = np.ones(n)
    assert np.abs(m.weights @ ones - ones).max() <= 1e-12
    assert np.abs(m.weights - m.weights.T).max() <= 1e-12
    assert m.weights.min() >= 0.0
    eigs = np.linalg.eigvalsh(m.weights)
    assert eigs[0] >= -1e-10
    assert eigs[-1] <= 1.0 + 1e-10
    assert m.gamma == 1.0 - m.lambda2
    assert 0.0 < m.gamma <= 1.0


def test_ring_sparsity_pattern():
    m = build_ring(16, 2)
    for i in range(16):
        for j in range(16):
            ring_dist = min((i - j) % 16, (j - i) % 16)
            if ring_dist == 0 or ring_dist <= 2:
                assert m.weights[i, j] > 0
            else:
                assert m.weights[i, j] == 0.0


def test_gamma_monotone_in_connectivity():
    gammas = [build_ring(16, k).gamma for k in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_identity_rejected_as_disconnected():
    with pytest.raises(TopologyError, match="disconnected"):
        from_weights(np.eye(3))


def test_row_sum_error_names_row():
    w = np.full((3, 3), 1 / 3)
    w[1, 1] -= 0.1
    with pytest.raises(TopologyError, match="row 1"):
        from_weights(w)


def test_asymmetry_and_negativity_rejected():
    w = np.full((3, 3), 1 / 3)
    w[0, 1] += 1e-6
    with pytest.raises(TopologyError, match="not symmetric"):
        from_weights(w)
    w2 = np.array([[1.2, -0.2], [-0.2, 1.2]])
    with pytest.raises(TopologyError, match="negative weight"):
        from_weights(w2)


def test_eigenvalue_range_rejected():
    # symmetric doubly stochastic but with eigenvalue -1 (swap matrix)
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(TopologyError, match="eigenvalue"):
        from_weights(w)


def test_ring_round_trips_through_from_weights():
    m = build_ring(4, 1)
    again = from_weights(m.weights)
    assert np.array_equal(m.weights, again.weights)
    assert m.lambda2 == again.lambda2
    assert m.gamma == again.gamma


def test_dimension_violations_name_parameter():
    with pytest.raises(TopologyError, match="n >= 3"):
        build_ring(2, 1)
    with pytest.raises(TopologyError, match="neighbors_per_side"):
        build_ring(5, 0)
    with pytest.raises(TopologyError, match="neighbors_per_side = 3"):
        build_ring(5, 3)
    with pytest.raises(TopologyError, match="n >= 2"):
        build_complete(1)


def test_single_client_network():
    m = single_client()
    assert m.n == 1 and m.gamma == 1.0 and m.lambda2 == 0.0


def test_load_weights_file(tmp_path):
    m = build_ring(5, 1)
    path = tmp_path / "w.txt"
    np.savetxt(path, m.weights)
    loaded = load_weights_file(str(path))
    assert np.allclose(loaded.weights, m.weights, atol=1e-15)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0.5\n0.4 0.6\n")
    with pytest.raises(TopologyError):
        load_weights_file(str(bad))


def test_determinism_across_constructions():
    a, b = build_ring(16, 3), build_ring(16, 3)
    assert np.array_equal(a.weights, b.weights)
    assert a.lambda2 == b.lambda2


def test_weights_are_immutable():
    m = build_ring(4, 1)
    with pytest.raises(ValueError):
        m.weights[0, 0] = 0.9
