import math

import numpy as np
import pytest

from gossipopt.oracles import (
    CappedHingeSvmProblem,
    DataSample,
    LibsvmParseError,
    OracleError,
    PiecewiseProblem,
    first_order_estimator,
    load_libsvm,
    serialize_libsvm,
    shard,
    subsample,
    write_synthetic_libsvm,
    zeroth_order_estimator,
)
from gossipopt.rng import stream
from mc_smoothing import mc_smoothed_gradient
from quadrature_smoothing import smoothed_gradient
from text_forms import parse_libsvm_lines


def make_svm(rng, n=2, per_client=3, d=6, lam=1e-3, alpha=2.0):
    shards = []
    for _ in range(n):
        rows = []
        for _ in range(per_client):
            dense = rng.standard_normal(d)
            idx = np.where(np.abs(dense) > 0.2)[0]
            if len(idx) == 0:
                idx = np.array([0])
            rows.append(
                DataSample(
                    indices=idx.astype(np.int64),
                    values=dense[idx],
                    label=int(rng.choice([-1, 1])),
                )
            )
        shards.append(rows)
    return CappedHingeSvmProblem.from_shards(shards, d, lam=lam, alpha=alpha)


def linear_problem(c):
    """F(x) = c'x realized as max of two identical affine pieces."""
    c = np.asarray(c, dtype=float)
    zero = np.zeros_like(c)
    return PiecewiseProblem.from_arrays(1, zero[None, :], c[None, :], c[None, :], [0.0], [0.0])


# -- SVM local losses ---------------------------------------------------------


def test_svm_value_at_origin_is_one(rng):
    p = make_svm(rng)
    x = np.zeros(p.d)
    for j in range(p.shard_size(0)):
        assert p.sample_value(0, j, x) == pytest.approx(1.0, abs=0)


def test_svm_value_capped_region():
    d = 5
    sample = DataSample(indices=np.arange(d), values=np.full(d, 2.0), label=1)
    other = DataSample(indices=np.array([0]), values=np.array([1.0]), label=-1)
    p = CappedHingeSvmProblem.from_shards([[sample], [other]], d, lam=1e-5, alpha=2.0)
    x = (p.alpha + 1.0) * np.ones(d)  # margin = 2 d (alpha + 1) = 30 > 1, cap active
    assert p.sample_value(0, 0, x) == pytest.approx(p.lam * d * p.alpha, rel=1e-15)


def test_svm_value_matches_high_precision_scalar_reimplementation(rng):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p = make_svm(rng, d=8)
    for _ in range(20):
        x = rng.standard_normal(8)
        i = int(rng.integers(p.n))
        j = int(rng.integers(p.shard_size(i)))
        row = p.slices[i].start + j
        a, b = p.labels[row] * p.signed[row], p.labels[row]
        margin = mp.mpf(0)
        for k in range(8):
            margin += mp.mpf(a[k]) * mp.mpf(x[k])
        val = max(1 - mp.mpf(b) * margin, mp.mpf(0))
        for k in range(8):
            val += mp.mpf(p.lam) * min(abs(mp.mpf(x[k])), mp.mpf(p.alpha))
        assert p.sample_value(i, j, x) == pytest.approx(float(val), rel=1e-12)


def test_svm_subgradient_flat_region(rng):
    p = make_svm(rng, lam=1e-3, alpha=0.5)
    i, j = 0, 0
    row = p.slices[i].start + j
    a, b = p.labels[row] * p.signed[row], p.labels[row]
    # pick x whose coordinates all exceed the cap and whose margin is > 1
    x = np.sign(b * a + (a == 0)) * (p.alpha + 1.0)
    if b * float(a @ x) <= 1.0:
        x = 10.0 * x
    assert b * float(a @ x) > 1.0
    assert np.array_equal(p.sample_subgradient(i, j, x), np.zeros(p.d))


def test_svm_subgradient_at_origin_uses_stated_tie_breaks(rng):
    p = make_svm(rng)
    x = np.zeros(p.d)
    for j in range(p.shard_size(1)):
        row = p.slices[1].start + j
        a = p.labels[row] * p.signed[row]
        expected = -p.labels[row] * a  # sign(0) = 0 kills the penalty
        assert np.array_equal(p.sample_subgradient(1, j, x), expected)


def test_svm_subgradient_matches_central_differences(rng):
    p = make_svm(rng, d=7, lam=1e-2, alpha=1.5)
    h = 1e-6
    checked = 0
    while checked < 20:
        x = rng.standard_normal(7)
        i = int(rng.integers(p.n))
        j = int(rng.integers(p.shard_size(i)))
        row = p.slices[i].start + j
        a, b = p.labels[row] * p.signed[row], p.labels[row]
        margin = b * float(a @ x)
        # stay away from the kinks so the loss is differentiable at x
        if abs(margin - 1.0) < 1e-3 or np.any(np.abs(np.abs(x) - p.alpha) < 1e-3):
            continue
        if np.any(np.abs(x) < 1e-3):
            continue
        g = p.sample_subgradient(i, j, x)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        fd = (p.sample_value(i, j, x + h * v) - p.sample_value(i, j, x - h * v)) / (2 * h)
        assert fd == pytest.approx(float(g @ v), abs=1e-7)
        checked += 1


def test_svm_full_subgradients_average_the_sample_subgradients(rng):
    d, alpha = 6, 0.5
    tied = DataSample(indices=np.array([0, 2]), values=np.array([2.0, 0.5]), label=-1)
    dense = [
        DataSample(indices=np.arange(d), values=rng.standard_normal(d), label=label)
        for label in (1, -1, 1)
    ]
    p = CappedHingeSvmProblem.from_shards([[tied, dense[0]], dense[1:]], d, lam=1e-2, alpha=alpha)
    edge = np.zeros(d)
    edge[0] = -0.5  # the tied sample's margin is exactly 1: the hinge is active
    edge[1] = alpha  # on the cap the penalty is flat
    edge[3] = -alpha
    assert p.labels[0] * float((p.labels[0] * p.signed[0]) @ edge) == 1.0
    X = np.vstack([edge, np.zeros(d), rng.standard_normal((5, d))])
    m = p.signed.shape[0]
    for x, g in zip(X, p.full_subgradients(X)):
        rows = [p.sample_subgradient(i, j, x) for i in range(p.n) for j in range(p.shard_size(i))]
        assert len(rows) == m
        assert np.allclose(g, np.mean(rows, axis=0), rtol=0, atol=1e-15)


def dense_reference_subgradients(p, X):
    """The mean subgradient at each row of X from the raw rows a_s and
    labels b_s, with two dense products and no chunking."""
    a = p.labels[:, None] * p.signed
    margins = (X @ a.T) * p.labels
    coef = -((margins <= 1.0) * p.labels)
    return coef @ a / a.shape[0] + p.lam * np.sign(X) * (np.abs(X) < p.alpha)


def test_svm_full_subgradients_match_dense_reference(rng):
    d, alpha, m = 6, 0.5, 8000
    # margin exactly 1 at `edge` in any summation order: -1 * (2 * -0.5)
    tied = DataSample(indices=np.array([0, 2]), values=np.array([2.0, 0.5]), label=-1)
    samples = [tied]
    for _ in range(m - 1):
        idx = np.sort(rng.choice(d, size=3, replace=False)).astype(np.int64)
        samples.append(DataSample(idx, rng.standard_normal(3), int(rng.choice([-1, 1]))))
    p = CappedHingeSvmProblem.from_shards(
        [samples[c::4] for c in range(4)], d, lam=1e-2, alpha=alpha
    )
    edge = np.zeros(d)
    edge[0] = -0.5
    edge[1] = alpha  # on the cap the penalty is flat
    edge[3] = -alpha
    assert p.labels[0] * float((p.labels[0] * p.signed[0]) @ edge) == 1.0
    # the kernel takes the (q, m) margins in chunks of at most this many rows,
    # so chunk + 1 points make its first two-chunk probe
    chunk = 1_000_000 // m
    for q in (1, chunk, chunk + 1):
        X = np.vstack([edge, 2.0 * rng.standard_normal((q - 1, d))])
        got = p.full_subgradients(X)
        want = dense_reference_subgradients(p, X)
        # the summation order over the m rows may differ between the two
        # products, so allow m roundings of the largest term
        tol = m * np.finfo(float).eps * np.abs(p.signed).max()
        assert got.shape == want.shape == (q, d)
        assert np.allclose(got, want, rtol=0, atol=tol), q


def test_svm_index_errors():
    sample = DataSample(indices=np.array([0]), values=np.array([1.0]), label=1)
    p = CappedHingeSvmProblem.from_shards([[sample]], 3, lam=0.1)
    with pytest.raises(OracleError):
        p.sample_value(1, 0, np.zeros(3))
    with pytest.raises(OracleError):
        p.sample_subgradient(0, 5, np.zeros(3))


def test_shards_must_be_balanced_and_nonempty():
    s = DataSample(indices=np.array([0]), values=np.array([1.0]), label=1)
    with pytest.raises(OracleError):
        CappedHingeSvmProblem.from_shards([[s, s, s], [s]], 3)
    with pytest.raises(OracleError):
        CappedHingeSvmProblem.from_shards([[s], []], 3)


# -- LIBSVM parsing -----------------------------------------------------------


def test_parse_basic_line():
    (s,) = parse_libsvm_lines("+1 3:0.5 7:1.0", d_hint=10)
    assert s.label == 1
    assert np.array_equal(s.indices, [2, 6])
    assert np.array_equal(s.values, [0.5, 1.0])


def test_parse_label_only_line_is_all_zero_sample():
    (s,) = parse_libsvm_lines("-1", d_hint=4)
    assert s.label == -1 and len(s.indices) == 0


def test_parse_zero_one_label_convention():
    a, b = parse_libsvm_lines("0 1:2.0\n1 1:2.0", d_hint=2)
    assert a.label == -1 and b.label == 1


# (line, 1-based column of the rejected token, message fragment)
REJECTIONS = [
    ("+2 1:1.0", 1, "label"),
    ("abc", 1, "label"),
    ("+1 0:1.0", 4, "index must be >= 1"),
    ("+1 9:1.0", 4, "exceeds dimension"),
    ("+1 2:1.0 2:3.0", 10, "strictly increasing"),
    ("+1 3:1.0 2:3.0", 10, "strictly increasing"),
    ("+1 2:xyz", 4, "not a number"),
    ("+1 2:nan", 4, "finite"),
    ("+1 2-3", 4, "malformed feature"),
    ("+1 :4", 4, "malformed feature"),
    ("+1 1:1:2", 4, "malformed feature"),
    ("+1 1:", 4, "malformed feature"),
    ("1 +1:3", 3, "malformed feature"),
    ("+1 1:1e400", 4, "finite"),
    ("  +1   2:1.0   2:1.0", 16, "strictly increasing"),
    ("\t-1\t3:x", 5, "not a number"),
]


# each id reads <line>-<line number>-<fragment>; every case is on line 1
@pytest.mark.parametrize(
    "line,column,fragment",
    [pytest.param(*case, id=f"{case[0]}-1-{case[2]}") for case in REJECTIONS],
)
def test_parse_rejections(line, column, fragment):
    with pytest.raises(LibsvmParseError, match=fragment) as info:
        parse_libsvm_lines(line, d_hint=5)
    assert info.value.line == 1
    assert info.value.column == column


def test_parse_error_reports_correct_line_number():
    text = "+1 1:1\n-1 2:1\n+1 bad\n-1 1:1"
    with pytest.raises(LibsvmParseError) as info:
        parse_libsvm_lines(text, d_hint=5)
    assert info.value.line == 3
    assert info.value.column == 4


def test_round_trip_fixpoint(tmp_path, rng):
    samples = []
    for _ in range(50):
        k = int(rng.integers(0, 6))
        idx = np.sort(rng.choice(12, size=k, replace=False)).astype(np.int64)
        vals = np.round(rng.standard_normal(k), 6)
        vals[vals == 0] = 1.0
        samples.append(DataSample(indices=idx, values=vals, label=int(rng.choice([-1, 1]))))
    text1 = serialize_libsvm(samples)
    parsed = parse_libsvm_lines(text1, d_hint=12)
    assert parsed == samples
    text2 = serialize_libsvm(parsed)
    assert text2 == text1


def test_crlf_file_parses_like_its_text(tmp_path):
    text = "+1 1:0.5 3:2\r\n\r\n-1\r\n0 2:1e-3\r\n"
    path = tmp_path / "crlf.libsvm"
    path.write_bytes(text.encode("ascii"))
    data = load_libsvm(str(path), 3)
    assert len(data) == 3
    assert data == parse_libsvm_lines(text, 3)

    # only line ends split lines: \x0b, \x0c and \x1c, which str.splitlines()
    # also breaks at, stay inside the line in a file and in text alike
    def parse(read):
        try:
            return read()
        except LibsvmParseError as exc:
            return str(exc), exc.line, exc.column

    # (text, samples parsed, or the (message, line, column) of its rejection)
    odd = [
        ("+1 1:0.5\r-1 2:1\r\r0\r", 3),
        ("+1 1:1\x0b 2:1\n", 1),
        ("-1 1:1\x1c2:1\n+1\n", 2),
        ("0\x0c 1:1 1:2\n",
         ("line 1, column 8: feature index 1 not strictly increasing", 1, 8)),
        ("+1 1:1\r\n-1 3:1\r\x0c-1 2:x\n",
         ("line 3, column 5: feature value 'x' is not a number", 3, 5)),
    ]
    for text, want in odd:
        path.write_bytes(text.encode("ascii"))
        from_file = parse(lambda: load_libsvm(str(path), 3))
        assert from_file == parse(lambda: parse_libsvm_lines(text, 3)), text
        assert (len(from_file) if isinstance(want, int) else from_file) == want, text


def test_synthetic_dataset_round_trips(tmp_path):
    path = tmp_path / "synth.libsvm"
    write_synthetic_libsvm(str(path), m=200, d=30, seed=5)
    data = load_libsvm(str(path), 30)
    assert len(data) == 200
    assert {s.label for s in data} == {-1, 1}
    text = serialize_libsvm(data)
    assert text == path.read_text(encoding="ascii")


# -- sharding -----------------------------------------------------------------


def _dummy_samples(count):
    return [
        DataSample(indices=np.array([0]), values=np.array([float(i)]), label=1)
        for i in range(count)
    ]


def test_shard_sizes():
    assert [len(s) for s in shard(_dummy_samples(10), 2, seed=0)] == [5, 5]
    assert [len(s) for s in shard(_dummy_samples(10), 3, seed=0)] == [4, 3, 3]


def test_shard_deterministic_and_partitioning():
    data = _dummy_samples(17)
    a = shard(data, 4, seed=9)
    b = shard(data, 4, seed=9)
    flat_a = [s.values[0] for part in a for s in part]
    flat_b = [s.values[0] for part in b for s in part]
    assert flat_a == flat_b
    assert sorted(flat_a) == [float(i) for i in range(17)]
    c = shard(data, 4, seed=10)
    assert [s.values[0] for part in c for s in part] != flat_a


def test_shard_too_many_clients():
    with pytest.raises(OracleError):
        shard(_dummy_samples(3), 4, seed=0)


def test_subsample_deterministic():
    data = _dummy_samples(100)
    a = subsample(data, 40, seed=3)
    b = subsample(data, 40, seed=3)
    assert [s.values[0] for s in a] == [s.values[0] for s in b]
    assert len(a) == 40
    assert subsample(data, 200, seed=3) == data


# -- estimators ---------------------------------------------------------------


def test_first_order_mu_zero_equals_subgradient_of_drawn_sample(rng):
    p = make_svm(rng, d=5)
    w = rng.standard_normal(5)
    rng_xi = stream(77, "xi", 1, 1)
    rng_z = stream(77, "z", 1, 1)
    out = first_order_estimator(p, 0, w, 0.0, rng_xi, rng_z)
    j = int(stream(77, "xi", 1, 1).integers(p.shard_size(0)))
    assert np.array_equal(out.g, p.sample_subgradient(0, j, w))
    assert out.oracle_calls_charged == 1 and out.function_evals == 0


def test_first_order_linear_function_returns_constant_gradient(rng):
    c = np.array([1.5, -2.0, 0.25])
    p = linear_problem(c)
    rng_xi = stream(3, "xi", 1, 1)
    rng_z = stream(3, "z", 1, 1)
    for _ in range(50):
        w = rng.standard_normal(3)
        out = first_order_estimator(p, 0, w, 0.3, rng_xi, rng_z)
        assert np.array_equal(out.g, c)


def test_zeroth_order_linear_identity_and_unbiasedness(rng):
    c = np.array([0.8, -0.4, 1.1, 0.0])
    p = linear_problem(c)
    w = np.zeros(4)
    rng_xi = stream(4, "xi", 1, 1)
    rng_z = stream(4, "z", 1, 1)
    draws = 100_000
    acc = np.zeros(4)
    for _ in range(draws):
        out = zeroth_order_estimator(p, 0, w, 0.2, rng_xi, rng_z)
        acc += out.g
    mean = acc / draws
    # E[g] = d E[z z'] c = c since E[z z'] = I / d on the sphere
    se = np.sqrt(4 * float(c @ c) / draws)  # ||g|| <= sqrt(d)||c|| gives a crude scale
    assert np.abs(mean - c).max() <= 3 * se


def test_zeroth_order_rejects_nonpositive_mu(rng):
    p = linear_problem(np.ones(3))
    with pytest.raises(OracleError):
        zeroth_order_estimator(p, 0, np.zeros(3), 0.0, stream(0, "xi", 1, 1), stream(0, "z", 1, 1))


def test_first_order_unbiased_for_smoothed_client_objective():
    p = PiecewiseProblem.generate(n=2, d=8, samples_per_client=4, seed=11)
    w = stream(99, "datagen", 5).standard_normal(8) * 0.3
    mu = 0.15
    draws = 100_000
    rng_xi = stream(21, "xi", 1, 1)
    rng_z = stream(21, "z", 1, 1)
    acc = np.zeros(8)
    sq = np.zeros(8)
    for _ in range(draws):
        g = first_order_estimator(p, 0, w, mu, rng_xi, rng_z).g
        acc += g
        sq += g * g
    mean = acc / draws
    est_se = np.sqrt(np.maximum(sq / draws - mean**2, 0.0) / draws)
    oracle, oracle_se = mc_smoothed_gradient(p, 0, w, mu, 1_000_000, stream(22, "goldstein", 9))
    tol = 3 * np.sqrt(est_se**2 + oracle_se**2)
    assert np.all(np.abs(mean - oracle) <= tol)


def test_zeroth_order_segment_trick_unbiasedness():
    # w sampled on the segment x + s * step with a fixed s draw; conditional on
    # s the estimator mean must match the smoothed gradient at that w
    p = PiecewiseProblem.generate(n=2, d=6, samples_per_client=4, seed=13)
    x = stream(1, "datagen", 6).standard_normal(6) * 0.2
    step = stream(1, "datagen", 7).standard_normal(6) * 0.05
    s = float(stream(1, "s", 1, 1).random(1)[0])
    w = x + s * step
    mu = 0.1
    draws = 200_000
    rng_xi = stream(23, "xi", 1, 1)
    rng_z = stream(23, "z", 1, 1)
    acc = np.zeros(6)
    sq = np.zeros(6)
    for _ in range(draws):
        g = zeroth_order_estimator(p, 0, w, mu, rng_xi, rng_z).g
        acc += g
        sq += g * g
    mean = acc / draws
    est_se = np.sqrt(np.maximum(sq / draws - mean**2, 0.0) / draws)
    oracle, oracle_se = mc_smoothed_gradient(p, 0, w, mu, 1_000_000, stream(24, "goldstein", 9))
    tol = 3 * np.sqrt(est_se**2 + oracle_se**2)
    assert np.all(np.abs(mean - oracle) <= tol)


def test_quadrature_smoothing_agrees_with_mc_oracle():
    # two independent routes to the same smoothed gradient
    p = PiecewiseProblem.generate(n=2, d=8, samples_per_client=4, seed=11)
    w = stream(99, "datagen", 5).standard_normal(8) * 0.3
    mu = 0.15
    quad = smoothed_gradient(p, 0, w, mu)
    mc, mc_se = mc_smoothed_gradient(p, 0, w, mu, 1_000_000, stream(25, "goldstein", 9))
    assert np.all(np.abs(quad - mc) <= 4 * mc_se + 1e-12)


def test_estimator_norm_bounds_per_draw(rng):
    svm = make_svm(rng, d=6, lam=1e-3)
    w = rng.standard_normal(6)
    for t in range(200):
        rng_xi = stream(31, "xi", 1, t)
        rng_z = stream(31, "z", 1, t)
        j = int(stream(31, "xi", 1, t).integers(svm.shard_size(0)))
        g = first_order_estimator(svm, 0, w, 0.1, rng_xi, rng_z).g
        # client 0 owns the first rows, so its sample j is row j
        bound = np.linalg.norm(svm.labels[j] * svm.signed[j]) + svm.lam * np.sqrt(svm.d)
        assert np.all(np.isfinite(g))
        assert np.linalg.norm(g) <= bound + 1e-12

    piece = PiecewiseProblem.generate(n=1, d=6, samples_per_client=5, seed=2)
    for t in range(200):
        rng_xi = stream(32, "xi", 1, t)
        rng_z = stream(32, "z", 1, t)
        j = int(stream(32, "xi", 1, t).integers(piece.shard_size(0)))
        g = zeroth_order_estimator(piece, 0, w, 0.05, rng_xi, rng_z).g
        lipschitz = np.linalg.norm(piece.C[j]) + max(
            np.linalg.norm(piece.U[j]), np.linalg.norm(piece.V[j])
        )
        bound = piece.d * lipschitz
        assert np.linalg.norm(g) <= bound + 1e-12


def test_zeroth_order_second_moment_bound():
    p = PiecewiseProblem.generate(n=1, d=10, samples_per_client=5, seed=3)
    w = stream(2, "datagen", 8).standard_normal(10) * 0.5
    draws = 50_000
    rng_xi = stream(33, "xi", 1, 1)
    rng_z = stream(33, "z", 1, 1)
    total = 0.0
    for _ in range(draws):
        g = zeroth_order_estimator(p, 0, w, 0.05, rng_xi, rng_z).g
        total += float(g @ g)
    bound = 16.0 * math.sqrt(2.0 * math.pi) * p.d * p.lipschitz_L**2
    assert total / draws <= 1.05 * bound


def test_estimator_streams_reproducible():
    p = PiecewiseProblem.generate(n=2, d=5, samples_per_client=3, seed=1)
    w = np.ones(5) * 0.1
    a = first_order_estimator(p, 1, w, 0.2, stream(8, "xi", 2, 3), stream(8, "z", 2, 3))
    b = first_order_estimator(p, 1, w, 0.2, stream(8, "xi", 2, 3), stream(8, "z", 2, 3))
    assert np.array_equal(a.g, b.g)
    c = zeroth_order_estimator(p, 1, w, 0.2, stream(8, "xi", 2, 3), stream(8, "z", 2, 3))
    d = zeroth_order_estimator(p, 1, w, 0.2, stream(8, "xi", 2, 3), stream(8, "z", 2, 3))
    assert np.array_equal(c.g, d.g)
    assert c.function_evals == 2 and c.oracle_calls_charged == 1
