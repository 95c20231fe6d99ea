import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gossipopt import oracles
from gossipopt.oracles import (
    CappedHingeSvmProblem,
    LibsvmData,
    LibsvmParseError,
    OracleError,
    PiecewiseProblem,
    _parse_line,
    first_order_estimator,
    load_libsvm,
    serialize_libsvm,
    shard,
    subsample,
    write_synthetic_libsvm,
    zeroth_order_estimator,
)
from gossipopt.rng import ball, sphere, stream
from mc_smoothing import mc_smoothed_gradient
from quadrature_smoothing import smoothed_gradient
from text_forms import parse_libsvm_lines, same_data


def svm_from_rows(shards, d, **kwargs):
    """The SVM whose client i owns the (label, indices, values) rows
    shards[i], in order."""
    ends = np.cumsum([len(rows) for rows in shards])
    data = LibsvmData.from_rows([row for rows in shards for row in rows])
    parts = [np.arange(end - len(rows), end) for end, rows in zip(ends, shards)]
    return CappedHingeSvmProblem.from_shards(data, parts, d, **kwargs)


def make_svm(rng, n=2, per_client=3, d=6, lam=1e-3, alpha=2.0):
    shards = []
    for _ in range(n):
        rows = []
        for _ in range(per_client):
            dense = rng.standard_normal(d)
            idx = np.where(np.abs(dense) > 0.2)[0]
            if len(idx) == 0:
                idx = np.array([0])
            rows.append((int(rng.choice([-1, 1])), idx, dense[idx]))
        shards.append(rows)
    return svm_from_rows(shards, d, lam=lam, alpha=alpha)


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
    sample = (1, np.arange(d), np.full(d, 2.0))
    other = (-1, [0], [1.0])
    p = svm_from_rows([[sample], [other]], d, lam=1e-5, alpha=2.0)
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
    tied = (-1, [0, 2], [2.0, 0.5])
    dense = [(label, np.arange(d), rng.standard_normal(d)) for label in (1, -1, 1)]
    p = svm_from_rows([[tied, dense[0]], dense[1:]], d, lam=1e-2, alpha=alpha)
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


def real_valued_svm(rng, m=8000, d=6, alpha=0.5):
    """An SVM with m real-valued rows of 3 features over 4 clients, and a
    point `edge` at which its first row's margin is exactly 1."""
    # margin exactly 1 at `edge` in any summation order: -1 * (2 * -0.5)
    tied = (-1, [0, 2], [2.0, 0.5])
    samples = [tied]
    for _ in range(m - 1):
        idx = np.sort(rng.choice(d, size=3, replace=False))
        values = rng.standard_normal(3)
        samples.append((int(rng.choice([-1, 1])), idx, values))
    p = CappedHingeSvmProblem.from_shards(
        LibsvmData.from_rows(samples), [np.arange(c, m, 4) for c in range(4)], d,
        lam=1e-2, alpha=alpha,
    )
    edge = np.zeros(d)
    edge[0] = -0.5
    edge[1] = alpha  # on the cap the penalty is flat
    edge[3] = -alpha
    assert p.labels[0] * float((p.labels[0] * p.signed[0]) @ edge) == 1.0
    return p, edge


def assert_matches_dense_reference(p, X):
    got = p.full_subgradients(X)
    want = dense_reference_subgradients(p, X)
    # the summation order over the m rows may differ between the two
    # products, so allow m roundings of the largest term
    tol = p.signed.shape[0] * np.finfo(float).eps * np.abs(p.signed).max()
    assert got.shape == want.shape == X.shape
    assert np.allclose(got, want, rtol=0, atol=tol, equal_nan=True), X.shape


def screen(p, X):
    """The kernel's (active, undecided) row masks for the points X."""
    return p._screen(*p._ball(X, np.empty_like(X)), slice(None))


def hinge_counts(p, X):
    """Each row's count of the points of X at which the full product puts
    its margin at <= 1."""
    return np.add.reduce(X @ p.signed.T <= 1.0, axis=0)


def ball_points(rng, centre, q, radius=0.25):
    """q points uniform in the ball around centre, as the probe draws them."""
    g = rng.standard_normal((q, len(centre)))
    g *= (radius * rng.random(q) ** (1.0 / len(centre)) / np.linalg.norm(g, axis=1))[:, None]
    return centre + g


def test_svm_full_subgradients_match_dense_reference(rng):
    p, edge = real_valued_svm(rng)
    # these points leave nearly every row undecided; q = 1 has no mixed
    # rows, q = 2 takes them in one block and 125 or 127 points in three
    for q in (1, 2, 125, 127):
        X = np.vstack([edge, 2.0 * rng.standard_normal((q - 1, p.d))])
        assert_matches_dense_reference(p, X)


def test_svm_screened_ball_points_match_dense_reference(rng):
    p, edge = real_valued_svm(rng)
    for q in (1, 64, 127):
        # a probe ball of radius delta / 2 = 0.25 that holds `edge`, where the
        # tied first row has margin exactly 1 and must count as active
        X = np.vstack([edge, ball_points(rng, edge, q - 1)])
        active, undecided = screen(p, X)
        margins = X @ p.signed.T
        # a decided row has the same hinge state at every point
        assert np.all(margins[:, active] <= 1.0)
        assert np.all(margins[:, ~active & ~undecided] > 1.0)
        assert undecided[0]
        if q > 1:
            assert active.any() and (~active & ~undecided).any()
        assert_matches_dense_reference(p, X)


def test_svm_ball_probe_rows_of_every_class_match_dense_reference(rng):
    p, edge = real_valued_svm(rng)
    X = np.vstack([edge, ball_points(rng, edge, 63)])
    q = len(X)
    active, undecided = screen(p, X)
    counts = hinge_counts(p, X)
    assert active.any()  # screened active
    assert (~active & ~undecided).any()  # screened inactive
    # undecided, yet active at every point or at none
    assert (undecided & (counts == q)).any() and (undecided & (counts == 0)).any()
    assert (undecided & (counts > 0) & (counts < q)).any()  # mixed
    assert_matches_dense_reference(p, X)


def test_svm_undecided_rows_over_several_blocks_match_dense_reference(rng):
    p, edge = real_valued_svm(rng)
    (m, d), q = p.signed.shape, 1000
    X = np.vstack([edge, 2.0 * rng.standard_normal((q - 1, d))])
    undecided = screen(p, X)[1]
    counts = hinge_counts(p, X)
    assert ((counts > 0) & (counts < q))[undecided].any()
    # the row blocks the kernel takes: at least two hold undecided rows, and
    # the last one fills only part of the shared buffers
    cuts = oracles._cuts(m, oracles._BLOCK // (d + 2 * q))
    blocks = np.diff(cuts)
    assert np.count_nonzero(np.add.reduceat(undecided, cuts[:-1])) >= 2
    assert blocks[-1] < blocks.max()
    assert_matches_dense_reference(p, X)


def test_svm_lone_undecided_row_of_a_block_matches_dense_reference(rng):
    p, edge = real_valued_svm(rng)
    # every point at edge: the screen's radius is 0 and it leaves only the
    # tied first row undecided, alone in its block, so the decided row after
    # it rides along into the margin product; screened active, it must not
    # count twice
    X = np.vstack([edge] * 3)
    active, undecided = screen(p, X)
    assert np.flatnonzero(undecided).tolist() == [0]
    assert active[1] and hinge_counts(p, X)[1] == len(X)
    assert_matches_dense_reference(p, X)


def test_svm_probe_buffer_is_reused_across_calls(rng):
    p, edge = real_valued_svm(rng)
    X = ball_points(rng, edge, 64)
    first = p.full_subgradients(X)
    buffer = p._buffer
    assert buffer.size > 0
    # a call of no more points reuses the buffer and gives the same bits
    assert np.array_equal(p.full_subgradients(X), first)
    assert p.full_subgradients(X[:8]).shape == (8, p.d)
    assert p._buffer is buffer


def test_svm_tied_row_counts_as_active(rng):
    p, edge = real_valued_svm(rng)
    far = edge.copy()
    far[0] = -2.0  # the tied first row's margin is 4 here
    # the tie alone, at every point (ties leave the row to the counts), and
    # beside points where the row is inactive (a mixed row)
    for X, count in ((edge[None, :], 1), (np.vstack([edge] * 3), 3),
                     (np.vstack([edge, far, far]), 1)):
        assert screen(p, X)[1][0]
        assert hinge_counts(p, X)[0] == count
        assert_matches_dense_reference(p, X)


def test_svm_rows_within_the_slack_go_through_the_product():
    # one row a = e_0 and two points 0.25 either side of the centre, so
    # rho |a| = 0.25; the margin at the centre lies t beyond 1 +- 0.25, within
    # the slack 4 d eps |a| (|c| + rho) > t, so only rounding could decide the
    # row, and the screen must leave it to the product
    d, t = 8, 2.0**-48
    p = svm_from_rows([[(1, [0], [1.0])]], d)
    for centre in (1.25 + t, 0.75 - t):
        X = np.zeros((2, d))
        X[:, 0] = [centre - 0.25, centre + 0.25]
        assert X.mean(axis=0)[0] == centre
        active, undecided = screen(p, X)
        assert undecided.all() and not active.any()
        assert_matches_dense_reference(p, X)


def test_svm_non_finite_points_match_dense_reference(rng):
    p, edge = real_valued_svm(rng)
    X = ball_points(rng, edge, 64)
    X[5] = np.nan
    assert screen(p, X)[1].all()
    assert_matches_dense_reference(p, X)
    # a NaN margin is not <= 1, so beside the NaN point a row active at
    # every other point is mixed, and alone the NaN point has no active row
    nan = np.full(p.d, np.nan)
    for X in (np.vstack([edge, edge, nan]), nan[None, :]):
        assert (hinge_counts(p, X) < len(X)).all()
        assert_matches_dense_reference(p, X)


def test_svm_kernel_peak_memory_stays_within_its_budget(synthetic_libsvm_path):
    data = load_libsvm(synthetic_libsvm_path, 123)
    p = CappedHingeSvmProblem.from_shards(data, shard(data, 4, 1), 123)
    X = 0.5 * np.random.default_rng(1).standard_normal((1024, 123))
    counts = hinge_counts(p, X)
    assert screen(p, X)[1].all() and ((counts > 0) & (counts < len(X))).all()
    tracemalloc.start()
    try:
        p.full_subgradients(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB budget, the output and one (q, d) partial sum; the kernel
    # that multiplied every undecided row peaked at 10.46 MB here
    assert peak <= 8e6 + 2 * X.nbytes + 0.3e6, peak


@pytest.mark.filterwarnings("error")
def test_svm_full_subgradients_of_no_points_is_empty(rng):
    p, _ = real_valued_svm(rng, m=40)
    got = p.full_subgradients(np.empty((0, p.d)))
    assert got.shape == (0, p.d)


def test_svm_row_norms_are_the_unblocked_reduction(rng):
    m, d = 3000, 123  # several row blocks of the reduction, the last one partial
    rows = [(1 - 2 * (s % 2), np.arange(d), rng.standard_normal(d)) for s in range(m)]
    p = svm_from_rows([rows], d)
    assert np.array_equal(p.row_norms, np.sqrt(np.add.reduce(p.signed * p.signed, axis=1)))


def test_probe_chunks_are_near_equal_and_never_one_row():
    for total in range(1, 80):
        for most in range(0, 30):
            cuts = oracles._cuts(total, most)
            parts = np.diff(cuts)
            assert cuts[0] == 0 and cuts[-1] == total
            assert parts.max() - parts.min() <= 1 and parts[-1] == parts.min()
            # a one-row part would round like a vector product
            assert parts.min() >= min(total, 2)
            assert parts.max() <= max(most, 3)


def unchunked_piecewise_subgradients(p, X):
    """The piecewise probe formula over all points at once."""
    signs = np.sign(X @ p.C.T)
    first = (X @ p.U.T + p.p) >= (X @ p.V.T + p.q)
    out = signs @ p.C
    out += first @ p.U
    out += (~first) @ p.V
    return out / p.C.shape[0]


def test_piecewise_full_subgradients_match_the_unchunked_formula(rng):
    p = PiecewiseProblem.generate(n=4, d=10, samples_per_client=500, seed=3)
    m = p.C.shape[0]
    chunk = oracles._BUDGET // (3 * m)  # the most points one chunk takes
    for q in (1, 2, 3, chunk, chunk + 1, 2 * chunk + 1):
        X = rng.standard_normal((q, p.d))
        got, want = p.full_subgradients(X), unchunked_piecewise_subgradients(p, X)
        tol = 3 * np.finfo(float).eps * max(np.abs(a).max() for a in (p.C, p.U, p.V))
        assert got.shape == want.shape == X.shape
        assert np.allclose(got, want, rtol=0, atol=tol), q


def test_piecewise_kernel_peak_memory_stays_within_its_budget(rng):
    p = PiecewiseProblem.generate(n=4, d=10, samples_per_client=500, seed=3)
    X = rng.standard_normal((4096, p.d))
    tracemalloc.start()
    try:
        p.full_subgradients(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unchunked, its four (q, m) temporaries took about 250 MB here
    assert peak <= 8e6 + X.nbytes + 0.3e6, peak


def test_svm_index_errors():
    p = svm_from_rows([[(1, [0], [1.0])]], 3, lam=0.1)
    with pytest.raises(OracleError):
        p.sample_value(1, 0, np.zeros(3))
    with pytest.raises(OracleError):
        p.sample_subgradient(0, 5, np.zeros(3))


def test_shards_must_be_balanced_and_nonempty():
    s = (1, [0], [1.0])
    with pytest.raises(OracleError):
        svm_from_rows([[s, s, s], [s]], 3)
    with pytest.raises(OracleError):
        svm_from_rows([[s], []], 3)



def test_piecewise_needs_samples():
    empty = np.zeros((0, 3))
    with pytest.raises(OracleError, match="^sample count must be >= 1, got 0$"):
        PiecewiseProblem.from_arrays(2, empty, empty, empty, [], [])


C23 = np.ones((2, 3))


@pytest.mark.parametrize("build,error", [
    pytest.param(lambda: PiecewiseProblem.from_arrays(0, C23, C23, C23, [0, 0], [0, 0]),
                 "client count must be >= 1, got 0", id="piecewise-n-0"),
    pytest.param(lambda: PiecewiseProblem.from_arrays(2, C23, C23, C23, [0], [0, 0]),
                 r"p has shape \(1,\), expected \(2,\)", id="piecewise-short-p"),
    pytest.param(lambda: PiecewiseProblem.from_arrays(2, C23, C23, C23, [0, 0], [0, 0, 0]),
                 r"q has shape \(3,\), expected \(2,\)", id="piecewise-long-q"),
    pytest.param(lambda: PiecewiseProblem.from_arrays(2, C23, np.ones((2, 4)), C23, [0, 0], [0, 0]),
                 r"U has shape \(2, 4\), expected \(2, 3\)", id="piecewise-wide-U"),
    pytest.param(lambda: PiecewiseProblem.from_arrays(2, C23, C23, np.ones((3, 3)), [0, 0], [0, 0]),
                 r"V has shape \(3, 3\), expected \(2, 3\)", id="piecewise-tall-V"),
    pytest.param(lambda: PiecewiseProblem.from_arrays(2, np.ones((2, 3, 4)), C23, C23, [0, 0], [0, 0]),
                 r"C has shape \(2, 3, 4\), expected 2-D", id="piecewise-3d-C"),
    pytest.param(lambda: PiecewiseProblem.from_arrays(2, C23, np.ones((2, 3, 1)), C23, [0, 0], [0, 0]),
                 r"U has shape \(2, 3, 1\), expected 2-D", id="piecewise-3d-U"),
    pytest.param(lambda: CappedHingeSvmProblem.from_shards(_dummy_samples(4), [], 3),
                 "client count must be >= 1, got 0", id="svm-no-shards"),
])
def test_problem_constructors_reject_bad_counts_and_shapes(build, error):
    with pytest.raises(OracleError, match=f"^{error}$"):
        build()


# -- LIBSVM parsing -----------------------------------------------------------


def test_parse_basic_line():
    data = parse_libsvm_lines("+1 3:0.5 7:1.0", d_hint=10)
    assert data.labels.tolist() == [1]
    assert data.indptr.tolist() == [0, 2]
    assert np.array_equal(data.indices, [2, 6])
    assert np.array_equal(data.values, [0.5, 1.0])


def test_parse_label_only_line_is_all_zero_sample():
    data = parse_libsvm_lines("-1", d_hint=4)
    assert data.labels.tolist() == [-1] and data.indptr.tolist() == [0, 0]


def test_parse_zero_one_label_convention():
    data = parse_libsvm_lines("0 1:2.0\n1 1:2.0", d_hint=2)
    assert data.labels.tolist() == [-1, 1]


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
        idx = np.sort(rng.choice(12, size=k, replace=False))
        vals = np.round(rng.standard_normal(k), 6)
        vals[vals == 0] = 1.0
        samples.append((int(rng.choice([-1, 1])), idx, vals))
    samples = LibsvmData.from_rows(samples)
    text1 = serialize_libsvm(samples)
    parsed = parse_libsvm_lines(text1, d_hint=12)
    assert same_data(parsed, samples)
    text2 = serialize_libsvm(parsed)
    assert text2 == text1


def test_crlf_file_parses_like_its_text(tmp_path):
    text = "+1 1:0.5 3:2\r\n\r\n-1\r\n0 2:1e-3\r\n"
    path = tmp_path / "crlf.libsvm"
    path.write_bytes(text.encode("ascii"))
    data = load_libsvm(str(path), 3)
    assert len(data) == 3
    assert same_data(data, parse_libsvm_lines(text, 3))

    # only line ends split lines: \x0b, \x0c and \x1c, which str.splitlines()
    # also breaks at, stay inside the line in a file and in text alike
    def parse(read):
        try:
            data = read()
            return tuple(getattr(data, k).tolist() for k in ("labels", "indptr", "indices", "values"))
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
        assert (len(from_file[0]) if isinstance(want, int) else from_file) == want, text


def test_synthetic_dataset_round_trips(tmp_path):
    path = tmp_path / "synth.libsvm"
    write_synthetic_libsvm(str(path), m=200, d=30, seed=5)
    data = load_libsvm(str(path), 30)
    assert len(data) == 200
    assert set(data.labels.tolist()) == {-1, 1}
    text = serialize_libsvm(data)
    assert text == path.read_text(encoding="ascii")


def test_non_ascii_byte_names_its_line_and_column(tmp_path):
    path = tmp_path / "accent.libsvm"
    path.write_bytes(b"+1 1:1 2:1\n-1 1:1 3:\xc3\xa9\n")
    text = path.read_bytes().decode("utf-8")
    for read in (lambda: load_libsvm(str(path), 5), lambda: parse_libsvm_lines(text, 5)):
        with pytest.raises(LibsvmParseError) as info:
            read()
        assert str(info.value) == "line 2, column 10: non-ASCII byte 0xc3"
        assert (info.value.line, info.value.column) == (2, 10)


# -- the fast path against the per-line parser --------------------------------


def reference_parse(text, d_hint):
    """The per-line parser alone, over the lines reading the text gives."""
    lines = io.StringIO(text, newline=None)
    return LibsvmData.from_rows(
        [_parse_line(line, k, d_hint) for k, line in enumerate(lines, start=1) if line.strip()]
    )


def outcome(read):
    """Every bit of the parsed arrays, or the rejection's (text, line, column)."""
    try:
        data = read()
    except LibsvmParseError as exc:
        return str(exc), exc.line, exc.column
    return tuple((a.dtype.str, a.tobytes()) for a in
                 (data.labels, data.indptr, data.indices, data.values))


def assert_parses_like_the_reference(path, text, d_hint):
    """The file and the text entry points agree with the per-line parser."""
    path.write_bytes(text.encode("utf-8"))
    want = outcome(lambda: reference_parse(text, d_hint))
    assert outcome(lambda: load_libsvm(str(path), d_hint)) == want, text[:200]
    assert outcome(lambda: parse_libsvm_lines(text, d_hint)) == want, text[:200]
    return want


GOOD_LINE = "+1 1:0.5 7:1e-3 012:3 20:-2.5E+02\n"


def chunk_lines(text):
    """The 1-based line numbers of each chunk the parser reads of text."""
    lines, out, start = io.StringIO(text, newline=None), [], 1
    while chunk := lines.readlines(oracles._CHUNK_CHARS):
        out.append(range(start, start + len(chunk)))
        start += len(chunk)
    return out


FIXED_TEXTS = [
    "+1 1:0.5 3:2\r\n\r\n-1\r\n0 2:1e-3\r\n",  # CRLF, a blank line
    "+1 1:0.5\r-1 2:1\r\r0\r",  # lone CR
    "  \n\t\n+1 1:1\n \t \n-1 2:1\n\n",  # whitespace-only lines
    "+1 1:1\n1 2:1\n-1 3:1\n0 4:1\n",  # both label conventions
    "+1\n-1\n1\n0\n",  # label-only lines
    "+1 01:1 0002:2 020:3\n",  # leading zeros
    "-1 1:1e5 2:-2.5E-3 3:.5 4:5. 5:+7 6:1e-320 7:1.7976931348623157e308\n",  # exponents
    "+1 1:1\t2:2 \t3:3\t\n\t-1\t4:4  5:5  \n",  # tabs and runs of blanks
    "+1 1:1\x0b 2:1\n-1 1:1_0\n",  # whitespace and a value only float() takes
    "+1 1:1\n-1 2:1\n+1 3:oops",  # a bad token on the last line, no line end
    "+1 1:1\n-1 2:1\n+1 4:1 3:1\n",  # indices not increasing
    "+1 1:1\n-1 2:1e999\n",  # a value that overflows
    "+1 1:1\n-1 21:1\n",  # an index beyond d
    "+1 1:1\n-1 0:1\n",  # index zero
    "+1 1:1\n+2 1:1\n",  # a bad label
    "+1 1:1\n-1 1:1:2\n",  # two colons
    "",  # no lines
    # indices of 18, 19 and 25 digits, in range and beyond it
    "+1 000000000000000003:1 0000000000000000004:2 0000000000000000000000005:3\n",
    "+1 1:1\n-1 123456789012345678:1\n",
    "+1 1:1\n-1 1234567890123456789:1\n",
    "+1 1:1\n-1 1234567890123456789012345:1\n",
    "+1 1:1\n-1 18446744073709551619:1\n",  # 2^64 + 3, which an int64 wraps to 3
    "+1:1 2:1\n",  # a colon in the label
    "+1 1:1\n3:1 4:1\n",  # a line that starts with a feature token
    "+1 1:1\n-1 3:\n",  # an empty value
    "+1 1:1\n-1 :3\n",  # an empty index
    "+1 1:1\n-1 3:+\n",  # values made of value bytes alone
    "+1 1:1\n-1 3:-\n",
    "+1 1:1\n-1 3:.\n",
    "+1 1:1\n-1 3:e5\n",
    # digit-only values of 15, 16, 19 and 25 digits; float() rounds 2^53 + 1
    "+1 1:123456789012345 2:1234567890123456 3:9007199254740993"
    " 4:1234567890123456789 5:1234567890123456789012345\n",
    "-1 3:-0\n-1 3:0\n+1 3:007\n",  # -0 and 0 differ in the sign bit
]


@pytest.mark.parametrize("text", FIXED_TEXTS)
def test_fast_path_matches_the_per_line_parser_on_fixed_texts(tmp_path, text):
    assert_parses_like_the_reference(tmp_path / "fixed.libsvm", text, 20)


@pytest.mark.parametrize("bad,error", [
    ("-1 3:x\n", "feature value 'x' is not a number"),
    ("-1 3:1 3:2\n", "feature index 3 not strictly increasing"),
    ("-1 3:1\x0b 2:1\n", "feature index 2 not strictly increasing"),
    ("-1 3:1\x0b 4:1\n", None),
])
def test_bad_line_at_a_chunk_boundary(tmp_path, bad, error):
    text = GOOD_LINE * 4000
    first = len(chunk_lines(text)[0])
    assert 1 < first < 4000
    # the last line of the first chunk, and the first line of the second
    for at in (first - 1, first):
        lines = [GOOD_LINE] * 4000
        lines[at] = bad
        want = assert_parses_like_the_reference(tmp_path / "edge.libsvm", "".join(lines), 20)
        if error is None:
            assert len(want) == 4
        else:
            assert want[0].endswith(error) and want[1] == at + 1


def random_line(rng, d, odd):
    """One valid line in a random spelling; odd lines may use forms only the
    per-line parser takes."""
    label = ["+1", "1", "-1", "0"][rng.integers(4)]
    k = int(rng.integers(0, 9))
    indices = np.sort(rng.choice(d, size=k, replace=False)) + 1
    blanks = [" ", "\t", "  ", " \t"] + (["\x0b", "\x0c ", "\x1c"] if odd else [])
    tokens = [label]
    for idx in indices:
        head = "0" * int(rng.integers(0, 3) == 0) + str(idx)
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-310, 300))
        forms = [repr(x), "%.25e" % x, "%g" % x, "%E" % x, str(int(rng.integers(-9, 10))),
                 "." + str(rng.integers(10)), str(rng.integers(10)) + "."]
        if odd:
            forms += ["1_5", "+0.5"]
        tokens.append(f"{head}:{forms[rng.integers(len(forms))]}")
    lead = rng.choice(["", " ", "\t"])
    line = lead + "".join(t + blanks[rng.integers(len(blanks))] for t in tokens[:-1]) + tokens[-1]
    return line + rng.choice(["", " ", "\t "])


def random_text(rng, lines, d, odd_share):
    ends = ["\n", "\r\n", "\r"]
    out = []
    for _ in range(lines):
        if rng.random() < 0.02:
            out.append(rng.choice(["", " ", "\t"]))  # a blank line
        else:
            out.append(random_line(rng, d, rng.random() < odd_share))
        out.append(ends[rng.integers(3)] if rng.random() < 0.1 else "\n")
    return "".join(out)


def test_fast_path_matches_the_per_line_parser_on_random_valid_lines(tmp_path):
    rng = np.random.default_rng(20261018)
    for odd_share in (0.0, 0.01):
        text = random_text(rng, 3000, 40, odd_share)
        assert len(chunk_lines(text)) > 1  # the text spans several chunks
        want = assert_parses_like_the_reference(tmp_path / "random.libsvm", text, 40)
        assert len(want) == 4  # parsed, not rejected


# each makes a valid line invalid; the per-line parser says how
BREAKS = [
    lambda line, rng: " ".join([rng.choice(["+2", "+0", "-0", "2", "1.0", "+", "-1:1"]),
                                *line.split()[1:]]),
    lambda line, rng: line + " 0:1",
    lambda line, rng: line + " 41:1",
    lambda line, rng: line + " 1:1 1:1",
    lambda line, rng: line + " 40:" + rng.choice(["nan", "inf", "1e999", "x", "", "1..2", "1e"]),
    lambda line, rng: line + rng.choice([" 40", " :1", " 40:1:2", " 4o:1", " -4:1"]),
    lambda line, rng: line + " 40:é",
]


def test_fast_path_matches_the_per_line_parser_on_random_invalid_lines(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(6 * len(BREAKS)):
        lines = random_text(rng, int(rng.integers(1, 200)), 40, 0.02).split("\n")
        at = int(rng.integers(len(lines)))
        lines[at] = BREAKS[trial % len(BREAKS)](lines[at].rstrip("\r"), rng)
        text = "\n".join(lines)
        want = assert_parses_like_the_reference(tmp_path / "broken.libsvm", text, 40)
        assert len(want) == 3  # rejected


def test_every_short_value_converts_as_float_does():
    # every value of up to 3 bytes the tokenizer could take, one line each
    for size in (1, 2, 3):
        for chars in itertools.product("0123456789.eE+-", repeat=size):
            text = "-1 2:" + "".join(chars) + "\n"
            want = outcome(lambda: reference_parse(text, 20))
            assert outcome(lambda: parse_libsvm_lines(text, 20)) == want, text


def test_a_long_value_parses_in_a_small_buffer():
    # about 12k short values and one of 16 KB in one chunk: a tokenizer that
    # padded every value to the longest would take about 200 MB
    short = "+1" + "".join(f" {k}:.5" for k in range(1, 10)) + "\n"
    lines = [short] * (oracles._CHUNK_CHARS // len(short)) + ["-1 3:0." + "5" * (1 << 14) + "\n"]
    text = "".join(lines * 2)
    assert chunk_lines(text)[0] == range(1, len(lines) + 1)
    want = outcome(lambda: reference_parse(text, 20))
    tracemalloc.start()
    try:
        got = outcome(lambda: parse_libsvm_lines(text, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and len(want) == 4
    assert peak < 20e6


def long_value_text():
    """Real values, one in a hundred spelled in 40 decimals, over several chunks."""
    rng = np.random.default_rng(11)
    return "".join(
        f"-1 {k}:{x:.40f} {k + 1}:{x!r}\n" if k % 100 == 0 else f"+1 {k % 40 + 1}:{x!r}\n"
        for k, x in enumerate(rng.standard_normal(8000).tolist(), start=1)
    )


def assert_takes_the_fast_path_only(monkeypatch, path, d_hint):
    want = reference_parse(path.read_text(encoding="ascii"), d_hint)

    def per_line(*args):
        raise AssertionError("the per-line parser ran")

    monkeypatch.setattr(oracles, "_parse_line", per_line)
    assert same_data(load_libsvm(str(path), d_hint), want)


def test_generated_dataset_takes_the_fast_path_only(tmp_path, monkeypatch):
    path = tmp_path / "synth.libsvm"
    write_synthetic_libsvm(str(path), m=3000, d=123, seed=3)
    assert_takes_the_fast_path_only(monkeypatch, path, 123)


@pytest.mark.parametrize("text,d", [
    # every spelling random_line uses for a plain line
    (lambda: random_text(np.random.default_rng(5), 3000, 40, 0.0), 40),
    (long_value_text, 8001),
], ids=["random_spellings", "long_values"])
def test_real_valued_texts_take_the_fast_path_only(tmp_path, monkeypatch, text, d):
    path = tmp_path / "real.libsvm"
    path.write_text(text(), encoding="ascii")
    assert len(chunk_lines(path.read_text(encoding="ascii"))) > 1
    assert_takes_the_fast_path_only(monkeypatch, path, d)


def test_a_chunk_with_an_odd_line_falls_back_alone(monkeypatch):
    lines = [GOOD_LINE] * 4000
    second = chunk_lines("".join(lines))[1]
    at = (second.start + second.stop) // 2 - 1  # the 0-based index of a middle line
    lines[at] = "-1 1:1_0 2:1\n"  # valid, but only float() takes 1_0
    lines[at + 1] = "\n"
    text = "".join(lines)
    chunks = chunk_lines(text)
    assert len(chunks) > 2 and at + 1 in chunks[1] and at + 2 in chunks[1]
    want = reference_parse(text, 20)
    seen = []

    def per_line(line, lineno, d_hint):
        seen.append(lineno)
        return _parse_line(line, lineno, d_hint)

    monkeypatch.setattr(oracles, "_parse_line", per_line)
    assert same_data(parse_libsvm_lines(text, 20), want)
    assert seen == [k for k in chunks[1] if k != at + 2]  # every non-blank line


# -- sharding -----------------------------------------------------------------


def _dummy_samples(count):
    return LibsvmData.from_rows([(1, [0], [float(i)]) for i in range(count)])


def test_shard_sizes():
    assert [len(s) for s in shard(_dummy_samples(10), 2, seed=0)] == [5, 5]
    assert [len(s) for s in shard(_dummy_samples(10), 3, seed=0)] == [4, 3, 3]


def test_shard_deterministic_and_partitioning():
    data = _dummy_samples(17)
    a = shard(data, 4, seed=9)
    b = shard(data, 4, seed=9)
    flat_a = data.values[np.concatenate(a)].tolist()
    flat_b = data.values[np.concatenate(b)].tolist()
    assert flat_a == flat_b
    assert sorted(flat_a) == [float(i) for i in range(17)]
    c = shard(data, 4, seed=10)
    assert data.values[np.concatenate(c)].tolist() != flat_a


def test_shard_too_many_clients():
    with pytest.raises(OracleError):
        shard(_dummy_samples(3), 4, seed=0)


def test_subsample_deterministic():
    data = _dummy_samples(100)
    a = subsample(data, 40, seed=3)
    b = subsample(data, 40, seed=3)
    assert a.values.tolist() == b.values.tolist()
    assert len(a) == 40
    assert same_data(subsample(data, 200, seed=3), data)


# -- estimators ---------------------------------------------------------------


def queries(problem, client, directions, rng_xi, rng_z, count):
    """count (j, z) draws as the client-sampled driver makes them, one query
    per step: a sample index over the client's shard, then a (1, d)
    direction block."""
    for _ in range(count):
        j = int(rng_xi.integers(problem.shard_size(client)))
        yield j, directions(rng_z, 1, problem.d)[0]


def test_first_order_mu_zero_equals_subgradient_of_drawn_sample(rng):
    p = make_svm(rng, d=5)
    w = rng.standard_normal(5)
    for j, z in queries(p, 0, ball, stream(77, "xi", 1, 1), stream(77, "z", 1, 1), 20):
        assert np.array_equal(first_order_estimator(p, 0, j, w, 0.0, z), p.sample_subgradient(0, j, w))


def test_first_order_linear_function_returns_constant_gradient(rng):
    c = np.array([1.5, -2.0, 0.25])
    p = linear_problem(c)
    for j, z in queries(p, 0, ball, stream(3, "xi", 1, 1), stream(3, "z", 1, 1), 50):
        w = rng.standard_normal(3)
        g = first_order_estimator(p, 0, j, w, 0.3, z)
        assert np.array_equal(g, c)


def test_zeroth_order_linear_identity_and_unbiasedness(rng):
    c = np.array([0.8, -0.4, 1.1, 0.0])
    p = linear_problem(c)
    w = np.zeros(4)
    draws = 100_000
    acc = np.zeros(4)
    for j, z in queries(p, 0, sphere, stream(4, "xi", 1, 1), stream(4, "z", 1, 1), draws):
        acc += zeroth_order_estimator(p, 0, j, w, 0.2, z)
    mean = acc / draws
    # E[g] = d E[z z'] c = c since E[z z'] = I / d on the sphere
    se = np.sqrt(4 * float(c @ c) / draws)  # ||g|| <= sqrt(d)||c|| gives a crude scale
    assert np.abs(mean - c).max() <= 3 * se


def test_zeroth_order_rejects_nonpositive_mu(rng):
    p = linear_problem(np.ones(3))
    with pytest.raises(OracleError):
        zeroth_order_estimator(p, 0, 0, np.zeros(3), 0.0, sphere(stream(0, "z", 1, 1), 1, 3)[0])


def test_first_order_rejects_negative_mu(rng):
    p = linear_problem(np.ones(3))
    with pytest.raises(OracleError):
        first_order_estimator(p, 0, 0, np.zeros(3), -0.1, ball(stream(0, "z", 1, 1), 1, 3)[0])


def test_first_order_unbiased_for_smoothed_client_objective():
    p = PiecewiseProblem.generate(n=2, d=8, samples_per_client=4, seed=11)
    w = stream(99, "datagen", 5).standard_normal(8) * 0.3
    mu = 0.15
    draws = 100_000
    acc = np.zeros(8)
    sq = np.zeros(8)
    for j, z in queries(p, 0, ball, stream(21, "xi", 1, 1), stream(21, "z", 1, 1), draws):
        g = first_order_estimator(p, 0, j, w, mu, z)
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
    acc = np.zeros(6)
    sq = np.zeros(6)
    for j, z in queries(p, 0, sphere, stream(23, "xi", 1, 1), stream(23, "z", 1, 1), draws):
        g = zeroth_order_estimator(p, 0, j, w, mu, z)
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
        [(j, z)] = queries(svm, 0, ball, stream(31, "xi", 1, t), stream(31, "z", 1, t), 1)
        g = first_order_estimator(svm, 0, j, w, 0.1, z)
        # client 0 owns the first rows, so its sample j is row j
        bound = np.linalg.norm(svm.labels[j] * svm.signed[j]) + svm.lam * np.sqrt(svm.d)
        assert np.all(np.isfinite(g))
        assert np.linalg.norm(g) <= bound + 1e-12

    piece = PiecewiseProblem.generate(n=1, d=6, samples_per_client=5, seed=2)
    for t in range(200):
        [(j, z)] = queries(piece, 0, sphere, stream(32, "xi", 1, t), stream(32, "z", 1, t), 1)
        g = zeroth_order_estimator(piece, 0, j, w, 0.05, z)
        lipschitz = np.linalg.norm(piece.C[j]) + max(
            np.linalg.norm(piece.U[j]), np.linalg.norm(piece.V[j])
        )
        bound = piece.d * lipschitz
        assert np.linalg.norm(g) <= bound + 1e-12


def test_zeroth_order_second_moment_bound():
    p = PiecewiseProblem.generate(n=1, d=10, samples_per_client=5, seed=3)
    w = stream(2, "datagen", 8).standard_normal(10) * 0.5
    draws = 50_000
    total = 0.0
    for j, z in queries(p, 0, sphere, stream(33, "xi", 1, 1), stream(33, "z", 1, 1), draws):
        g = zeroth_order_estimator(p, 0, j, w, 0.05, z)
        total += float(g @ g)
    bound = 16.0 * math.sqrt(2.0 * math.pi) * p.d * p.lipschitz**2
    assert total / draws <= 1.05 * bound


def test_estimator_streams_reproducible():
    p = PiecewiseProblem.generate(n=2, d=5, samples_per_client=3, seed=1)
    w = np.ones(5) * 0.1
    for estimator, directions in ((first_order_estimator, ball), (zeroth_order_estimator, sphere)):
        a, b = (
            [estimator(p, 1, j, w, 0.2, z)
             for j, z in queries(p, 1, directions, stream(8, "xi", 2, 3), stream(8, "z", 2, 3), 5)]
            for _ in range(2)
        )
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
