"""Local objectives, dataset handling, and stochastic gradient estimators.

Two problem families share one interface:

* capped-l1 hinge SVM: per-sample loss max(1 - b a'x, 0) plus the capped
  penalty lam * sum_j min(|x_j|, alpha), nonsmooth and nonconvex.
* synthetic piecewise: per-sample |c'x| + max(u'x + p, v'x + q), whose
  uniform-ball smoothing reduces to 1-D integrals; the tests evaluate those
  by quadrature as an estimator-independent reference for smoothed
  gradients.

A LIBSVM set is one LibsvmData: labels plus the CSR arrays indptr, indices
and values. The parser matches lines with one regular expression and
converts a chunk of about 64 KB at a time with numpy; from the first line
that fails a check, the per-line parser takes over and gives the error.
subsample and shard pick row numbers, and the SVM scatters its rows into
one dense matrix.

Estimators draw one local sample plus one perturbation direction per call:
the first-order estimator returns a subgradient at a ball-perturbed point,
the zeroth-order estimator a two-point finite difference along a sphere
direction. One zeroth-order call is charged as one two-point query (two
raw function evaluations); both counts are reported.

Subgradient tie-breaking is deterministic everywhere: sign(0) = 0 for the
capped penalty and the |c'x| term, hinge at margin exactly 1 takes the
active branch, tied max pieces take the first piece.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .rng import ball, sphere, stream


class OracleError(ValueError):
    pass


class LibsvmParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# -- dataset ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LibsvmData:
    """Labeled sparse rows in CSR form: row r has the labels[r] in {-1, +1}
    and the 0-based, strictly increasing feature indices
    indices[indptr[r]:indptr[r + 1]] with their values."""

    labels: np.ndarray  # (m,) int64
    indptr: np.ndarray  # (m + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_rows(cls, rows) -> "LibsvmData":
        """Pack (label, indices, values) rows."""
        labels, indices, values = zip(*rows) if rows else ((), (), ())
        indptr = _indptr([len(i) for i in indices])
        return cls(
            np.array(labels, dtype=np.int64),
            indptr,
            np.fromiter(chain.from_iterable(indices), dtype=np.int64, count=indptr[-1]),
            np.fromiter(chain.from_iterable(values), dtype=np.float64, count=indptr[-1]),
        )

    def take(self, rows: np.ndarray) -> "LibsvmData":
        """The given rows, in the given order."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = _indptr(counts)
        # the source position of each kept entry
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return LibsvmData(self.labels[rows], indptr, self.indices[at], self.values[at])


def _indptr(counts) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(counts)
    return indptr


_LABEL_MAP = {"+1": 1, "1": 1, "-1": -1, "0": -1}

# A line the fast path takes whole: a label word, then digits:value features
# separated by spaces or tabs. The value characters cover every decimal
# float; the rest of what float() takes (inf, nan, 1_0) and other
# whitespace are left to the per-line parser.
_FAST_LINE = re.compile(
    r"[ \t]*(\+1|-1|1|0)((?:[ \t]+[0-9]+:[0-9.eE+-]+)*)[ \t]*\n?", re.ASCII
)
_CHUNK_CHARS = 1 << 16


def load_libsvm(path: str, d_hint: int) -> LibsvmData:
    """Parse a LIBSVM text file: ``label idx:val idx:val ...`` per line.

    Indices are 1-based ascending in the file and converted to 0-based;
    labels may follow the {-1,+1} or {0,1} convention and are mapped to
    {-1,+1}. Malformed lines, and bytes outside ASCII, raise
    LibsvmParseError with their 1-based line number and column.
    """
    # a byte outside ASCII decodes to one lone surrogate, so that the parser
    # can report its line and column
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return _parse_lines(fh, d_hint)


def _parse_lines(lines, d_hint: int) -> LibsvmData:
    # lines (an open file, or io.StringIO for text) is read about 64 KB at a
    # time, so the whole text is never held in memory; blank lines are
    # skipped but counted; the empty first piece makes an empty text 0 rows
    pieces = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    lineno = 1
    while chunk := lines.readlines(_CHUNK_CHARS):
        pieces += _parse_chunk(chunk, lineno, d_hint)
        lineno += len(chunk)
    labels, counts, indices, values = (np.concatenate(arrays) for arrays in zip(*pieces))
    return LibsvmData(labels, _indptr(counts), indices, values)


def _parse_chunk(chunk: list[str], lineno: int, d_hint: int) -> list[tuple]:
    """(labels, row lengths, indices, values) of the rows of chunk, whose
    first line has number lineno.

    The fast path converts the index and value tokens of the lines that
    match _FAST_LINE by one numpy call each, which takes each token as
    int() or float() does. The per-line parser takes over from the first
    line that does not match, or from the chunk's start if a token does not
    convert or an array check fails, so every error keeps its text, line
    and column.
    """
    labels, counts, features = [], [], []
    cut = len(chunk)
    for k, line in enumerate(chunk):
        if match := _FAST_LINE.fullmatch(line):
            labels.append(_LABEL_MAP[match[1]])
            counts.append(match[2].count(":"))
            features.append(match[2])
        elif line.strip():
            cut = k
            break
    counts = np.array(counts, dtype=np.int64)
    tokens = " ".join(features).replace(":", " ").split()
    try:
        indices = np.array(tokens[::2], dtype=np.int64) - 1
        values = np.array(tokens[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        cut = 0
    else:
        # rising[p]: indices[p + 1] starts a row or is above indices[p]
        rising = np.diff(indices) > 0
        starts = np.cumsum(counts) - counts
        rising[starts[(starts > 0) & (starts < len(indices))] - 1] = True
        if not (np.isfinite(values).all() and rising.all()
                and indices.min(initial=0) >= 0 and indices.max(initial=0) < d_hint):
            cut = 0
    pieces = [(np.array(labels, dtype=np.int64), counts, indices, values)] if cut else []
    if cut < len(chunk):
        slow = LibsvmData.from_rows([
            _parse_line(line, k, d_hint)
            for k, line in enumerate(chunk[cut:], start=lineno + cut)
            if line.strip()
        ])
        pieces.append((slow.labels, np.diff(slow.indptr), slow.indices, slow.values))
    return pieces


def _parse_line(line: str, lineno: int, d_hint: int) -> tuple[int, list[int], list[float]]:
    """The per-line parser: (label, 0-based indices, values) of one
    non-blank line, or the LibsvmParseError for its first bad token."""
    if not line.isascii():
        col = next(k for k, ch in enumerate(line) if not ch.isascii())
        byte = line[col].encode("utf-8", "surrogateescape")[0]
        raise LibsvmParseError(f"non-ASCII byte 0x{byte:02x}", lineno, col + 1)
    tokens = line.split()
    label = _LABEL_MAP.get(tokens[0])
    if label is None:
        raise _parse_error(
            f"label {tokens[0]!r} not in -1/+1 (or 0/1) convention", line, lineno, 0
        )
    indices: list[int] = []
    values: list[float] = []
    prev = -1
    for k in range(1, len(tokens)):
        tok = tokens[k]
        # a feature is idx:val with idx decimal digits and val free of ':'
        head, _, tail = tok.partition(":")
        if not (head.isdecimal() and tail) or ":" in tail:
            raise _parse_error(f"malformed feature token {tok!r}", line, lineno, k)
        idx = int(head) - 1
        if idx < 0:
            raise _parse_error("feature index must be >= 1", line, lineno, k)
        if idx >= d_hint:
            raise _parse_error(
                f"feature index {idx + 1} exceeds dimension {d_hint}", line, lineno, k
            )
        if idx <= prev:
            raise _parse_error(
                f"feature index {idx + 1} not strictly increasing", line, lineno, k
            )
        try:
            val = float(tail)
        except ValueError:
            raise _parse_error(
                f"feature value {tail!r} is not a number", line, lineno, k
            ) from None
        if not math.isfinite(val):
            raise _parse_error("feature value must be finite", line, lineno, k)
        prev = idx
        indices.append(idx)
        values.append(val)
    return label, indices, values


def _parse_error(message: str, line: str, lineno: int, k: int) -> LibsvmParseError:
    """The error for the k-th whitespace-separated token of line, with its
    1-based column; worked out only when a line is rejected."""
    tokens = line.split()
    start = 0
    for tok in tokens[:k]:
        start = line.index(tok, start) + len(tok)
    return LibsvmParseError(message, lineno, line.index(tokens[k], start) + 1)


def _format_value(v: float) -> str:
    text = repr(v)
    return text[:-2] if text.endswith(".0") else text


def serialize_libsvm(data: LibsvmData) -> str:
    """Canonical text form: ``{+1,-1} idx:val ...`` with single spaces,
    1-based indices, shortest-round-trip value formatting."""
    features = [
        f"{idx}:{_format_value(val)}"
        for idx, val in zip((data.indices + 1).tolist(), data.values.tolist())
    ]
    bounds = data.indptr.tolist()
    lines = [
        " ".join([f"{label:+d}", *features[lo:hi]])
        for label, lo, hi in zip(data.labels.tolist(), bounds, bounds[1:])
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def shard(data: LibsvmData, n: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then a round-robin split of the row numbers of data
    into n shards of near-equal size."""
    if n < 1:
        raise OracleError(f"client count must be >= 1, got {n}")
    if n > len(data):
        raise OracleError(f"cannot shard {len(data)} samples across {n} clients")
    perm = stream(seed, "shard", 0).permutation(len(data))
    return [perm[c::n] for c in range(n)]


def subsample(data: LibsvmData, k: int, seed: int) -> LibsvmData:
    """Deterministically keep k rows (seeded choice without replacement)."""
    if k >= len(data):
        return data
    keep = stream(seed, "shard", 1).choice(len(data), size=k, replace=False)
    keep.sort()
    return data.take(keep)


def write_synthetic_libsvm(path: str, m: int, d: int, seed: int, nnz_per_row: int = 14) -> None:
    """Generate a sparse binary-feature classification set in LIBSVM format.

    Planted linear labels with 10% flip noise over 0/1-valued features,
    shaped like the public adult-income style benchmarks (d in the low
    hundreds, a dozen active features per row).
    """
    rng = stream(seed, "datagen", 1)
    w_star = rng.standard_normal(d)
    rows = []
    for _ in range(m):
        k = min(d, max(1, int(rng.poisson(nnz_per_row))))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        score = w_star[idx].sum() + 0.5 * rng.standard_normal()
        label = 1 if score > 0 else -1
        if rng.random() < 0.10:
            label = -label
        rows.append((label, idx, np.ones(k)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_libsvm(LibsvmData.from_rows(rows)))


# -- problems ----------------------------------------------------------------


def _client_slices(counts: list[int]) -> list[slice]:
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return [slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(counts))]


class _ShardedProblem:
    """Row bookkeeping shared by the problems: client i owns the contiguous
    row block slices[i] of the sample arrays."""

    n: int
    slices: list[slice]

    def shard_size(self, client: int) -> int:
        s = self.slices[client]
        return s.stop - s.start

    def _row(self, client: int, j: int) -> int:
        if not 0 <= client < self.n:
            raise OracleError(f"client index {client} out of range [0, {self.n})")
        if not 0 <= j < self.shard_size(client):
            raise OracleError(
                f"sample index {j} out of range [0, {self.shard_size(client)}) "
                f"for client {client}"
            )
        return self.slices[client].start + j


@dataclass
class CappedHingeSvmProblem(_ShardedProblem):
    """Binary classifier with hinge loss and capped-l1 penalty.

    Per-sample loss F(x; (a, b)) = max(1 - b a'x, 0) + lam * sum_j
    min(|x_j|, alpha). The problem keeps one dense (m, d) matrix, signed,
    whose row s is b_s * a_s, so a margin b a'x is one product with it;
    negating by b = +-1 is exact, so every value equals the one computed
    from a and b. Each client owns a contiguous row block of it; labels
    keeps the b_s. Immutable after construction.
    """

    d: int
    n: int
    lam: float
    alpha: float
    signed: np.ndarray = field(repr=False)  # (m, d), rows b_s * a_s
    labels: np.ndarray = field(repr=False)  # (m,), b_s in {-1, +1}
    slices: list[slice] = field(repr=False)
    lipschitz_L: float = 0.0
    grad_bound_G: float = 0.0

    @classmethod
    def from_shards(
        cls,
        data: LibsvmData,
        shards: list[np.ndarray],
        d: int,
        lam: float | None = None,
        alpha: float = 2.0,
    ) -> "CappedHingeSvmProblem":
        """The problem whose client i owns the rows shards[i] of data."""
        if any(len(s) == 0 for s in shards):
            raise OracleError("every client shard must be nonempty")
        sizes = [len(s) for s in shards]
        if max(sizes) - min(sizes) > 1:
            raise OracleError(f"shard sizes must differ by at most 1, got {sizes}")
        m = sum(sizes)
        if lam is None:
            lam = 1e-5 / m
        if lam <= 0 or alpha <= 0:
            raise OracleError("lam and alpha must be positive")
        rows = data.take(np.concatenate(shards))
        if rows.indices.max(initial=0) >= d:
            raise OracleError(f"sample index {rows.indices.max()} >= d = {d}")
        signed = np.zeros((m, d))
        signed[np.repeat(np.arange(m), np.diff(rows.indptr)), rows.indices] = rows.values
        labels = rows.labels.astype(np.float64)
        signed *= labels[:, None]
        row_norms = np.linalg.norm(signed, axis=1)
        bound = float(row_norms.max()) + lam * np.sqrt(d)
        return cls(
            d=d,
            n=len(shards),
            lam=lam,
            alpha=alpha,
            signed=signed,
            labels=labels,
            slices=_client_slices(sizes),
            lipschitz_L=bound,
            grad_bound_G=bound,
        )

    def sample_value(self, client: int, j: int, x: np.ndarray) -> float:
        margin = float(self.signed[self._row(client, j)] @ x)
        hinge = max(1.0 - margin, 0.0)
        pen = self.lam * float(np.minimum(np.abs(x), self.alpha).sum())
        return hinge + pen

    def sample_subgradient(self, client: int, j: int, x: np.ndarray) -> np.ndarray:
        ba = self.signed[self._row(client, j)]
        g = self.lam * np.sign(x) * (np.abs(x) < self.alpha)
        if float(ba @ x) <= 1.0:
            g = g - ba
        return g

    # The benchmark wraps full_value where it stands, on this class, so it
    # stays defined in the class body.
    def full_value(self, x: np.ndarray) -> float:
        margins = self.signed @ x
        hinge = np.maximum(1.0 - margins, 0.0).mean()
        pen = self.lam * np.minimum(np.abs(x), self.alpha).sum()
        return float(hinge + pen)

    # Batched over the rows of the (q, d) probe points X. The hinge is active
    # at margin <= 1; the penalty subgradient is lam * sign(x_j) strictly
    # inside the cap |x_j| < alpha and 0 outside.
    def full_subgradients(self, X: np.ndarray) -> np.ndarray:
        q, m = X.shape[0], self.signed.shape[0]
        out = np.empty_like(X)
        # the (q, m) margins in chunks of about 8 MB and near-equal size, so
        # that a chunk is one row only when X is (BLAS multiplies one row
        # with its vector kernel, which rounds differently); every chunk
        # reuses one buffer, so the call's footprint does not hinge on where
        # malloc puts several freed multi-MB blocks
        cuts = np.linspace(0, q, -(-q * m // 1_000_000) + 1).astype(int)
        margins = np.empty((np.diff(cuts).max(initial=0), m))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            coef = np.matmul(X[lo:hi], self.signed.T, out=margins[: hi - lo])
            # the hinge mask, 1.0 where the margin is <= 1, over the margins
            np.less_equal(coef, 1.0, out=coef, casting="unsafe")
            np.matmul(coef, self.signed, out=out[lo:hi])
        out /= -m  # an active row contributes the hinge subgradient -b_s * a_s
        out += self.lam * np.sign(X) * (np.abs(X) < self.alpha)
        return out


@dataclass
class PiecewiseProblem(_ShardedProblem):
    """Synthetic nonsmooth per-sample loss |c'x| + max(u'x + p, v'x + q).

    The uniform-ball smoothed gradient reduces to 1-D integrals over the
    marginal of one ball coordinate, so the tests can compute it to near
    machine precision without touching any estimator code.
    """

    d: int
    n: int
    C: np.ndarray = field(repr=False)  # (m, d)
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)  # (m,)
    q: np.ndarray = field(repr=False)
    slices: list[slice] = field(repr=False)
    lipschitz_L: float = 0.0
    grad_bound_G: float = 0.0

    @classmethod
    def generate(cls, n: int, d: int, samples_per_client: int, seed: int) -> "PiecewiseProblem":
        rng = stream(seed, "datagen", 2)
        m = n * samples_per_client
        C = rng.standard_normal((m, d))
        C *= (rng.uniform(0.5, 1.5, size=m) / np.linalg.norm(C, axis=1))[:, None]
        U = rng.standard_normal((m, d))
        U *= (rng.uniform(0.5, 1.5, size=m) / np.linalg.norm(U, axis=1))[:, None]
        V = rng.standard_normal((m, d))
        V *= (rng.uniform(0.5, 1.5, size=m) / np.linalg.norm(V, axis=1))[:, None]
        p = rng.uniform(-1.0, 1.0, size=m)
        q = rng.uniform(-1.0, 1.0, size=m)
        return cls.from_arrays(n, C, U, V, p, q)

    @classmethod
    def from_arrays(cls, n, C, U, V, p, q) -> "PiecewiseProblem":
        C, U, V = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (C, U, V))
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))
        q = np.atleast_1d(np.asarray(q, dtype=np.float64))
        m, d = C.shape
        if m % n != 0:
            raise OracleError(f"sample count {m} not divisible by n = {n}")
        per_sample_L = np.linalg.norm(C, axis=1) + np.maximum(
            np.linalg.norm(U, axis=1), np.linalg.norm(V, axis=1)
        )
        bound = float(per_sample_L.max())
        return cls(
            d=d,
            n=n,
            C=C,
            U=U,
            V=V,
            p=p,
            q=q,
            slices=_client_slices([m // n] * n),
            lipschitz_L=bound,
            grad_bound_G=bound,
        )

    def sample_value(self, client: int, j: int, x: np.ndarray) -> float:
        r = self._row(client, j)
        return abs(float(self.C[r] @ x)) + max(
            float(self.U[r] @ x) + self.p[r], float(self.V[r] @ x) + self.q[r]
        )

    def sample_subgradient(self, client: int, j: int, x: np.ndarray) -> np.ndarray:
        r = self._row(client, j)
        g = np.sign(float(self.C[r] @ x)) * self.C[r]
        if float(self.U[r] @ x) + self.p[r] >= float(self.V[r] @ x) + self.q[r]:
            g = g + self.U[r]
        else:
            g = g + self.V[r]
        return g

    # Kept in the class body like CappedHingeSvmProblem.full_value, which
    # the benchmark wraps where it stands.
    def full_value(self, x: np.ndarray) -> float:
        abs_part = np.abs(self.C @ x)
        max_part = np.maximum(self.U @ x + self.p, self.V @ x + self.q)
        return float((abs_part + max_part).mean())

    def full_subgradients(self, X: np.ndarray) -> np.ndarray:
        m = self.C.shape[0]
        signs = np.sign(X @ self.C.T)  # (q, m)
        first = (X @ self.U.T + self.p) >= (X @ self.V.T + self.q)
        out = signs @ self.C
        out += first @ self.U
        out += (~first) @ self.V
        return out / m


# -- estimators ---------------------------------------------------------------


@dataclass(frozen=True)
class OracleSample:
    """Stochastic gradient estimate plus its oracle accounting.

    oracle_calls_charged is 1 per estimator call (a zeroth-order call is
    one two-point query); function_evals counts raw evaluations (0 for
    first-order, 2 for zeroth-order).
    """

    g: np.ndarray
    oracle_calls_charged: int
    function_evals: int


def first_order_estimator(problem, client: int, w: np.ndarray, mu: float,
                          rng_xi: np.random.Generator, rng_z: np.random.Generator) -> OracleSample:
    """Subgradient of one random local sample at w + mu * z, z uniform in
    the unit ball."""
    if mu < 0:
        raise OracleError(f"perturbation radius must be >= 0, got {mu}")
    m = problem.shard_size(client)
    if m == 0:
        raise OracleError(f"client {client} has an empty shard")
    j = int(rng_xi.integers(m))
    z = ball(rng_z, problem.d)
    g = problem.sample_subgradient(client, j, w + mu * z)
    return OracleSample(g=g, oracle_calls_charged=1, function_evals=0)


def zeroth_order_estimator(problem, client: int, w: np.ndarray, mu: float,
                           rng_xi: np.random.Generator, rng_z: np.random.Generator) -> OracleSample:
    """Two-point estimate (d / 2 mu) (F(w + mu z) - F(w - mu z)) z with z
    uniform on the unit sphere."""
    if mu <= 0:
        raise OracleError(f"smoothing radius must be > 0, got {mu}")
    m = problem.shard_size(client)
    if m == 0:
        raise OracleError(f"client {client} has an empty shard")
    j = int(rng_xi.integers(m))
    z = sphere(rng_z, problem.d)
    f_plus = problem.sample_value(client, j, w + mu * z)
    f_minus = problem.sample_value(client, j, w - mu * z)
    g = (problem.d / (2.0 * mu)) * (f_plus - f_minus) * z
    return OracleSample(g=g, oracle_calls_charged=1, function_evals=2)
