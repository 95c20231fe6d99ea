"""Local objectives, dataset handling, and stochastic gradient estimators.

Two problem families share one interface:

* capped-l1 hinge SVM: per-sample loss max(1 - b a'x, 0) plus the capped
  penalty lam * sum_j min(|x_j|, alpha), nonsmooth and nonconvex.
* synthetic piecewise: per-sample |c'x| + max(u'x + p, v'x + q), whose
  uniform-ball smoothing reduces to 1-D integrals; the tests evaluate those
  by quadrature as an estimator-independent reference for smoothed
  gradients.

A LIBSVM set is one LibsvmData: labels plus the CSR arrays indptr, indices
and values. The parser reads about 64 KB of lines at a time and tokenizes
each chunk's bytes with numpy; a chunk the tokenizer does not take goes
whole to the per-line parser, which parses it or gives the error.
subsample and shard pick row numbers, and the SVM scatters its rows into
one dense matrix.

Estimators are deterministic in the local sample j and the direction z
the driver drew for them (see the rng module): the first-order estimator
returns a subgradient at the ball-perturbed point w + mu z, the
zeroth-order estimator a two-point finite difference along the sphere
direction z.

Subgradient tie-breaking is deterministic everywhere: sign(0) = 0 for the
capped penalty and the |c'x| term, hinge at margin exactly 1 takes the
active branch, tied max pieces take the first piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, pairwise

import numpy as np

from .rng import stream


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

_CHUNK_CHARS = 1 << 16

# The byte classes of the tokenizer: blank separates tokens (other ASCII
# whitespace, like any byte of no class, sends the chunk to the per-line
# parser), a feature token is digits, one colon, then digit and value bytes.
_BLANK, _COLON, _DIGIT, _VALUE, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n")] = _BLANK
_BYTE_CLASS[ord(":")] = _COLON
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b".eE+-")] = _VALUE
# an int64 holds every index of up to 18 digits
_MAX_DIGITS = 18


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
        pieces.append(_parse_chunk(chunk, lineno, d_hint))
        lineno += len(chunk)
    labels, counts, indices, values = (np.concatenate(arrays) for arrays in zip(*pieces))
    return LibsvmData(labels, _indptr(counts), indices, values)


def _parse_chunk(chunk: list[str], lineno: int, d_hint: int) -> tuple:
    """(labels, row lengths, indices, values) of the rows of chunk, whose
    first line has number lineno.

    The byte tokenizer takes the chunk when it can; otherwise the per-line
    parser takes the whole chunk, so every error keeps its text, line and
    column.
    """
    parsed = _tokenize(chunk, d_hint)
    if parsed is not None:
        return parsed
    slow = LibsvmData.from_rows([
        _parse_line(line, k, d_hint) for k, line in enumerate(chunk, start=lineno) if line.strip()
    ])
    return slow.labels, np.diff(slow.indptr), slow.indices, slow.values


def _tokenize(chunk: list[str], d_hint: int) -> tuple | None:
    """What _parse_chunk returns, from numpy passes over the chunk's ASCII
    bytes, or None when a byte, token or array check fails.

    Tokens are the runs of non-blank bytes, and the first token of a line is
    its label, one of +1 -1 1 0. A feature token holds one colon, with 1 to
    18 digits before it and a value after it. Each index is accumulated
    digit by digit into an int64, which holds it exactly; each value is
    float() of its bytes, so it converts and fails as in the per-line
    parser.
    """
    try:
        raw = np.frombuffer("".join(chunk).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    kind = np.take(_BYTE_CLASS, raw)
    if (kind == _OTHER).any():
        return None
    # each token is raw[starts[t]:ends[t]]; the first token after each line
    # end, and the chunk's first token, is a label
    edges = np.flatnonzero(np.diff(kind != _BLANK, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    first = np.zeros(len(starts), dtype=bool)
    first[:1] = True
    after = np.searchsorted(starts, np.flatnonzero(raw == ord("\n")))
    first[after[after < len(starts)]] = True

    at = starts[first]
    size = ends[first] - at
    head = raw[at]
    tail = raw[np.minimum(at + 1, len(raw) - 1)]
    label_ok = np.where(size == 1, (head == ord("1")) | (head == ord("0")),
                        (size == 2) & ((head == ord("+")) | (head == ord("-"))) & (tail == ord("1")))
    if not label_ok.all():
        return None
    labels = np.where((head == ord("0")) | (head == ord("-")), np.int64(-1), np.int64(1))

    starts, ends = starts[~first], ends[~first]
    colons = np.flatnonzero(kind == _COLON)
    # as colons and tokens are both in order, this puts exactly one colon in
    # each feature token, with something on either side of it
    if len(colons) != len(starts) or not ((starts < colons) & (colons < ends - 1)).all():
        return None
    # inside[i]: raw[i] lies in a value, after its token's colon; int8, as
    # the running sum is 0 or 1, and wider arrays of this per-chunk size
    # left the process peak RSS about 3 MB higher
    edge = np.zeros(len(raw) + 1, dtype=np.int8)
    edge[colons + 1] = 1
    edge[ends] = -1
    inside = np.cumsum(edge[:-1], dtype=np.int8) > 0
    # with the label signs left out, every value byte (.eE+-) lies in a
    # value, so each index is digits alone
    kind[at] = _BLANK
    if ((kind == _VALUE) & ~inside).any() or (colons - starts > _MAX_DIGITS).any():
        return None
    indices = _accumulate_digits(raw, starts, colons) - 1
    # with every other byte blanked, the values are the tokens left
    try:
        values = np.fromiter(map(float, np.where(inside, raw, np.uint8(ord(" "))).tobytes().split()),
                             np.float64, len(colons))
    except ValueError:
        return None

    rows = np.flatnonzero(first)
    counts = np.diff(rows, append=len(first)) - 1
    # rising[p]: indices[p + 1] starts a row or is above indices[p]
    rising = np.diff(indices) > 0
    row_starts = rows - np.arange(len(rows))
    rising[row_starts[(row_starts > 0) & (row_starts < len(indices))] - 1] = True
    if not (np.isfinite(values).all() and rising.all()
            and indices.min(initial=0) >= 0 and indices.max(initial=0) < d_hint):
        return None
    return labels, counts, indices, values


def _accumulate_digits(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The int64 number each run of 1 to 18 digits raw[starts:ends] spells;
    one pass per digit column, right-aligned."""
    out = np.zeros(len(starts), dtype=np.int64)
    size = ends - starts
    for k in range(int(size.max(initial=0)), 0, -1):
        digit = np.take(raw, ends - k, mode="clip") - ord("0")
        digit[size < k] = 0
        out *= 10
        out += digit
    return out


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


def write_synthetic_libsvm(path: str, m: int, d: int, seed: int) -> None:
    """Generate a sparse binary-feature classification set in LIBSVM format.

    Planted linear labels with 10% flip noise over 0/1-valued features,
    shaped like the public adult-income style benchmarks (d in the low
    hundreds, a dozen active features per row).
    """
    rng = stream(seed, "datagen", 1)
    w_star = rng.standard_normal(d)
    rows = []
    for _ in range(m):
        k = min(d, max(1, int(rng.poisson(14))))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        score = w_star[idx].sum() + 0.5 * rng.standard_normal()
        label = 1 if score > 0 else -1
        if rng.random() < 0.10:
            label = -label
        rows.append((label, idx, np.ones(k)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_libsvm(LibsvmData.from_rows(rows)))


# -- problems ----------------------------------------------------------------

# float64 values (about 8 MB) that the chunks of one probe kernel call hold
_BUDGET = 1_000_000
# float64 values (about 4 MB) that the buffers of one row block of the hinge
# probe hold: half the budget, as they outlive the call
_BLOCK = _BUDGET // 2


def _cuts(total: int, most: int) -> np.ndarray:
    """Bounds of near-equal parts of range(total), the last one the
    shortest, each of at most `most` items, and of at least 2 unless total
    is 1 (so parts may exceed a `most` below 3): BLAS multiplies a single
    row with its vector kernel, which rounds differently from its matrix
    kernel."""
    parts = max(min(-(-total // max(most, 1)), total // 2), 1)
    return (np.arange(parts + 1) * total + parts - 1) // parts


def _client_slices(counts: list[int]) -> list[slice]:
    return [slice(int(lo), int(hi)) for lo, hi in pairwise(_indptr(counts))]


class _ShardedProblem:
    """Row bookkeeping shared by the problems: client i owns the contiguous
    row block slices[i] of the sample arrays. lipschitz bounds both the
    Lipschitz constant of every sample loss and the norm of every sample
    subgradient: the planner's L and G, unless the config sets them."""

    n: int
    slices: list[slice]
    lipschitz: float

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


@dataclass(eq=False)
class CappedHingeSvmProblem(_ShardedProblem):
    """Binary classifier with hinge loss and capped-l1 penalty.

    Per-sample loss F(x; (a, b)) = max(1 - b a'x, 0) + lam * sum_j
    min(|x_j|, alpha). The problem keeps one dense (m, d) matrix, signed,
    whose row s is b_s * a_s, so a margin b a'x is one product with it;
    negating by b = +-1 is exact, so every value equals the one computed
    from a and b. Each client owns a contiguous row block of it; labels
    keeps the b_s. Immutable after construction, apart from the buffer the
    probe kernel keeps across calls.
    """

    d: int
    n: int
    lam: float
    alpha: float
    signed: np.ndarray = field(repr=False)  # (m, d), rows b_s * a_s
    labels: np.ndarray = field(repr=False)  # (m,), b_s in {-1, +1}
    row_norms: np.ndarray = field(repr=False)  # (m,), |a_s|
    slices: list[slice] = field(repr=False)
    lipschitz: float
    _buffer: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)

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
        if not shards:
            raise OracleError("client count must be >= 1, got 0")
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
        # the per-row reduction of sqrt(add.reduce(signed * signed, axis=1)),
        # over row blocks of about 512 KB rather than one (m, d) temporary
        row_norms = np.empty(m)
        step = max((1 << 16) // d, 1)
        for lo in range(0, m, step):
            block = signed[lo : lo + step]
            np.add.reduce(block * block, axis=1, out=row_norms[lo : lo + step])
        np.sqrt(row_norms, out=row_norms)
        bound = float(row_norms.max()) + lam * np.sqrt(d)
        return cls(
            d=d,
            n=len(shards),
            lam=lam,
            alpha=alpha,
            signed=signed,
            labels=labels,
            row_norms=row_norms,
            slices=_client_slices(sizes),
            lipschitz=bound,
        )

    def sample_value(self, client: int, j: int, x: np.ndarray) -> float:
        margin = float(self.signed[self._row(client, j)] @ x)
        hinge = max(1.0 - margin, 0.0)
        pen = self.lam * float(np.minimum(np.abs(x), self.alpha).sum())
        return hinge + pen

    def sample_subgradient(self, client: int, j: int, x: np.ndarray) -> np.ndarray:
        ba = self.signed[self._row(client, j)]
        # lam * sign(x) * (|x| < alpha): each product is exact, so the
        # in-place order gives the same bits, signed zeros included; the
        # method dot is the BLAS dot ba @ x calls, minus matmul's dispatch
        g = np.sign(x)
        g *= np.abs(x) < self.alpha
        g *= self.lam
        if ba.dot(x) <= 1.0:
            g -= ba
        return g

    # The benchmark wraps full_value where it stands, on this class, so it
    # stays defined in the class body.
    def full_value(self, x: np.ndarray) -> float:
        margins = self.signed @ x
        hinge = np.maximum(1.0 - margins, 0.0).mean()
        pen = self.lam * np.minimum(np.abs(x), self.alpha).sum()
        return float(hinge + pen)

    def _ball(self, X: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, float]:
        """The centre c of the rows of X and a radius r around it that holds
        them all, widened by a slack that covers the rounding of both margin
        products; r is nan for non-finite X. Overwrites the (q, d) scratch."""
        c = np.add.reduce(X, axis=0) / X.shape[0]
        np.square(np.subtract(X, c, out=scratch), out=scratch)
        rho = math.sqrt(np.add.reduce(scratch, axis=1).max())
        return c, rho + 4 * self.d * np.finfo(float).eps * (math.sqrt(c @ c) + rho)

    def _screen(self, c: np.ndarray, r: float, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the rows signed[rows] active at every point of the ball
        (c, r) and of those left undecided (El Ghaoui, Viallon & Rabbani
        2012): within the ball a margin is within r * |a_s| of its value at
        c. A nan r leaves every row undecided."""
        reach = self.row_norms[rows] * r
        gap = self.signed[rows] @ c - 1.0
        return gap < -reach, ~(np.abs(gap) > reach)

    def _scratch(self, *sizes: int) -> list[np.ndarray]:
        """Flat float64 views of the given sizes into one buffer the problem
        keeps across calls, grown as needed, so the probe kernel's pages are
        faulted in once rather than on every call, whatever malloc does with
        freed multi-MB blocks."""
        bounds = np.cumsum((0, *sizes))
        if len(self._buffer) < bounds[-1]:
            self._buffer = np.empty(bounds[-1])
        return [self._buffer[lo:hi] for lo, hi in pairwise(bounds)]

    # Batched over the rows of the (q, d) probe points X. The hinge is active
    # at margin <= 1; the penalty subgradient is lam * sign(x_j) strictly
    # inside the cap |x_j| < alpha and 0 outside.
    def full_subgradients(self, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X)
        if X.shape[0] == 0:
            return out
        self._hinge_sums(X, *self._ball(X, out), out)
        out /= -self.signed.shape[0]  # an active row contributes -b_s * a_s
        out += self.lam * np.sign(X) * (np.abs(X) < self.alpha)
        return out

    def _hinge_sums(self, X: np.ndarray, c: np.ndarray, r: float, out: np.ndarray) -> None:
        """Write into row p of out the sum of the signed rows whose hinge is
        active at X[p], for points X within the ball (c, r).

        The rows go in near-equal row blocks, so each block of signed is
        read from memory once per call and the rest of its work stays in
        cache. The screen decides the rows whose hinge state is the same at
        every point. The undecided rows are gathered, their margins at every
        point taken and turned into the 0/1 hinge mask, and each row's count
        of active points read off it. A row active at every point joins the
        screened active rows, summed with one product per block; one active at
        none drops out; only the mixed rows, with 0 < count < q, are
        multiplied. The gathered rows, the margins and the copy of the mixed
        columns fit _BLOCK."""
        q, (m, d) = X.shape[0], self.signed.shape
        cuts = _cuts(m, _BLOCK // (d + 2 * q))
        most = int(np.diff(cuts).max())
        gathered, margins, mixed_cols, part, base = self._scratch(
            most * d, q * most, q * most, q * d, d)
        part = part.reshape(q, d)
        out.fill(0.0)
        base.fill(0.0)
        for lo, hi in pairwise(cuts):
            signed = self.signed[lo:hi]
            active, undecided = self._screen(c, r, slice(lo, hi))
            rows = np.flatnonzero(undecided)
            if len(rows) == 1 < len(signed):
                # BLAS multiplies a single row with its vector kernel, which
                # rounds differently from its matrix kernel, so a decided row
                # (the same hinge state at every point) rides along
                rows = np.array([rows[0], (rows[0] + 1) % len(signed)])
            if len(rows):
                # mode="clip" (the indices are in range) writes out unbuffered
                a = np.take(signed, rows, axis=0, out=gathered[: len(rows) * d].reshape(-1, d),
                            mode="clip")
                hinge = np.matmul(X, a.T, out=margins[: q * len(rows)].reshape(q, -1))
                np.less_equal(hinge, 1.0, out=hinge, casting="unsafe")
                counts = np.add.reduce(hinge, axis=0)
                active[rows[counts == q]] = True
                mixed = np.flatnonzero((counts > 0) & (counts < q))
                if len(mixed):
                    cols = np.take(hinge, mixed, axis=1, mode="clip",
                                   out=mixed_cols[: q * len(mixed)].reshape(q, -1))
                    a = np.take(signed, rows[mixed], axis=0, mode="clip",
                                out=gathered[: len(mixed) * d].reshape(-1, d))
                    out += np.matmul(cols, a, out=part)
            base += active @ signed  # the rows active at every point
        out += base


@dataclass(eq=False)
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
    lipschitz: float

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
        for name, a in (("C", C), ("U", U), ("V", V)):
            if a.ndim != 2:
                raise OracleError(f"{name} has shape {a.shape}, expected 2-D")
        m, d = C.shape
        if n < 1:
            raise OracleError(f"client count must be >= 1, got {n}")
        if m == 0:
            raise OracleError(f"sample count must be >= 1, got {m}")
        if m % n != 0:
            raise OracleError(f"sample count {m} not divisible by n = {n}")
        for name, a, shape in (("U", U, (m, d)), ("V", V, (m, d)), ("p", p, (m,)), ("q", q, (m,))):
            if a.shape != shape:
                raise OracleError(f"{name} has shape {a.shape}, expected {shape}")
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
            lipschitz=bound,
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

    # Over the points in near-equal chunks, so the three (chunk, m)
    # temporaries of a chunk fit a budget of about 8 MB.
    def full_subgradients(self, X: np.ndarray) -> np.ndarray:
        m = self.C.shape[0]
        out = np.empty_like(X)
        for lo, hi in pairwise(_cuts(X.shape[0], _BUDGET // (3 * m))):
            self._subgradient_sums(X[lo:hi], out[lo:hi])
        out /= m
        return out

    def _subgradient_sums(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write into row p of out the sum over the samples of their
        subgradients at X[p]; the temporaries go when it returns."""
        signs = X @ self.C.T
        first = X @ self.U.T
        first += self.p
        second = X @ self.V.T
        second += self.q
        # 1.0 where the first piece is the max (ties included), else 0.0
        np.greater_equal(first, second, out=first, casting="unsafe")
        np.matmul(np.sign(signs, out=signs), self.C, out=out)
        out += first @ self.U
        out += np.subtract(1.0, first, out=first) @ self.V


# -- estimators ---------------------------------------------------------------


def first_order_estimator(problem, client: int, j: int, w: np.ndarray, mu: float,
                          z: np.ndarray) -> np.ndarray:
    """Subgradient of local sample j at w + mu * z; the driver draws j
    uniform over the client's shard and z uniform in the unit ball."""
    if mu < 0:
        raise OracleError(f"perturbation radius must be >= 0, got {mu}")
    return problem.sample_subgradient(client, j, w + mu * z)


def zeroth_order_estimator(problem, client: int, j: int, w: np.ndarray, mu: float,
                           z: np.ndarray) -> np.ndarray:
    """Two-point estimate (d / 2 mu) (F(w + mu z) - F(w - mu z)) z of local
    sample j; the driver draws j uniform over the client's shard and z
    uniform on the unit sphere."""
    if mu <= 0:
        raise OracleError(f"smoothing radius must be > 0, got {mu}")
    f_plus = problem.sample_value(client, j, w + mu * z)
    f_minus = problem.sample_value(client, j, w - mu * z)
    return (problem.d / (2.0 * mu)) * (f_plus - f_minus) * z
