"""Local objectives, dataset handling, and stochastic gradient estimators.

Two problem families share one interface:

* capped-l1 hinge SVM: per-sample loss max(1 - b a'x, 0) plus the capped
  penalty lam * sum_j min(|x_j|, alpha), nonsmooth and nonconvex.
* synthetic piecewise: per-sample |c'x| + max(u'x + p, v'x + q), whose
  uniform-ball smoothing reduces to 1-D integrals; the tests evaluate those
  by quadrature as an estimator-independent reference for smoothed
  gradients.

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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DataSample:
    """One sparse labeled sample: strictly increasing 0-based indices."""

    indices: np.ndarray
    values: np.ndarray
    label: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DataSample)
            and self.label == other.label
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


_LABEL_MAP = {"+1": 1, "1": 1, "-1": -1, "0": -1}


def load_libsvm(path: str, d_hint: int) -> list[DataSample]:
    """Parse a LIBSVM text file: ``label idx:val idx:val ...`` per line.

    Indices are 1-based ascending in the file and converted to 0-based;
    labels may follow the {-1,+1} or {0,1} convention and are mapped to
    {-1,+1}. Malformed lines raise LibsvmParseError with their 1-based
    line number and column.
    """
    with open(path, "r", encoding="ascii") as fh:
        return _parse_lines(fh, d_hint)


def _parse_lines(lines, d_hint: int) -> list[DataSample]:
    # lines may be an open file, read one line at a time so that the whole
    # text is never held in memory; blank lines are skipped but counted
    return [
        _parse_line(line, lineno, d_hint)
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]


def _parse_line(line: str, lineno: int, d_hint: int) -> DataSample:
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

    return DataSample(
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        label=label,
    )


def _parse_error(message: str, line: str, lineno: int, k: int) -> LibsvmParseError:
    """The error for the k-th whitespace-separated token of line, with its
    1-based column; worked out only when a line is rejected."""
    tokens = line.split()
    start = 0
    for tok in tokens[:k]:
        start = line.index(tok, start) + len(tok)
    return LibsvmParseError(message, lineno, line.index(tokens[k], start) + 1)


def _format_value(v: float) -> str:
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def serialize_libsvm(samples: list[DataSample]) -> str:
    """Canonical text form: ``{+1,-1} idx:val ...`` with single spaces,
    1-based indices, shortest-round-trip value formatting."""
    lines = []
    for s in samples:
        parts = [f"{s.label:+d}"]
        for idx, val in zip(s.indices, s.values):
            parts.append(f"{idx + 1}:{_format_value(val)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def shard(data: list[DataSample], n: int, seed: int) -> list[list[DataSample]]:
    """Seeded shuffle then round-robin split into n shards of near-equal size."""
    if n < 1:
        raise OracleError(f"client count must be >= 1, got {n}")
    if n > len(data):
        raise OracleError(f"cannot shard {len(data)} samples across {n} clients")
    perm = stream(seed, "shard", 0).permutation(len(data))
    return [[data[perm[i]] for i in range(c, len(data), n)] for c in range(n)]


def subsample(data: list[DataSample], k: int, seed: int) -> list[DataSample]:
    """Deterministically keep k samples (seeded choice without replacement)."""
    if k >= len(data):
        return list(data)
    keep = stream(seed, "shard", 1).choice(len(data), size=k, replace=False)
    keep.sort()
    return [data[i] for i in keep]


def write_synthetic_libsvm(path: str, m: int, d: int, seed: int, nnz_per_row: int = 14) -> None:
    """Generate a sparse binary-feature classification set in LIBSVM format.

    Planted linear labels with 10% flip noise over 0/1-valued features,
    shaped like the public adult-income style benchmarks (d in the low
    hundreds, a dozen active features per row).
    """
    rng = stream(seed, "datagen", 1)
    w_star = rng.standard_normal(d)
    samples = []
    for _ in range(m):
        k = min(d, max(1, int(rng.poisson(nnz_per_row))))
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        vals = np.ones(k)
        score = w_star[idx].sum() + 0.5 * rng.standard_normal()
        label = 1 if score > 0 else -1
        if rng.random() < 0.10:
            label = -label
        samples.append(DataSample(indices=idx, values=vals, label=label))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_libsvm(samples))


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
        shards: list[list[DataSample]],
        d: int,
        lam: float | None = None,
        alpha: float = 2.0,
    ) -> "CappedHingeSvmProblem":
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
        signed = np.zeros((m, d))
        labels = np.empty(m)
        row = 0
        for shard_samples in shards:
            for s in shard_samples:
                if len(s.indices) and s.indices[-1] >= d:
                    raise OracleError(f"sample index {s.indices[-1]} >= d = {d}")
                signed[row, s.indices] = s.values
                labels[row] = s.label
                row += 1
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
        # with its vector kernel, which rounds differently)
        cuts = np.linspace(0, q, -(-q * m // 1_000_000) + 1).astype(int)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            coef = X[lo:hi] @ self.signed.T
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
