"""Multi-round consensus over a mixing matrix.

Two flavors: plain gossip (repeated averaging with P) and the accelerated
two-term momentum recursion, which contracts the consensus error at the
square-root-of-gamma rate. The recursion is linear with fixed (P, phi, R),
so R accelerated rounds equal one product with an n x n polynomial of P
that ``GossipConfig`` builds once. ``plan_rounds`` converts a target
consensus tolerance into the number of accelerated rounds that guarantees
it.

Client vectors are stacked as an (n, d) float64 array, one row per client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .topology import MixingMatrix


class GossipError(ValueError):
    pass


def momentum_coefficient(lambda2: float) -> float:
    """phi = (1 - sqrt(1 - lambda2^2)) / (1 + sqrt(1 - lambda2^2)).

    For lambda2 = 0 this is 0 and the recursion degenerates to plain
    averaging, which already reaches exact consensus on a complete graph.
    """
    root = math.sqrt(1.0 - lambda2 * lambda2)
    return (1.0 - root) / (1.0 + root)


@dataclass(frozen=True, eq=False)
class GossipConfig:
    """Mixing matrix plus round count.

    ``operator`` is the read-only (n, n) matrix M_R with
    fast_gossip(cfg, z) = M_R @ z, built in construction by running the
    recursion, with phi derived from lambda2, on the identity. ``reach`` is
    the read-only vector of column maxima max_j |M_R[j, i]|: mixing a stack
    whose one nonzero row v sits at client i gives rows M_R[j, i] * v, the
    largest of norm reach[i] * |v|.

    Three scalars bound how far mixing can spread a stack (see
    core._iterate_bound); each is exact for the stored M_R, rounded up:
    ``spread`` = max_{j,k} |M_R[j, k] - mean_j M_R[j, k]|, ``sum_spread`` =
    max_j |row sum_j - mean row sum| and ``inf_norm`` = max_j sum_k
    |M_R[j, k]|.
    """

    matrix: MixingMatrix
    rounds: int
    operator: np.ndarray = field(init=False, repr=False)
    reach: np.ndarray = field(init=False, repr=False)
    spread: float = field(init=False, repr=False)
    sum_spread: float = field(init=False, repr=False)
    inf_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise GossipError(f"rounds must be >= 0, got {self.rounds}")
        P, phi = self.matrix.weights, momentum_coefficient(self.matrix.lambda2)
        prev = np.eye(self.matrix.n)
        cur = prev.copy()
        for _ in range(self.rounds):
            prev, cur = cur, (1.0 + phi) * (P @ cur) - phi * prev
        reach = np.abs(cur).max(axis=0)
        for name, value in (("operator", cur), ("reach", reach)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        for name, value in zip(("spread", "sum_spread", "inf_norm"), _exact_spreads(cur)):
            object.__setattr__(self, name, value)


def _exact_spreads(m: np.ndarray) -> tuple[float, float, float]:
    """GossipConfig's spread, sum_spread and inf_norm of the (n, n) matrix m.

    Every finite double is an integer multiple of 2^-1074, so in units of
    2^-1074 the entries are Python integers and each sum, difference and
    maximum below is exact; only the final int / int division rounds
    (correctly), and nextafter moves it up past the exact value.
    """
    n = m.shape[0]
    rows = [[p << 1074 >> (q.bit_length() - 1) for p, q in map(float.as_integer_ratio, row)]
            for row in m.tolist()]
    col_sums = [sum(col) for col in zip(*rows)]
    row_sums = [sum(row) for row in rows]
    total = sum(row_sums)
    # n times each deviation from a mean, to stay in integers
    spread = max(abs(n * v - s) for row in rows for v, s in zip(row, col_sums))
    sum_spread = max(abs(n * s - total) for s in row_sums)
    inf_norm = max(sum(map(abs, row)) for row in rows)
    return tuple(math.nextafter(v / (scale << 1074), math.inf)
                 for v, scale in ((spread, n), (sum_spread, n), (inf_norm, 1)))


def _check_stack(n: int, z: np.ndarray) -> np.ndarray:
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != n:
        raise GossipError(
            f"stacked vectors must have shape ({n}, d), got {z.shape}"
        )
    return z


def fast_gossip(cfg: GossipConfig, z: np.ndarray) -> np.ndarray:
    """Apply cfg.rounds rounds of the accelerated recursion
    z^(r+1) = (1 + phi) P z^(r) - phi z^(r-1), with z^(-1) = z^(0),
    as one product with the precomputed cfg.operator.

    Preserves the per-coordinate client mean; with rounds = 0 returns a
    copy of the input.
    """
    return cfg.operator @ _check_stack(cfg.matrix.n, z)


def plain_gossip(matrix: MixingMatrix, z: np.ndarray, rounds: int) -> np.ndarray:
    """Repeatedly average with P: z <- P z, ``rounds`` times."""
    if rounds < 0:
        raise GossipError(f"rounds must be >= 0, got {rounds}")
    out = _check_stack(matrix.n, z)
    for _ in range(rounds):
        out = matrix.weights @ out
    return out.copy() if rounds == 0 else out


def plan_rounds(gamma: float, n: int, diameter: float, tolerance: float) -> int:
    """Accelerated round count guaranteeing per-client consensus error
    <= ``tolerance`` when every pre-mix state is one clipped update of norm
    <= n * diameter (all other clients at zero):
    ceil( log(sqrt(14 n (n-1)) * D / eps') / ((1 - 1/sqrt(2)) sqrt(gamma)) ),
    at least 6, as the checks keep the log argument above sqrt(28)."""
    if not 0.0 < gamma <= 1.0:
        raise GossipError(f"gamma must be in (0, 1], got {gamma}")
    if n < 2:
        raise GossipError(f"n must be >= 2, got {n}")
    if not diameter > 0.0:  # written so that NaN fails
        raise GossipError(f"diameter must be > 0, got {diameter}")
    if not 0.0 < tolerance < diameter:
        raise GossipError(
            f"tolerance must satisfy 0 < tolerance < diameter, got "
            f"tolerance = {tolerance}, diameter = {diameter}"
        )
    rate = (1.0 - 1.0 / math.sqrt(2.0)) * math.sqrt(gamma)
    arg = math.sqrt(14.0 * n * (n - 1)) * diameter / tolerance
    return math.ceil(math.log(arg) / rate)
