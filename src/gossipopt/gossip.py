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
    """

    matrix: MixingMatrix
    rounds: int
    operator: np.ndarray = field(init=False, repr=False)
    reach: np.ndarray = field(init=False, repr=False)

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
    if diameter <= 0.0:
        raise GossipError(f"diameter must be > 0, got {diameter}")
    if not 0.0 < tolerance < diameter:
        raise GossipError(
            f"tolerance must satisfy 0 < tolerance < diameter, got "
            f"tolerance = {tolerance}, diameter = {diameter}"
        )
    rate = (1.0 - 1.0 / math.sqrt(2.0)) * math.sqrt(gamma)
    arg = math.sqrt(14.0 * n * (n - 1)) * diameter / tolerance
    return math.ceil(math.log(arg) / rate)
