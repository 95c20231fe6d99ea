"""Mixing matrices for standard network topologies.

A mixing matrix is symmetric, doubly stochastic, entrywise nonnegative,
with spectrum inside [0, 1]; its spectral gap gamma = 1 - lambda2 governs
how fast gossip contracts disagreement. Matrices here are dense, immutable
after construction, and carry their spectral quantities precomputed by an
exact symmetric eigendecomposition (desk scale keeps n small).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-12
EIGENVALUE_TOL = 1e-10


class TopologyError(ValueError):
    """A requested topology or candidate weight matrix is invalid."""


@dataclass(frozen=True)
class MixingMatrix:
    """Validated network weight matrix with cached spectral quantities.

    Attributes:
        n: number of clients.
        weights: (n, n) dense symmetric doubly stochastic matrix.
        lambda2: second-largest eigenvalue, in [0, 1).
        gamma: spectral gap 1 - lambda2, in (0, 1].
    """

    n: int
    weights: np.ndarray = field(repr=False)
    lambda2: float
    gamma: float

    def __post_init__(self) -> None:
        self.weights.setflags(write=False)

    # the spectral fields follow from the weights, so the bytes of the
    # (read-only) weights are the identity of a matrix
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixingMatrix):
            return NotImplemented
        return self.weights.tobytes() == other.weights.tobytes()

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())


def _second_largest_eigenvalue(weights: np.ndarray) -> tuple[float, np.ndarray]:
    eigs = np.linalg.eigvalsh(weights)  # ascending
    if weights.shape[0] == 1:
        # a single client network mixes trivially; by convention gamma = 1
        return 0.0, eigs
    return float(eigs[-2]), eigs


def from_weights(raw: np.ndarray) -> MixingMatrix:
    """Validate a candidate weight matrix and build a MixingMatrix.

    Raises TopologyError naming the violated requirement and the offending
    indices: asymmetry, negative entries, row sums != 1, eigenvalues outside
    [0, 1], or zero spectral gap (disconnected network / identity).
    """
    weights = np.array(raw, dtype=np.float64, order="C")
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise TopologyError(f"weight matrix must be square, got shape {weights.shape}")
    n = weights.shape[0]
    if n < 1:
        raise TopologyError("weight matrix must have at least one row")
    if not np.all(np.isfinite(weights)):
        bad = np.argwhere(~np.isfinite(weights))[0]
        raise TopologyError(f"non-finite weight at ({bad[0]}, {bad[1]})")

    asym = np.abs(weights - weights.T)
    if asym.max(initial=0.0) > SYMMETRY_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise TopologyError(
            f"matrix is not symmetric: |p[{i}][{j}] - p[{j}][{i}]| = {asym[i, j]:.3e}"
        )
    if weights.min() < 0.0:
        i, j = np.unravel_index(int(np.argmin(weights)), weights.shape)
        raise TopologyError(f"negative weight p[{i}][{j}] = {weights[i, j]:.3e}")
    row_sums = weights.sum(axis=1)
    err = np.abs(row_sums - 1.0)
    if err.max() > ROW_SUM_TOL:
        i = int(np.argmax(err))
        raise TopologyError(f"row {i} sums to {row_sums[i]!r}, expected 1")

    lambda2, eigs = _second_largest_eigenvalue(weights)
    if eigs[0] < -EIGENVALUE_TOL:
        raise TopologyError(f"smallest eigenvalue {eigs[0]!r} below 0")
    if eigs[-1] > 1.0 + EIGENVALUE_TOL:
        raise TopologyError(f"largest eigenvalue {eigs[-1]!r} above 1")

    lambda2 = min(max(lambda2, 0.0), 1.0)  # keep gamma inside (0, 1] despite roundoff
    gamma = 1.0 - lambda2
    if gamma <= 0.0 + EIGENVALUE_TOL and n > 1:
        raise TopologyError(
            "disconnected network: spectral gap is 0 "
            f"(second-largest eigenvalue = {lambda2!r})"
        )
    return MixingMatrix(n=n, weights=weights, lambda2=lambda2, gamma=gamma)


def build_ring(n: int, neighbors_per_side: int) -> MixingMatrix:
    """Circulant ring where each client also talks to its k nearest
    neighbors on each side.

    Self-weight is 1/2, the remaining 1/2 split equally over the 2k
    neighbors; diagonal dominance then guarantees all eigenvalues lie in
    [0, 1] for any k.
    """
    if n < 3:
        raise TopologyError(f"ring topology requires n >= 3, got n = {n}")
    if neighbors_per_side < 1:
        raise TopologyError(
            f"neighbors_per_side must be >= 1, got {neighbors_per_side}"
        )
    if 2 * neighbors_per_side + 1 > n:
        raise TopologyError(
            f"neighbors_per_side = {neighbors_per_side} needs at least "
            f"{2 * neighbors_per_side + 1} clients, got n = {n}"
        )
    w = 0.5 / (2 * neighbors_per_side)
    weights = np.zeros((n, n))
    np.fill_diagonal(weights, 0.5)
    for off in range(1, neighbors_per_side + 1):
        for i in range(n):
            weights[i, (i + off) % n] += w
            weights[i, (i - off) % n] += w
    return from_weights(weights)


def build_complete(n: int) -> MixingMatrix:
    """Complete coupling: every entry 1/n, one round reaches the exact mean."""
    if n < 2:
        raise TopologyError(f"complete topology requires n >= 2, got n = {n}")
    return from_weights(np.full((n, n), 1.0 / n))


def single_client() -> MixingMatrix:
    """Degenerate one-client network P = [1]; mixing is the identity."""
    return from_weights(np.ones((1, 1)))


def load_weights_file(path: str) -> MixingMatrix:
    """Read a whitespace-delimited n x n matrix from a text file."""
    try:
        raw = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise TopologyError(f"cannot read weight matrix from {path}: {exc}") from exc
    return from_weights(raw)
