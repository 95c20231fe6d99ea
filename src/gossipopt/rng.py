"""Deterministic random-stream derivation.

All randomness in a run flows from a single root seed. Each consumer gets
its own generator derived from (purpose, *key), so the draws of one purpose
(client sampling, segment draws s, data indices, perturbation directions,
...) never shift when another purpose consumes more or fewer values. The
drivers key the four step purposes by epoch alone and consume each epoch's
generator in step order, in blocks of L steps (``core._step_draws``). Each
step has q queries (all n clients for the full-participation baseline, in
client order, the active one for the client-sampled driver). A block draws
its L steps' s values as one (L, n) array, their active clients in one
"client" call, their L q sample indices in one "xi" ``integers`` call with
the shard sizes, and one (L q, d) block of directions from "z" (``ball`` or
``sphere``). Every draw but the ball's equals, bit for bit, the same values
drawn step by step; a ball block draws all its normals before its radii.
This is what makes the n=1 reference-loop comparison and A/B runs that
share data noise possible.
"""

from __future__ import annotations

import numpy as np

# Stable purpose ids; never reorder, only append.
_PURPOSES = {
    "shard": 0,       # dataset shuffle before splitting across clients
    "client": 1,      # per-epoch active-client draws, one per step
    "s": 2,           # per-epoch segment positions s_i in [0,1], n per step
    "xi": 3,          # per-epoch local sample index draws, one per oracle call
    "z": 4,           # per-epoch perturbation directions (ball / sphere)
    "selector": 5,    # output epoch selection
    "goldstein": 6,   # stationarity probe directions
    "datagen": 7,     # synthetic problem / dataset generation
}


def stream(root_seed: int, purpose: str, *key: int) -> np.random.Generator:
    """Return the generator for (purpose, *key) under ``root_seed``.

    The same arguments always yield a generator producing the same draws,
    independent of any other stream.
    """
    pid = _PURPOSES[purpose]
    ss = np.random.SeedSequence(root_seed, spawn_key=(pid, *key))
    return np.random.Generator(np.random.PCG64(ss))


def ball(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """(count, d) block of uniform draws from the unit Euclidean ball in R^d:
    the sphere block, then count radii U^(1/d), one per row."""
    g = sphere(rng, count, d)
    g *= rng.random((count, 1)) ** (1.0 / d)
    return g


def sphere(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """(count, d) block of uniform draws from the unit sphere S^(d-1):
    count * d normals, each row divided by its norm."""
    g = rng.standard_normal((count, d))
    # what np.linalg.norm(g, axis=1, keepdims=True) computes, bit for bit
    g /= np.sqrt(np.add.reduce(g * g, axis=1, keepdims=True))
    return g
