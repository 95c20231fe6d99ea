"""Deterministic random-stream derivation.

All randomness in a run flows from a single root seed. Each consumer gets
its own generator derived from (purpose, *key), so the draws of one purpose
(client sampling, segment draws s, data indices, perturbation directions,
...) never shift when another purpose consumes more or fewer values. The
drivers key the four step purposes by epoch alone and consume each epoch's
generator in step order. This is what makes the n=1 reference-loop
comparison and A/B runs that share data noise possible.
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


def ball(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform draw from the unit Euclidean ball in R^d.

    Gaussian direction normalized to the sphere, then scaled by U^(1/d).
    """
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    r = rng.random() ** (1.0 / d)
    return r * g


def sphere(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform draw from the unit sphere S^(d-1): normalized Gaussian."""
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    return g
