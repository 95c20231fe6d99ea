"""The accelerated-gossip contraction bound and the consensus error it
bounds, against which the tests and acceptance criterion 1 check the operator."""

import math

import numpy as np


def contraction_bound(gamma: float, rounds: int) -> float:
    """Worst-case ratio of summed squared consensus errors after ``rounds``
    accelerated rounds: 14 * (1 - (1 - 1/sqrt(2)) * sqrt(gamma))^(2R)."""
    c = 1.0 - (1.0 - 1.0 / math.sqrt(2.0)) * math.sqrt(gamma)
    return 14.0 * c ** (2 * rounds)


def consensus_sq_error(z: np.ndarray) -> float:
    """Sum over clients of squared distance to the client mean."""
    centered = z - z.mean(axis=0, keepdims=True)
    return float(np.sum(centered * centered))
