"""Quadrature smoothing oracle for the synthetic piecewise problem.

The uniform-ball smoothed gradient of |c'x| + max(u'x + p, v'x + q)
reduces to 1-D integrals over the marginal of one ball coordinate, so it is
computable to near machine precision without touching any estimator code.
"""

from functools import lru_cache

import numpy as np


def smoothed_gradient(problem, client, w, mu, nodes=96):
    """Gradient of the uniform-ball smoothing of f_client at w.

    Uses E[sign(a + beta * t)] and P(a + beta * t > 0) where t is one
    coordinate of a uniform unit-ball point, integrated piecewise with
    Gauss-Legendre so the indicator breakpoints are node-aligned.
    """
    if mu <= 0:
        raise ValueError("smoothing radius must be > 0")
    s = problem.slices[client]
    C, U, V = problem.C[s], problem.U[s], problem.V[s]
    p, q = problem.p[s], problem.q[s]
    m, d = C.shape

    a_abs = C @ w
    beta_abs = mu * np.linalg.norm(C, axis=1)
    exp_sign = np.array(
        [2.0 * _prob_positive(a_abs[j], beta_abs[j], d, nodes) - 1.0 for j in range(m)]
    )

    diff = U - V
    a_max = diff @ w + (p - q)
    beta_max = mu * np.linalg.norm(diff, axis=1)
    prob_first = np.array(
        [_prob_positive(a_max[j], beta_max[j], d, nodes) for j in range(m)]
    )

    grad = exp_sign @ C + V.sum(axis=0) + prob_first @ diff
    return grad / m


@lru_cache(maxsize=8)
def _leggauss(nodes):
    return np.polynomial.legendre.leggauss(nodes)


@lru_cache(maxsize=64)
def _marginal_norm(d, nodes):
    xf, wf = _leggauss(nodes)
    return float(np.sum(wf * (1.0 - xf * xf) ** ((d - 1) / 2.0)))


def _marginal_density_mass(lo, hi, d, nodes):
    """integral of (1 - t^2)^((d-1)/2) over [lo, hi], normalized over [-1, 1]."""
    x, wts = _leggauss(nodes)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = mid + half * x
    unnorm = half * np.sum(wts * (1.0 - t * t) ** ((d - 1) / 2.0))
    return unnorm / _marginal_norm(d, nodes)


def _prob_positive(a, beta, d, nodes):
    """P(a + beta t > 0) for t one coordinate of a uniform unit-ball draw."""
    if beta == 0.0:
        return 1.0 if a > 0 else 0.0
    t0 = -a / beta
    if t0 <= -1.0:
        return 1.0
    if t0 >= 1.0:
        return 0.0
    return _marginal_density_mass(t0, 1.0, d, nodes)
