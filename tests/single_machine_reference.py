"""Standalone single-machine loop used as an independent oracle for the
n = 1 degenerate network.

Deliberately avoids the package drivers and gossip machinery: no stacked
arrays, no mixing, one client. Shares only the estimator functions and the
per-purpose random streams (one generator per purpose and epoch, consumed
in step order), which is exactly what the equivalence check is about: with
mixing degenerate, the decentralized drivers must reproduce this loop bit
for bit.
"""

import numpy as np

from gossipopt.oracles import first_order_estimator, zeroth_order_estimator
from gossipopt.rng import stream


def run_reference(plan, problem, observer=None):
    """Returns (epoch_sums (K, d), w_out (d,)); calls observer(k, t, w, y,
    delta_half) with copies each step."""
    if plan.n != 1:  # a raise, not an assert, so the guard holds under python -O
        raise ValueError(f"the reference loop is single-client, got n = {plan.n}")
    estimator = first_order_estimator if plan.oracle_type == "first" else zeroth_order_estimator
    d, seed = plan.d, plan.seed
    y = np.zeros(d)
    epoch_sums = np.zeros((plan.K, d))
    for k in range(1, plan.K + 1):
        delta_half = np.zeros(d)
        rng_s = stream(seed, "s", k)
        rng_xi = stream(seed, "xi", k)
        rng_z = stream(seed, "z", k)
        for t in range(1, plan.T + 1):
            s = rng_s.random(1)[0]
            x = y + delta_half
            w = y + s * delta_half
            y = x  # mixing over a one-client network is the identity
            g = estimator(problem, 0, w, plan.delta_prime, rng_xi, rng_z)
            v = delta_half - plan.eta * g
            norm = float(np.linalg.norm(v))
            delta_half = v if norm <= plan.D else (plan.D / norm) * v
            epoch_sums[k - 1] += w
            if observer is not None:
                observer(k, t, w.copy(), y.copy(), delta_half.copy())
    k_sel = int(stream(seed, "selector").integers(plan.K))
    return epoch_sums, epoch_sums[k_sel] / plan.T
