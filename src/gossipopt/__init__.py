"""Desk-scale simulator for decentralized nonsmooth nonconvex stochastic
optimization with client sampling and accelerated gossip."""

__version__ = "0.1.0"

# Bumped whenever the RNG layout or the floating-point reduction order
# changes, so traces are reproducible only within one (config, seed,
# TRACE_FORMAT). 1: every release before accelerated gossip became one
# product with a precomputed operator; 2: that operator; 3: one s, client,
# xi and z generator per epoch, consumed in step order, in place of one
# per step; 4: the stationarity probe sums the rows its screen finds active
# at every point as one vector, apart from the rows it multiplies; 5: the
# probe takes its rows block by block, and in each block sums the rows the
# screen or the margins find active at every point as one vector, apart
# from the rest.
TRACE_FORMAT = 5


def active_backend() -> str:
    """Name of the numeric backend; numpy is the only one."""
    return "numpy"
