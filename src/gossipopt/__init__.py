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
# from the rest; 6: each step draws the randomness of its q oracle queries
# as one block, the q sample indices in one call, then a (q, d) block of
# normals and, for the ball, q radii (the full-participation baseline drew
# its n directions one after another before); 7: each epoch draws its
# steps' randomness in blocks of max(1, 2^15 // (q d)) steps, so a ball
# block takes all its normals before its radii and first-order traces move;
# the s, client, xi and sphere draws, and so zeroth-order traces, do not;
# 8: each consensus number sums the squares of the rows of K @ a, with the
# integer K = n I - 1 1^T, and divides by n only on the final scalars;
# 9: the SVM probe takes row blocks half as large, the calling thread
# summing the even ones and a worker thread the odd ones, and adds the
# worker's sum to its own (on 0/1-valued data every hinge sum is an exact
# integer, so those traces do not move).
TRACE_FORMAT = 9


def active_backend() -> str:
    """Name of the numeric backend; numpy is the only one."""
    return "numpy"
