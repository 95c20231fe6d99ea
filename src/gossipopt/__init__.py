"""Desk-scale simulator for decentralized nonsmooth nonconvex stochastic
optimization with client sampling and accelerated gossip."""

__version__ = "0.1.0"

# Bumped whenever the RNG layout or the floating-point reduction order
# changes, so traces are reproducible only within one (config, seed,
# TRACE_FORMAT). 1: every release before accelerated gossip became one
# product with a precomputed operator; 2: that operator; 3: one s, client,
# xi and z generator per epoch, consumed in step order, in place of one
# per step.
TRACE_FORMAT = 3

from .core import (
    DivergenceError,
    EpochOutputs,
    RunPlan,
    inner_update,
    plan_parameters,
    run_baseline_full_participation,
    run_docs,
)
from .gossip import GossipConfig, fast_gossip, plain_gossip, plan_rounds
from .metrics import (
    GoldsteinProbeConfig,
    InvariantViolation,
    MetricsRecord,
    MetricsSink,
    consensus_errors,
    goldstein_norm_estimate,
)
from .oracles import (
    CappedHingeSvmProblem,
    LibsvmData,
    OracleSample,
    PiecewiseProblem,
    first_order_estimator,
    load_libsvm,
    serialize_libsvm,
    shard,
    zeroth_order_estimator,
)
from .topology import (
    MixingMatrix,
    TopologyError,
    build_complete,
    build_ring,
    from_weights,
    single_client,
)


def active_backend() -> str:
    """Name of the numeric backend; numpy is the only one."""
    return "numpy"


__all__ = [
    "__version__",
    "TRACE_FORMAT",
    "active_backend",
    "DivergenceError",
    "EpochOutputs",
    "RunPlan",
    "inner_update",
    "plan_parameters",
    "run_baseline_full_participation",
    "run_docs",
    "GossipConfig",
    "fast_gossip",
    "plain_gossip",
    "plan_rounds",
    "GoldsteinProbeConfig",
    "InvariantViolation",
    "MetricsRecord",
    "MetricsSink",
    "consensus_errors",
    "goldstein_norm_estimate",
    "CappedHingeSvmProblem",
    "LibsvmData",
    "OracleSample",
    "PiecewiseProblem",
    "first_order_estimator",
    "load_libsvm",
    "serialize_libsvm",
    "shard",
    "zeroth_order_estimator",
    "MixingMatrix",
    "TopologyError",
    "build_complete",
    "build_ring",
    "from_weights",
    "single_client",
]
