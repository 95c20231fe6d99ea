"""The decentralized optimization drivers and their parameter planner.

Two drivers share one epoch loop and differ only in their step:

* ``run_docs``: per step, one uniformly sampled client queries its local
  oracle and applies the n-scaled clipped online update; both the iterate
  stack and the update stack are mixed with the accelerated gossip
  subroutine (R rounds each, so 2R communication rounds per step).
* ``run_baseline_full_participation``: every client queries its oracle
  every step (n oracle calls per computation round), applies the un-scaled
  clipped update, and mixes once per stack with plain gossip (2
  communication rounds per step).

Randomness is organized in decoupled per-purpose streams derived from the
plan seed (see rng module), one generator per (purpose, epoch) consumed in
step order; the full trajectory is a deterministic function of (seed, plan,
problem, matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gossip import GossipConfig, fast_gossip, plain_gossip, plan_rounds
from .metrics import (
    GoldsteinProbeConfig,
    InvariantViolation,
    MetricsRecord,
    MetricsSink,
    consensus_errors,
    goldstein_probe,
)
from .oracles import OracleSample, first_order_estimator, zeroth_order_estimator
from .rng import stream
from .topology import MixingMatrix

ORACLE_TYPES = ("first", "zeroth")


class PlanError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """An iterate became non-finite; carries the (epoch, step, client) where."""

    def __init__(self, k: int, t: int, client: int):
        super().__init__(
            f"non-finite iterate at epoch {k}, step {t}, client {client}"
        )
        self.k = k
        self.t = t
        self.client = client


@dataclass(frozen=True)
class RunPlan:
    """All tuned or derived scalars of one run.

    consensus_guaranteed marks that R is at least the planned round count
    for (gamma, n, D, eps_prime), so the per-step consensus bounds are hard
    guarantees rather than recorded metrics.
    """

    delta: float
    epsilon: float
    delta_prime: float
    K: int
    T: int
    R: int
    eta: float
    D: float
    eps_prime: float
    oracle_type: str
    seed: int
    n: int
    d: int
    consensus_guaranteed: bool = False
    per_client_selector: bool = False

    def __post_init__(self) -> None:
        if self.oracle_type not in ORACLE_TYPES:
            raise PlanError(f"oracle_type must be one of {ORACLE_TYPES}, got {self.oracle_type!r}")
        if self.delta <= 0 or self.epsilon <= 0:
            raise PlanError("delta and epsilon must be > 0")
        if self.delta_prime < 0:
            raise PlanError("delta_prime must be >= 0")
        if self.oracle_type == "zeroth" and self.delta_prime <= 0:
            raise PlanError("zeroth-order oracle requires delta_prime > 0")
        if self.K < 1 or self.T < 1:
            raise PlanError("K and T must be >= 1")
        if self.R < 1:
            raise PlanError("R must be >= 1")
        if self.eta <= 0 or self.D <= 0:
            raise PlanError("eta and D must be > 0")
        if not 0 < self.eps_prime < self.D:
            raise PlanError(
                f"eps_prime must satisfy 0 < eps_prime < D, got "
                f"eps_prime = {self.eps_prime}, D = {self.D}"
            )
        if self.n < 1 or self.d < 1:
            raise PlanError("n and d must be >= 1")

    @property
    def steps_total(self) -> int:
        return self.K * self.T

    def y_consensus_bound(self) -> float:
        return (self.D + self.eps_prime) * self.eps_prime / (self.D - self.eps_prime)


def plan_parameters(
    delta: float,
    epsilon: float,
    n: int,
    d: int,
    gamma: float,
    L: float,
    G: float,
    oracle_type: str,
    seed: int = 0,
    *,
    sigma: float | None = None,
    c0: float = 1.0,
    nu: float = 1.0,
    delta_prime: float | None = None,
    eta: float | None = None,
    D: float | None = None,
    R: int | None = None,
    K: int | None = None,
    T: int | None = None,
    eps_prime: float | None = None,
    per_client_selector: bool = False,
) -> RunPlan:
    """Derive a RunPlan from the target accuracy (delta, epsilon).

    First-order: T = ceil(9 h2^2 / eps^2) with h2 = sigma/sqrt(n) + G + 3 c0 L;
    zeroth-order: T = ceil(9 h4^2 d / eps^2) with h4 = h3/sqrt(n) + h3 + 3 c0 L
    and h3 = sqrt(16 sqrt(2 pi)) L. Then K = ceil(24 (nu + L) / (delta eps)),
    D = delta / (4 T), eta = D / (G sqrt(T)), eps' = min of the two caps
    (T-6)/(3T+6) * D and (eps/3) / (27 c0 L sqrt(d)/(2 delta)
    + 4 (G' + L) T / delta + 10 G' T^(3/2) / delta) with G' = G (first) or
    h3 (zeroth), and R the planned gossip round count for (gamma, n, D, eps').

    sigma defaults to G and nu (initial suboptimality scale) to 1; both only
    move the planned T/K magnitudes, never loop correctness.

    The keyword arguments eta, D, R, K, T and eps_prime, when given, replace
    the planned value of the same name, for grid-tuned runs far from the
    theory settings; each one left None is planned as above, from the
    given values where it depends on them (D from an overridden T, say).
    """
    if min(delta, epsilon, L, G) <= 0:
        raise PlanError("delta, epsilon, L, G must all be > 0")
    if not 0 < gamma <= 1:
        raise PlanError(f"gamma must be in (0, 1], got {gamma}")
    if n < 1 or d < 1:
        raise PlanError("n and d must be >= 1")
    if oracle_type not in ORACLE_TYPES:
        raise PlanError(f"oracle_type must be one of {ORACLE_TYPES}, got {oracle_type!r}")
    if sigma is None:
        sigma = G

    if oracle_type == "first":
        h2 = sigma / math.sqrt(n) + G + 3.0 * c0 * L
        t_formula = max(math.ceil(9.0 * h2 * h2 / epsilon**2), 7)
        grad_scale = G
    else:
        h3 = math.sqrt(16.0 * math.sqrt(2.0 * math.pi)) * L
        h4 = h3 / math.sqrt(n) + h3 + 3.0 * c0 * L
        t_formula = max(math.ceil(9.0 * h4 * h4 * d / epsilon**2), 7)
        grad_scale = h3

    T = t_formula if T is None else int(T)
    K = math.ceil(24.0 * (nu + L) / (delta * epsilon)) if K is None else int(K)
    D = delta / (4.0 * T) if D is None else float(D)
    eta = D / (G * math.sqrt(T)) if eta is None else float(eta)

    if eps_prime is None:
        if T > 6:
            cap_geometry = (T - 6) / (3.0 * T + 6.0) * D
        else:
            cap_geometry = D / 4.0  # user-forced tiny T; keep a valid tolerance
        cap_accuracy = (epsilon / 3.0) / (
            27.0 * c0 * L * math.sqrt(d) / (2.0 * delta)
            + 4.0 * (grad_scale + L) * T / delta
            + 10.0 * grad_scale * T**1.5 / delta
        )
        eps_prime = min(cap_geometry, cap_accuracy)
    eps_prime = float(eps_prime)
    if not 0 < eps_prime < D:
        raise PlanError(
            f"resolved eps_prime = {eps_prime} outside (0, D = {D})"
        )

    planned_r = 1 if n == 1 else plan_rounds(gamma, n, D, eps_prime)
    R = planned_r if R is None else int(R)

    return RunPlan(
        delta=delta,
        epsilon=epsilon,
        delta_prime=delta / 2.0 if delta_prime is None else delta_prime,
        K=K,
        T=T,
        R=R,
        eta=eta,
        D=D,
        eps_prime=eps_prime,
        oracle_type=oracle_type,
        seed=seed,
        n=n,
        d=d,
        consensus_guaranteed=R >= planned_r,
        per_client_selector=per_client_selector,
    )


def inner_update(delta_half: np.ndarray, g: np.ndarray, eta: float, D: float, n: int) -> np.ndarray:
    """Closed form of the ball-constrained online step, scaled by n.

    Returns n * min(1, D / ||v||) * v with v = delta_half - eta * g; the
    unscaled factor solves min_{||x|| <= D} <x, g> + ||x - delta_half||^2 / (2 eta).
    A zero v maps to the zero vector.
    """
    v = delta_half - eta * g
    norm = float(np.linalg.norm(v))
    if norm <= D:
        return n * v
    return (n * D / norm) * v


@dataclass
class RunCounters:
    samples_total: int = 0
    computation_rounds: int = 0
    communication_rounds: int = 0
    function_evals: int = 0

    def charge(self, out: OracleSample) -> None:
        self.samples_total += out.oracle_calls_charged
        self.function_evals += out.function_evals


@dataclass(frozen=True)
class StepSnapshot:
    """Per-step state handed to an observer callback; arrays are live views
    into driver state and must be copied if retained."""

    k: int
    t: int
    active_client: int | None
    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    delta_pre_mix: np.ndarray
    delta_half: np.ndarray


@dataclass(frozen=True)
class EpochOutputs:
    """The selected output epochs and the averaged query points there.

    selected_epochs holds one 0-based epoch index per client (all equal
    unless per-client selection was requested); row i of w_out is client
    i's average query point w over its selected epoch.
    """

    selected_epochs: np.ndarray
    w_out: np.ndarray
    counters: RunCounters


def run_docs(
    plan: RunPlan,
    problem,
    matrix: MixingMatrix,
    sink: MetricsSink | None = None,
    *,
    metrics_every: int = 1,
    goldstein_cfg: GoldsteinProbeConfig | None = None,
    goldstein_every: int = 0,
    step_observer: Callable[[StepSnapshot], None] | None = None,
) -> EpochOutputs:
    """Client-sampled driver: one oracle call per step, accelerated gossip.

    With plan.consensus_guaranteed every step also checks the consensus
    bounds the planned R guarantees and raises InvariantViolation on a
    breach.
    """
    _check_compatible(plan, problem, matrix)
    n = plan.n
    estimator = _estimator(plan)
    gossip_cfg = GossipConfig(matrix, plan.R)

    def step(k, t, y, delta_half, w, rng_client, rng_xi, rng_z, counters):
        i = int(rng_client.integers(n))
        x = y.copy()
        x[i] += n * delta_half[i]
        y = fast_gossip(gossip_cfg, x)
        out = estimator(problem, i, w[i], plan.delta_prime, rng_xi, rng_z)
        counters.charge(out)
        delta = np.zeros_like(x)
        delta[i] = inner_update(delta_half[i], out.g, plan.eta, plan.D, n)
        upd_norm = float(np.linalg.norm(delta[i]))
        # non-finite states fall through to the divergence check
        if np.isfinite(upd_norm):
            _require("clipped update norm", upd_norm, n * plan.D, k, t, rtol=1e-12)
        return i, x, y, delta, fast_gossip(gossip_cfg, delta)

    y_bound = plan.y_consensus_bound()

    def check_consensus(k, t, x, y, delta_half):
        _, max_delta_err = consensus_errors(x, delta_half)
        _require("mixed-update consensus", max_delta_err, plan.eps_prime, k, t)
        max_delta_norm = float(np.linalg.norm(delta_half, axis=1).max())
        _require("mixed update norm", max_delta_norm, plan.D + plan.eps_prime, k, t)
        y_err = float(np.linalg.norm(y - y.mean(axis=0, keepdims=True), axis=1).max())
        _require("iterate consensus", y_err, y_bound, k, t)

    check = check_consensus if plan.consensus_guaranteed else None
    return _epoch_loop(plan, problem, step, 2 * plan.R, check, sink, metrics_every,
                       goldstein_cfg, goldstein_every, step_observer)


def run_baseline_full_participation(
    plan: RunPlan,
    problem,
    matrix: MixingMatrix,
    sink: MetricsSink | None = None,
    *,
    metrics_every: int = 1,
    goldstein_cfg: GoldsteinProbeConfig | None = None,
    goldstein_every: int = 0,
    step_observer: Callable[[StepSnapshot], None] | None = None,
) -> EpochOutputs:
    """Full-participation driver: n oracle calls per step, one plain gossip
    round per mixing point (plan.R is not used)."""
    _check_compatible(plan, problem, matrix)
    n = plan.n
    estimator = _estimator(plan)

    def step(k, t, y, delta_half, w, rng_client, rng_xi, rng_z, counters):
        x = y + delta_half
        y = plain_gossip(matrix, x, 1)
        delta = np.empty_like(x)
        for i in range(n):
            out = estimator(problem, i, w[i], plan.delta_prime, rng_xi, rng_z)
            counters.charge(out)
            delta[i] = inner_update(delta_half[i], out.g, plan.eta, plan.D, 1)
        return None, x, y, delta, plain_gossip(matrix, delta, 1)

    return _epoch_loop(plan, problem, step, 2, None, sink, metrics_every,
                       goldstein_cfg, goldstein_every, step_observer)


def _check_compatible(plan: RunPlan, problem, matrix: MixingMatrix) -> None:
    if problem.n != plan.n or matrix.n != plan.n:
        raise PlanError(
            f"client counts disagree: plan n = {plan.n}, problem n = {problem.n}, "
            f"matrix n = {matrix.n}"
        )
    if problem.d != plan.d:
        raise PlanError(f"dimensions disagree: plan d = {plan.d}, problem d = {problem.d}")


def _estimator(plan: RunPlan):
    return first_order_estimator if plan.oracle_type == "first" else zeroth_order_estimator


def _require(what: str, observed: float, bound: float, k: int, t: int,
             rtol: float = 1e-9) -> None:
    if not observed <= bound * (1.0 + rtol):
        raise InvariantViolation(what, k, t, observed, bound)


def _epoch_loop(
    plan: RunPlan,
    problem,
    step: Callable,
    comm_per_step: int,
    check: Callable | None,
    sink: MetricsSink | None,
    metrics_every: int,
    goldstein_cfg: GoldsteinProbeConfig | None,
    goldstein_every: int,
    step_observer: Callable[[StepSnapshot], None] | None,
) -> EpochOutputs:
    """Run K epochs of T steps around a driver's step.

    The loop owns everything the drivers share: the output-epoch selector,
    the epoch's s, client, xi and z streams (built once per epoch and
    consumed in step order), the query points w, the counters, the
    divergence check, the sum of w over the selected epoch, the observer and
    the trace records with their probes. ``step(k, t, y, delta_half, w,
    rng_client, rng_xi, rng_z, counters)`` draws its active client, if it
    has one, from rng_client, queries the oracles with rng_xi and rng_z in
    client order and mixes both stacks; it returns (active client or None,
    x, mixed y, pre-mix update stack, mixed update stack). ``check(k, t, x,
    y, delta_half)``, when given, runs after the divergence check.
    """
    n, d, seed = plan.n, plan.d, plan.seed
    # the selector has its own stream, so the output epochs are drawn first
    # and w is summed only over them
    if plan.per_client_selector:
        selected = np.array(
            [int(stream(seed, "selector", i).integers(plan.K)) for i in range(n)]
        )
    else:
        selected = np.full(n, int(stream(seed, "selector").integers(plan.K)))
    y = np.zeros((n, d))
    w_sum = np.zeros((n, d))
    counters = RunCounters()
    record_index = 0

    for k in range(1, plan.K + 1):
        picked = (selected == k - 1)[:, None]
        summing = bool(picked.any())
        delta_half = np.zeros((n, d))
        rng_s, rng_client, rng_xi, rng_z = (
            stream(seed, purpose, k) for purpose in ("s", "client", "xi", "z")
        )
        for t in range(1, plan.T + 1):
            s = rng_s.random(n)
            w = y + s[:, None] * delta_half
            active, x, y, delta_pre_mix, delta_half = step(
                k, t, y, delta_half, w, rng_client, rng_xi, rng_z, counters
            )
            counters.computation_rounds += 1
            counters.communication_rounds += comm_per_step

            if not np.all(np.isfinite(y)) or not np.all(np.isfinite(delta_half)):
                bad = ~(np.isfinite(y).all(axis=1) & np.isfinite(delta_half).all(axis=1))
                raise DivergenceError(k, t, int(np.argmax(bad)))
            if check is not None:
                check(k, t, x, y, delta_half)

            if summing:
                np.add(w_sum, w, out=w_sum, where=picked)

            if step_observer is not None:
                step_observer(
                    StepSnapshot(
                        k=k,
                        t=t,
                        active_client=active,
                        x=x,
                        w=w,
                        y=y,
                        delta_pre_mix=delta_pre_mix,
                        delta_half=delta_half,
                    )
                )

            if sink is not None:
                step_no = (k - 1) * plan.T + t
                if step_no % metrics_every == 0 or step_no == plan.steps_total:
                    cons_x, cons_delta = consensus_errors(x, delta_half)
                    gold = None
                    if goldstein_cfg is not None and goldstein_every > 0:
                        if record_index % goldstein_every == 0 or step_no == plan.steps_total:
                            gold = goldstein_probe(
                                problem, w, goldstein_cfg, stream(seed, "goldstein", k, t)
                            )
                    sink.record(
                        MetricsRecord(
                            k=k,
                            t=t,
                            samples_total=counters.samples_total,
                            computation_rounds=counters.computation_rounds,
                            communication_rounds=counters.communication_rounds,
                            objective=problem.full_value(w.mean(axis=0)),
                            consensus_x=cons_x,
                            consensus_delta=cons_delta,
                            goldstein_estimate=gold,
                        )
                    )
                    record_index += 1

    return EpochOutputs(selected_epochs=selected, w_out=w_sum / plan.T, counters=counters)
