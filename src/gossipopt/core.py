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
step order. The epoch loop draws the randomness of every step, in blocks of
up to BLOCK_DOUBLES // (q d) steps for q oracle queries per step, and hands
each step its draws; the estimators are deterministic in what was drawn.
The full trajectory is a deterministic function of (seed, plan, problem,
matrix).

Each estimator call counts as one sample: a zeroth-order call is one
two-point query, and its two raw function evaluations are counted apart in
function_evals. A driver's step counts the calls it makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gossip import GossipConfig, fast_gossip, plain_gossip, plan_rounds
from .metrics import (
    InvariantViolation,
    MetricsRecord,
    MetricsSink,
    _max_row_distance,
    consensus_errors,
    goldstein_probe,
)
from .oracles import first_order_estimator, zeroth_order_estimator
from .rng import ball, sphere, stream
from .topology import MixingMatrix

ORACLE_TYPES = ("first", "zeroth")

# the most directions' doubles one block of steps draws: 2^15, or 256 KB
BLOCK_DOUBLES = 1 << 15


class PlanError(ValueError):
    """A plan cannot be made; key names the planner argument at fault, if
    one is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class DivergenceError(RuntimeError):
    """An iterate became non-finite; carries the (epoch, step, client) where.
    The client's pre-mix row went non-finite first, if one did: mixing it
    spreads NaN to every row, as BLAS takes 0 * NaN = NaN."""

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

    def __post_init__(self) -> None:
        if self.oracle_type not in ORACLE_TYPES:
            raise PlanError(f"oracle_type must be one of {ORACLE_TYPES}, got {self.oracle_type!r}")
        for name in ("delta", "epsilon", "eta", "D"):
            if not getattr(self, name) > 0:  # written so that NaN fails
                raise PlanError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.delta_prime >= 0:
            raise PlanError(f"delta_prime must be >= 0, got {self.delta_prime}")
        if self.oracle_type == "zeroth" and not self.delta_prime > 0:
            raise PlanError("zeroth-order oracle requires delta_prime > 0")
        if self.K < 1 or self.T < 1:
            raise PlanError("K and T must be >= 1")
        if self.R < 1:
            raise PlanError("R must be >= 1")
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
    for name, value in dict(delta=delta, epsilon=epsilon, L=L, G=G, eta=eta, D=D).items():
        if value is not None and not value > 0:  # written so that NaN fails
            raise PlanError(f"{name} must be > 0, got {value}")
    if not c0 > 0:  # written so that NaN fails, here and below
        raise PlanError(f"c0 must be > 0, got {c0}", key="c0")
    for name, value in dict(sigma=sigma, nu=nu).items():
        if value is not None and not value >= 0:
            raise PlanError(f"{name} must be >= 0, got {value}", key=name)
    if not 0 < gamma <= 1:
        raise PlanError(f"gamma must be in (0, 1], got {gamma}")
    if n < 1 or d < 1:
        raise PlanError("n and d must be >= 1")
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
    planned_D = D is None
    D = delta / (4.0 * T) if planned_D else float(D)
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
        source = f"the planner's D = delta / (4 T) = {D}" if planned_D else f"D = {D}"
        raise PlanError(f"eps_prime = {eps_prime} must be above 0 and below {source}",
                        key="eps_prime")

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
    )


def inner_update(delta_half: np.ndarray, g: np.ndarray, eta: float, D: float, n: int) -> np.ndarray:
    """Closed form of the ball-constrained online step, scaled by n.

    Returns n * min(1, D / ||v||) * v with v = delta_half - eta * g; the
    unscaled factor solves min_{||x|| <= D} <x, g> + ||x - delta_half||^2 / (2 eta).
    A zero v maps to the zero vector.
    """
    v = delta_half - eta * g
    norm = _norm(v)
    if norm <= D:
        return n * v
    return (n * D / norm) * v


def _norm(v: np.ndarray) -> float:
    """|v|, bit for bit np.linalg.norm(v) while the sum of squares is finite."""
    norm = math.sqrt(v.dot(v))
    if norm == math.inf:
        # the sum of squares overflowed (|v| above about 1.34e154); a finite
        # v still has a norm, taken after scaling by its largest entry
        top = float(np.abs(v).max())
        if math.isfinite(top):
            u = v / top
            norm = top * math.sqrt(u.dot(u))
    return norm


@dataclass
class RunCounters:
    samples_total: int = 0
    computation_rounds: int = 0
    communication_rounds: int = 0
    function_evals: int = 0


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class EpochOutputs:
    """The selected output epoch and the averaged query points there.

    selected_epoch is the 0-based index of the one epoch drawn for every
    client; row i of w_out is client i's average query point w over it.
    """

    selected_epoch: int
    w_out: np.ndarray
    counters: RunCounters


def run_docs(
    plan: RunPlan,
    problem,
    matrix: MixingMatrix,
    sink: MetricsSink | None = None,
    *,
    metrics_every: int = 1,
    goldstein_every: int = 0,
    goldstein_samples: int = 64,
    step_observer: Callable[[StepSnapshot], None] | None = None,
) -> EpochOutputs:
    """Client-sampled driver: one oracle call per step, accelerated gossip.

    With plan.consensus_guaranteed every step also checks the consensus
    bounds the planned R guarantees and raises InvariantViolation on a
    breach. With goldstein_every > 0, every goldstein_every-th trace row and
    the last carry the all-clients probe at radius plan.delta, with
    goldstein_samples points per client.
    """
    _check_compatible(plan, problem, matrix)
    n = plan.n
    estimator, evals = _estimator(plan)
    gossip_cfg = GossipConfig(matrix, plan.R)
    upd_norm = 0.0  # the last clipped update's norm, read by the check

    def step(k, t, y, delta_half, w, i, j, z, counters):
        nonlocal upd_norm
        x = y.copy()
        x[i] += n * delta_half[i]
        y = fast_gossip(gossip_cfg, x)
        g = estimator(problem, i, j, w[i], plan.delta_prime, z)
        counters.samples_total += 1
        counters.function_evals += evals
        delta = np.zeros(x.shape)
        upd = inner_update(delta_half[i], g, plan.eta, plan.D, n)
        delta[i] = upd
        upd_norm = _norm(upd)
        # non-finite states fall through to the divergence check
        if math.isfinite(upd_norm):
            _require("clipped update norm", upd_norm, n * plan.D, k, t, rtol=1e-12)
        return x, y, delta, fast_gossip(gossip_cfg, delta)

    y_bound = plan.y_consensus_bound()
    reach = gossip_cfg.reach
    iterate_bound = _iterate_bound(gossip_cfg, plan.d)

    def check_consensus(k, t, i, x, y, delta_half, y_sq):
        mean_x, max_delta_err = consensus_errors(x, delta_half)
        _require("mixed-update consensus", max_delta_err, plan.eps_prime, k, t)
        # the pre-mix stack is the one row upd at client i, so mixed row j
        # is M_R[j, i] * upd and the largest row norm is reach[i] * |upd|
        _require("mixed update norm", reach[i] * upd_norm, plan.D + plan.eps_prime, k, t)
        # the exact value is needed only when its bound fails (NaN included);
        # a passing bound means the exact value would have passed too
        iterate = iterate_bound(mean_x, x, y_sq)
        if not iterate <= y_bound:
            iterate = _max_row_distance(y)
        _require("iterate consensus", iterate, y_bound, k, t)

    check = check_consensus if plan.consensus_guaranteed else None
    return _epoch_loop(plan, problem, step, True, 2 * plan.R, check, sink, metrics_every,
                       goldstein_every, goldstein_samples, step_observer)


def run_baseline_full_participation(
    plan: RunPlan,
    problem,
    matrix: MixingMatrix,
    sink: MetricsSink | None = None,
    *,
    metrics_every: int = 1,
    goldstein_every: int = 0,
    goldstein_samples: int = 64,
    step_observer: Callable[[StepSnapshot], None] | None = None,
) -> EpochOutputs:
    """Full-participation driver: n oracle calls per step, one plain gossip
    round per mixing point (plan.R is not used); traces and probes as in
    run_docs."""
    _check_compatible(plan, problem, matrix)
    n = plan.n
    estimator, evals = _estimator(plan)
    mu, eta, D = plan.delta_prime, plan.eta, plan.D

    def step(k, t, y, delta_half, w, _, js, Z, counters):
        x = y + delta_half
        y = plain_gossip(matrix, x, 1)
        delta = np.empty_like(x)
        for i, (j, w_i, z_i, half_i) in enumerate(zip(js, w, Z, delta_half)):
            delta[i] = inner_update(half_i, estimator(problem, i, j, w_i, mu, z_i), eta, D, 1)
        counters.samples_total += n
        counters.function_evals += n * evals
        return x, y, delta, plain_gossip(matrix, delta, 1)

    return _epoch_loop(plan, problem, step, False, 2, None, sink, metrics_every,
                       goldstein_every, goldstein_samples, step_observer)


def _check_compatible(plan: RunPlan, problem, matrix: MixingMatrix) -> None:
    if problem.n != plan.n or matrix.n != plan.n:
        raise PlanError(
            f"client counts disagree: plan n = {plan.n}, problem n = {problem.n}, "
            f"matrix n = {matrix.n}"
        )
    if problem.d != plan.d:
        raise PlanError(f"dimensions disagree: plan d = {plan.d}, problem d = {problem.d}")


def _estimator(plan: RunPlan):
    """The plan's estimator and the raw function evaluations one call makes."""
    if plan.oracle_type == "first":
        return first_order_estimator, 0
    return zeroth_order_estimator, 2


_U = 2.0**-53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): a sum of k terms or a dot product
    of length k, in any order and with or without FMA, is off by at most
    gamma_k times the same sum taken over the terms' magnitudes."""
    return k * _U / (1.0 - k * _U)


def _iterate_bound(cfg: GossipConfig, d: int) -> Callable[[float, np.ndarray, float], float]:
    """B(m_x, x, y_sq) >= _max_row_distance(y) for y = fast_gossip(cfg, x)
    of an (n, d) stack x, from m_x = consensus_errors(x, .)[0] and the
    computed y_sq = y . y, at the cost of one dot product.

    With M = cfg.operator, (c, r, A) = (cfg.spread, cfg.sum_spread,
    cfg.inf_norm), X = |x|_F, Y = |y|_F and u = 2^-53,
      B = (c (n m_x + e_x) + r X / sqrt(n) + 2 gamma_n A X
           + (2 gamma_n + 3 gamma_{d+2}) Y + 2^-400) (1 + 4 (n d + 40) u),
      e_x = 2 n gamma_{n+d+2} m_x + 2 n gamma_n X.
    - Mixing. The computed y is M x + E with |E| <= gamma_n |M| |x|
      entrywise, so |E_j| <= gamma_n A X. Row j of y - ybar is
      sum_k (M[j, k] - mean_j M[j, k]) (x_k - xbar)
      + (row sum_j - mean row sum) xbar + E_j - Ebar,
      and |xbar| <= X / sqrt(n), so every row distance of y is at most
      c S + r X / sqrt(n) + 2 gamma_n A X, with S = sum_k |x_k - xbar|.
    - S from m_x. Row k of the computed K x (metrics._row_sq_distances)
      is off by at most 2 n gamma_n X in norm. Its squared norm, square
      root, the sum over k and the division by n^2 lose at most a factor
      1 - gamma_{n+d+1}. So S <= n m_x + e_x.
    - Today's value. _max_row_distance(y) reads that distance with at most
      (2 gamma_n + 3 gamma_{d+2}) Y added by its own rounding.
    - Underflow. The bounds above are relative and ignore it. What it
      loses is absolute: about 2^-537 times a polynomial in n and d, far
      below 2^-400 for any stack that fits in memory.
    - Rounding of B. Every quantity in B is nonnegative. X and Y come from
      dot products of n d terms, and the coefficients and their sum take
      a few dozen more roundings. So the computed B is at least the exact
      formula times 1 - gamma_{n d + 40}, which the last factor more than
      undoes.
    """
    n = cfg.matrix.n
    c, r, a = cfg.spread, cfg.sum_spread, cfg.inf_norm
    up = 1.0 + 4 * (n * d + 40) * _U
    a_m = up * c * n * (1.0 + 2.0 * _gamma(n + d + 2))
    a_x = up * (2.0 * c * n * _gamma(n) + r / math.sqrt(n) + 2.0 * _gamma(n) * a)
    a_y = up * (2.0 * _gamma(n) + 3.0 * _gamma(d + 2))
    a_0 = up * 2.0**-400

    def bound(mean_x: float, x: np.ndarray, y_sq: float) -> float:
        flat = x.ravel()
        return a_m * mean_x + a_x * math.sqrt(flat.dot(flat)) + a_y * math.sqrt(y_sq) + a_0

    return bound


def _require(what: str, observed: float, bound: float, k: int, t: int,
             rtol: float = 1e-9) -> None:
    if not observed <= bound * (1.0 + rtol):
        raise InvariantViolation(what, k, t, observed, bound)


def _step_draws(plan: RunPlan, k: int, sampled: bool, sizes: np.ndarray):
    """Yield (t, s, i, j, z) for each step t of epoch k, drawn in blocks.

    Each step queries q oracles: the one client it samples when ``sampled``
    (the client-sampled driver), else all n clients in order. The epoch's
    s, client, xi and z streams are built once and drawn in blocks of
    L = max(1, BLOCK_DOUBLES // (q d)) steps, the last block cut at the
    epoch's end. A block of m steps draws (m, n) values s, then, when
    sampled, m active clients, then one xi ``integers`` call with the m q
    queries' shard sizes and one (m q, d) block of directions: ball for the
    first-order oracle, sphere for the zeroth. s is yielded as an (n, 1)
    column. When sampled, i is the active client, j one sample index and z
    one (d,) direction; otherwise i is None, j a list of n sample indices
    and z an (n, d) block.
    """
    n, d = plan.n, plan.d
    q = 1 if sampled else n
    block = max(1, BLOCK_DOUBLES // (q * d))
    directions = ball if plan.oracle_type == "first" else sphere
    rng_s, rng_client, rng_xi, rng_z = (
        stream(plan.seed, purpose, k) for purpose in ("s", "client", "xi", "z")
    )
    for first in range(1, plan.T + 1, block):
        m = min(block, plan.T + 1 - first)
        S = rng_s.random((m, n))[:, :, None]
        if sampled:
            clients = rng_client.integers(n, size=m)
            J = rng_xi.integers(sizes[clients]).tolist()
            Z = directions(rng_z, m, d)
            clients = clients.tolist()
        else:
            clients = [None] * m
            J = rng_xi.integers(np.tile(sizes, m)).reshape(m, n).tolist()
            Z = directions(rng_z, m * n, d).reshape(m, n, d)
        yield from zip(range(first, first + m), S, clients, J, Z)


def _epoch_loop(
    plan: RunPlan,
    problem,
    step: Callable,
    sampled: bool,
    comm_per_step: int,
    check: Callable | None,
    sink: MetricsSink | None,
    metrics_every: int,
    goldstein_every: int,
    goldstein_samples: int,
    step_observer: Callable[[StepSnapshot], None] | None,
) -> EpochOutputs:
    """Run K epochs of T steps around a driver's step.

    The loop owns everything the drivers share: the output epoch,
    the draws of every step (``_step_draws``, in blocks of steps; ``sampled``
    marks the client-sampled driver), the query points w, the counters, the
    divergence check, the sum of w over the selected epoch, the observer and
    the trace records with their probes. ``step(k, t, y, delta_half, w, i,
    j, z, counters)`` gets the step's active client i (None when every
    client queries), sample indices j and directions z, calls the estimator
    once per query, counts each call in counters and mixes both stacks; it
    returns (x, mixed y, pre-mix update stack, mixed update stack).
    ``check(k, t, i, x, y, delta_half, y_sq)``, when given, runs after the
    divergence check; y_sq is the computed y . y.
    """
    n, d, seed = plan.n, plan.d, plan.seed
    sizes = np.array([problem.shard_size(i) for i in range(n)])
    # the selector has its own stream, so the output epoch is drawn first
    # and w is summed only over it
    selected = int(stream(seed, "selector").integers(plan.K))
    y = np.zeros((n, d))
    w_sum = np.zeros((n, d))
    counters = RunCounters()
    record_index = 0

    for k in range(1, plan.K + 1):
        summing = k - 1 == selected
        delta_half = np.zeros((n, d))
        for t, s, active, j, z in _step_draws(plan, k, sampled, sizes):
            w = s * delta_half
            w += y
            x, y, delta_pre_mix, delta_half = step(
                k, t, y, delta_half, w, active, j, z, counters
            )
            counters.computation_rounds += 1
            counters.communication_rounds += comm_per_step

            # a sum of squares is finite only if every entry is; it can also
            # overflow with every entry finite, so only the scan decides
            y_flat, half_flat = y.ravel(), delta_half.ravel()
            y_sq = y_flat.dot(y_flat)
            if not math.isfinite(y_sq + half_flat.dot(half_flat)):
                bad = ~(np.isfinite(y).all(axis=1) & np.isfinite(delta_half).all(axis=1))
                if bad.any():
                    pre = ~(np.isfinite(x).all(axis=1) & np.isfinite(delta_pre_mix).all(axis=1))
                    raise DivergenceError(k, t, int(np.argmax(pre if pre.any() else bad)))
            if check is not None:
                check(k, t, active, x, y, delta_half, y_sq)

            if summing:
                w_sum += w

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
                    if goldstein_every > 0:
                        if record_index % goldstein_every == 0 or step_no == plan.steps_total:
                            gold = goldstein_probe(problem, w, plan.delta, goldstein_samples,
                                                   stream(seed, "goldstein", k, t))
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

    return EpochOutputs(selected_epoch=selected, w_out=w_sum / plan.T, counters=counters)
