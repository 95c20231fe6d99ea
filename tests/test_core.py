import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gossipopt.core import (
    ORACLE_TYPES,
    DivergenceError,
    PlanError,
    RunPlan,
    inner_update,
    plan_parameters,
    run_baseline_full_participation,
    run_docs,
)
from gossipopt.oracles import PiecewiseProblem
from gossipopt.rng import stream
from gossipopt.topology import build_ring, single_client
from single_machine_reference import run_reference


def pgd_ball_argmin(g, delta, eta, diameter, iters=2000, tol=1e-14):
    """Projected gradient descent on <x, g> + ||x - delta||^2 / (2 eta) over
    the diameter-ball, with a deliberately non-exact step size so it cannot
    collapse into the closed form being tested."""
    x = np.zeros_like(g)
    step = 0.4 * eta
    for _ in range(iters):
        x_new = x - step * (g + (x - delta) / eta)
        norm = np.linalg.norm(x_new)
        if norm > diameter:
            x_new *= diameter / norm
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    return x


def small_plan(**kw):
    defaults = dict(
        delta=0.5, epsilon=0.5, delta_prime=0.25, K=2, T=25, R=2, eta=1e-3,
        D=1e-2, eps_prime=1e-3, oracle_type="first", seed=11, n=4, d=6,
    )
    defaults.update(kw)
    return RunPlan(**defaults)


# -- inner update -------------------------------------------------------------


def test_inner_update_no_clip_region():
    delta = np.array([1e-3, -2e-3])
    g = np.array([0.1, 0.2])
    eta = 1e-3
    v = delta - eta * g
    assert np.linalg.norm(v) <= 0.01
    out = inner_update(delta, g, eta, 0.01, 5)
    assert np.array_equal(out, 5 * v)


def test_inner_update_exact_cancellation():
    g = np.array([2.0, -4.0])
    eta = 0.5
    delta = eta * g
    assert np.array_equal(inner_update(delta, g, eta, 0.1, 3), np.zeros(2))


def test_inner_update_clips_to_scaled_ball(rng):
    for _ in range(100):
        d = int(rng.integers(1, 12))
        delta = rng.standard_normal(d)
        g = rng.standard_normal(d) * 10
        eta = float(rng.uniform(1e-4, 1.0))
        diameter = float(rng.uniform(1e-3, 0.5))
        n = int(rng.integers(1, 20))
        out = inner_update(delta, g, eta, diameter, n)
        assert np.linalg.norm(out) <= n * diameter * (1 + 1e-12)


def test_inner_update_matches_projected_gradient_oracle(rng):
    for _ in range(200):
        d = int(rng.integers(1, 10))
        delta = rng.standard_normal(d) * rng.uniform(0.001, 1.0)
        g = rng.standard_normal(d) * rng.uniform(0.1, 20.0)
        eta = float(rng.uniform(1e-3, 0.5))
        diameter = float(rng.uniform(0.01, 1.0))
        n = int(rng.integers(1, 17))
        out = inner_update(delta, g, eta, diameter, n)
        oracle = pgd_ball_argmin(g, delta, eta, diameter)
        assert np.linalg.norm(out / n - oracle) <= 1e-8


# -- parameter planner ---------------------------------------------------------


def test_planned_diameter_follows_quarter_delta_over_t():
    plan = plan_parameters(0.1, 0.5, 8, 10, 0.5, 1.0, 1.0, "first", T=100)
    assert plan.T == 100
    assert plan.D == pytest.approx(0.1 / 400, rel=1e-15)  # 2.5e-4


def test_planned_step_size_from_diameter():
    plan = plan_parameters(0.1, 0.5, 8, 10, 0.5, 1.0, 1.0, "first", T=100)
    assert plan.eta == pytest.approx(plan.D / (1.0 * 10.0), rel=1e-15)  # 2.5e-5


def test_planner_halving_epsilon_order_checks():
    for delta in (0.1, 0.5):
        for eps in (0.5, 0.2, 0.05):
            a = plan_parameters(delta, eps, 16, 20, 0.25, 2.0, 2.0, "first")
            b = plan_parameters(delta, eps / 2, 16, 20, 0.25, 2.0, 2.0, "first")
            assert b.T >= 4 * a.T - 3  # ceil slack only
            assert b.T >= 3.9 * a.T
            assert b.K >= 2 * a.K - 1


def test_planner_t_exceeds_six_and_zeroth_scales_with_dimension():
    p1 = plan_parameters(0.5, 2.0, 4, 3, 0.5, 0.5, 0.5, "first")
    assert p1.T >= 7
    z_small = plan_parameters(0.2, 0.5, 8, 5, 0.5, 1.0, 1.0, "zeroth")
    z_big = plan_parameters(0.2, 0.5, 8, 50, 0.5, 1.0, 1.0, "zeroth")
    assert z_big.T >= 9.9 * z_small.T
    assert z_big.T == pytest.approx(10 * z_small.T, rel=0.01)


def test_planner_eps_prime_below_diameter_and_r_planned():
    from gossipopt.gossip import plan_rounds

    plan = plan_parameters(0.3, 0.8, 16, 12, 0.038, 1.5, 1.5, "first")
    assert 0 < plan.eps_prime < plan.D
    assert plan.eps_prime <= (plan.T - 6) / (3 * plan.T + 6) * plan.D
    assert plan.R == plan_rounds(0.038, 16, plan.D, plan.eps_prime)
    assert plan.consensus_guaranteed
    assert plan.delta_prime == 0.15  # defaults to half the stationarity radius


def test_planner_override_r_flags_guarantee():
    base = plan_parameters(0.3, 0.8, 16, 12, 0.038, 1.5, 1.5, "first")
    weak = plan_parameters(0.3, 0.8, 16, 12, 0.038, 1.5, 1.5, "first", R=2)
    assert not weak.consensus_guaranteed
    strong = plan_parameters(0.3, 0.8, 16, 12, 0.038, 1.5, 1.5, "first", R=base.R + 5)
    assert strong.consensus_guaranteed


def test_planner_input_validation():
    with pytest.raises(PlanError):
        plan_parameters(0.0, 0.5, 4, 3, 0.5, 1.0, 1.0, "first")
    with pytest.raises(PlanError):
        plan_parameters(0.5, 0.5, 4, 3, 1.5, 1.0, 1.0, "first")
    with pytest.raises(PlanError):
        plan_parameters(0.5, 0.5, 4, 3, 0.5, 1.0, 1.0, "second")
    with pytest.raises(PlanError):
        plan_parameters(0.5, 0.5, 4, 3, 0.5, 1.0, 1.0, "first", D=0.01, eps_prime=0.02)


def test_run_plan_invariants():
    with pytest.raises(PlanError):
        small_plan(eps_prime=2e-2)  # above D
    with pytest.raises(PlanError):
        small_plan(R=0)
    with pytest.raises(PlanError):
        small_plan(eta=-1.0)
    with pytest.raises(PlanError):
        small_plan(oracle_type="zeroth", delta_prime=0.0)


# -- drivers -------------------------------------------------------------------


class _NullGradientProblem:
    """Constant-zero objective; its estimator output is exactly zero."""

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.lipschitz_L = 1.0
        self.grad_bound_G = 1.0

    def shard_size(self, client):
        return 1

    def sample_value(self, client, j, x):
        return 0.0

    def sample_subgradient(self, client, j, x):
        return np.zeros(self.d)

    def full_value(self, x):
        return 0.0

    def full_subgradients(self, X):
        return np.zeros_like(X)


def test_null_oracle_keeps_everything_at_zero():
    n, d = 4, 6
    plan = small_plan(n=n, d=d)
    problem = _NullGradientProblem(n, d)
    matrix = build_ring(n, 1)
    seen = []
    out = run_docs(plan, problem, matrix, step_observer=lambda s: seen.append(s))
    for snap in seen:
        assert np.array_equal(snap.y, np.zeros((n, d)))
        assert np.array_equal(snap.w, np.zeros((n, d)))
        assert np.array_equal(snap.delta_half, np.zeros((n, d)))
    assert np.array_equal(out.w_out, np.zeros((n, d)))


def _toy_problem(n=4, d=6, seed=5):
    return PiecewiseProblem.generate(n=n, d=d, samples_per_client=3, seed=seed)


def test_single_machine_equivalence_short():
    problem = _toy_problem(n=1, d=5)
    matrix = single_client()
    plan = small_plan(n=1, d=5, K=3, T=40, R=3, eta=5e-3, D=5e-2, eps_prime=5e-3)

    traces, outputs = {}, {}
    for name, driver in (("docs", run_docs), ("baseline", run_baseline_full_participation)):
        rows = []
        outputs[name] = driver(
            plan, problem, matrix,
            step_observer=lambda s: rows.append((s.w.copy(), s.y.copy(), s.delta_half.copy())),
        )
        traces[name] = rows
    ref_rows = []
    _, ref_w_out = run_reference(
        plan, problem, observer=lambda k, t, w, y, dh: ref_rows.append((w, y, dh))
    )

    assert len(traces["docs"]) == len(ref_rows) == plan.K * plan.T
    for name in ("docs", "baseline"):
        for (w1, y1, d1), (w2, y2, d2) in zip(traces[name], ref_rows):
            assert np.array_equal(w1[0], w2)
            assert np.array_equal(y1[0], y2)
            assert np.array_equal(d1[0], d2)
        assert np.array_equal(outputs[name].w_out[0], ref_w_out)


def test_epoch_accumulator_identity_bitwise():
    """w_out is the selected epoch's sum of the observed w over T, bit for
    bit, with the shared and with the per-client selector."""
    problem = _toy_problem()
    matrix = build_ring(4, 1)
    for per_client in (False, True):
        plan = small_plan(K=8, T=5, per_client_selector=per_client)
        for driver in (run_docs, run_baseline_full_participation):
            sums = np.zeros((plan.K, plan.n, plan.d))

            def observer(s):
                sums[s.k - 1] += s.w

            out = driver(plan, problem, matrix, step_observer=observer)
            selected = out.selected_epochs
            assert np.array_equal(out.w_out, sums[selected, np.arange(plan.n)] / plan.T)
            # one epoch for every client unless per-client selection is set
            assert (len(set(selected.tolist())) == 1) != per_client


def test_w_out_comes_from_shared_selected_epoch():
    problem = _toy_problem()
    plan = small_plan()
    sums = np.zeros((plan.K, plan.n, plan.d))

    def observer(s):
        sums[s.k - 1] += s.w

    out = run_docs(plan, problem, build_ring(4, 1), step_observer=observer)
    assert len(set(out.selected_epochs.tolist())) == 1
    k = out.selected_epochs[0]
    assert np.array_equal(out.w_out, sums[k] / 25)


def test_per_client_selector_mode():
    problem = _toy_problem()
    out = run_docs(small_plan(K=8, T=5, per_client_selector=True), problem, build_ring(4, 1))
    assert out.selected_epochs.shape == (4,)
    assert len(set(out.selected_epochs.tolist())) > 1  # seed 11 spreads the draws


def test_full_reproducibility_bitwise():
    problem = _toy_problem()
    matrix = build_ring(4, 1)

    def run():
        ws = []
        out = run_docs(small_plan(), problem, matrix, step_observer=lambda s: ws.append(s.w.copy()))
        return out, ws

    (a, ws_a), (b, ws_b) = run(), run()
    assert np.array_equal(a.w_out, b.w_out)
    assert len(ws_a) == len(ws_b) == small_plan().steps_total
    assert all(np.array_equal(wa, wb) for wa, wb in zip(ws_a, ws_b))
    assert a.selected_epochs.tolist() == b.selected_epochs.tolist()


def test_client_stream_is_per_epoch_and_decoupled_from_oracle_draws():
    """The z purpose consumes d + 1 draws per first-order call (ball) and d
    per zeroth-order call (sphere), yet both runs sample the same clients:
    epoch k's clients are stream(seed, "client", k) drawn T times in order."""
    problem = _toy_problem()
    clients = {}
    for oracle_type in ORACLE_TYPES:
        plan = small_plan(K=3, T=30, oracle_type=oracle_type)
        seen = []
        run_docs(plan, problem, build_ring(4, 1),
                 step_observer=lambda s: seen.append((s.k, s.active_client)))
        clients[oracle_type] = seen
    assert clients["first"] == clients["zeroth"]
    expected = []
    for k in range(1, plan.K + 1):
        rng = stream(plan.seed, "client", k)
        expected += [(k, int(rng.integers(plan.n))) for _ in range(plan.T)]
    assert clients["first"] == expected


def test_clip_and_mean_relation_invariants():
    problem = _toy_problem()
    matrix = build_ring(4, 1)
    plan = small_plan()
    checked = 0

    def observer(s):
        nonlocal checked
        i = s.active_client
        assert np.linalg.norm(s.delta_pre_mix[i]) <= plan.n * plan.D * (1 + 1e-12)
        pre_mean = s.delta_pre_mix.mean(axis=0)
        assert np.allclose(pre_mean, s.delta_pre_mix[i] / plan.n, atol=1e-16)
        post_mean = s.delta_half.mean(axis=0)
        assert np.abs(post_mean - pre_mean).max() <= 1e-10
        checked += 1

    run_docs(plan, problem, matrix, step_observer=observer)
    assert checked == plan.K * plan.T


def test_consensus_bounds_hold_with_planned_rounds():
    n, d = 8, 12
    problem = _toy_problem(n=n, d=d)
    matrix = build_ring(n, 1)
    plan = plan_parameters(
        0.4, 0.9, n, d, matrix.gamma, problem.lipschitz_L, problem.grad_bound_G,
        "first", seed=3, K=2, T=30,
    )
    assert plan.consensus_guaranteed
    bound = plan.y_consensus_bound()

    def observer(s):
        delta_dev = np.linalg.norm(
            s.delta_half - s.delta_half.mean(axis=0, keepdims=True), axis=1
        ).max()
        y_dev = np.linalg.norm(s.y - s.y.mean(axis=0, keepdims=True), axis=1).max()
        assert delta_dev <= plan.eps_prime
        assert y_dev <= bound

    run_docs(plan, problem, matrix, step_observer=observer)


def test_baseline_counts_all_clients():
    problem = _toy_problem()
    plan = small_plan()
    out = run_baseline_full_participation(plan, problem, build_ring(4, 1))
    steps = plan.K * plan.T
    assert out.counters.samples_total == 4 * steps
    assert out.counters.computation_rounds == steps
    assert out.counters.communication_rounds == 2 * steps


def test_docs_zeroth_order_counts_queries_and_evals():
    problem = _toy_problem()
    plan = small_plan(oracle_type="zeroth")
    out = run_docs(plan, problem, build_ring(4, 1))
    steps = plan.K * plan.T
    assert out.counters.samples_total == steps
    assert out.counters.function_evals == 2 * steps
    assert out.counters.communication_rounds == 2 * plan.R * steps


class _PoisonProblem(_NullGradientProblem):
    def sample_subgradient(self, client, j, x):
        return np.full(self.d, np.nan)


def test_divergence_aborts_with_location():
    plan = small_plan()
    with pytest.raises(DivergenceError) as info:
        run_docs(plan, _PoisonProblem(4, 6), build_ring(4, 1))
    assert info.value.k == 1 and info.value.t == 1
    assert 0 <= info.value.client < 4


FORGED_GUARANTEE = """
import sys
from gossipopt.core import RunPlan, run_docs
from gossipopt.oracles import PiecewiseProblem
from gossipopt.topology import build_ring

# one round on a 16-client ring cannot reach eps_prime = 1e-4, yet the plan
# claims the guarantee, so the per-step consensus check must fire
plan = RunPlan(delta=0.5, epsilon=0.5, delta_prime=0.25, K=1, T=20, R=1, eta=1e-3,
               D=1e-2, eps_prime=1e-4, oracle_type="first", seed=11, n=16, d=6,
               consensus_guaranteed=True)
problem = PiecewiseProblem.generate(n=16, d=6, samples_per_client=3, seed=5)
try:
    run_docs(plan, problem, build_ring(16, 1))
except AssertionError as exc:  # InvariantViolation subclasses it
    print(sys.flags.optimize, type(exc).__name__, exc.k, exc.t, exc.observed > exc.bound)
"""


def test_forged_guarantee_raises_in_every_interpreter_mode():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for flags, optimize in (([], "0"), (["-O"], "1")):
        proc = subprocess.run([sys.executable, *flags, "-c", FORGED_GUARANTEE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [optimize, "InvariantViolation", "1", "1", "True"]


def test_plan_problem_matrix_compatibility_checked():
    problem = _toy_problem(n=4, d=6)
    with pytest.raises(PlanError, match="client counts"):
        run_docs(small_plan(n=5, d=6), problem, build_ring(5, 1))
    with pytest.raises(PlanError, match="dimensions"):
        run_docs(small_plan(n=4, d=9), problem, build_ring(4, 1))


def test_svm_run_improves_objective_and_stationarity(synthetic_libsvm_path):
    # end-to-end sanity on the hinge SVM: windowed objective decreases and the
    # smoothed-gradient norm at the selected output beats the starting point
    from gossipopt.metrics import GoldsteinProbeConfig, MetricsSink, goldstein_norm_estimate
    from gossipopt.oracles import CappedHingeSvmProblem, load_libsvm, shard
    from gossipopt.rng import stream

    data = load_libsvm(synthetic_libsvm_path, 123)
    problem = CappedHingeSvmProblem.from_shards(data, shard(data, 16, 1), 123, alpha=2.0)
    matrix = build_ring(16, 1)
    plan = RunPlan(
        delta=0.5, epsilon=0.5, delta_prime=0.25, K=3, T=1000, R=2,
        eta=0.01, D=0.01, eps_prime=0.005, oracle_type="first", seed=1, n=16, d=123,
    )
    sink = MetricsSink()
    out = run_docs(plan, problem, matrix, sink, metrics_every=25)
    objs = np.array([r.objective for r in sink.records])
    first_half, second_half = np.array_split(objs, 2)
    assert second_half.mean() < first_half.mean()

    cfg = GoldsteinProbeConfig(radius=plan.delta, num_smoothing_samples=512,
                               probe_point_policy="mean_of_clients")
    at_out = goldstein_norm_estimate(problem, out.w_out.mean(axis=0), cfg, stream(9, "goldstein", 0))
    at_zero = goldstein_norm_estimate(problem, np.zeros(123), cfg, stream(9, "goldstein", 0))
    assert at_out < at_zero


def test_planner_frozen_constants():
    # delta = eps = 0.5, n = 16, L = G = 2, defaults sigma = G, c0 = 1, nu = 1:
    # h2 = 2/4 + 2 + 6 = 8.5, T = ceil(9 * 8.5^2 / 0.25) = 2601,
    # K = ceil(24 * (1 + 2) / 0.25) = 288 (frozen via 40-digit evaluation)
    plan = plan_parameters(0.5, 0.5, 16, 10, 0.5, 2.0, 2.0, "first")
    assert plan.T == 2601
    assert plan.K == 288
    assert plan.D == pytest.approx(0.5 / (4 * 2601), rel=1e-15)
    assert plan.eta == pytest.approx(plan.D / (2.0 * np.sqrt(2601)), rel=1e-15)
    # zeroth-order at d = 10: h3 = sqrt(16 sqrt(2 pi)) * 2, h4 = h3/4 + h3 + 6,
    # T = ceil(9 * h4^2 * 10 / 0.25) = 171595
    plan0 = plan_parameters(0.5, 0.5, 16, 10, 0.5, 2.0, 2.0, "zeroth")
    assert plan0.T == 171595
    assert plan0.K == 288


def test_sample_gap_at_matched_stationarity_estimate(synthetic_libsvm_path):
    # at the worse of the two final smoothed-gradient estimates, the
    # client-sampling driver reaches it with fewer total oracle samples
    from gossipopt.metrics import GoldsteinProbeConfig, MetricsSink
    from gossipopt.oracles import CappedHingeSvmProblem, load_libsvm, shard

    data = load_libsvm(synthetic_libsvm_path, 123)
    matrix = build_ring(16, 1)
    probe = GoldsteinProbeConfig(radius=0.5, num_smoothing_samples=64,
                                 probe_point_policy="mean_of_clients")

    def run(driver, eta, diameter):
        plan = RunPlan(
            delta=0.5, epsilon=0.5, delta_prime=0.25, K=2, T=2000, R=2,
            eta=eta, D=diameter, eps_prime=diameter / 2, oracle_type="first",
            seed=1, n=16, d=123,
        )
        problem = CappedHingeSvmProblem.from_shards(data, shard(data, 16, 1), 123, alpha=2.0)
        sink = MetricsSink()
        driver(plan, problem, matrix, sink, metrics_every=25,
               goldstein_cfg=probe, goldstein_every=2)
        probed = [r for r in sink.records if r.goldstein_estimate is not None]
        return (np.array([r.goldstein_estimate for r in probed]),
                np.array([r.samples_total for r in probed]))

    width = 10
    est_d, samp_d = run(run_docs, 0.01, 0.01)
    est_b, samp_b = run(run_baseline_full_participation, 0.001, 0.005)
    trail_d = np.convolve(est_d, np.ones(width) / width, mode="valid")
    trail_b = np.convolve(est_b, np.ones(width) / width, mode="valid")
    target = max(trail_d[-1], trail_b[-1])
    s_d = samp_d[int(np.argmax(trail_d <= target)) + width - 1]
    s_b = samp_b[int(np.argmax(trail_b <= target)) + width - 1]
    assert s_d < s_b
