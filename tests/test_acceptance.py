"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line and enforcing its runtime budget (run with -s to see the lines).

The public-benchmark SVM experiments run against a generated stand-in
dataset of the same LIBSVM shape (d = 123, 8000 sparse binary rows),
since this environment cannot download datasets.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gossipopt.core import (
    RunPlan,
    inner_update,
    plan_parameters,
    run_baseline_full_participation,
    run_docs,
)
from gossipopt.gossip import GossipConfig, fast_gossip
from gossipopt.metrics import MetricsSink
from gossipopt.oracles import (
    CappedHingeSvmProblem,
    LibsvmParseError,
    PiecewiseProblem,
    load_libsvm,
    serialize_libsvm,
    shard,
    zeroth_order_estimator,
)
from gossipopt.rng import stream
from gossipopt.topology import build_ring, single_client
from gossip_bounds import consensus_sq_error, contraction_bound
from mc_smoothing import mc_smoothed_gradient
from single_machine_reference import run_reference
from test_core import pgd_ball_argmin
from text_forms import parse_libsvm_lines, same_data


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} exceeded budget: {elapsed:.1f}s > {budget_s}s"
    print(f"criterion {num} ({name}): PASS in {elapsed:.1f}s")


def test_criterion_1_gossip_contraction():
    with criterion(1, "gossip contraction", 1.0):
        matrix = build_ring(16, 1)
        rng = np.random.default_rng(1001)
        for rounds in (1, 2, 4, 8):
            cfg = GossipConfig(matrix, rounds)
            bound = contraction_bound(matrix.gamma, rounds)
            for _ in range(100):
                z = rng.standard_normal((16, 8))
                out = fast_gossip(cfg, z)
                before = consensus_sq_error(z)
                after = consensus_sq_error(out)
                assert after <= bound * before
                mean0 = z.mean(axis=0)
                drift = np.abs(out.mean(axis=0) - mean0)
                assert drift.max() <= 1e-10 * max(1.0, np.abs(mean0).max())


def test_criterion_2_zeroth_order_estimator():
    with criterion(2, "zeroth-order estimator", 30.0):
        problem = PiecewiseProblem.generate(n=2, d=20, samples_per_client=4, seed=41)
        L = problem.lipschitz_L
        w = stream(42, "datagen", 3).standard_normal(20) * 0.25
        mu = 0.1
        draws = 100_000
        rng_xi = stream(43, "xi", 1, 1)
        rng_z = stream(43, "z", 1, 1)
        acc = np.zeros(20)
        acc_sq = np.zeros(20)
        second_moment = 0.0
        for _ in range(draws):
            g = zeroth_order_estimator(problem, 0, w, mu, rng_xi, rng_z).g
            acc += g
            acc_sq += g * g
            second_moment += float(g @ g)
        mean = acc / draws
        est_se = np.sqrt(np.maximum(acc_sq / draws - mean**2, 0.0) / draws)
        oracle, oracle_se = mc_smoothed_gradient(
            problem, 0, w, mu, 1_000_000, stream(44, "goldstein", 4)
        )
        tol = 3.0 * np.sqrt(est_se**2 + oracle_se**2)
        assert np.all(np.abs(mean - oracle) <= tol)
        bound = 16.0 * math.sqrt(2.0 * math.pi) * 20 * L * L
        assert second_moment / draws <= 1.05 * bound


def test_criterion_3_inner_update_closed_form():
    with criterion(3, "ball-constrained update vs numeric argmin", 10.0):
        rng = np.random.default_rng(3003)
        for _ in range(1000):
            d = int(rng.integers(1, 16))
            delta = rng.standard_normal(d) * rng.uniform(0.001, 1.0)
            g = rng.standard_normal(d) * rng.uniform(0.1, 20.0)
            eta = float(rng.uniform(1e-3, 0.5))
            diameter = float(rng.uniform(0.01, 1.0))
            n = int(rng.integers(1, 17))
            out = inner_update(delta, g, eta, diameter, n)
            oracle = pgd_ball_argmin(g, delta, eta, diameter)
            assert np.linalg.norm(out / n - oracle) <= 1e-8


def test_criterion_4_consensus_guarantees():
    with criterion(4, "consensus guarantees under planned rounds", 120.0):
        n, d = 16, 50
        matrix = build_ring(n, 1)
        problem = PiecewiseProblem.generate(n=n, d=d, samples_per_client=3, seed=17)
        plan = plan_parameters(
            0.4, 0.9, n, d, matrix.gamma, problem.lipschitz_L, problem.grad_bound_G,
            "first", seed=7, K=2, T=150,
        )
        assert plan.consensus_guaranteed
        y_bound = plan.y_consensus_bound()
        steps = 0

        def observer(snap):
            nonlocal steps
            steps += 1
            delta_dev = np.linalg.norm(
                snap.delta_half - snap.delta_half.mean(axis=0, keepdims=True), axis=1
            ).max()
            assert delta_dev <= plan.eps_prime
            y_dev = np.linalg.norm(
                snap.y - snap.y.mean(axis=0, keepdims=True), axis=1
            ).max()
            assert y_dev <= y_bound
            assert np.linalg.norm(snap.delta_pre_mix[snap.active_client]) <= n * plan.D * (
                1 + 1e-12
            )
            assert np.linalg.norm(snap.delta_half, axis=1).max() <= plan.D + plan.eps_prime

        run_docs(plan, problem, matrix, step_observer=observer)
        assert steps == plan.K * plan.T


def test_criterion_5_single_machine_equivalence():
    with criterion(5, "single-machine equivalence over 1e4 steps", 30.0):
        d = 10
        problem = PiecewiseProblem.generate(n=1, d=d, samples_per_client=5, seed=29)
        matrix = single_client()
        plan = RunPlan(
            delta=0.5, epsilon=0.5, delta_prime=0.25, K=10, T=1000, R=2,
            eta=2e-3, D=2e-2, eps_prime=2e-3, oracle_type="first",
            seed=512, n=1, d=d,
        )
        steps = plan.K * plan.T

        def collect(driver):
            w_all = np.empty((steps, d))
            y_all = np.empty((steps, d))
            dh_all = np.empty((steps, d))
            pos = 0

            def obs(s):
                nonlocal pos
                w_all[pos] = s.w[0]
                y_all[pos] = s.y[0]
                dh_all[pos] = s.delta_half[0]
                pos += 1

            driver(plan, problem, matrix, step_observer=obs)
            return w_all, y_all, dh_all

        ref_w = np.empty((steps, d))
        ref_y = np.empty((steps, d))
        ref_dh = np.empty((steps, d))
        pos = 0

        def ref_obs(k, t, w, y, dh):
            nonlocal pos
            ref_w[pos] = w
            ref_y[pos] = y
            ref_dh[pos] = dh
            pos += 1

        run_reference(plan, problem, observer=ref_obs)
        for driver in (run_docs, run_baseline_full_participation):
            w_all, y_all, dh_all = collect(driver)
            assert np.array_equal(w_all, ref_w)
            assert np.array_equal(y_all, ref_y)
            assert np.array_equal(dh_all, ref_dh)


ETAS = (0.001, 0.005, 0.01)
DIAMETERS = (0.005, 0.01, 0.05)


def _svm_problem(data, seed):
    return CappedHingeSvmProblem.from_shards(data, shard(data, 16, seed), 123, alpha=2.0)


def _svm_run(data, matrix, method, eta, diameter, seed, K, T, every=25):
    plan = RunPlan(
        delta=0.5, epsilon=0.5, delta_prime=0.25, K=K, T=T, R=2,
        eta=eta, D=diameter, eps_prime=diameter / 2, oracle_type="first",
        seed=seed, n=16, d=123,
    )
    driver = run_docs if method == "docs" else run_baseline_full_participation
    sink = MetricsSink()
    driver(plan, _svm_problem(data, seed), matrix, sink, metrics_every=every)
    objs = np.array([r.objective for r in sink.records])
    samples = np.array([r.samples_total for r in sink.records])
    return objs, samples


def _window_means(objs, width):
    blocks = len(objs) // width
    return objs[: blocks * width].reshape(blocks, width).mean(axis=1)


def _trailing_means(objs, width):
    return np.convolve(objs, np.ones(width) / width, mode="valid")


def test_criterion_6_svm_trend_reproduction(synthetic_libsvm_path):
    with criterion(6, "SVM trend: decrease and sample-count gap", 900.0):
        data = load_libsvm(synthetic_libsvm_path, 123)
        assert _svm_problem(data, 1).lam == pytest.approx(1e-5 / 8000)
        matrix = build_ring(16, 1)
        seeds = (1, 2, 3)

        # grid-tune each method on the first seed (short runs rank the cells)
        best = {}
        for method in ("docs", "baseline"):
            scores = {}
            for eta in ETAS:
                for diameter in DIAMETERS:
                    objs, _ = _svm_run(data, matrix, method, eta, diameter, seeds[0], K=2, T=1500)
                    scores[(eta, diameter)] = _window_means(objs, 30)[-1]
            best[method] = min(scores, key=scores.get)

        width = 60
        ratios = []
        for pos, seed in enumerate(seeds):
            objs_d, samp_d = _svm_run(data, matrix, "docs", *best["docs"], seed, K=3, T=3000)
            objs_b, samp_b = _svm_run(data, matrix, "baseline", *best["baseline"], seed, K=3, T=3000)
            if pos == 0:
                # (a) best-cell trace decreases through consecutive windows
                wins = _window_means(objs_d, width)
                assert np.all(np.diff(wins) <= 0)
                assert wins[-1] < wins[0]
                # at every common sample count past burn-in (the baseline's
                # first complete window), the client-sampling method's
                # windowed objective is at least as good
                wd, wb = 10, 10
                sd_end, td = samp_d[wd - 1:], _trailing_means(objs_d, wd)
                sb_end, tb = samp_b[wb - 1:], _trailing_means(objs_b, wb)
                common = sd_end[(sd_end >= sb_end[0]) & (sd_end <= sb_end[-1])]
                assert len(common) > 100
                for s in common:
                    od = td[np.searchsorted(sd_end, s, side="right") - 1]
                    ob = tb[np.searchsorted(sb_end, s, side="right") - 1]
                    assert od <= ob
            # (b) time-to-target at the worse of the two final windowed values
            trail_d = _trailing_means(objs_d, width)
            trail_b = _trailing_means(objs_b, width)
            target = max(trail_d[-1], trail_b[-1])
            i_d = int(np.argmax(trail_d <= target))
            i_b = int(np.argmax(trail_b <= target))
            ratios.append(samp_d[i_d + width - 1] / samp_b[i_b + width - 1])
        # (c) the 2x sample gap holds on at least 2 of 3 seeds
        assert sum(r <= 0.5 for r in ratios) >= 2, ratios


def test_criterion_7_spectral_gap_ablation(synthetic_libsvm_path):
    with criterion(7, "connectivity ablation", 1200.0):
        data = load_libsvm(synthetic_libsvm_path, 123)
        matrices = {k: build_ring(16, k) for k in (1, 2, 3, 4)}

        gammas = []
        for k, m in matrices.items():
            oracle_lambda2 = np.sort(np.linalg.eigvalsh(m.weights))[-2]
            assert abs(m.gamma - (1.0 - oracle_lambda2)) <= 1e-10
            gammas.append(m.gamma)
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

        threshold, width = 0.70, 10
        mean_steps = []
        for k, matrix in matrices.items():
            per_seed = []
            for seed in (1, 2, 3):
                objs, samples = _svm_run(data, matrix, "docs", 0.005, 0.01, seed, K=2, T=2000)
                trail = _trailing_means(objs, width)
                assert trail.min() <= threshold, f"threshold not reached for k={k}"
                idx = int(np.argmax(trail <= threshold))
                per_seed.append(25 * (idx + width))  # records every 25 steps
            mean_steps.append(np.mean(per_seed))

        pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
        holds = sum(mean_steps[a] >= mean_steps[b] for a, b in pairs)
        assert holds >= 3, (mean_steps, holds)


def test_criterion_8_counter_laws():
    with criterion(8, "counter laws", 5.0):
        n, d = 16, 12
        problem = PiecewiseProblem.generate(n=n, d=d, samples_per_client=3, seed=33)
        matrix = build_ring(n, 1)

        def plan(oracle):
            return RunPlan(
                delta=0.5, epsilon=0.5, delta_prime=0.25, K=2, T=500, R=3,
                eta=1e-3, D=1e-2, eps_prime=1e-3, oracle_type=oracle,
                seed=8, n=n, d=d,
            )

        steps = 1000
        first = run_docs(plan("first"), problem, matrix)
        assert first.counters.computation_rounds == steps
        assert first.counters.samples_total == steps
        assert first.counters.communication_rounds == 2 * 3 * steps
        assert first.counters.function_evals == 0

        zeroth = run_docs(plan("zeroth"), problem, matrix)
        assert zeroth.counters.samples_total == steps  # two-point queries
        assert zeroth.counters.function_evals == 2 * steps
        assert zeroth.counters.communication_rounds == 2 * 3 * steps

        base = run_baseline_full_participation(plan("first"), problem, matrix)
        assert base.counters.samples_total == n * steps
        assert base.counters.computation_rounds == steps
        assert base.counters.communication_rounds == 2 * steps


MALFORMED_LINES = [
    "+2 1:1.0",
    "abc 1:1.0",
    "+1 0:1.0",
    "-1 200:1.0",
    "+1 2:1.0 2:2.0",
    "+1 5:1.0 3:2.0",
    "+1 2:abc",
    "+1 2:nan",
    "+1 2:inf",
    "+1 2-3",
    "+1 :5",
    "+1 4:",
    "+1 1:2:3",
    "3 1:1.0",
    "-2 1:1.0",
    "+1 x:1.0",
    "+1 -4:1.0",
    "1.5 1:1.0",
    "+1 1:1.0 0:2.0",
    "+1 124:1.0",
]


def test_criterion_9_parser_round_trip_and_rejections(synthetic_libsvm_path):
    with criterion(9, "parser round trip and malformed rejection", 5.0):
        data = load_libsvm(synthetic_libsvm_path, 123)
        text1 = serialize_libsvm(data)
        again = parse_libsvm_lines(text1, 123)
        assert same_data(again, data)
        assert serialize_libsvm(again) == text1  # serialize-parse fixpoint

        good = "+1 1:1 5:1"
        assert len(MALFORMED_LINES) == 20
        for offset, bad in enumerate(MALFORMED_LINES):
            position = (offset * 7) % 11 + 1  # deterministic spread of positions
            lines = [good] * (position - 1) + [bad] + [good] * 3
            with pytest.raises(LibsvmParseError) as info:
                parse_libsvm_lines("\n".join(lines), 123)
            assert info.value.line == position, bad
