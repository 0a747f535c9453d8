"""Acceptance gate: one test per criterion, fixed seeds, stated tolerances.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts. Run order follows criterion number.
"""

import math
import time

import numpy as np
import pytest

from l2p.accountant import (
    cdp_to_approx,
    config_budget,
    group_privacy,
    tune_oco,
    tune_ope,
)
from l2p.adversaries import (
    LossStream,
    bernoulli_experts,
    epoch_lower_bound_stream,
    linear_oco_stream,
    neighbor_of,
)
from l2p.audit import empirical_epsilon, marginal_tv_profile, ratio_range_check
from l2p.harness import monte_carlo, play_game, strawman_fixed_switch
from l2p.measures import RmwMeasure
from l2p.transform import L2PConfig


def _announce(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_exact_oracle_marginal():
    # MW, d=3, T=5, B=1, p=0.5, hand-written stream; TV(x_s, exact) <= 0.02
    # for every s over 1e5 runs; the claim bound is 0, 0.02 is 3-sigma slack
    vals = np.array(
        [[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.3, 0.3, 1.0], [1.0, 0.2, 0.0], [0.5, 0.5, 0.5]]
    )
    stream = LossStream("bernoulli", 3, 5, 0, vals)
    config = L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
    start = time.perf_counter()
    reports = marginal_tv_profile(config, stream, 100_000, base_seed=11)
    elapsed = time.perf_counter() - start
    worst = max(r.statistic for r in reports)
    ok = worst <= 0.02 and elapsed < 30.0
    _announce(1, ok, f"worst TV {worst:.4f} <= 0.02 over s=1..5, {elapsed:.1f}s < 30s")
    assert worst <= 0.02
    assert elapsed < 30.0


def test_criterion_02_accountant_golden_values():
    run = config_budget(L2PConfig(T=1000, B=10, eta=0.01, p=0.1, delta0=0.0, delta1=1e-6))
    cdp = cdp_to_approx(0.01, 1e-6)
    grp = group_privacy(0.1, 1e-6, 3)
    ok = (
        abs(run.epsilon - 1.3009) <= 1e-3
        and run.delta == 0.002
        and abs(cdp.epsilon - 1.1151) <= 1e-3
        and grp.epsilon == pytest.approx(0.3)
        and grp.delta == pytest.approx(3.6642e-6, abs=1e-9)
    )
    _announce(
        2, ok, f"run eps {run.epsilon:.4f}, delta {run.delta}, cdp {cdp.epsilon:.4f}, "
        f"group ({grp.epsilon:.2f}, {grp.delta:.4e})"
    )
    assert abs(run.epsilon - 1.3009) <= 1e-3
    assert run.delta == 0.002
    assert abs(cdp.epsilon - 1.1151) <= 1e-3
    assert grp.epsilon == pytest.approx(0.3)
    assert grp.delta == pytest.approx(3.6642e-6, abs=1e-9)


def test_criterion_03_non_private_envelope():
    # p=1, B=1, eta = sqrt(ln d / T): classical multiplicative-weights mode
    T, d = 10_000, 10
    stream = bernoulli_experts(d, T, np.linspace(0.35, 0.65, d), seed=4)
    eta = math.sqrt(math.log(d) / T)
    config = L2PConfig(T=T, B=1, eta=eta, p=1.0, delta0=0.0, delta1=1e-6)
    start = time.perf_counter()
    mc = monte_carlo(config, stream, 100, 3)
    elapsed = time.perf_counter() - start
    bound = 2.0 * math.sqrt(T * math.log(d))
    ok = mc.mean_regret <= bound and elapsed < 60.0
    _announce(3, ok, f"mean regret {mc.mean_regret:.1f} <= {bound:.1f}, {elapsed:.1f}s < 60s")
    assert mc.mean_regret <= bound
    assert elapsed < 60.0


def test_criterion_04_ratio_range():
    # tuned parameters; fraction of raw ratios outside [e^{-2B eta}, e^{2B eta}]
    # over >= 1e4 (run, batch) pairs must not exceed delta1 + 3-sigma slack
    T, d = 2000, 5
    config = tune_ope(T, d, 0.5, 1e-4)
    stream = bernoulli_experts(d, T, np.linspace(0.3, 0.7, d), seed=6)
    n_runs = 10_000 // (config.n_batches - 1) + 1
    report = ratio_range_check(config, stream, n_runs, base_seed=1)
    ok = report.passed and report.n_samples >= 10_000
    _announce(
        4, ok, f"{report.n_samples} pairs, outside fraction {report.statistic:.2g} "
        f"<= {report.threshold:.2g}"
    )
    assert report.n_samples >= 10_000
    assert report.passed


def test_criterion_05_fake_switch_bound():
    # over 1e3 runs, the fraction whose fake-switch count exceeds
    # 2 T p log(1/delta1) / B must be at most 0.01
    T, B, p, delta1 = 400, 2, 0.3, 1e-4
    config = L2PConfig(T=T, B=B, eta=0.01, p=p, delta0=0.0, delta1=delta1)
    stream = bernoulli_experts(3, T, [0.3, 0.5, 0.7], seed=7)
    mc = monte_carlo(config, stream, 1000, 9)
    bound = 2.0 * T * p * math.log(1.0 / delta1) / B
    frac = float(np.mean([r.fake_switch_count > bound for r in mc.results]))
    ok = frac <= 0.01
    _announce(5, ok, f"exceed fraction {frac:.4f} <= 0.01 (bound {bound:.0f} per run)")
    assert frac <= 0.01


def test_criterion_06_empirical_privacy_ceiling():
    # d=2, T=10, B=2 via tune_ope(10, 2, 0.5, 0.05); 1e5 runs per stream
    T, d = 10, 2
    config = tune_ope(T, d, 0.5, 0.05)
    assert config.B == 2
    stream = bernoulli_experts(d, T, [0.25, 0.75], seed=5)
    neighbor = neighbor_of(stream, T // 2, 1.0 - stream.values[T // 2])
    start = time.perf_counter()
    report = empirical_epsilon(config, stream, neighbor, 100_000, base_seed=2)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 300.0
    _announce(
        6, ok, f"eps_hat {report.statistic:.4f} <= {report.threshold:.4f} "
        f"(accountant {config_budget(config).epsilon:.4f}), {elapsed:.0f}s < 300s"
    )
    assert report.passed
    assert elapsed < 300.0


def test_criterion_07_scaling_trend():
    # OPE sweep: regret nonincreasing in eps within one pooled stddev per
    # adjacent pair, and always under 10x the closed-form bound
    T, d, delta = 100_000, 10, 1e-6
    stream = bernoulli_experts(d, T, np.linspace(0.35, 0.65, d), seed=4)
    start = time.perf_counter()
    rows = []
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
        config = tune_ope(T, d, eps, delta)
        mc = monte_carlo(config, stream, 50, 11)
        bound = math.sqrt(T * math.log(d)) + T ** (1 / 3) * math.log(d) * math.log(
            T / delta
        ) / eps ** (2 / 3)
        rows.append((eps, mc.mean_regret, mc.std_regret, bound))
    elapsed = time.perf_counter() - start
    trend_ok = all(
        m2 <= m1 + math.hypot(s1, s2)
        for (_, m1, s1, _), (_, m2, s2, _) in zip(rows, rows[1:])
    )
    bound_ok = all(m <= 10 * b for (_, m, _, b) in rows)
    ok = trend_ok and bound_ok and elapsed < 600.0
    _announce(
        7, ok, "regrets " + ", ".join(f"{m:.0f}" for (_, m, _, _) in rows)
        + f"; trend {trend_ok}, 10x-bound {bound_ok}, {elapsed:.0f}s < 600s"
    )
    assert trend_ok
    assert bound_ok
    assert elapsed < 600.0


def test_criterion_08_batching_degradation():
    # fixed stream and eta; regret increase from B=1 fits under
    # 10 * T * B^2 * eta^2 plus three pooled standard errors
    T, d, eta, reps = 2000, 5, 0.01, 200
    stream = bernoulli_experts(d, T, np.linspace(0.3, 0.7, d), seed=3)
    means = {}
    for B in (1, 4, 16):
        config = L2PConfig(T=T, B=B, eta=eta, p=0.2, delta0=0.0, delta1=1e-4)
        mc = monte_carlo(config, stream, reps, 7)
        means[B] = (mc.mean_regret, mc.std_regret)
    details = []
    ok = True
    for B in (4, 16):
        increase = means[B][0] - means[1][0]
        slack = 3.0 * math.hypot(means[B][1], means[1][1]) / math.sqrt(reps)
        limit = 10.0 * T * B * B * eta * eta + slack
        details.append(f"B={B}: +{increase:.1f} <= {limit:.1f}")
        ok = ok and increase <= limit
    _announce(8, ok, "; ".join(details))
    for B in (4, 16):
        increase = means[B][0] - means[1][0]
        slack = 3.0 * math.hypot(means[B][1], means[1][1]) / math.sqrt(reps)
        assert increase <= 10.0 * T * B * B * eta * eta + slack


def test_criterion_09_lower_bound_demo():
    # the epoch stream defeats the scheduled-switching strawman (clause one,
    # sizes as pinned); a tuned run beats the strawman in mean (clause two,
    # shown at 2000 reps per side since the per-rep noise is ~200 while the
    # true gap is ~17; see the decisions ledger)
    T, eps_stream, d = 10_000, 0.01, 4
    stream = epoch_lower_bound_stream(T, eps_stream, d, seed=0)
    budget = round((T * eps_stream) ** (2 / 3))
    floor = 0.1 * T ** (1 / 3) / eps_stream ** (2 / 3)
    straw100 = np.mean(
        [strawman_fixed_switch(stream, budget, seed=k).regret for k in range(100)]
    )
    clause1 = straw100 >= floor

    config = tune_ope(T, d, 0.5, 0.01)
    reps = 2000
    l2p_mc = monte_carlo(config, stream, reps, 1)
    straw2k = [
        strawman_fixed_switch(stream, budget, seed=10_000 + k).regret for k in range(reps)
    ]
    straw_mean = float(np.mean(straw2k))
    clause2 = l2p_mc.mean_regret < straw_mean
    ok = clause1 and clause2
    _announce(
        9, ok, f"strawman(100) {straw100:.1f} >= {floor:.1f}; "
        f"tuned run {l2p_mc.mean_regret:.1f} < strawman {straw_mean:.1f} ({reps} reps)"
    )
    assert clause1
    assert clause2


def test_criterion_10_oco_smoke_and_shape():
    T, d = 10_000, 3
    config = tune_oco(T, d, 1.0, 1e-6, 1.0, 1.0)
    budget = config_budget(config)
    eps_ok = budget.epsilon <= 1.0

    stream = linear_oco_stream(d, T, 1.0, 8, "iid-sphere")
    game = play_game(config, "rmw", stream, seed=12)
    norms = [float(np.linalg.norm(x)) for x in game.transcript.models]
    inside = max(norms) <= config.radius * (1 + 1e-9)
    sane = game.regret < T

    center = RmwMeasure(np.zeros(d), config.beta, config.lam, config.radius)
    rng = np.random.default_rng(0)
    pts = np.array([center.sample(rng) for _ in range(100_000)])
    se = pts.std(axis=0, ddof=1) / math.sqrt(len(pts))
    centered = bool((np.abs(pts.mean(axis=0)) <= 3 * se).all())

    ok = eps_ok and inside and sane and centered
    _announce(
        10, ok, f"eps_out {budget.epsilon:.3f} <= 1, max|x| {max(norms):.3f} <= "
        f"{config.radius}, regret {game.regret:.1f} < {T}, centered {centered}"
    )
    assert eps_ok
    assert inside
    assert sane
    assert centered
