import hashlib
import json
import math

import numpy as np
import pytest

from l2p.accountant import ball_config, tune_ope
from l2p.adversaries import LossStream, bernoulli_experts, linear_oco_stream, neighbor_of
from l2p.audit import (
    AuditReport,
    _bucket,
    _marginal_counts,
    _run_many,
    empirical_epsilon,
    exact_batch_distributions,
    marginal_tv_profile,
    ratio_range_check,
    switch_statistics,
)
from l2p.harness import monte_carlo
from l2p.transform import L2PConfig, PreparedRun


def _fixed_stream():
    vals = np.array(
        [[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.3, 0.3, 1.0], [1.0, 0.2, 0.0], [0.5, 0.5, 0.5]]
    )
    return LossStream("bernoulli", 3, 5, 0, vals)


def _small_config(p=0.5, eta=0.1, B=1, T=5):
    return L2PConfig(T=T, B=B, eta=eta, p=p, delta0=0.0, delta1=1e-6)


class TestReportInvariant:
    def test_pass_flag_consistency(self):
        # the flag is read off its terms, so no report can disagree with them
        assert AuditReport("x", 10, 0.5, 1.0).passed is True
        assert AuditReport("x", 10, 1.0, 1.0).passed is True
        assert AuditReport("x", 10, 2.0, 1.0).passed is False
        assert AuditReport("x", 10, math.nan, 1.0).passed is False
        with pytest.raises(TypeError):
            AuditReport("x", 10, 2.0, 1.0, passed=True)

    def test_json_line(self):
        line = AuditReport("x", 10, 0.5, 1.0, ("note",)).to_json_line()
        obj = json.loads(line)
        assert obj["name"] == "x" and obj["passed"] is True

    @pytest.mark.parametrize(
        "statistic, threshold, passed",
        [(0.5, math.inf, True), (math.inf, 1.0, False), (math.nan, 1.0, False),
         (-math.inf, math.nan, False)],
    )
    def test_json_line_is_strict(self, statistic, threshold, passed):
        # a non-finite term is null; the pass flag is still read off the floats
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        obj = json.loads(AuditReport("x", 10, statistic, threshold).to_json_line(), parse_constant=refuse)
        assert obj["statistic"] == (statistic if math.isfinite(statistic) else None)
        assert obj["threshold"] == (threshold if math.isfinite(threshold) else None)
        assert obj["passed"] is passed


class TestExactDistributions:
    def test_uniform_start(self):
        exact = exact_batch_distributions(_fixed_stream(), 0.1, 1)
        np.testing.assert_allclose(exact[0], np.ones(3) / 3, rtol=1e-12)

    def test_matches_direct_softmax(self):
        stream = _fixed_stream()
        exact = exact_batch_distributions(stream, 0.1, 2)
        cum = stream.values[:2].sum(axis=0)  # batch 2 sees rounds 1..2
        w = np.exp(-0.1 * cum)
        np.testing.assert_allclose(exact[1], w / w.sum(), rtol=1e-12)


class TestMarginalAudit:
    def test_forced_resample_every_index(self):
        config = _small_config(p=1.0)
        stream = _fixed_stream()
        for report in marginal_tv_profile(config, stream, 20_000, base_seed=1):
            assert report.passed, report

    def test_correlated_chain_single_index(self):
        report = marginal_tv_profile(_small_config(), _fixed_stream(), 20_000, base_seed=2)[2]
        assert report.name == "marginal_tv[s=3]"
        assert report.passed

    def test_preconditions(self):
        with pytest.raises(ValueError):
            marginal_tv_profile(_small_config(), _fixed_stream(), 10)
        big = bernoulli_experts(9, 5, [0.5] * 9, seed=0)
        with pytest.raises(ValueError):
            marginal_tv_profile(_small_config(), big, 20_000)


    @pytest.mark.parametrize(
        "config, stream",
        [
            (_small_config(), bernoulli_experts(3, 5, (0.2, 0.5, 0.8), 1)),  # the audit-tiny shape
            (_small_config(p=0.3, B=2, T=9), bernoulli_experts(4, 9, (0.1, 0.4, 0.6, 0.9), 2)),
            (_small_config(p=1.0), _fixed_stream()),
        ],
    )
    def test_counts_from_events(self, config, stream):
        # the event-built counts equal those of the per-batch model column
        want = np.zeros((config.n_batches, stream.d))
        for transcript in _run_many(config, stream, 2000, 9):
            for i, x in enumerate(transcript.models):
                want[i, x] += 1
        got = _marginal_counts(config, stream, 2000, 9)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_report_lines_pinned(self):
        # recorded when the counts were built from the per-batch model column
        config, stream = _small_config(), bernoulli_experts(3, 5, (0.2, 0.5, 0.8), 1)
        text = "".join(r.to_json_line() + "\n" for r in marginal_tv_profile(config, stream, 10_000, 5))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b5cfdc35b401fec65b40ab7f7fa4e93ec5f2993ce5fed60fbdda1c282935159d"


class TestRatioAudit:
    def test_zero_losses_always_inside(self):
        stream = LossStream("bernoulli", 2, 10, 0, np.zeros((10, 2)))
        config = _small_config(T=10)
        report = ratio_range_check(config, stream, 500, base_seed=0)
        assert report.statistic == 0.0 and report.passed

    def test_single_step_ratio_inside(self):
        # with B=1 the raw ratio lies in [e^{-eta}, e^{eta}], well inside the cap
        stream = bernoulli_experts(3, 20, [0.2, 0.5, 0.8], seed=3)
        report = ratio_range_check(_small_config(T=20), stream, 300, base_seed=1)
        assert report.statistic == 0.0 and report.passed


class TestEmpiricalEpsilon:
    def test_identical_streams_near_zero(self):
        stream = bernoulli_experts(2, 10, [0.3, 0.7], seed=4)
        config = tune_ope(10, 2, 0.5, 0.05)
        report = empirical_epsilon(config, stream, stream, 30_000, base_seed=0)
        # same distribution on both sides: only estimator noise remains,
        # at worst ~sqrt(2/min_bucket) per bucket for the max over buckets
        assert report.statistic < 4 * math.sqrt(2 / 100)
        assert report.passed

    @pytest.mark.parametrize("T, B, p", [(10, 2, None), (1, 1, 0.5), (20, 1, 0.9), (9, 2, 0.05)])
    def test_bucket_from_events(self, T, B, p):
        # the bucket read off the switch events is the one the columns give
        config = tune_ope(10, 2, 0.5, 0.05) if p is None else _small_config(p=p, B=B, T=T)
        prepared = PreparedRun(config, "mw", bernoulli_experts(2, T, [0.3, 0.7], seed=4).values)
        for seed in range(300):
            t = prepared.run(np.random.default_rng(seed))
            assert _bucket(t) == (tuple(t.switched[1:, 0].tolist()), int(t.models[-1]))

    def test_shape_preconditions(self):
        stream = bernoulli_experts(3, 10, [0.3, 0.5, 0.7], seed=0)
        with pytest.raises(ValueError):
            empirical_epsilon(_small_config(T=10), stream, stream, 1000)

    def test_refuses_a_gradient_stream(self):
        # the experts engine ran on the gradients and reported on them
        grads = linear_oco_stream(2, 10, 1.0, 3, "iid-sphere")
        with pytest.raises(ValueError, match=r"an experts run needs every loss in \[0, 1\]"):
            empirical_epsilon(tune_ope(10, 2, 0.5, 0.05), grads, grads, 1000)

    def test_refuses_a_neighbor_two_rounds_away(self):
        stream = bernoulli_experts(2, 10, [0.3, 0.7], seed=5)
        one = neighbor_of(stream, 5, 1.0 - stream.values[5])
        two = neighbor_of(one, 6, 1.0 - stream.values[6])
        config = tune_ope(10, 2, 0.5, 0.05)
        empirical_epsilon(config, stream, one, 200)
        with pytest.raises(ValueError, match="differs in more than one round"):
            empirical_epsilon(config, stream, two, 200)

    def test_symmetry(self):
        stream = bernoulli_experts(2, 10, [0.3, 0.7], seed=5)
        flipped = 1.0 - stream.values[5]
        other = neighbor_of(stream, 5, flipped)
        config = tune_ope(10, 2, 0.5, 0.05)
        a = empirical_epsilon(config, stream, other, 20_000, base_seed=3)
        b = empirical_epsilon(config, other, stream, 20_000, base_seed=3)
        assert abs(a.statistic - b.statistic) < 0.1


class TestSwitchStatistics:
    def test_counts_below_bound(self):
        stream = bernoulli_experts(2, 200, [0.4, 0.6], seed=6)
        config = L2PConfig(T=200, B=2, eta=0.01, p=0.3, delta0=0.0, delta1=1e-4)
        report = switch_statistics(config, stream, 200, base_seed=0)
        assert report.passed
        # mean fake-switch count matches the two-coin expectation
        summary = monte_carlo(config, stream, 200, base_seed=0)
        n_batches = config.n_batches
        mean = np.mean([r.fake_switch_count for r in summary.results])
        expect = (n_batches - 1) * (1 - (1 - config.p) ** 2)
        se = math.sqrt(expect / 200)
        assert abs(mean - expect) < 6 * se

    def test_p_zero_no_fake_switches(self):
        stream = bernoulli_experts(2, 100, [0.4, 0.6], seed=7)
        config = L2PConfig(T=100, B=1, eta=0.01, p=0.0, delta0=0.0, delta1=1e-4)
        summary = monte_carlo(config, stream, 100, base_seed=1)
        assert all(r.fake_switch_count == 0 for r in summary.results)
        assert switch_statistics(config, stream, 100, base_seed=1).passed

    def test_needs_enough_runs(self):
        stream = bernoulli_experts(2, 50, [0.4, 0.6], seed=8)
        config = L2PConfig(T=50, B=1, eta=0.01, p=0.3, delta0=0.0, delta1=1e-4)
        with pytest.raises(ValueError):
            switch_statistics(config, stream, 99, base_seed=0)

    @pytest.mark.parametrize(
        "config, stream, n, seed, statistic, threshold, bound",
        [
            (L2PConfig(T=200, B=2, eta=0.01, p=0.3, delta0=0.0, delta1=1e-4),
             bernoulli_experts(2, 200, [0.4, 0.6], seed=6), 200, 0,
             0.0, 0.01722121427489068, "552.6"),
            (L2PConfig(T=100, B=1, eta=0.01, p=0.0, delta0=0.0, delta1=1e-4),
             bernoulli_experts(2, 100, [0.4, 0.6], seed=7), 100, 1,
             0.0, 0.03309984999624981, "0"),
            (L2PConfig(T=50, B=1, eta=0.1, p=0.01, delta0=0.0, delta1=0.9),
             bernoulli_experts(2, 50, [0.4, 0.6], seed=8), 150, 3,
             0.5866666666666667, 0.9934846922834953, "0.1054"),
            (ball_config(40, 2, 2, 0.05, 0.5, 1e-3, 1.0, 1.0),
             linear_oco_stream(2, 40, 1.0, 9, "iid-sphere"), 100, 4,
             0.0, 0.030756247656246335, "239.7"),
        ],
        ids=["experts-B2", "experts-p0", "experts-exceeding", "ball"],
    )
    def test_report_pinned(self, config, stream, n, seed, statistic, threshold, bound):
        # recorded when the audit took monte_carlo(config, stream, n, seed).results
        want = AuditReport("switch_statistics", n, statistic, threshold,
                           (f"bound {bound} fake switches per run",))
        assert switch_statistics(config, stream, n, seed) == want


def _shifted(stream):
    """``stream`` one round shorter: a neighbour of another shape."""
    return LossStream(stream.kind, stream.d, stream.T - 1, stream.seed, stream.values[1:])


_EPS_STREAM = bernoulli_experts(2, 10, [0.3, 0.7], seed=4)


@pytest.mark.parametrize(
    "audit, message",
    [
        (lambda: marginal_tv_profile(_small_config(), _fixed_stream(), 9_999),
         "need at least 1e4 runs"),
        (lambda: marginal_tv_profile(
            L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=1e-3, delta1=1e-6), _fixed_stream(), 20_000),
         "needs the expert instantiation with delta0=0"),
        (lambda: ratio_range_check(_small_config(), _fixed_stream(), 0),
         "ratio audit needs at least 1 run"),
        (lambda: ratio_range_check(_small_config(T=4, B=4), _fixed_stream(), 10),
         "ratio audit needs at least two batches"),
        (lambda: empirical_epsilon(_small_config(T=10), _EPS_STREAM, _EPS_STREAM, 99),
         "needs at least 100 runs per stream"),
        (lambda: empirical_epsilon(_small_config(T=10), _EPS_STREAM, _shifted(_EPS_STREAM), 200),
         "neighbor stream has mismatched shape"),
        (lambda: switch_statistics(_small_config(), _fixed_stream(), 99),
         "need at least 100 runs from an identical config"),
    ],
    ids=["marginal-9999-runs", "marginal-delta0", "ratio-0-runs", "ratio-one-batch",
         "epsilon-99-runs", "epsilon-neighbor-shape", "switches-99-runs"],
)
def test_every_audit_refuses_before_it_runs(monkeypatch, audit, message):
    def no_run(self, rng):
        raise AssertionError("an audit ran a game before it refused")

    monkeypatch.setattr(PreparedRun, "run", no_run)
    with pytest.raises(ValueError, match=message):
        audit()
