import hashlib
import json
import math

import numpy as np
import pytest

from l2p.accountant import ball_config, config_budget, tune_ope
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
from l2p.measures import cumulative_table, normalized
from l2p.transform import L2PConfig, PreparedRun


def _fixed_stream():
    vals = np.array(
        [[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.3, 0.3, 1.0], [1.0, 0.2, 0.0], [0.5, 0.5, 0.5]]
    )
    return LossStream(vals)


def _small_config(p=0.5, eta=0.1, B=1, T=5):
    return L2PConfig(T=T, B=B, eta=eta, p=p, delta0=0.0, delta1=1e-6)


def _prepared(config, stream):
    return PreparedRun(config, "mw", stream.values)


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
        exact = exact_batch_distributions(_prepared(_small_config(), _fixed_stream()))
        np.testing.assert_allclose(exact[0], np.ones(3) / 3, rtol=1e-12)

    def test_matches_direct_softmax(self):
        stream = _fixed_stream()
        exact = exact_batch_distributions(_prepared(_small_config(B=2), stream))
        cum = stream.values[:2].sum(axis=0)  # batch 2 sees rounds 1..2
        w = np.exp(-0.1 * cum)
        np.testing.assert_allclose(exact[1], w / w.sum(), rtol=1e-12)

    @pytest.mark.parametrize("matrix", ["bool", "float-0-1", "fractional"])
    @pytest.mark.parametrize(
        "T, B, d", [(5, 1, 3), (9, 2, 4), (10, 4, 2), (7, 7, 3), (1, 1, 3)],
        ids=["B1", "B2-short-last", "B4-short-last", "one-batch", "T1"],
    )
    def test_read_off_the_run_as_off_its_own_table(self, matrix, T, B, d):
        # the oracle read off the run's table (counts on a bool matrix) is,
        # byte for byte, the one a float64 cumulative table of the matrix gives
        rng = np.random.default_rng(T * B * d)
        values = rng.random((T, d)) if matrix == "fractional" else rng.random((T, d)) < 0.5
        if matrix == "float-0-1":
            values = values.astype(np.float64)
        prepared = _prepared(_small_config(T=T, B=B), LossStream(values))
        assert prepared.binary == (matrix == "bool")
        want = normalized(-0.1 * cumulative_table(values, B))
        got = exact_batch_distributions(prepared)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        prepared = _prepared(config, stream)
        for transcript in _run_many(prepared, 2000, 9):
            for i, x in enumerate(transcript.models):
                want[i, x] += 1
        got = _marginal_counts(prepared, 2000, 9)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_report_lines_pinned(self):
        # recorded when the counts were built from the per-batch model column
        config, stream = _small_config(), bernoulli_experts(3, 5, (0.2, 0.5, 0.8), 1)
        text = "".join(r.to_json_line() + "\n" for r in marginal_tv_profile(config, stream, 10_000, 5))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b5cfdc35b401fec65b40ab7f7fa4e93ec5f2993ce5fed60fbdda1c282935159d"


class TestRatioAudit:
    def test_zero_losses_always_inside(self):
        stream = LossStream(np.zeros((10, 2)))
        config = _small_config(T=10)
        report = ratio_range_check(config, stream, 500, base_seed=0)
        assert report.statistic == 0.0 and report.passed

    def test_single_step_ratio_inside(self):
        # with B=1 the raw ratio lies in [e^{-eta}, e^{eta}], well inside the cap
        stream = bernoulli_experts(3, 20, [0.2, 0.5, 0.8], seed=3)
        report = ratio_range_check(_small_config(T=20), stream, 300, base_seed=1)
        assert report.statistic == 0.0 and report.passed

    def test_ball_config_runs_on_its_measure(self):
        # the runs take the config's measure kind, so a ball config's ratios are checked
        config = ball_config(20, 2, 1, 0.05, 0.5, 1e-6, 1.0, 1.0)
        grads = linear_oco_stream(2, 20, 1.0, 3, "iid-sphere")
        report = ratio_range_check(config, grads, 200, base_seed=1)
        assert report.n_samples == 200 * 19 and report.passed


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
        # the bucket read off the switch events is the one the decoded coins
        # and the played models give: x switches where S or S' is 0
        config = tune_ope(10, 2, 0.5, 0.05) if p is None else _small_config(p=p, B=B, T=T)
        prepared = PreparedRun(config, "mw", bernoulli_experts(2, T, [0.3, 0.7], seed=4).values)
        for seed in range(300):
            t = prepared.run(np.random.default_rng(seed))
            switched = [0] * (t.n_batches - 1)
            for row, code in zip(t.rows, t.codes):
                switched[row - 1] = 1 - (code >> 2 & code >> 1 & 1)
            assert _bucket(t) == (tuple(switched), int(t.models[-1]))

    def test_report_line_pinned(self):
        # the benchmark's audit-tiny shape: the statistic, the Wilson-shrunk
        # threshold and the notes, as one JSON line
        stream = bernoulli_experts(2, 10, (0.25, 0.75), 1)
        neighbor = neighbor_of(stream, 5, 1.0 - stream.values[5])
        report = empirical_epsilon(tune_ope(10, 2, 0.5, 0.05), stream, neighbor, 1000, base_seed=1)
        digest = hashlib.sha256(report.to_json_line().encode()).hexdigest()
        assert digest == "368d2d3ea266c6ca97f175f8e6296c275c34c1beb58d52a43ab99b900eb74e7a"

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


class TestSCoin:
    """The budget covers the played models, not the per-batch S coin: at
    B = 1 the coin's failure law, in closed form, moves between neighbouring
    streams by more than the claimed delta allows."""

    @staticmethod
    def _law(config, row):
        """P(S_2 = s, x_1 = a, y_1 = b) as ``law[1 - s, a, b]`` when batch 1's losses are ``row``.

        Batch 1's measure is uniform, and batch 2 keeps with probability
        min(1, exp(lr - 2 B eta)), where lr = eta (row[b] - row[a]) at B = 1.
        """
        lr = -config.eta * (row[:, None] - row[None, :])
        q = np.minimum(1.0, np.exp(lr - config.cap))
        return np.stack([q, 1.0 - q]) / row.size**2

    def test_engine_meets_the_closed_form(self):
        # P(x_1 = 0, y_1 = 1, S_2 = 0) is (1 - e^{-3 eta}) / 4 on the stream and
        # (1 - e^{-eta}) / 4 on its neighbour, which flips round 0
        eta, n = 0.05, 40_000
        config = L2PConfig(T=2, B=1, eta=eta, p=0.5, delta0=0.0, delta1=1e-6)
        for row, want in (([1.0, 0.0], 0.034823), ([0.0, 1.0], 0.012193)):
            assert self._law(config, np.array(row))[1, 0, 1] == pytest.approx(want, abs=5e-7)
            prepared = PreparedRun(config, "mw", np.array([row, [0.0, 0.0]]) > 0.5)
            hits = 0
            for seed in range(n):
                t = prepared.run(np.random.default_rng(seed))
                hits += t.event_xs[0] == 0 and t.event_ys[0] == 1 and t.rows == [1] and t.codes[0] < 4
            assert abs(hits / n - want) < 4 * math.sqrt(want * (1 - want) / n)

    def test_exceeds_the_claimed_delta_at_ope_b1(self):
        # batch 1 is a row of five 1s and five 0s, and the neighbour flips it:
        # at the accounted epsilon, (x_1, y_1, S_2) alone needs a delta of
        # 1.602e-4, where the config claims 1e-6
        config = tune_ope(20_000, 10, 1.0, 1e-6)
        budget = config_budget(config)
        assert config.B == 1 and budget.epsilon == pytest.approx(0.4584, abs=1e-4)
        row = np.repeat([1.0, 0.0], 5)
        law, neighbour = self._law(config, row), self._law(config, 1.0 - row)
        excess = np.maximum(0.0, law - math.exp(budget.epsilon) * neighbour).sum()
        assert excess == pytest.approx(1.602e-4, rel=1e-3)
        assert excess > budget.delta == 1e-6


def _shifted(stream):
    """``stream`` one round shorter: a neighbour of another shape."""
    return LossStream(stream.values[1:])


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
