import math
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp, kstest

from l2p import measures
from l2p.accountant import tune_oco, tune_ope
from l2p.adversaries import LossStream, bernoulli_experts, linear_oco_stream
from l2p.measures import (
    FLOOR_GAP,
    REJECTION_CAP,
    RmwMeasure,
    SamplerError,
    _cdf_heads,
    cumulative_table,
    effective_eta_rmw,
    logsumexp,
    normalized,
)
from l2p.audit import _raw_log_ratios
from l2p.transform import L2PConfig, PreparedRun


def _reference_sums(values, B):
    """Cumulative sums snapshotted at batch starts, advanced one round at a time."""
    cur = np.zeros(values.shape[1])
    rows = [cur]
    for t, row in enumerate(values, start=1):
        cur = cur + row
        if t % B == 0 and t < len(values):
            rows.append(cur)
    return np.array(rows)


def _reference_log_weights(values, eta, B):
    """Experts log-weights at batch starts, one multiplicative update per round."""
    cur = np.zeros(values.shape[1])
    rows = [cur]
    for t, row in enumerate(values, start=1):
        cur = cur - eta * row
        if t % B == 0 and t < len(values):
            rows.append(cur)
    return np.array(rows)


class TestLossTypes:
    """Losses are rows of a stream, validated once for the whole matrix."""

    def test_loss_vector_bounds(self):
        LossStream([[0.0, 1.0, 0.5]])
        with pytest.raises(ValueError):
            LossStream([[1.2, 0.0]])
        with pytest.raises(ValueError):
            LossStream([[-0.1]])
        # NaN passes every comparison of the range check
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                LossStream([[bad, 0.0]])

    def test_linear_loss_norm_cap(self):
        LossStream([[0.3, 0.4]], lipschitz=0.5)
        with pytest.raises(ValueError):
            LossStream([[3.0, 4.0]], lipschitz=1.0)
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                LossStream([[0.0, bad]], lipschitz=1.0)

    def test_linear_loss_value(self):
        stream = LossStream([[1.0, -2.0]], lipschitz=3.0)
        assert stream.values[0] @ np.array([0.5, 0.25]) == 0.0


def _run_log_weights(losses, eta, B=1):
    """The log-weights of an experts run on ``losses``, formed as the engine forms them."""
    losses = np.asarray(losses, dtype=np.float64)
    config = L2PConfig(T=len(losses), B=B, eta=eta, p=0.5, delta0=0.0, delta1=1e-6)
    return _log_weights(PreparedRun(config, "mw", losses))


class TestMwUpdate:
    """Row s of the log-weight table is row s - 1 moved by -eta times batch s's losses."""

    def test_zero_loss_identity(self):
        assert np.array_equal(_run_log_weights(np.zeros((2, 3)), 0.1), np.zeros((2, 3)))

    def test_single_step(self):
        table = _run_log_weights([[1.0, 0.0, 0.5], [0.0, 0.0, 0.0]], 0.1)
        np.testing.assert_allclose(table[1], [-0.1, 0.0, -0.05], rtol=1e-15)

    def test_additivity(self):
        losses = np.array([[1.0, 0.0, 0.5], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        table = _run_log_weights(losses, 0.1)
        np.testing.assert_allclose(table[2], [-0.2, -0.1, -0.15], rtol=1e-12)

    @pytest.mark.parametrize(
        "losses",
        [[[math.inf, 0.0], [0.0, 0.0]], [[math.nan, 0.0], [0.0, 0.0]]],
        ids=["inf", "nan"],
    )
    def test_refuses_a_table_that_is_not_finite(self, losses):
        with pytest.raises(ValueError, match="cumulative losses must be finite"):
            _run_log_weights(losses, 0.1)

    def test_dimension_mismatch(self):
        config = L2PConfig(T=3, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        with pytest.raises(ValueError):
            PreparedRun(config, "mw", np.zeros(3))
        with pytest.raises(ValueError):
            PreparedRun(config, "mw", np.zeros((2, 3)))

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=6),
        st.floats(0.001, 0.1),
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_identity(self, losses, eta):
        # one update moves each unnormalized log-weight by exactly -eta * loss
        d = len(losses)
        table = _run_log_weights([losses, [0.0] * d], eta)
        for x in range(d):
            got = math.exp(table[1, x] - table[0, x])
            np.testing.assert_allclose(got, math.exp(-eta * losses[x]), rtol=1e-12)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=6), st.floats(0.001, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_normalized_step_divergence(self, losses, eta):
        # normalized log-densities move by at most eta per update
        d = len(losses)
        table = _run_log_weights([losses, [0.0] * d], eta)
        before, after = table - logsumexp(table)
        assert np.abs(after - before).max() <= eta + 1e-12


def _second_batch(losses, eta=0.1):
    """A two-batch experts run whose first batch has the given losses; batch 2 is row 1."""
    losses = np.asarray(losses, dtype=np.float64)
    config = L2PConfig(T=2, B=1, eta=eta, p=0.5, delta0=0.0, delta1=1e-6)
    return PreparedRun(config, "mw", np.vstack([losses, np.zeros_like(losses)]))


def _log_weights(prepared):
    """A prepared experts run's log-weights, formed as the engine forms them."""
    return prepared.loss_sums * -prepared.config.eta


def _cdfs(prepared):
    """A prepared experts run's exact float64 sampling CDFs, every batch's row."""
    return _one_shot_cdfs(_log_weights(prepared))


def _draws(prepared, rng, n=100_000):
    """``n`` batch-2 picks, made as the engine makes them."""
    cdf = _cdfs(prepared)[1].tolist()
    return np.array([bisect_right(cdf, u) for u in rng.random(n)])


class TestMwSampling:
    """The engine's pick, ``bisect_right`` on a CDF row, draws from the normalized measure."""

    def test_symmetric_split(self):
        prepared = _second_batch([0.0, 0.0])
        draws = _draws(prepared, np.random.default_rng(0))
        freq = draws.mean()
        assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(100_000)

    def test_dominant_expert(self):
        prepared = _second_batch([0.0, 200.0])  # log-weights (0, -20)
        assert normalized(_log_weights(prepared)[1])[1] == pytest.approx(math.exp(-20), rel=1e-6)
        draws = _draws(prepared, np.random.default_rng(1))
        assert (draws == 0).mean() >= 0.999

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_chisquare_gof(self, d):
        rng = np.random.default_rng(d)
        prepared = _second_batch(rng.uniform(0, 20, size=d))  # log-weights in (-2, 0)
        draws = _draws(prepared, rng)
        counts = np.bincount(draws, minlength=d)
        _, pval = chisquare(counts, 100_000 * normalized(_log_weights(prepared)[1]))
        assert pval > 0.001

    def test_log_space_stability(self):
        # a million worst-case updates stay finite and exactly representable
        eta, T = 0.1, 1_000_000
        config = L2PConfig(T=T + 1, B=T, eta=eta, p=0.5, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", np.ones((T + 1, 3)))
        log_weights = _log_weights(prepared)[1]
        np.testing.assert_allclose(log_weights, -1e5, rtol=1e-9)
        assert np.isfinite(log_weights).all()
        np.testing.assert_allclose(normalized(log_weights), 1.0 / 3, rtol=1e-12)
        # incremental tail: the last thousand of those updates, one round at a time
        inc = log_weights + eta * 1000.0
        for _ in range(1000):
            inc = inc - eta * np.ones(3)
        np.testing.assert_allclose(inc, -1e5, rtol=1e-9)


class TestRmw:
    def test_init_and_update(self):
        state = RmwMeasure(np.zeros(2), 0.1, 1.0, 1.0)
        assert np.array_equal(state.grad_sum, np.zeros(2))
        table = cumulative_table(np.array([[0.3, 0.4], [0.0, 0.0]]), 1)
        np.testing.assert_allclose(table, [[0.0, 0.0], [0.3, 0.4]])

    @pytest.mark.parametrize(
        "grad_sum, beta, lam, radius, match",
        [([], 0.1, 1.0, 1.0, "nonempty 1-d"), ([[0.0, 0.0]], 0.1, 1.0, 1.0, "nonempty 1-d"),
         ([0.0, math.nan], 0.1, 1.0, 1.0, "must be finite"),
         ([0.0, 0.0], 0.0, 1.0, 1.0, "beta must be positive"),
         ([0.0, 0.0], 0.1, -1.0, 1.0, "lam must be positive"),
         ([0.0, 0.0], 0.1, 1.0, 0.0, "radius must be positive"),
         ([0.0, 0.0], math.nan, 1.0, 1.0, "beta must be positive and finite"),
         ([0.0, 0.0], 0.1, math.inf, 1.0, "lam must be positive and finite"),
         ([0.0, 0.0], 0.1, math.nan, 1.0, "lam must be positive and finite"),
         ([0.0, 0.0], 0.1, 1.0, math.inf, "radius must be positive and finite")],
        ids=["empty", "matrix", "nan", "beta-0", "lam-negative", "radius-0",
             "beta-nan", "lam-inf", "lam-nan", "radius-inf"],
    )
    def test_refuses_bad_parameters(self, grad_sum, beta, lam, radius, match):
        with pytest.raises(ValueError, match=match):
            RmwMeasure(np.array(grad_sum), beta, lam, radius)

    def test_rejects_oversized_gradient(self):
        with pytest.raises(ValueError):
            LossStream([[2.0, 0.0]], lipschitz=1.0)

    def test_log_density_identity(self):
        state = RmwMeasure(np.array([1.0, -2.0]), 0.2, 1.5, 1.0)
        x = np.array([0.3, 0.1])
        expected = -0.2 * ((1.0 * 0.3 - 2.0 * 0.1) + 1.5 * (0.3**2 + 0.1**2))
        np.testing.assert_allclose(state.log_unnorm(x), expected, rtol=1e-12)

    def test_batch_ratio_linear(self):
        # adjacent rows of the gradient-sum table: the quadratic term cancels,
        # leaving the -beta <G_cur - G_prev, x> the engine uses
        table = cumulative_table(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
        prev, cur = (RmwMeasure(g, 0.2, 1.0, 1.0) for g in table)
        x = np.array([0.5, 0.0])
        got = cur.log_unnorm(x) - prev.log_unnorm(x)
        np.testing.assert_allclose(got, -0.1, rtol=1e-12)
        np.testing.assert_allclose(got, -0.2 * ((table[1] - table[0]) @ x), rtol=1e-12)

    def test_gaussian_shape(self):
        state = RmwMeasure(np.array([2.0, 0.0]), 0.5, 2.0, 1.0)
        np.testing.assert_allclose(state.gaussian_mean, [-0.5, 0.0])
        np.testing.assert_allclose(state.gaussian_sigma, math.sqrt(1 / 2.0))

    def test_sampler_centered_at_origin(self):
        state = RmwMeasure(np.zeros(3), 0.01, 10.0, 1.0)
        rng = np.random.default_rng(7)
        pts = np.array([state.sample(rng) for _ in range(20_000)])
        assert np.linalg.norm(pts, axis=1).max() <= 1.0
        se = pts.std(axis=0, ddof=1) / math.sqrt(len(pts))
        assert (np.abs(pts.mean(axis=0)) <= 3 * se).all()

    def test_sampler_matches_density_histogram(self):
        # 1-d marginal of the rejection sampler vs the analytic truncated gaussian
        state = RmwMeasure(np.array([4.0, 0.0]), 0.5, 1.0, 1.0)  # mean (-2, 0), far tail
        rng = np.random.default_rng(3)
        pts = np.array([state.sample(rng) for _ in range(20_000)])
        assert np.linalg.norm(pts, axis=1).max() <= 1.0
        # mass concentrates toward the mean side of the ball
        assert pts[:, 0].mean() < -0.3

    def test_unreachable_ball_raises(self):
        # mean far outside a tiny ball: no proposal of about a million lands
        state = RmwMeasure(np.array([2000.0, 0.0]), 0.5, 1.0, 0.01)
        with pytest.raises(SamplerError, match="d=2"):
            state.sample(np.random.default_rng(5))


class TestRejectionBlocks:
    """Past the one-at-a-time prefix, proposals come in blocks and the draw stays exact."""

    def test_draw_after_a_missed_prefix(self):
        # acceptance about 2e-5; seed 0's first REJECTION_CAP proposals all miss
        state = RmwMeasure(np.array([6.0, 0.0]), 2.0, 1.0, 1.0)
        mean, sigma = state.gaussian_mean, state.gaussian_sigma
        x = state.sample(np.random.default_rng(0))
        assert float(x @ x) <= 1.0
        replay = np.random.default_rng(0)
        for _ in range(REJECTION_CAP):
            z = mean + sigma * replay.standard_normal(2)
            assert float(z @ z) > 1.0
        # the draw is the first proposal inside the ball, block by block
        while True:
            z = mean + sigma * replay.standard_normal((REJECTION_CAP, 2))
            inside = np.flatnonzero(np.einsum("ij,ij->i", z, z) <= 1.0)
            if inside.size:
                break
        assert np.array_equal(x, z[inside[0]])

    def test_blocked_norms_follow_truncated_chi2(self, monkeypatch):
        # centred: |x|^2 / sigma^2 is chi2_d truncated at R^2 / sigma^2. The
        # centre accepts 2% of proposals, so with blocks of 50 about a third
        # of the draws come from blocks, and 40% of the blocks that land hold
        # more than one point: picking by norm among them would show.
        monkeypatch.setattr(measures, "REJECTION_CAP", 50)
        d, accept = 10, 0.02
        c = 2.0 * scipy.special.gammaincinv(d / 2, accept)  # R^2 / sigma^2, with R = 1
        state = RmwMeasure(np.zeros(d), c / 2.0, 1.0, 1.0)
        rng = np.random.default_rng(11)
        x = np.array([state.sample(rng) for _ in range(5000)])
        s = (x * x).sum(axis=1) * c

        def cdf(v):
            return scipy.special.gammainc(d / 2, np.minimum(v, c) / 2) / accept

        assert kstest(s, cdf).pvalue > 1e-3

    def test_blocked_matches_one_at_a_time_off_centre(self, monkeypatch):
        # mean (-1.5, 0, 0, 0), sigma 0.5: about 5% of proposals land, so with
        # blocks of 20 about a third of the blocked draws come from blocks
        state = RmwMeasure(np.array([3.0, 0.0, 0.0, 0.0]), 2.0, 1.0, 1.0)
        rng = np.random.default_rng(1)
        single = np.array([state.sample(rng) for _ in range(4000)])
        monkeypatch.setattr(measures, "REJECTION_CAP", 20)
        rng = np.random.default_rng(2)
        blocked = np.array([state.sample(rng) for _ in range(4000)])
        assert ks_2samp(single[:, 0], blocked[:, 0]).pvalue > 1e-3
        assert ks_2samp((single**2).sum(axis=1), (blocked**2).sum(axis=1)).pvalue > 1e-3


class TestEffectiveEta:
    def test_direct_values(self):
        # log(2/delta0) = 1 at delta0 = 2/e
        d0 = 2.0 / math.e
        np.testing.assert_allclose(
            effective_eta_rmw(0.01, 1.0, 1.0, d0), 0.02 + math.sqrt(0.08), rtol=1e-12
        )
        np.testing.assert_allclose(
            effective_eta_rmw(0.01, 4.0, 1.0, d0), 0.005 + math.sqrt(0.02), rtol=1e-12
        )

    def test_vanishes_with_beta(self):
        assert effective_eta_rmw(1e-18, 1.0, 1.0, 0.5) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_eta_rmw(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            effective_eta_rmw(0.01, 1.0, 1.0, 1.5)
        # a NaN or infinite parameter has no divergence bound: nan, or 0.0 at lam = inf
        for args in ((math.nan, 1.0, 1.0, 0.1), (1.0, math.inf, 1.0, 0.1), (1.0, 1.0, math.inf, 0.1),
                     (math.inf, 1.0, 1.0, 0.1)):
            with pytest.raises(ValueError, match="must"):
                effective_eta_rmw(*args)


class TestSequences:
    """The array tables against one-round-at-a-time reference builders."""

    def test_mw_sequence_matches_reference(self):
        rng = np.random.default_rng(0)
        losses = rng.random((11, 3))
        fast = _run_log_weights(losses, 0.07, 4)
        slow = _reference_log_weights(losses, 0.07, 4)
        assert fast.shape == slow.shape == (3, 3)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_rmw_sequence_matches_reference(self):
        rng = np.random.default_rng(1)
        grads = rng.standard_normal((10, 2))
        grads /= np.linalg.norm(grads, axis=1, keepdims=True)
        fast = cumulative_table(grads, 3)
        slow = _reference_sums(grads, 3)
        assert fast.shape == slow.shape == (4, 2)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("T, B", [(1, 1), (7, 7), (30, 1), (31, 4)])
    def test_prepared_tables_match_reference(self, T, B):
        stream = bernoulli_experts(3, T, (0.2, 0.5, 0.8), T)
        config = L2PConfig(T=T, B=B, eta=0.05, p=0.5, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", stream.values)
        slow = _reference_log_weights(stream.values, 0.05, B)
        np.testing.assert_allclose(_log_weights(prepared), slow, atol=1e-12)
        for row, cdf in zip(slow, _cdfs(prepared)):
            want = np.cumsum(scipy.special.softmax(row))
            np.testing.assert_allclose(cdf, want, atol=1e-12)
            assert cdf[-1] == 1.0
        grads = linear_oco_stream(2, T, 1.0, T, "iid-sphere")
        config = L2PConfig(
            T=T, B=B, eta=0.05, p=0.5, delta0=1e-12, delta1=1e-6,
            beta=0.05, lam=10.0, radius=1.0, lipschitz=1.0,
        )
        prepared = PreparedRun(config, "rmw", grads.values)
        np.testing.assert_allclose(prepared.loss_sums, _reference_sums(grads.values, B), atol=1e-12)

    def test_ratio_cross_family_rejected(self):
        # a run is of one family: unknown kinds, and ball runs on a config
        # without ball parameters, are refused
        config = L2PConfig(T=2, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        with pytest.raises(ValueError):
            PreparedRun(config, "ball", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PreparedRun(config, "rmw", np.zeros((2, 2)))


def _one_shot_cumulative(values, B):
    """The cumulative table as one ``np.cumsum`` over the whole matrix builds it."""
    T, d = values.shape
    n_batches = -(-T // B)
    cum = np.zeros((n_batches, d))
    if n_batches > 1:
        sums = np.cumsum(values, axis=0)
        cum[1:] = sums[np.arange(1, n_batches) * B - 1]
    return cum


def _one_shot_cdfs(log_weights):
    cdfs = np.cumsum(normalized(log_weights), axis=1)
    cdfs[:, -1] = 1.0
    return cdfs


def _one_shot_sure(log_weights, cap):
    spread = np.ptp(np.diff(log_weights, axis=0), axis=1).max(initial=0.0)
    floor = math.exp(min(-cap - float(spread), 0.0))
    return floor * (1.0 - 1e-12) - 1e-300


def _ball_config(T, B):
    return L2PConfig(
        T=T, B=B, eta=0.05, p=0.5, delta0=1e-12, delta1=1e-6,
        beta=0.05, lam=10.0, radius=1.0, lipschitz=1.0,
    )


def _signed_zero_gradients(rng, T, d):
    """Gradients with negative entries, scattered zeros of both signs and a column of -0.0."""
    g = rng.standard_normal((T, d))
    g[rng.random((T, d)) < 0.2] = 0.0
    g[rng.random((T, d)) < 0.2] = -0.0
    g[:, -1] = -0.0
    return g


# The tables the golden transcripts are built from, by (config, kind, values).
GOLDEN_TABLES = {
    "ope-b1": lambda: (
        tune_ope(20_000, 10, 1.0, 1e-6),
        "mw",
        bernoulli_experts(10, 20_000, np.linspace(0.35, 0.65, 10), 1).values,
    ),
    "marginal": lambda: (
        L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(3, 5, (0.2, 0.5, 0.8), 1).values,
    ),
    "epsilon": lambda: (tune_ope(10, 2, 0.5, 0.05), "mw", bernoulli_experts(2, 10, (0.25, 0.75), 1).values),
    "ball": lambda: (
        tune_oco(200, 3, 1.0, 1e-6, 1.0, 1.0),
        "rmw",
        linear_oco_stream(3, 200, 1.0, 5, "iid-sphere").values,
    ),
}


class TestChunkedTables:
    """Every table built chunk by chunk equals the one-shot expression byte for byte."""

    @pytest.fixture(params=[1, 7, None], ids=["chunk-1", "chunk-7", "chunk-default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(measures, "_CHUNK", request.param)
        return measures._CHUNK

    @staticmethod
    def _assert_tables(config, kind, values):
        prepared = PreparedRun(config, kind, values)
        want = _one_shot_cumulative(values, config.B)
        assert cumulative_table(values, config.B).tobytes() == want.tobytes()
        if kind == "rmw":
            assert prepared.loss_sums.tobytes() == want.tobytes()
            return
        lw = -config.eta * want
        assert _log_weights(prepared).tobytes() == lw.tobytes()
        # a binary run keeps its cumulative losses as counts
        counts = np.min_scalar_type(config.T) if prepared.binary else np.float64
        assert prepared.loss_sums.dtype == counts
        assert prepared.loss_sums.astype(np.float64).tobytes() == want.tobytes()
        assert _cdf_heads(lw).tobytes() == _one_shot_cdfs(lw)[:, :-1].tobytes()
        assert prepared.sure == _one_shot_sure(lw, config.cap)

    @pytest.mark.parametrize("shape", sorted(GOLDEN_TABLES))
    def test_golden_shapes(self, chunk, shape):
        self._assert_tables(*GOLDEN_TABLES[shape]())

    def test_random_shapes(self, chunk):
        rng = np.random.default_rng(chunk)
        for n in sorted({1, max(chunk - 1, 1), chunk, chunk + 1, 3 * chunk + 2}):
            for B in range(1, 6):
                T = int(rng.integers((n - 1) * B + 1, n * B + 1))  # a short last batch too
                d = int(rng.choice([1, 2, 3, 10, 17, 130] if T * 130 <= 10**6 else [1, 3, 10]))
                config = L2PConfig(T=T, B=B, eta=0.07, p=0.5, delta0=0.0, delta1=1e-6)
                self._assert_tables(config, "mw", (rng.random((T, d)) < 0.5).astype(np.float64))
                self._assert_tables(config, "mw", rng.random((T, d)))
                self._assert_tables(_ball_config(T, B), "rmw", _signed_zero_gradients(rng, T, d))

    def test_round_chunk_boundaries(self, chunk):
        # rounds, not batches, are chunked in the cumulative sum
        rng = np.random.default_rng(100 + chunk)
        for T in (chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
            for B in (1, 2, 3, 5):
                if T < 1:
                    continue
                values = _signed_zero_gradients(rng, T, 4)
                want = _one_shot_cumulative(values, B)
                assert cumulative_table(values, B).tobytes() == want.tobytes()

    def test_signed_zeros_survive(self, chunk):
        values = np.full((2 * chunk + 3, 2), -0.0)
        cum = cumulative_table(values, 1)
        assert np.signbit(cum[1:]).all() and not np.signbit(cum[0]).any()
        lw = _run_log_weights(values, 0.1)
        assert np.signbit(lw[0]).all() and not np.signbit(lw[1:]).any()

    def test_a_step_across_a_chunk_boundary(self, chunk):
        # the one loss lands in round chunk - 1, so the only non-zero row step
        # is from row chunk - 1, the last of the first chunk, to row chunk
        values = np.zeros((2 * chunk + 1, 3))
        values[chunk - 1, 0] = 1.0
        config = L2PConfig(T=len(values), B=1, eta=0.07, p=0.5, delta0=0.0, delta1=1e-6)
        lw = -config.eta * _one_shot_cumulative(values, 1)
        sure = PreparedRun(config, "mw", values).sure
        assert sure == _one_shot_sure(lw, config.cap) < _one_shot_sure(lw[:1], config.cap)

    @pytest.mark.parametrize(
        "bad, refused",
        [({"mid": math.nan}, True), ({"mid": math.inf}, True),
         ({1: -math.inf, "end": math.inf}, True), ({"mid": 1e308, "next": 1e308}, True),
         ({"last": math.nan}, False)],
        ids=["nan", "inf", "minus-inf-then-inf", "overflow", "nan-in-last-batch"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_losses_reach_the_last_kept_row(self, chunk, bad, refused):
        # a running sum that meets a NaN or an infinity keeps it, and one that
        # overflows stays infinite, up to the last kept row; no kept row sums
        # the last batch's rounds, so a NaN there reaches no table, as before
        n, B = 3 * chunk + 2, 2
        T = n * B
        rounds = {"mid": T // 2, "next": T // 2 + 1, "end": T - B - 1, "last": T - B}
        values = np.zeros((T, 3))
        for t, v in bad.items():
            values[rounds.get(t, t), 1] = v
        config = L2PConfig(T=T, B=B, eta=0.07, p=0.5, delta0=0.0, delta1=1e-6)
        if refused:
            with pytest.raises(ValueError, match="cumulative losses must be finite"):
                PreparedRun(config, "mw", values)
        else:
            assert np.isfinite(PreparedRun(config, "mw", values).loss_sums).all()

    @staticmethod
    def _assert_floors(config, values):
        """The engine's CDF floors are min(floor(F * 2**16), 2**16 - 1) of the
        first d - 1 entries F of each exact row, as uint16; over 2**16 every one
        is under its entry by less than FLOOR_GAP. Returns the exact table."""
        prepared = PreparedRun(config, "mw", values)
        exact, floors = _cdfs(prepared), prepared.cdf_floors
        n, d = exact.shape
        assert floors.dtype == np.uint16 and floors.shape == (n, d - 1)
        # the oracle: floor on the grid in float64, then cap
        head = exact[:, :-1]
        want = np.minimum(np.floor(head * 2**16), 2**16 - 1).astype(np.uint16)
        assert floors.tobytes() == want.tobytes()
        grid = floors / 2**16
        assert (grid <= head).all() and (head - grid < FLOOR_GAP).all()
        below_cap = floors < 2**16 - 1
        assert ((floors[below_cap] + 1) / 2**16 > head[below_cap]).all()  # the largest at or below
        assert (exact[:, -1] == 1.0).all()
        # an exact pick builds its one row alone: it is the table's row
        for row in np.linspace(0, n - 1, min(n, 40)).astype(int).tolist():
            one = _cdf_heads(np.multiply(prepared.loss_sums[row], -config.eta, dtype=np.float64))
            assert one.tobytes() == exact[row, :-1].tobytes()
        return exact

    def test_floors_of_the_table_shapes(self, chunk):
        for shape in sorted(GOLDEN_TABLES):
            config, kind, values = GOLDEN_TABLES[shape]()
            if kind == "mw":
                self._assert_floors(config, values)
        rng = np.random.default_rng(200 + chunk)
        for n in sorted({1, max(chunk - 1, 1), chunk, chunk + 1, 3 * chunk + 2}):
            for B in (1, 3):
                T = int(rng.integers((n - 1) * B + 1, n * B + 1))
                config = L2PConfig(T=T, B=B, eta=0.07, p=0.5, delta0=0.0, delta1=1e-6)
                for d in (1, 3, 17):
                    self._assert_floors(config, (rng.random((T, d)) < 0.5).astype(np.float64))
                    self._assert_floors(config, rng.random((T, d)))

    def test_floors_below_the_float32_normals(self, chunk):
        # expert 0 loses every round, so its share of batch s is about
        # e^(-0.1 (s - 1)): below one grid step from s = 112 on, below
        # 2**-126 from s = 875 on, and a float32 subnormal, not 0, up to
        # s = 1033; every such entry floors to 0
        values = np.zeros((2000, 2))
        values[:, 0] = 1.0
        config = L2PConfig(T=2000, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        exact = self._assert_floors(config, values)
        column = exact[:, 0]
        assert ((2.0**-149 <= column) & (column < 2.0**-126)).sum() > 100
        assert (column < 2.0**-149).sum() > 100
        floors = PreparedRun(config, "mw", values).cdf_floors
        assert (floors[column < 2.0**-16] == 0).all() and (column < 2.0**-16).sum() > 1800

    def test_floors_of_dominant_entries(self, chunk):
        # expert 0 wins every round, so from about s = 375 on every entry
        # before the last rounds up to 1.0 and floors to the cap
        values = np.ones((600, 3))
        values[:, 0] = 0.0
        config = L2PConfig(T=600, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        exact = self._assert_floors(config, values)
        top = (exact[:, :-1] == 1.0).all(axis=1)
        assert top.sum() > 100
        floors = PreparedRun(config, "mw", values).cdf_floors
        assert (floors[top] == 2**16 - 1).all()


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


def _one_shot_ratios(lw, xs, ys):
    """The raw log ratio of every batch s >= 2 from one-shot log-weights and each batch's models."""
    r, x, y = np.arange(1, lw.shape[0]), xs[:-1], ys[:-1]
    return (lw[r, x] - lw[r - 1, x]) - (lw[r, y] - lw[r - 1, y])


class TestCountTable:
    """A binary run keeps its cumulative losses as counts in the smallest
    unsigned type that holds T; every double formed from them is the one
    the float table gives, byte for byte."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize(
        "T, counts", [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)]
    )
    def test_dtype_boundaries(self, T, counts, B):
        rng = np.random.default_rng(T + B)
        values = rng.random((T, 2)) < 0.5
        values[:, 0] = True  # a column that counts every round, up to the table's top
        config = L2PConfig(T=T, B=B, eta=0.005, p=0.01, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", values)
        assert prepared.binary and prepared.loss_sums.dtype == counts
        assert prepared.loss_sums[-1, 0] == (config.n_batches - 1) * B
        want = _one_shot_cumulative(values, B)
        lw = -config.eta * want
        assert prepared.loss_sums.astype(np.float64).tobytes() == want.tobytes()
        assert _cdfs(prepared).tobytes() == _one_shot_cdfs(lw).tobytes()
        assert _bits(prepared.sure) == _bits(_one_shot_sure(lw, config.cap))
        # the same run on a float table: a float64 matrix of 0s and 1s is not binary
        floats = PreparedRun(config, "mw", values.astype(np.float64))
        assert not floats.binary and floats.loss_sums.dtype == np.float64
        for seed in range(20):
            t = prepared.run(np.random.default_rng(seed))
            f = floats.run(np.random.default_rng(seed))
            assert (t.rows, t.codes, t.event_xs, t.event_ys) == (
                f.rows, f.codes, f.event_xs, f.event_ys
            )
            ys = np.repeat(t.event_ys, np.diff([0, *t.rows, config.n_batches]))
            ratios = _one_shot_ratios(lw, np.asarray(t.models), ys)
            assert _raw_log_ratios(t).tobytes() == ratios.tobytes()
            assert _bits(t.total_loss) == _bits(float(t.round_losses.sum()))

    def test_a_negative_zero_keeps_floats(self):
        # a float64 matrix is fractional whatever its values, so a 0/1
        # matrix with -0.0 losses in one column keeps a float table and
        # gathers each total, as any float64 matrix does
        values = (np.random.default_rng(3).random((300, 3)) < 0.5).astype(np.float64)
        values[values[:, 1] == 0.0, 1] = -0.0
        config = L2PConfig(T=300, B=2, eta=0.05, p=0.2, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", values)
        assert not prepared.binary and prepared.loss_sums.dtype == np.float64
        assert prepared.loss_sums.tobytes() == _one_shot_cumulative(values, 2).tobytes()
        for seed in range(10):
            t = prepared.run(np.random.default_rng(seed))
            got = t.total_loss
            assert "round_losses" in vars(t)  # gathered
            assert _bits(got) == _bits(float(t.round_losses.sum()))


def _traced(build):
    """What ``build`` returns, with the bytes it leaves allocated and its peak, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return kept, retained - base, peak - base


class TestSetUpMemory:
    """Set-up keeps the tables the engine reads, and builds them with no table-size temporary."""

    def test_experts_keep_two_tables(self):
        # at ope-b1's shape a binary run keeps uint16 counts, a quarter of
        # a float64 table, and uint16 CDF floors over d - 1 columns, under
        # a quarter of one, and builds them with no float64 table of their
        # size; it keeps no exact CDF table
        T, d = 20_000, 10
        values = bernoulli_experts(d, T, np.linspace(0.35, 0.65, d), 1).values
        config = tune_ope(T, d, 1.0, 1e-6)
        prepared, retained, peak = _traced(lambda: PreparedRun(config, "mw", values))
        n = config.n_batches
        table = n * d * 8
        assert prepared.binary and prepared.loss_sums.dtype == np.uint16
        assert prepared.loss_sums.nbytes == table / 4
        assert prepared.cdf_floors.dtype == np.uint16
        assert prepared.cdf_floors.nbytes == 2 * n * (d - 1)
        assert retained <= 0.5 * table
        assert peak <= 0.9 * table

    def test_bernoulli_draw_is_a_byte_per_loss(self):
        # the draw fills a bool matrix a chunk of uniforms at a time: its
        # peak is the matrix and one chunk, under half a float64 matrix
        T, d, means = 20_000, 10, np.linspace(0.35, 0.65, 10)
        bernoulli_experts(d, 1, means, 1)  # numpy's first-call allocations are not the draw's
        stream, retained, peak = _traced(lambda: bernoulli_experts(d, T, means, 1))
        assert stream.values.dtype == np.bool_ and stream.values.nbytes == T * d
        assert retained <= T * d + 4096
        assert peak < 0.5 * T * d * 8

    def test_fractional_experts_keep_two_float_tables(self):
        # the cumulative losses in float64 and the CDF floors in uint16
        T, d = 20_000, 10
        values = np.random.default_rng(1).random((T, d))
        config = tune_ope(T, d, 1.0, 1e-6)
        prepared, retained, peak = _traced(lambda: PreparedRun(config, "mw", values))
        n = config.n_batches
        table = n * d * 8
        assert not prepared.binary and prepared.loss_sums.dtype == np.float64
        assert prepared.cdf_floors.nbytes == 2 * n * (d - 1)
        assert prepared.loss_sums.nbytes == table
        assert retained <= 1.3 * table
        assert peak <= 1.7 * table

    def test_ball_keeps_one_table(self):
        T, d = 10**4, 3
        values = linear_oco_stream(d, T, 1.0, 3, "iid-sphere").values
        config = tune_oco(T, d, 1.0, 1e-6, 1.0, 1.0)
        prepared, retained, _ = _traced(lambda: PreparedRun(config, "rmw", values))
        table = config.n_batches * d * 8
        assert prepared.loss_sums.nbytes == table
        assert retained <= 1.1 * table + 4096  # and a few O(d) arrays


class TestLogsumexp:
    """The numpy log-sum-exp equals scipy.special.logsumexp bit for bit."""

    @staticmethod
    def _assert_bit_equal(a):
        got = logsumexp(a)
        want = scipy.special.logsumexp(a, axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        p = np.exp(a - want)
        assert normalized(a).tobytes() == (p / p.sum(axis=-1, keepdims=True)).tobytes()

    def test_ties_at_the_max(self):
        self._assert_bit_equal(np.array([[0.0, 0.0, -1.0], [-2.0, -2.0, -2.0], [3.0, 1.0, 3.0]]))
        self._assert_bit_equal(np.zeros(5))

    def test_single_expert(self):
        self._assert_bit_equal(np.array([[-3.5], [0.0], [-1e4]]))
        self._assert_bit_equal(np.array([7.25]))

    def test_rows_near_minus_1e4(self):
        rng = np.random.default_rng(3)
        self._assert_bit_equal(-1e4 + rng.uniform(-50.0, 0.0, (200, 7)))
        self._assert_bit_equal(-1e4 - rng.integers(0, 3, (200, 4)).astype(float))

    def test_random_tables(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 8, 9, 17, 130):
            self._assert_bit_equal(rng.normal(0.0, 30.0, (50, d)))

    def test_ope_b1_table(self):
        T, d = 20_000, 10
        stream = bernoulli_experts(d, T, np.linspace(0.35, 0.65, d), 1)
        config = tune_ope(T, d, 1.0, 1e-6)
        self._assert_bit_equal(_log_weights(PreparedRun(config, "mw", stream.values)))


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, l2p, l2p.cli; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), "
        "'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60, env=env,
    )
    assert out.stdout.strip() == "False False"


def test_sample_dispatch():
    rng = np.random.default_rng(0)
    assert RmwMeasure(np.zeros(2), 0.1, 1.0, 1.0).sample(rng).shape == (2,)
