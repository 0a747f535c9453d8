import io
import math
import warnings
from functools import partial

import numpy as np
import pytest

from l2p.accountant import tune_oco, tune_ope
from l2p.adversaries import (
    LossStream,
    bernoulli_experts,
    epoch_lower_bound_stream,
    linear_oco_stream,
)
from l2p.harness import (
    REP_CSV_COLUMNS,
    best_in_hindsight_oco_ball,
    best_in_hindsight_ope,
    monte_carlo,
    play_game,
    strawman_fixed_switch,
)
from l2p.seeding import replicate_seed, splitmix64
from l2p.transform import ConfigError, L2PConfig


class TestSeeding:
    def test_splitmix_known_vector(self):
        # first output of the reference splitmix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_distinct_reps(self):
        seeds = {replicate_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_deterministic(self):
        assert replicate_seed(7, 3) == replicate_seed(7, 3)

    def test_negative_rep_rejected(self):
        with pytest.raises(ValueError):
            replicate_seed(1, -1)


class TestComparators:
    def test_ope_all_zero_tie_break(self):
        s = LossStream(np.zeros((5, 3)))
        assert best_in_hindsight_ope(s) == (0, 0.0)

    def test_ope_brute_force(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        s = LossStream(vals)
        assert best_in_hindsight_ope(s) == (0, 1.0)

    def test_ope_single_expert(self):
        vals = np.array([[0.5], [0.25]])
        s = LossStream(vals)
        idx, loss = best_in_hindsight_ope(s)
        assert idx == 0 and loss == 0.75

    def test_oco_zero_gradients(self):
        s = LossStream(np.zeros((4, 2)), lipschitz=1.0)
        point, loss = best_in_hindsight_oco_ball(s, 1.0)
        assert loss == 0.0 and np.array_equal(point, np.zeros(2))

    def test_oco_closed_form(self):
        vals = np.array([[3.0, 4.0]]) / 5.0  # one gradient of norm 1
        vals = np.repeat(vals, 5, axis=0)  # total (3, 4)
        s = LossStream(vals, lipschitz=1.0)
        point, loss = best_in_hindsight_oco_ball(s, 1.0)
        np.testing.assert_allclose(point, [-0.6, -0.8], rtol=1e-12)
        np.testing.assert_allclose(loss, -5.0, rtol=1e-12)

    def test_oco_antipodal_cancellation(self):
        g = np.array([[0.6, 0.8], [-0.6, -0.8]])
        s = LossStream(g, lipschitz=1.0)
        _, loss = best_in_hindsight_oco_ball(s, 1.0)
        assert loss == 0.0


class TestPlayGame:
    def test_zero_losses_zero_regret(self):
        s = LossStream(np.zeros((8, 2)))
        cfg = L2PConfig(T=8, B=2, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        g = play_game(cfg, "mw", s, seed=0)
        assert g.regret == 0.0

    def test_single_expert_zero_regret(self):
        s = bernoulli_experts(1, 50, [0.5], seed=1)
        cfg = L2PConfig(T=50, B=5, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        g = play_game(cfg, "mw", s, seed=0)
        assert g.regret == pytest.approx(0.0, abs=1e-9)

    def test_regret_identity(self):
        s = bernoulli_experts(3, 60, [0.3, 0.5, 0.7], seed=2)
        cfg = L2PConfig(T=60, B=3, eta=0.05, p=0.4, delta0=0.0, delta1=1e-6)
        g = play_game(cfg, "mw", s, seed=5)
        assert g.regret == g.total_loss - g.comparator_loss
        assert g.switch_count_x == g.transcript.switch_count_x

    def test_alternating_losses_mw_envelope(self):
        # non-private mode (p=1, B=1) on the alternating stream stays within
        # the classical multiplicative-weights regret envelope
        T, d = 100, 2
        vals = np.tile(np.array([[1.0, 0.0], [0.0, 1.0]]), (T // 2, 1))
        s = LossStream(vals)
        eta = min(0.1, math.sqrt(math.log(d) / T))
        cfg = L2PConfig(T=T, B=1, eta=eta, p=1.0, delta0=0.0, delta1=1e-6)
        regrets = [play_game(cfg, "mw", s, seed=k).regret for k in range(100)]
        se = np.std(regrets, ddof=1) / math.sqrt(len(regrets))
        assert -4 * se <= np.mean(regrets) <= 2 * math.sqrt(T * math.log(d))


class TestMonteCarlo:
    def test_single_rep_equals_game(self):
        s = bernoulli_experts(2, 30, [0.4, 0.6], seed=3)
        cfg = L2PConfig(T=30, B=2, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        summary = monte_carlo(cfg, s, 1, base_seed=17)
        direct = play_game(cfg, "mw", s, replicate_seed(17, 0))
        assert summary.mean_regret == direct.regret
        assert summary.std_regret == 0.0

    def test_deterministic_summary(self):
        s = bernoulli_experts(2, 30, [0.4, 0.6], seed=3)
        cfg = L2PConfig(T=30, B=2, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        a = monte_carlo(cfg, s, 10, base_seed=5)
        b = monte_carlo(cfg, s, 10, base_seed=5)
        assert a.mean_regret == b.mean_regret
        assert a.to_json() == b.to_json()

    def test_zero_loss_stream(self):
        s = LossStream(np.zeros((10, 2)))
        cfg = L2PConfig(T=10, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        summary = monte_carlo(cfg, s, 7, base_seed=0)
        assert summary.mean_regret == 0.0 and summary.std_regret == 0.0

    def test_csv_columns(self):
        s = bernoulli_experts(2, 10, [0.4, 0.6], seed=0)
        cfg = L2PConfig(T=10, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        summary = monte_carlo(cfg, s, 3, base_seed=0)
        buf = io.StringIO()
        summary.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(REP_CSV_COLUMNS)
        assert len(lines) == 4

    def test_needs_a_replicate(self):
        s = bernoulli_experts(2, 10, [0.4, 0.6], seed=0)
        cfg = L2PConfig(T=10, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        with pytest.raises(ValueError, match="need at least one replicate"):
            monte_carlo(cfg, s, 0, base_seed=0)

    def test_transcripts_droppable(self):
        # replicates drop their transcripts and keep the counts a game gives
        s = bernoulli_experts(2, 10, [0.4, 0.6], seed=0)
        cfg = L2PConfig(T=10, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        summary = monte_carlo(cfg, s, 3, base_seed=0)
        assert all(r.transcript is None for r in summary.results)
        for i, r in enumerate(summary.results):
            game = play_game(cfg, "mw", s, replicate_seed(0, i))
            counts = (r.switch_count_x, r.switch_count_y, r.fake_switch_count)
            assert counts == (game.switch_count_x, game.switch_count_y, game.fake_switch_count)
            assert (r.regret, r.total_loss) == (game.regret, game.total_loss)


class TestKindMismatch:
    """A stream of the other kind than the config's is refused before any game is played."""

    def test_experts_config_refuses_gradients(self):
        config = tune_ope(1000, 3, 1.0, 1e-6)
        grads = linear_oco_stream(3, 1000, 1.0, 0, "iid-sphere")
        with pytest.raises(ConfigError, match=r"an experts run needs every loss in \[0, 1\]"):
            play_game(config, "mw", grads, 1)
        with pytest.raises(ConfigError, match=r"an experts run needs every loss in \[0, 1\]"):
            monte_carlo(config, grads, 3, 1)

    def test_ball_config_refuses_expert_losses(self):
        config = tune_oco(1000, 3, 1.0, 1e-6, 1.0, 1.0)
        losses = bernoulli_experts(3, 1000, [0.3, 0.5, 0.7], seed=0)
        with pytest.raises(ConfigError, match=r"norm [\d.]+ exceeds the config's lipschitz 1\.0"):
            play_game(config, "rmw", losses, 1)
        with pytest.raises(ConfigError, match=r"norm [\d.]+ exceeds the config's lipschitz 1\.0"):
            monte_carlo(config, losses, 3, 1)

    def test_ball_config_refuses_the_experts_kind(self):
        # this call once ran multiplicative weights over the gradient columns
        stream = linear_oco_stream(3, 1000, 1.0, 0, "iid-sphere")
        with pytest.raises(ConfigError, match="'mw' is not the config's 'rmw'"):
            play_game(tune_oco(1000, 3, 1, 1e-6, 1, 1), "mw", stream, 1)


class TestGradientBound:
    """A ball config is tuned and accounted for gradients of norm at most its lipschitz."""

    def test_stream_bound_above_the_config_refused(self):
        # without the check this game ran as if every gradient had norm at most 1
        config = tune_oco(200, 3, 1.0, 1e-6, 1.0, 1.0)
        grads = linear_oco_stream(3, 200, 3.0, 1, "iid-sphere")
        with pytest.raises(ConfigError, match=r"norm [\d.]+ exceeds the config's lipschitz 1\.0"):
            play_game(config, "rmw", grads, 1)
        with pytest.raises(ConfigError, match=r"norm [\d.]+ exceeds the config's lipschitz 1\.0"):
            monte_carlo(config, grads, 3, 1)

    @pytest.mark.parametrize("bound", [0.5, 2.0])
    def test_stream_bound_up_to_the_config_played(self, bound):
        config = tune_oco(200, 3, 1.0, 1e-6, 2.0, 1.0)
        grads = linear_oco_stream(3, 200, bound, 1, "iid-sphere")
        assert play_game(config, "rmw", grads, 1).transcript.n_batches == config.n_batches
        assert len(monte_carlo(config, grads, 2, 1).results) == 2


class TestStrawman:
    def test_single_switch_is_constant(self):
        s = bernoulli_experts(4, 100, [0.2, 0.4, 0.6, 0.8], seed=5)
        g = strawman_fixed_switch(s, 1, seed=0)
        assert g.switch_count_x == 1

    def test_full_budget_uniform_mean(self):
        # resampling every round on fair-coin losses gives ~T/2 total loss
        with pytest.warns(UserWarning):
            s = epoch_lower_bound_stream(4000, 1.0, 4, seed=6)
        totals = [strawman_fixed_switch(s, 4000, seed=k).total_loss for k in range(30)]
        assert abs(np.mean(totals) - 2000) < 4 * 4000 * 0.5 / math.sqrt(30 * 4000) * 10

    def test_epoch_stream_regret_floor(self):
        # the epoch construction defeats schedule-switching uniform play
        s = epoch_lower_bound_stream(10_000, 0.01, 4, seed=7)
        budget = round((10_000 * 0.01) ** (2 / 3))
        regrets = [strawman_fixed_switch(s, budget, seed=k).regret for k in range(50)]
        floor = 0.1 * math.sqrt(s.n_epochs) * s.epoch_len
        assert np.mean(regrets) >= floor

    @pytest.mark.parametrize(
        "T, eps, d, seed, regrets",
        [(1000, 0.05, 4, 3, [65.0, 36.0, 42.0, -7.0, 27.0, -4.0, 51.0, 56.0, 31.0, 32.0]),
         (16, 1.0, 2, 0, [3.0, 2.0, 4.0])],
        ids=["epoch-1000", "clamped-16"],
    )
    def test_replicate_regrets_pinned(self, T, eps, d, seed, regrets):
        # the regrets of the retired lower-bound command, which a strawman
        # run config reproduces: stream and replicates seeded from one seed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the clamped case warns
            s = epoch_lower_bound_stream(T, eps, d, seed)
        budget = max(1, round((T * eps) ** (2 / 3)))
        got = [strawman_fixed_switch(s, budget, replicate_seed(seed, i)).regret
               for i in range(len(regrets))]
        assert got == regrets

    def test_replicated_as_a_baseline(self):
        # monte_carlo plays the baseline at the replicate seeds; its rows leave B, eta, p empty
        s = bernoulli_experts(3, 50, [0.2, 0.5, 0.8], seed=2)
        summary = monte_carlo(None, s, 3, 5, partial(strawman_fixed_switch, s, 4))
        seeds = [replicate_seed(5, i) for i in range(3)]
        assert [r.seed for r in summary.results] == seeds
        regrets = [strawman_fixed_switch(s, 4, seed).regret for seed in seeds]
        assert summary.mean_regret == float(np.mean(regrets))
        assert [row[2:6] for row in summary.rep_rows()] == [[50, "", "", ""]] * 3

    def test_budget_bounds(self):
        s = bernoulli_experts(2, 10, [0.5, 0.5], seed=0)
        with pytest.raises(ValueError):
            strawman_fixed_switch(s, 0, seed=0)
        with pytest.raises(ValueError):
            strawman_fixed_switch(s, 11, seed=0)
