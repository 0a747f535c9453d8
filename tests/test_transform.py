import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2p import transform
from l2p.accountant import ball_config, config_budget, ope_config, tune_oco, tune_ope
from l2p.adversaries import (
    LossStream,
    bernoulli_experts,
    epoch_lower_bound_stream,
    linear_oco_stream,
)
from l2p.audit import exact_batch_distributions
from l2p.harness import best_in_hindsight_oco_ball, best_in_hindsight_ope, play_game
from l2p.measures import FLOOR_GAP, RmwMeasure, effective_eta_rmw, normalized
from l2p.transform import (
    CSV_COLUMNS,
    ConfigError,
    L2PConfig,
    PreparedRun,
    Transcript,
    _BLOCK,
    _WALK,
    _keep_test,
    _picks,
    _visits,
)


def _log_ratio(prepared: PreparedRun, s: int, x) -> float:
    """log of cur(x) / prev(x) between the batch s-1 and batch s rows of the tables."""
    if prepared.is_mw:
        col = prepared.loss_sums[:, x] * -prepared.config.eta
        return float(col[s - 1] - col[s - 2])
    delta_g = prepared.grad_sums[s - 1] - prepared.grad_sums[s - 2]
    return float(-prepared.beta * (delta_g @ x))


def _acceptance(prepared: PreparedRun, s: int, x, y) -> float:
    """Keep probability at batch s: min(1, exp(r(x) - r(y) - 2 B eta))."""
    cap = 2.0 * prepared.config.B * prepared.config.eta_effective
    lr = _log_ratio(prepared, s, x) - _log_ratio(prepared, s, y) - cap
    return 1.0 if lr >= 0.0 else math.exp(lr)


def _mw_run(eta, rows, B=1):
    values = np.array(rows, dtype=float)
    config = L2PConfig(T=len(values), B=B, eta=eta, p=0.5, delta0=0.0, delta1=1e-6)
    return PreparedRun(config, "mw", values)


class TestAcceptanceProbability:
    """The keep probability read off the prepared tables."""

    def test_identical_measures(self):
        for B in (1, 2, 5):
            prepared = _mw_run(0.1, np.zeros((2 * B, 3)), B)
            got = _acceptance(prepared, 2, 0, 1)
            np.testing.assert_allclose(got, math.exp(-2 * B * 0.1), rtol=1e-12)

    def test_y_heavier_than_x(self):
        # batch loss 0 at x, 1 at y: ratio exp(0 + eta - 2*eta) = e^{-0.1}
        prepared = _mw_run(0.1, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(_acceptance(prepared, 2, 0, 1), math.exp(-0.1), rtol=1e-12)

    def test_x_heavier_than_y(self):
        # batch loss 1 at x, 0 at y: ratio exp(-eta - 0 - 2*eta) = e^{-0.3}
        prepared = _mw_run(0.1, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(_acceptance(prepared, 2, 0, 1), math.exp(-0.3), rtol=1e-12)

    def test_rescaling_invariance(self):
        prepared = _mw_run(0.05, [[0.3, 0.9, 0.1]] * 3 + [[0.0, 0.0, 0.0]] * 3, B=3)
        a = _acceptance(prepared, 2, 0, 2)
        normal = normalized(prepared.loss_sums * -0.05)
        prepared.loss_sums = prepared.loss_sums + 154.0  # every log-weight moves by -7.7
        b = _acceptance(prepared, 2, 0, 2)
        np.testing.assert_allclose(a, b, rtol=1e-12)
        np.testing.assert_allclose(normalized(prepared.loss_sums * -0.05), normal, rtol=1e-12)
        assert 0.0 < a <= 1.0

    def test_rmw_ratio(self):
        stream = LossStream("iid-sphere", 2, 2, 0, [[1.0, 0.0], [0.0, 0.0]], lipschitz=1.0)
        config = L2PConfig(
            T=2, B=1, eta=0.05, p=0.5, delta0=1e-12, delta1=1e-6,
            beta=0.2, lam=1.0, radius=1.0, lipschitz=1.0,
        )
        prepared = PreparedRun(config, "rmw", stream.values)
        x = np.array([0.5, 0.0])
        y = np.array([-0.5, 0.0])
        # r(x) = -0.1, r(y) = +0.1, cap 2 B eta_accounted
        got = _acceptance(prepared, 2, x, y)
        np.testing.assert_allclose(got, math.exp(-0.1 - 0.1 - config.cap), rtol=1e-12)


class TestConfigValidation:
    """Hard constraints raise at construction; the accountant notes the soft ones."""

    def test_hard_errors(self):
        with pytest.raises(ConfigError, match=r"^eta must lie in \(0, 0\.1\]$"):
            L2PConfig(T=10, B=1, eta=0.5, p=0.5, delta0=0.0, delta1=1e-6)
        # every broken constraint is named, joined by "; "
        with pytest.raises(
            ConfigError, match="^T must be a positive integer; B must be a positive integer$"
        ):
            L2PConfig(T=0, B=0, eta=0.05, p=0.5, delta0=0.0, delta1=1e-6)

    @pytest.mark.parametrize(
        "fields, message",
        [({"delta0": -0.1}, "delta0 must be nonnegative"),
         ({"delta1": 0.0}, r"delta1 must lie in \(0, 1\)"),
         ({"delta1": 1.0}, r"delta1 must lie in \(0, 1\)"),
         ({"delta0": 1e-9, "beta": 0.05, "lam": 10.0, "radius": 1.0},
          "ball runs need beta, lam, radius and lipschitz, all positive"),
         ({"T": math.nan}, "T must be a positive integer"),
         ({"B": math.nan}, "B must be a positive integer"),
         ({"T": 5.5}, "T must be a positive integer"),
         ({"B": 2.5}, "B must be a positive integer"),
         ({"T": True}, "T must be a positive integer"),
         ({"delta0": math.nan}, r"delta0 must lie in \[0, 1\)"),
         ({"delta0": math.inf}, r"delta0 must lie in \[0, 1\)"),
         ({"delta0": 5.0}, r"delta0 must lie in \[0, 1\)")],
        ids=["delta0-negative", "delta1-0", "delta1-1", "ball-without-lipschitz",
             "T-nan", "B-nan", "T-fractional", "B-fractional", "T-bool",
             "delta0-nan", "delta0-inf", "delta0-5"],
    )
    def test_each_broken_constraint_named(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            L2PConfig(**{**dict(T=10, B=1, eta=0.05, p=0.5, delta0=0.0, delta1=1e-6), **fields})

    def test_numpy_integers_accepted(self):
        config = L2PConfig(T=np.int64(10), B=np.int32(2), eta=0.05, p=0.5, delta0=0.0, delta1=1e-6)
        assert config.n_batches == 5

    def test_ball_derives_accounted_eta(self):
        # the budget and the acceptance cap use the divergence the ball measure
        # satisfies, derived from the config's own fields, so it cannot be set
        fields = dict(T=6, B=2, eta=0.05, p=0.5, delta0=1e-12, delta1=1e-6,
                      beta=0.05, lam=10.0, radius=1.0, lipschitz=1.0)
        config = L2PConfig(**fields)
        assert config.eta_accounted == effective_eta_rmw(0.05, 10.0, 1.0, 1e-12)
        assert config.cap == PreparedRun(config, "rmw", np.zeros((6, 2))).cap
        assert config.cap == 2.0 * 2 * config.eta_accounted
        assert L2PConfig(T=6, B=2, eta=0.05, p=0.5, delta0=0.0, delta1=1e-6).eta_accounted is None
        with pytest.raises(TypeError):
            L2PConfig(**fields, eta_accounted=0.05)
        # the bound is defined for delta0 in (0, 1) only
        for delta0 in (0.0, 1.0, 2.0):
            with pytest.raises(ConfigError, match=r"delta0 in \(0, 1\)"):
                L2PConfig(**{**fields, "delta0": delta0})

    def test_negative_p_rejected(self):
        with pytest.raises(ConfigError, match=r"p must lie in \[0, 1\]"):
            L2PConfig(T=10, B=1, eta=0.1, p=-0.1, delta0=0.0, delta1=1e-6)
        with pytest.raises(ConfigError, match=r"p must lie in \[0, 1\]"):
            L2PConfig(T=10, B=1, eta=0.1, p=1.5, delta0=0.0, delta1=1e-6)

    def test_degenerate_p_allowed_with_warning(self):
        budget = config_budget(L2PConfig(T=10, B=1, eta=0.1, p=1.0, delta0=0.0, delta1=1e-6))
        assert not budget.preconditions_met
        assert "degenerate fake-switch probability p=1; run is not private" in budget.notes

    def test_analysis_preconditions_flagged(self):
        # T*p/B = 0.5 < 1 and eta*B*log(1/delta1)/p large
        budget = config_budget(L2PConfig(T=10, B=2, eta=0.1, p=0.1, delta0=0.0, delta1=1e-6))
        assert not budget.preconditions_met
        assert any("T*p/B" in w for w in budget.notes)
        assert any("eta*B*log" in w for w in budget.notes)

    def test_clean_config(self):
        config = L2PConfig(T=1000, B=1, eta=0.001, p=0.9, delta0=0.0, delta1=1e-3)
        assert config_budget(config).preconditions_met


class TestMeasureKind:
    """The config names its measure kind; a run given the other kind is refused."""

    def test_kind_of_each_config_builder(self):
        assert ope_config(100, 2, 0.05, 0.5, 1e-6).measure_kind == "mw"
        assert tune_ope(1000, 3, 1.0, 1e-6).measure_kind == "mw"
        assert ball_config(100, 3, 2, 0.05, 0.5, 1e-6, 1.0, 1.0).measure_kind == "rmw"
        assert tune_oco(1000, 3, 1.0, 1e-6, 1.0, 1.0).measure_kind == "rmw"

    def test_prepared_run_refuses_the_other_kind(self):
        experts = ope_config(6, 2, 0.05, 0.5, 1e-6)
        with pytest.raises(ConfigError, match="'rmw' is not the config's 'mw'"):
            PreparedRun(experts, "rmw", np.zeros((6, 2)))
        ball = ball_config(6, 2, 2, 0.05, 0.5, 1e-6, 1.0, 1.0)
        with pytest.raises(ConfigError, match="'mw' is not the config's 'rmw'"):
            PreparedRun(ball, "mw", np.zeros((6, 2)))
        with pytest.raises(ConfigError, match="'ball' is not the config's 'mw'"):
            PreparedRun(experts, "ball", np.zeros((6, 2)))


class TestDomain:
    """The budget holds for losses in [0, 1] (experts) or gradients of norm at most
    the config's lipschitz (the ball): any finite matrix builds its tables, and a run
    on one outside that domain is refused."""

    CONFIGS = {
        "mw": lambda: ope_config(6, 2, 0.05, 0.5, 1e-6),
        "rmw": lambda: ball_config(6, 2, 2, 0.05, 0.5, 1e-6, 1.0, 1.0),
    }
    REFUSALS = {"mw": r"an experts run needs every loss in \[0, 1\]",
                "rmw": r"largest gradient norm \S+ exceeds the config's lipschitz 1\.0"}

    @pytest.mark.parametrize(
        "kind, row, value",
        [("mw", 0, 40.0), ("mw", 3, -0.5), ("mw", 5, math.nan),
         ("rmw", 0, 2.0), ("rmw", 3, -1.0 - 2e-6), ("rmw", 5, math.nan)],
        ids=["experts-above-1", "experts-negative", "experts-nan-last-round",
             "ball-norm-2", "ball-norm-past-the-slack", "ball-nan-last-round"],
    )
    def test_outside_builds_its_tables_but_does_not_run(self, kind, row, value):
        config = self.CONFIGS[kind]()
        values = np.zeros((6, 2))
        values[row, 0] = value
        prepared = PreparedRun(config, kind, values)
        assert prepared.domain_error is not None
        with pytest.raises(ConfigError, match=self.REFUSALS[kind]):
            prepared.run(np.random.default_rng(0))
        # a game on a prepared run reads no stream, and is refused all the same
        with pytest.raises(ConfigError, match=self.REFUSALS[kind]):
            play_game(config, kind, None, 0, prepared=prepared)

    @pytest.mark.parametrize(
        "kind, rows",
        [("mw", [[0.0, 1.0], [1.0, 0.0], [0.25, 0.75], [-0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]),
         ("rmw", [[0.0, 1.0], [-1.0, 0.0], [0.6, -0.8], [1.0 + 1e-7, 0.0], [0.5, 0.5],
                  [0.0, 0.0]])],
        ids=["experts", "ball"],
    )
    def test_inside_runs(self, kind, rows):
        # the edges of each domain: losses of exactly 0 and 1, a norm within the slack
        prepared = PreparedRun(self.CONFIGS[kind](), kind, np.array(rows))
        assert prepared.domain_error is None
        assert prepared.run(np.random.default_rng(0)).n_batches == prepared.config.n_batches

    def test_binary_losses_of_norm_at_most_lipschitz_run_on_the_ball(self):
        # the run checks the losses, not the stream's label: one-hot 0/1 rows
        # are gradients of norm 1, a valid ball game
        values = np.eye(2)[[0, 1, 1, 0, 0, 1]]
        stream = LossStream("bernoulli", 2, 6, 0, values)
        config = self.CONFIGS["rmw"]()
        game = play_game(config, "rmw", stream, 3)
        assert game.transcript.n_batches == config.n_batches
        assert game.comparator_loss == best_in_hindsight_oco_ball(stream, config.radius)[1]


def _run(config, stream, seed, kind="mw"):
    return PreparedRun(config, kind, stream.values).run(np.random.default_rng(seed))


def _uniform_stream(d, T, seed=0):
    rng = np.random.default_rng(seed)
    return LossStream("bernoulli", d, T, seed, rng.random((T, d)) < 0.5)


class TestRunL2p:
    def test_single_batch_no_coins(self):
        stream = _uniform_stream(3, 4)
        config = L2PConfig(T=4, B=4, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        t = _run(config, stream, 0)
        assert t.n_batches == 1
        assert t.coins.tolist() == [[-1, -1, -1]]
        assert t.switched.tolist() == [[0, 0]]
        np.testing.assert_allclose(t.total_loss, stream.values[:, t.models[0]].sum(), rtol=1e-12)

    def test_forced_keep_branch(self):
        # all-zero losses keep the acceptance ratio at e^{-2B eta}; with a
        # seed whose first coins are all "keep", the model never moves
        stream = LossStream("bernoulli", 2, 6, 0, np.zeros((6, 2)))
        config = L2PConfig(T=6, B=2, eta=0.001, p=0.0, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", stream.values)
        for seed in range(20):
            t = prepared.run(np.random.default_rng(seed))
            if t.switch_count_x == 0:
                assert len(set(t.models)) == 1
                break
        else:
            pytest.fail("no keep-only run found in 20 seeds")

    def test_p_one_always_resamples(self):
        stream = _uniform_stream(2, 10, seed=3)
        config = L2PConfig(T=10, B=1, eta=0.1, p=1.0, delta0=0.0, delta1=1e-6)
        t = _run(config, stream, 1)
        assert t.switch_count_x == t.n_batches - 1
        assert t.switch_count_y == t.n_batches - 1
        assert (t.coins[1:, 1:] == 0).all()

    def test_switch_rate_zero_losses(self):
        # with prev == cur each batch: P(switch) = 1 - e^{-2B eta} (1-p), p=0
        T, B, eta = 4, 2, 0.1
        stream = LossStream("bernoulli", 2, T, 0, np.zeros((T, 2)))
        config = L2PConfig(T=T, B=B, eta=eta, p=0.0, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", stream.values)
        n = 40_000
        switches = 0
        for i in range(n):
            switches += prepared.run(np.random.default_rng(i)).switch_count_x
        expect = 1 - math.exp(-2 * B * eta)
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(switches / n - expect) <= 4 * se

    def test_transcript_shape_and_identities(self):
        stream = _uniform_stream(3, 11, seed=5)
        config = L2PConfig(T=11, B=3, eta=0.05, p=0.4, delta0=0.0, delta1=1e-6)
        grads = linear_oco_stream(2, 11, 1.0, 5, "iid-sphere")
        ball = L2PConfig(
            T=11, B=3, eta=0.05, p=0.4, delta0=1e-12, delta1=1e-6,
            beta=0.05, lam=10.0, radius=1.0, lipschitz=1.0,
        )
        for t in (_run(config, stream, 2), _run(ball, grads, 2, "rmw")):
            assert t.n_batches == 4  # ceil(11/3), short last batch
            assert t.round_losses.shape == (11,)
            S, Sp, A = t.coins[1:].T
            assert t.switched[1:, 0].tolist() == ((S == 0) | (Sp == 0)).tolist()
            assert t.switched[1:, 1].tolist() == (A == 0).tolist()
            # the counts read off the event codes agree with the columns
            assert t.codes and t.switch_count_x == t.switched[:, 0].sum()
            assert t.switch_count_y == t.switched[:, 1].sum()
            assert t.fake_switch_count == ((Sp == 0) | (A == 0)).sum()
            # per-batch losses recompute from round losses
            for s in range(1, t.n_batches + 1):
                lo, hi = (s - 1) * 3, min(s * 3, 11)
                np.testing.assert_allclose(
                    t.batch_losses[s - 1], t.round_losses[lo:hi].sum(), rtol=1e-12
                )

    def test_no_switch_means_same_model(self):
        stream = _uniform_stream(3, 20, seed=9)
        config = L2PConfig(T=20, B=2, eta=0.1, p=0.3, delta0=0.0, delta1=1e-6)
        t = _run(config, stream, 4)
        for i in range(1, t.n_batches):
            if not t.switched[i, 0]:
                assert t.models[i] == t.models[i - 1]
            if not t.switched[i, 1]:
                assert t.ys[i] == t.ys[i - 1]

    def test_bit_identical_replay(self):
        stream = _uniform_stream(4, 30, seed=11)
        config = L2PConfig(T=30, B=4, eta=0.08, p=0.25, delta0=0.0, delta1=1e-5)
        prepared = PreparedRun(config, "mw", stream.values)
        t1 = prepared.run(np.random.default_rng(99))
        t2 = prepared.run(np.random.default_rng(99))
        assert t1.models == t2.models
        assert np.array_equal(t1.coins, t2.coins)
        assert np.array_equal(t1.round_losses, t2.round_losses)
        buf1, buf2 = io.StringIO(), io.StringIO()
        t1.write_csv(buf1)
        t2.write_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_csv_format(self):
        stream = _uniform_stream(2, 4, seed=1)
        config = L2PConfig(T=4, B=2, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        t = _run(config, stream, 0)
        buf = io.StringIO()
        t.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + t.n_batches
        first = lines[1].split(",")
        assert first[2] == first[3] == first[4] == ""  # no coins in batch 1

    def test_oco_vector_models_quoted_in_csv(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal((6, 2))
        grads /= np.linalg.norm(grads, axis=1, keepdims=True)
        stream = LossStream("iid-sphere", 2, 6, 0, grads, lipschitz=1.0)
        config = L2PConfig(
            T=6, B=2, eta=0.05, p=0.5, delta0=1e-12, delta1=1e-6,
            beta=0.05, lam=10.0, radius=1.0, lipschitz=1.0,
        )
        t = _run(config, stream, 1, kind="rmw")
        buf = io.StringIO()
        t.write_csv(buf)
        row = buf.getvalue().splitlines()[1]
        assert row.split(",")[0] == "1"
        assert '"' in row  # vector model carries commas, so the field is quoted

    def test_switch_count_bound(self):
        # E[#switches] <= (n_batches - 1) * (2p + 1 - E[acceptance]), since the
        # per-batch switch probability is 1 - acc * (1 - p) <= 2p + (1 - acc)
        stream = _uniform_stream(3, 60, seed=13)
        config = L2PConfig(T=60, B=3, eta=0.1, p=0.2, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", stream.values)
        n = 2000
        cap = 2.0 * config.B * config.eta
        switches = np.empty(n)
        acc_sum = 0.0
        for i in range(n):
            t = prepared.run(np.random.default_rng(i))
            switches[i] = t.switch_count_x
            acc_sum += np.minimum(1.0, np.exp(t.raw_log_ratios - cap)).sum()
        n_coins = prepared.config.n_batches - 1
        mean_acc = acc_sum / (n * n_coins)
        bound = n_coins * (2 * config.p + 1 - mean_acc)
        se = switches.std(ddof=1) / math.sqrt(n)
        assert switches.mean() <= bound + 4 * se

    def test_marginal_matches_forced_resample_oracle(self):
        # p=1 resamples from the current measure every batch, so the model
        # distribution at each batch is exactly the normalized measure
        d, T = 3, 5
        stream = bernoulli_experts(d, T, [0.2, 0.5, 0.8], seed=21)
        config = L2PConfig(T=T, B=1, eta=0.1, p=1.0, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", stream.values)
        n = 60_000
        counts = np.zeros((T, d))
        for i in range(n):
            t = prepared.run(np.random.default_rng(i))
            for s, x in enumerate(t.models):
                counts[s, x] += 1
        from scipy.stats import chisquare

        exact = exact_batch_distributions(stream, config.eta, config.B)
        for s in range(T):
            expected = n * exact[s]
            _, pval = chisquare(counts[s], expected)
            assert pval > 0.001, f"batch {s + 1} mismatch"


@dataclass(frozen=True)
class _Record:
    """The columns of a transcript, built batch by batch; ``Transcript.write_csv``
    serializes it as it does an engine transcript."""

    models: tuple
    coins: np.ndarray
    switched: np.ndarray
    batch_losses: np.ndarray
    round_losses: np.ndarray
    switch_count_x: int
    switch_count_y: int
    fake_switch_count: int
    ys: tuple
    raw_log_ratios: np.ndarray


def _reference_run(prepared: PreparedRun, rng: np.random.Generator) -> _Record:
    """The engine as a plain per-batch loop: three coins per batch, then resamples.

    Kept as the specification the event-driven engine must reproduce
    bit for bit, generator end state included. It builds its columns
    itself, not from switch events.
    """
    config = prepared.config
    T, B, n = config.T, config.B, config.n_batches
    cap = 2.0 * B * config.eta_effective
    keep_y = 1.0 - config.p

    def sample(s):
        if prepared.is_mw:
            idx = int(prepared.cdfs[s - 1].searchsorted(rng.random(), side="right"))
            return min(idx, prepared.cdfs.shape[1] - 1)
        g = prepared.grad_sums[s - 1]
        return RmwMeasure(g, prepared.beta, config.lam, config.radius).sample(rng)

    x, y = sample(1), sample(1)
    models, ys = [x], [y]
    coins = np.full((n, 3), -1, dtype=np.int8)
    switched = np.zeros((n, 2), dtype=np.int8)
    batch_losses = np.empty(n)
    round_losses = np.empty(T)
    raw_log_ratios = np.empty(n - 1)
    for s in range(2, n + 1):
        lr = _log_ratio(prepared, s, x) - _log_ratio(prepared, s, y)
        raw_log_ratios[s - 2] = lr
        acc = 1.0 if lr >= cap else math.exp(lr - cap)
        u = rng.random(3)
        S, Sp, A = u[0] < acc, u[1] < keep_y, u[2] < keep_y
        coins[s - 1] = (S, Sp, A)
        if not (S and Sp):
            x = sample(s)
            switched[s - 1, 0] = 1
        if not A:
            y = sample(s)
            switched[s - 1, 1] = 1
        models.append(x)
        ys.append(y)
    for s in range(1, n + 1):
        x = models[s - 1]
        lo, hi = (s - 1) * B, min(s * B, T)
        if prepared.is_mw:
            round_losses[lo:hi] = prepared.loss_values[lo:hi, x]
            batch_losses[s - 1] = prepared.batch_sums[s - 1, x]
        else:
            round_losses[lo:hi] = prepared.loss_values[lo:hi] @ x
            batch_losses[s - 1] = prepared.batch_sums[s - 1] @ x
    c = coins[1:]
    return _Record(
        tuple(models),
        coins,
        switched,
        batch_losses,
        round_losses,
        int(switched[:, 0].sum()),
        int(switched[:, 1].sum()),
        int(np.count_nonzero((c[:, 1] == 0) | (c[:, 2] == 0))),
        tuple(ys),
        raw_log_ratios,
    )


def _csv(t: Transcript | _Record) -> str:
    buf = io.StringIO()
    Transcript.write_csv(t, buf)
    return buf.getvalue()


def _digest(t: Transcript, rng: np.random.Generator) -> str:
    """SHA-256 of the CSV, the diagnostics and four doubles drawn after the run."""
    h = hashlib.sha256(_csv(t).encode())
    h.update(np.ascontiguousarray(t.raw_log_ratios).tobytes())
    h.update(np.asarray(t.ys, dtype=np.float64).tobytes())
    h.update(t.round_losses.tobytes())
    h.update(rng.random(4).tobytes())
    return h.hexdigest()


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _prepared(config, kind, stream):
    return PreparedRun(config, kind, stream.values)


# (config, measure kind, stream) triples pinned by the golden hashes and
# the reference comparison; the generator seed is set per test. Tuned
# configs are written out, so a tuner change moves no engine pin.
SHAPES = {
    # what tune_ope(20_000, 10, 1.0, 1e-6) returned when pinned
    "ope-b1": lambda: (
        L2PConfig(
            T=20000, B=1, eta=0.0004523728228932503, p=0.0045237282289325035,
            delta0=0.0, delta1=2.4999999999999998e-11,
        ),
        "mw",
        bernoulli_experts(10, 20_000, np.linspace(0.35, 0.65, 10), 1),
    ),
    "marginal": lambda: (
        L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(3, 5, (0.2, 0.5, 0.8), 1),
    ),
    # what tune_ope(10, 2, 0.5, 0.05) returned when pinned
    "epsilon": lambda: (
        L2PConfig(
            T=10, B=2, eta=0.01242266490280792, p=0.2484532980561584,
            delta0=0.0, delta1=0.0025,
        ),
        "mw",
        bernoulli_experts(2, 10, (0.25, 0.75), 1),
    ),
    # what tune_oco(200, 3, 1.0, 1e-6, 1.0, 1.0) returned when pinned
    "ball": lambda: (
        L2PConfig(
            T=200, B=1, eta=0.0005591422978661165, p=0.008946276765857865,
            delta0=3.9180281324905885e-14, delta1=1.25e-09, beta=0.00011146075050396551,
            lam=7130.2911687637525, radius=0.5, lipschitz=1.0,
        ),
        "rmw",
        linear_oco_stream(3, 200, 1.0, 5, "iid-sphere"),
    ),
    # sparse events over long stretches: few candidates per block
    "sparse": lambda: (
        L2PConfig(T=500, B=1, eta=0.002, p=0.005, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(4, 500, (0.1, 0.4, 0.6, 0.9), 2),
    ),
    # events every few batches and a short last batch
    "mixed": lambda: (
        L2PConfig(T=301, B=3, eta=0.1, p=0.08, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(3, 301, (0.0, 0.5, 1.0), 3),
    ),
    # resamples nearly every batch, so the run reads far past the doubles it
    # drew at the start
    "dense": lambda: (
        L2PConfig(T=6200, B=1, eta=0.05, p=0.9, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(3, 6200, (0.2, 0.5, 0.8), 5),
    ),
    # one expert: x = y throughout
    "one-expert": lambda: (
        L2PConfig(T=400, B=2, eta=0.05, p=0.05, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(1, 400, (0.5,), 6),
    ),
    # all losses equal: every row has spread 0, so the floor is exp(-2 B eta)
    "flat": lambda: (
        L2PConfig(T=400, B=1, eta=0.05, p=0.05, delta0=0.0, delta1=1e-6),
        "mw",
        LossStream("bernoulli", 3, 400, 0, np.full((400, 3), 0.5)),
    ),
    "epoch": lambda: (
        L2PConfig(T=2000, B=2, eta=0.02, p=0.02, delta0=0.0, delta1=1e-6),
        "mw",
        epoch_lower_bound_stream(2000, 0.05, 4, 7),
    ),
}


class TestGoldenTranscripts:
    """Transcripts and generator end states recorded from the per-batch loop."""

    GOLDEN = {
        ("ope-b1", 11): "51dc8818308505316e6d4bfac2cb583963cd3593ed9e6bf27dda82b6798d75a2",
        ("marginal", 12): "473a5654a3ad33ea51be076f3c3289773e9b608d118ad21aa3d71442efa1899a",
        ("epsilon", 13): "1c64cb5d720da16e25a936a5a0084f7ea099dd8c0dd62106a0ab755be294fdc2",
        ("ball", 14): "332c89eb70da88790b1f2d9fb7cb88930cd37a9f39435e384c9f75e18116d9ca",
    }

    @pytest.mark.parametrize("shape, seed", sorted(GOLDEN))
    def test_hash(self, shape, seed):
        prepared = _prepared(*SHAPES[shape]())
        rng = np.random.default_rng(seed)
        assert _digest(prepared.run(rng), rng) == self.GOLDEN[shape, seed]


class TestLossLayout:
    """A prepared run keeps its loss matrix in C order, whatever order it was given in."""

    @pytest.mark.parametrize("shape", ["ope-b1", "ball"])
    def test_strided_matrix_runs_as_the_c_one(self, shape):
        config, kind, stream = SHAPES[shape]()
        want = PreparedRun(config, kind, stream.values)
        rng = np.random.default_rng(7)
        digest, total = _digest(want.run(rng), rng), want.run(np.random.default_rng(8)).total_loss
        fortran = np.asfortranarray(stream.values)
        strided = np.repeat(stream.values, 2, axis=1)[:, ::2]
        for values in (fortran, strided):
            assert not values.flags.c_contiguous
            prepared = PreparedRun(config, kind, values)
            assert prepared.loss_values.flags.c_contiguous
            rng = np.random.default_rng(7)
            assert _digest(prepared.run(rng), rng) == digest
            assert prepared.run(np.random.default_rng(8)).total_loss == total

    def test_non_finite_losses_refused(self):
        config = L2PConfig(T=4, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        for bad in (math.inf, math.nan):
            values = np.zeros((4, 2))
            values[2, 1] = bad
            with pytest.raises(ValueError, match="cumulative losses must be finite"):
                PreparedRun(config, "mw", values)

    def test_c_matrix_is_not_copied(self):
        config, kind, stream = SHAPES["ope-b1"]()
        assert PreparedRun(config, kind, stream.values).loss_values is stream.values


class TestGameResults:
    """Every GameResult field but the wall clock, recorded before the comparator
    and the switch counts moved into the prepared run and the switch events."""

    GOLDEN = {
        ("ball", 10): "ddd4ba921aa4193f54593f54ed5895da68e794b8f27ec5b7a82854e988bab1ed",
        ("epsilon", 50): "8083036b4bdbcfa7d1b90123f511b3c3e8cd971692e5be08a34f774bd812d5a8",
        ("marginal", 50): "37c08b4139f09e48b4af71a566bad85325fc3fdedd478e56928663637784f0d3",
        ("mixed", 30): "31578d8671b2d572fc75f86fd37ac221d5113a0fcc8a463ca694c2e41b7d4a43",
        ("ope-b1", 4): "7ed70aa1b20eb3625c80011803efe161f0ae2922f5193f4353d2f435af941bc0",
        ("sparse", 30): "93d1ca4b47cc9349e2dee472692aba005866e1f410d724a5ee0d2a2b71874399",
    }

    @pytest.mark.parametrize("shape, n_seeds", sorted(GOLDEN))
    def test_fields(self, shape, n_seeds):
        config, kind, stream = SHAPES[shape]()
        prepared = _prepared(config, kind, stream)
        digest = hashlib.sha256()
        for seed in range(n_seeds):
            g = play_game(config, kind, stream, seed, prepared=prepared, keep_transcript=False)
            fields = (g.total_loss, g.comparator_loss, g.regret, g.switch_count_x,
                      g.switch_count_y, g.fake_switch_count)
            digest.update(repr(fields).encode())
            if seed == 0:
                alone = play_game(config, kind, stream, seed)
                assert (alone.total_loss, alone.comparator_loss, alone.regret,
                        alone.switch_count_x, alone.switch_count_y,
                        alone.fake_switch_count) == fields
        assert digest.hexdigest() == self.GOLDEN[shape, n_seeds]


# the per-batch columns a transcript derives from its switch events
COLUMNS = ("models", "ys", "coins", "switched", "batch_losses", "round_losses", "raw_log_ratios")


class TestLazyColumns:
    """A transcript is its switch events; each column is built on first read."""

    @pytest.mark.parametrize("shape", ["marginal", "mixed", "sparse", "ball"])
    def test_game_builds_round_losses_only(self, shape, monkeypatch):
        config, kind, stream = SHAPES[shape]()
        prepared = _prepared(config, kind, stream)
        seen = []
        run = prepared.run
        monkeypatch.setattr(prepared, "run", lambda rng: seen.append(run(rng)) or seen[-1])
        g = play_game(config, kind, stream, 3, prepared=prepared, keep_transcript=False)
        assert g.transcript is None and len(seen) == 1
        assert prepared.binary == (kind == "mw") and g.total_loss != 0.0
        # a binary experts total is a sum over the switch events
        want = set() if prepared.binary else {"round_losses"}
        assert set(COLUMNS) & vars(seen[0]).keys() == want

    @pytest.mark.parametrize("shape, seed", sorted(TestGoldenTranscripts.GOLDEN))
    def test_reverse_read_order(self, shape, seed):
        prepared = _prepared(*SHAPES[shape]())
        rng = np.random.default_rng(seed)
        t = prepared.run(rng)
        for name in reversed(COLUMNS):
            assert getattr(t, name) is getattr(t, name)  # built once, then cached
        assert _digest(t, rng) == TestGoldenTranscripts.GOLDEN[shape, seed]

    def test_n_batches_without_models(self):
        config, kind, stream = SHAPES["mixed"]()
        t = _prepared(config, kind, stream).run(np.random.default_rng(0))
        assert t.n_batches == config.n_batches == 101
        assert not set(COLUMNS) & vars(t).keys()
        assert len(t.models) == t.n_batches


# The block size the block-boundary tests were written for: their runs of
# 2100 and 3000 batches draw more doubles than one block of it holds.
SMALL_BLOCK = 6144


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(transform, "_BLOCK", SMALL_BLOCK)
    return SMALL_BLOCK


class TestAgainstReferenceLoop:
    @staticmethod
    def _assert_same(prepared, rng_a, rng_b):
        got, want = prepared.run(rng_a), _reference_run(prepared, rng_b)
        assert _csv(got) == _csv(want)
        assert len(got.ys) == len(want.ys)
        for a, b in zip(got.ys, want.ys):
            assert np.array_equal(a, b)
        assert type(got.models[0]) is type(want.models[0])
        for name in ("coins", "switched", "batch_losses", "round_losses", "raw_log_ratios"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        for name in ("switch_count_x", "switch_count_y", "fake_switch_count"):
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b) and a == b, name
        assert _same_state(rng_a.bit_generator.state, rng_b.bit_generator.state)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize(
        "shape, n_seeds",
        [("marginal", 600), ("epsilon", 600), ("sparse", 200), ("mixed", 200), ("ope-b1", 3),
         ("ball", 10), ("dense", 3), ("one-expert", 50), ("flat", 50), ("epoch", 30)],
    )
    def test_seeds(self, shape, n_seeds):
        prepared = _prepared(*SHAPES[shape]())
        for seed in range(n_seeds):
            self._assert_same(prepared, np.random.default_rng(seed), np.random.default_rng(seed))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_p(self, p):
        config = L2PConfig(T=200, B=2, eta=0.05, p=p, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", bernoulli_experts(3, 200, (0.2, 0.5, 0.8), 4))
        for seed in range(20):
            self._assert_same(prepared, np.random.default_rng(seed), np.random.default_rng(seed))

    def test_single_batch(self):
        config = L2PConfig(T=4, B=4, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", bernoulli_experts(3, 4, (0.2, 0.5, 0.8), 4))
        self._assert_same(prepared, np.random.default_rng(1), np.random.default_rng(1))

    def test_other_generator_states(self):
        # a bit generator without an exact advance, and a PCG64 holding a
        # cached 32-bit half: both must end where the loop leaves them
        prepared = _prepared(*SHAPES["sparse"]())
        for seed in range(5):
            self._assert_same(
                prepared,
                np.random.Generator(np.random.MT19937(seed)),
                np.random.Generator(np.random.MT19937(seed)),
            )
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            rng_a.integers(10, dtype=np.uint32)
            rng_b.integers(10, dtype=np.uint32)
            assert rng_a.bit_generator.state["has_uint32"] == 1
            self._assert_same(prepared, rng_a, rng_b)
            assert rng_a.integers(2**32, dtype=np.uint32) == rng_b.integers(2**32, dtype=np.uint32)


    def test_block_boundary(self, small_block):
        # a candidate triple at the end of the first block of uniforms, which
        # only the next block completes, on each phase of the cursor: an
        # early event with one or two resamples shifts the phase
        config = L2PConfig(T=3000, B=1, eta=0.01, p=0.01, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", bernoulli_experts(3, 3000, (0.2, 0.5, 0.8), 8))
        assert 3 * config.n_batches > small_block
        for early in ((), (5,), (5, 7)):  # fail S of batch 3, and also its A
            for at in range(small_block - 4, small_block + 4):
                values = np.zeros(small_block + 8)
                values[list(early)] = 0.999
                values[at] = 0.999
                t = _same_scripted(prepared, values)
                assert t.switch_count_x + t.switch_count_y >= 1 + len(early)


class _Scripted:
    """A stand-in generator that hands out preset doubles in order, then zeros."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, size=None):
        k = 1 if size is None else size
        out = np.zeros(k)
        got = self.values[self.used : self.used + k]
        out[: got.size] = got
        self.used += k
        return float(out[0]) if size is None else out


def _same_scripted(prepared: PreparedRun, values) -> Transcript:
    """The engine's transcript on preset doubles, checked against the per-batch loop."""
    a, b = _Scripted(values), _Scripted(values)
    got, want = prepared.run(a), _reference_run(prepared, b)
    assert _csv(got) == _csv(want)
    assert got.ys == want.ys
    assert got.raw_log_ratios.tobytes() == want.raw_log_ratios.tobytes()
    assert a.used == b.used
    return got


class TestKeepBoundary:
    """The keep test is exact where np.exp and math.exp round differently, and
    the screen passes over no batch whose keep test can fail."""

    CAP = 0.2
    # each rounds differently under np.exp and math.exp on x86-64 with numpy 2.4
    PINNED = (0.18951213247291926, -0.1138548746646266, 0.12230387077774979, -0.03327569936511432)

    def _boundary_ratios(self):
        lr = np.random.default_rng(0).uniform(-0.3, self.CAP, 20_000)
        exact = np.array([math.exp(v - self.CAP) for v in lr])
        differ = lr[np.exp(lr - self.CAP) != exact]
        return np.concatenate([self.PINNED, differ[:200]])

    @staticmethod
    def _two_experts(values, eta=0.1, p=0.5):
        """A screened run on two experts; batch 1 draws x = 0 and y = 1 from
        doubles 0.0 and 0.999, and batch k reads its S uniform at 3k - 4 while
        nothing has resampled."""
        values = np.asarray(values, dtype=float)
        config = L2PConfig(T=len(values), B=1, eta=eta, p=p, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", LossStream("bernoulli", 2, len(values), 0, values))
        assert config.n_batches > _WALK
        doubles = np.zeros(3 * config.n_batches + 8)
        doubles[1] = 0.999
        lw = prepared.loss_sums * -eta
        lr = (lw[1:, 0] - lw[:-1, 0]) - (lw[1:, 1] - lw[:-1, 1])  # batch s at s - 2
        return prepared, doubles, lr

    def test_s_coin_at_exact_acceptance(self):
        keep_y = 0.5
        for lr in self._boundary_ratios().tolist():
            acc = math.exp(lr - self.CAP)
            below = float(np.nextafter(acc, 0.0))
            assert _keep_test(lr, acc, 0.0, 0.0, self.CAP, keep_y) == (False, True, True)
            assert _keep_test(lr, below, 0.0, 0.0, self.CAP, keep_y) == (True, True, True)
        # through the screen: batches whose np.exp and math.exp acceptances
        # differ, or the first batches where the two never differ (as on
        # numpy's AVX2 path), so the boundary is checked on either target
        prepared, doubles, lr = self._two_experts(np.random.default_rng(1).random((120, 2)))
        cap = prepared.cap
        exact = np.array([math.exp(v - cap) for v in lr.tolist()])
        differ = np.flatnonzero(np.exp(lr - cap) != exact)
        batches = (differ if differ.size else np.arange(lr.size))[:12] + 2
        assert batches.size > 0
        for k in batches.tolist():
            acc = math.exp(float(lr[k - 2]) - cap)
            doubles[3 * k - 4] = acc
            t = _same_scripted(prepared, doubles)
            assert t.coins[k - 1].tolist() == [0, 1, 1] and t.switch_count_x == 1
            doubles[3 * k - 4] = np.nextafter(acc, 0.0)
            t = _same_scripted(prepared, doubles)
            assert t.switch_count_x == t.switch_count_y == 0
            doubles[3 * k - 4] = 0.0

    def test_first_boundary_failure_in_a_window(self, small_block):
        # S uniforms one double below the acceptance of every batch keep the
        # whole run, over more than one block; the first batch at its
        # acceptance is the first event
        prepared, doubles, lr = self._two_experts(np.random.default_rng(2).random((2500, 2)))
        acc = np.array([math.exp(v - prepared.cap) for v in lr.tolist()])
        at = 3 * np.arange(2, prepared.config.n_batches + 1) - 4
        doubles[at] = np.nextafter(acc, 0.0)
        t = _same_scripted(prepared, doubles)
        assert t.switch_count_x == t.switch_count_y == 0
        for k in (2, 40, small_block // 3 + 1, prepared.config.n_batches):
            doubles[3 * k - 4] = acc[k - 2]
            t = _same_scripted(prepared, doubles)
            assert t.switched[:, 0].argmax() == k - 1
            doubles[3 * k - 4] = np.nextafter(acc[k - 2], 0.0)

    def test_reference_coins(self):
        # an S' or A uniform at or above 1 - p fails the batch too; one below keeps
        prepared, doubles, _ = self._two_experts(np.full((60, 2), 0.5), p=0.25)
        for k, coin in ((30, 1), (31, 2), (60, 1)):
            doubles[3 * k - 4 + coin] = 0.75
            t = _same_scripted(prepared, doubles)
            assert t.coins[k - 1, coin] == 0 and t.coins[k - 1].sum() == 2
            doubles[3 * k - 4 + coin] = np.nextafter(0.75, 0.0)
            t = _same_scripted(prepared, doubles)
            assert t.switch_count_x == t.switch_count_y == 0
            doubles[3 * k - 4 + coin] = 0.0

    def test_uniform_at_the_floor(self):
        # the screen passes over an S uniform one double below sure and tests
        # one at or above it; every one of them keeps
        prepared, doubles, _ = self._two_experts(np.random.default_rng(3).random((60, 2)))
        sure = prepared.sure
        k = 30
        for u, candidate in ((np.nextafter(sure, 0.0), False), (sure, True),
                             (np.nextafter(sure, 1.0), True)):
            doubles[3 * k - 4] = u
            assert (3 * k - 4 in _visited(doubles, 0, 2, sure, 0.5)) == candidate
            t = _same_scripted(prepared, doubles)
            assert t.switch_count_x == t.switch_count_y == 0

    def test_widest_row_meets_the_floor(self):
        # batch k's log ratio reads the losses of batch k - 1; these differ by
        # 1 and every other batch's are equal, so with x on the lossy expert
        # it is minus the widest spread
        k = 40
        values = np.full((80, 2), 0.5)
        values[k - 2] = (1.0, 0.0)
        prepared, doubles, lr = self._two_experts(values)
        lw = prepared.loss_sums * -prepared.config.eta
        spread = np.ptp(np.diff(lw, axis=0), axis=1).max()
        assert lr[k - 2] == -spread
        acc = math.exp(-spread - prepared.cap)
        assert prepared.sure < acc < prepared.sure * (1 + 1e-11)
        for u, switched in ((acc, 1), (np.nextafter(acc, 0.0), 0), (prepared.sure, 0)):
            doubles[3 * k - 4] = u
            t = _same_scripted(prepared, doubles)
            assert t.switch_count_x == switched
            assert t.coins[k - 1, 0] == 1 - switched


class TestFloorScreen:
    """A pick bisects a row of uint16 CDF floors on the 2**-16 grid with the
    key ``floor(v * 2**16)``. A uniform whose key equals the last floor it
    counted is re-decided on the exact row, so every pick is the exact
    table's."""

    K = 30  # the batch whose coins resample in the resample cases

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The (row, uniform) of every exact pick the engine makes."""
        calls = []
        exact_pick = PreparedRun._exact_pick

        def counted(prepared, row, v):
            calls.append((row, v))
            return exact_pick(prepared, row, v)

        monkeypatch.setattr(PreparedRun, "_exact_pick", counted)
        return calls

    @staticmethod
    def _prepared(T, binary):
        values = np.random.default_rng(T + binary).random((T, 3))
        if binary:
            values = values < 0.5
        config = L2PConfig(T=T, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", LossStream("bernoulli", 3, T, 0, values))
        assert prepared.binary == binary and prepared.walks == (T <= _WALK)
        return prepared

    @staticmethod
    def _spaced_floor(floors, exact):
        """A column j whose floor Q lies below its entry, with the floors either
        side at least three grid steps away, as an int."""
        k = floors.size
        for j in range(k):
            q = floors[j]
            below = j == 0 or floors[j - 1] <= q - 3
            above = (floors[j + 1] if j + 1 < k else 2**16) > q + 2
            if q / 2**16 < exact[j] and below and above:
                return j
        raise AssertionError("no spaced floor in the row")

    @pytest.mark.parametrize("binary", [False, True], ids=["fractional", "binary"])
    @pytest.mark.parametrize("T", [40, 60], ids=["walked", "visited"])
    @pytest.mark.parametrize("at", ["x1", "y1", "x-resample", "y-resample"])
    def test_uniforms_at_a_floor(self, fallbacks, T, binary, at):
        prepared = self._prepared(T, binary)
        k = self.K
        # batch 1 picks from row 0 with uniforms 0 and 1; batch k reads its
        # S, S', A uniforms at 3k - 4, 3k - 3, 3k - 2, and a failed S' (or
        # A) resamples x (or y) from row k - 1 with uniform 3k - 1
        row, pos = {"x1": (0, 0), "y1": (0, 1)}.get(at, (k - 1, 3 * k - 1))
        exact, floors = prepared.cdfs[row], prepared.cdf_floors[row].astype(np.int64)
        j = self._spaced_floor(floors, exact)
        on_grid = floors[j] / 2**16
        cases = (
            (on_grid, j, True),  # counted by the floor, not by the exact entry
            (np.nextafter(on_grid, 0.0), j, False),  # below the floor: the screen passes it
            (np.nextafter(exact[j], 0.0), j, True),
            (exact[j], j + 1, True),
            ((floors[j] + 1) / 2**16, j + 1, False),  # one step above: the screen passes it
            ((floors[j] + 2) / 2**16, j + 1, False),
        )
        for v, pick, screened in cases:
            doubles = np.zeros(3 * T + 8)
            if at == "x-resample":
                doubles[3 * k - 3] = 0.999
            elif at == "y-resample":
                doubles[3 * k - 2] = 0.999
            doubles[pos] = v
            del fallbacks[:]
            t = _same_scripted(prepared, doubles)
            assert fallbacks == ([(row, v)] if screened else [])
            models = t.ys if at[0] == "y" else t.models
            assert models[0 if row == 0 else k - 1] == pick

    @pytest.mark.parametrize("shape", ["binary", "fractional", "ope-b1"])
    def test_table_invariants(self, shape):
        if shape == "ope-b1":
            prepared = _prepared(*SHAPES["ope-b1"]())
        else:
            prepared = self._prepared(300, shape == "binary")
        n, d = prepared.loss_sums.shape
        floors, exact = prepared.cdf_floors, prepared.cdfs
        assert floors.dtype == np.uint16 and floors.shape == (n, d - 1)
        assert floors.nbytes == 2 * n * (d - 1)
        grid = floors / 2**16
        assert (grid <= exact[:, :-1]).all()
        assert (exact[:, :-1] - grid < FLOOR_GAP).all()
        assert (exact[:, -1] == 1.0).all()

    @pytest.mark.parametrize("v", [65535 / 65536, np.nextafter(1.0, 0.0)])
    def test_dominant_expert_row(self, fallbacks, v):
        # expert 0 never loses and the others lose every round, so from about
        # batch 380 on every entry before the last rounds to 1.0 and every
        # floor is capped at 2**16 - 1: a uniform at or above the cap counts
        # every floor, and only the exact row sends it back to expert 0
        T, k = 500, 450
        values = np.ones((T, 3))
        values[:, 0] = 0.0
        config = L2PConfig(T=T, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", LossStream("bernoulli", 3, T, 0, values))
        assert (prepared.cdfs[k - 1] == 1.0).all()
        assert (prepared.cdf_floors[k - 1] == 2**16 - 1).all()
        doubles = np.zeros(3 * T + 8)
        doubles[3 * k - 3] = 0.999  # S' fails, so x resamples from row k - 1
        doubles[3 * k - 1] = v
        t = _same_scripted(prepared, doubles)
        assert fallbacks == [(k - 1, v)]
        assert t.models[k - 1] == 0

    @pytest.mark.parametrize("binary", [False, True], ids=["fractional", "binary"])
    @pytest.mark.parametrize("T", [40, 300], ids=["walked", "visited"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_narrow_rows_match_the_reference_loop(self, d, T, binary):
        # d = 1 keeps no floor column, d = 2 one
        values = np.random.default_rng(d * T + binary).random((T, d))
        if binary:
            values = values < 0.5
        config = L2PConfig(T=T, B=1, eta=0.1, p=0.3, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", LossStream("bernoulli", d, T, 0, values))
        assert prepared.cdf_floors.shape == (T, d - 1) and prepared.binary == binary
        for seed in range(30):
            TestAgainstReferenceLoop._assert_same(
                prepared, np.random.default_rng(seed), np.random.default_rng(seed)
            )

    def test_screen_runs_few_fallbacks_on_a_seeded_run(self, fallbacks):
        # a uniform lands less than FLOOR_GAP above one of a row's d - 1 floors
        # with probability under (d - 1) 2**-15 per pick, and each fallback is
        # such a close call
        prepared = _prepared(*SHAPES["dense"]())
        d, picks = prepared.loss_sums.shape[1], 0
        for seed in range(3):
            t = prepared.run(np.random.default_rng(seed))
            assert len(t.rows) > 1000
            picks += 2 + t.switch_count_x + t.switch_count_y
        assert len(fallbacks) <= 4 * (d - 1) * FLOOR_GAP * picks
        for row, v in fallbacks:
            floors = prepared.cdf_floors[row] / 2**16
            assert ((0 <= v - floors) & (v - floors < FLOOR_GAP)).any()


def _three_views(block, start, sure, keep_y):
    """The screen as three passes over strided views of the flag, one per phase."""
    flag = block[:-2] >= sure
    flag |= block[1:-1] >= keep_y
    flag |= block[2:] >= keep_y
    found = []
    for r in range(3):
        off = (r - start) % 3
        found.append((np.flatnonzero(flag[off::3]) * 3 + (start + off)).tolist())
    return found, start + flag.size


def _visited(block, start, c, sure, keep_y) -> list[int]:
    """The S positions the screen visits in a block from cursor c, if every visited batch keeps."""
    visits = _visits(block, start, sure, keep_y)
    next(visits)
    found = []
    try:
        while True:
            found.append(visits.send(c))
            c = found[-1] + 3
    except StopIteration:
        return found


class TestCandidates:
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 6143, 6145, 20_000])
    def test_matches_strided_views(self, start):
        rng = np.random.default_rng(start)
        for size, sure, keep_y in ((_BLOCK, 0.99, 0.995), (_BLOCK, 0.5, 0.4), (40, 0.9, 0.9)):
            block = rng.random(size)
            block[-3] = 0.9999  # the last screened position is a candidate
            found, end = _three_views(block, start, sure, keep_y)
            assert end - 1 in found[(end - 1) % 3]
            for c in (start, start + 1, start + 2, start + size // 2):
                assert _visited(block, start, c, sure, keep_y) == [i for i in found[c % 3] if i >= c]


class _Noted:
    """A generator wrapper that notes the S uniform of every batch s >= 2 a per-batch loop draws."""

    def __init__(self, rng):
        self.rng, self.s_uniforms = rng, []

    def random(self, size=None):
        out = self.rng.random(size)
        if size == 3:
            self.s_uniforms.append(float(out[0]))
        return out


def _exact_tests(prepared: PreparedRun, rng, monkeypatch) -> tuple[Transcript, int]:
    """A run of the engine and the number of exact keep probabilities it computed."""
    calls = []
    exp = math.exp
    with monkeypatch.context() as m:
        m.setattr(math, "exp", lambda v: calls.append(v) or exp(v))
        t = prepared.run(rng)
    return t, len(calls)


# screened experts runs of 2100 batches, so 6300 uniforms or more: the
# first block is full and a second one follows
BOUNDARY_SHAPES = {
    # as on ope-b1, the floor lies above 1 - p; what tune_ope(2100, 10, 1.0, 1e-6)
    # returned when pinned
    "sure-above": lambda: (
        L2PConfig(
            T=2100, B=1, eta=0.0015426350450013938, p=0.015426350450013938,
            delta0=0.0, delta1=2.380952380952381e-10,
        ),
        "mw",
        bernoulli_experts(10, 2100, np.linspace(0.35, 0.65, 10), 1),
    ),
    # as on the sparse shape, the floor lies below 1 - p
    "sure-below": lambda: (
        L2PConfig(T=2100, B=1, eta=0.002, p=0.005, delta0=0.0, delta1=1e-6),
        "mw",
        bernoulli_experts(4, 2100, (0.1, 0.4, 0.6, 0.9), 2),
    ),
}


class TestRareWalk:
    """The screen visits a batch only through a rare uniform, and computes
    the exact keep probability only where the S uniform is at or above the floor."""

    @staticmethod
    def _prepared(shape, block):
        prepared = _prepared(*BOUNDARY_SHAPES[shape]())
        assert 3 * prepared.config.n_batches > block
        return prepared

    @staticmethod
    def _edges(prepared):
        """``sure`` and ``1 - p`` and one double either side of each."""
        keep_y = 1.0 - prepared.config.p
        return [v for t in (prepared.sure, keep_y) for v in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))]

    @staticmethod
    def _check(prepared, values, monkeypatch) -> Transcript:
        """The per-batch loop's transcript, with one exact test per S uniform at or above sure."""
        t = _same_scripted(prepared, values)
        got, n_exact = _exact_tests(prepared, _Scripted(values), monkeypatch)
        assert _csv(got) == _csv(t)
        noted = _Noted(_Scripted(values))
        _reference_run(prepared, noted)
        assert n_exact == sum(u >= prepared.sure for u in noted.s_uniforms)
        return t

    @pytest.mark.parametrize("shape", sorted(BOUNDARY_SHAPES))
    def test_thresholds_in_each_role(self, shape, monkeypatch, small_block):
        # batch 1 plays x = 0 and y = the last expert; batch k reads S, S', A at
        # 3k - 4, 3k - 3, 3k - 2. An S' or A uniform fails its coin from 1 - p
        # on; an S uniform at the floor keeps, as the floor is below every
        # keep probability, but is tested exactly
        prepared = self._prepared(shape, small_block)
        keep_y = 1.0 - prepared.config.p
        k = 700
        for role in range(3):
            for u in self._edges(prepared):
                values = np.zeros(3 * prepared.config.n_batches + 8)
                values[1] = 0.999
                values[3 * k - 4 + role] = u
                t = self._check(prepared, values, monkeypatch)
                fails = role > 0 and bool(u >= keep_y)
                assert t.rows == ([k - 1] if fails else [])

    @pytest.mark.parametrize("shape", sorted(BOUNDARY_SHAPES))
    def test_rare_uniform_at_the_block_end(self, shape, monkeypatch, small_block):
        # a uniform at a threshold in the last two doubles of the first block:
        # an early event with one or two resamples shifts the cursor's phase,
        # so it is an S, S' or A uniform of a batch the next block completes
        prepared = self._prepared(shape, small_block)
        keep_y = 1.0 - prepared.config.p
        roles = set()
        for early in ((), (5,), (5, 7)):  # fail S of batch 3, and also its A
            for at in (small_block - 2, small_block - 1):
                role = (at - 2 - len(early)) % 3
                roles.add(role)
                for u in self._edges(prepared):
                    values = np.zeros(3 * prepared.config.n_batches + 8)
                    values[list(early)] = 0.999
                    values[at] = u
                    t = self._check(prepared, values, monkeypatch)
                    fails = role > 0 and bool(u >= keep_y)
                    assert len(t.rows) == (len(early) > 0) + fails
        assert roles == {0, 1, 2}

    def test_rare_uniforms_at_the_end_of_a_full_block(self, monkeypatch):
        # a run whose doubles fill the default block: both of its last two
        # doubles at 1 - p, in each phase of the cursor, so a coin of the
        # batch the next block completes fails
        T = _BLOCK // 3 + 50
        config = L2PConfig(T=T, B=1, eta=0.002, p=0.005, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", bernoulli_experts(4, T, (0.1, 0.4, 0.6, 0.9), 2))
        assert 3 * config.n_batches > _BLOCK
        for early in ((), (5,), (5, 7)):  # fail S of batch 3, and also its A
            values = np.zeros(3 * config.n_batches + 8)
            values[list(early)] = 0.999
            values[[_BLOCK - 2, _BLOCK - 1]] = 1.0 - config.p
            t = self._check(prepared, values, monkeypatch)
            for at in (_BLOCK - 2, _BLOCK - 1):
                if (at - 2 - len(early)) % 3:  # an S' or A uniform: its batch switches
                    assert (at + 1 - len(early)) // 3 in t.rows

    @pytest.mark.parametrize("shape", ["ope-b1", "marginal", "epsilon"])
    def test_exact_ratio_only_above_the_floor(self, shape, monkeypatch):
        # work, not time: the exact ratio is computed once per S uniform at
        # or above sure, on walked and screened runs alike; on ope-b1 that
        # is about one batch in 200
        prepared = _prepared(*SHAPES[shape]())
        n = prepared.config.n_batches
        assert prepared.walks == (shape != "ope-b1")
        exact = shortcut = 0
        for seed in range(3 if shape == "ope-b1" else 20):
            t, n_exact = _exact_tests(prepared, np.random.default_rng(seed), monkeypatch)
            noted = _Noted(np.random.default_rng(seed))
            assert _csv(_reference_run(prepared, noted)) == _csv(t)
            above = sum(u >= prepared.sure for u in noted.s_uniforms)
            assert n_exact == above
            if shape == "ope-b1":
                assert 0 < above < n // 100
            exact += above
            shortcut += len(noted.s_uniforms) - above
        assert exact > 0 and shortcut > 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_visits_match_the_oracle(self, data):
        sure = data.draw(st.floats(-0.01, 1.0), label="sure")
        keep_y = data.draw(st.floats(0.0, 1.0), label="keep_y")
        edges = [v for t in (sure, keep_y) for v in (np.nextafter(t, -1.0), t, np.nextafter(t, 2.0))]
        uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(edges))
        values = data.draw(st.lists(uniform, min_size=1, max_size=60), label="block")
        block = np.array([v for v in values if 0.0 <= v < 1.0] or [0.5])
        start = data.draw(st.integers(0, 10**6), label="start")
        c = start + data.draw(st.integers(0, block.size), label="cursor")
        found, _ = _three_views(block, start, sure, keep_y)
        assert _visited(block, start, c, sure, keep_y) == [i for i in found[c % 3] if i >= c]


def _gathered(t: Transcript) -> np.ndarray:
    """The round losses of an experts transcript by one numpy gather over its models."""
    config = t.prepared.config
    xs = np.repeat(np.asarray(t.models), config.B)[: config.T]
    return _picks(t.prepared.loss_values, xs)


class TestShortRuns:
    """Walked runs gather their round losses as longer runs do; the comparator
    is stored at set-up."""

    def test_walked_round_losses_match_the_gather(self):
        rng = np.random.default_rng(20)
        shapes = [(5, 1, 3), (10, 2, 2), (7, 3, 4), (11, 4, 1), (1, 1, 3), (48, 1, 5), (95, 2, 2)]
        shapes += [(64, 2, 3), (65, 2, 3)]
        shapes += [(int(T), int(B), int(d)) for T, B, d in zip(
            rng.integers(1, 200, 30), rng.integers(1, 6, 30), rng.integers(1, 9, 30))]
        walked = 0
        for T, B, d in shapes:
            config = L2PConfig(T=T, B=B, eta=0.1, p=0.4, delta0=0.0, delta1=1e-6)
            prepared = PreparedRun(config, "mw", rng.random((T, d)))
            assert prepared.walks == (config.n_batches <= _WALK)
            if not prepared.walks:
                continue
            walked += 1
            for seed in range(15):
                t = prepared.run(np.random.default_rng(seed))
                want = _gathered(t)
                assert t.round_losses.dtype == want.dtype
                assert t.round_losses.tobytes() == want.tobytes(), (T, B, d, seed)
                assert t.total_loss == float(want.sum())
        assert walked >= 25

    def test_long_batches_keep_the_numpy_gather(self, monkeypatch):
        # 20 batches of 5000 rounds of fractional losses: the run walks, and
        # its total loss is summed from a numpy gather
        config = L2PConfig(T=100_000, B=5000, eta=1e-4, p=0.5, delta0=0.0, delta1=1e-6)
        values = np.random.default_rng(9).random((100_000, 10))
        stream = LossStream("bernoulli", 10, 100_000, 9, values)
        prepared = PreparedRun(config, "mw", stream.values)
        assert prepared.walks and not prepared.binary
        gathers = []
        monkeypatch.setattr("l2p.transform._picks", lambda *a: gathers.append(a) or _picks(*a))
        for seed in range(3):
            g = play_game(config, "mw", stream, seed, prepared=prepared)
            assert g.total_loss == float(_gathered(g.transcript).sum())
            TestAgainstReferenceLoop._assert_same(
                prepared, np.random.default_rng(seed), np.random.default_rng(seed)
            )
        assert len(gathers) >= 3

    def test_short_wide_runs_walk_numpy_views(self):
        # a short run over 513 experts walks, and is the per-batch loop's run
        d = 513
        config = L2PConfig(T=8, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6)
        values = np.random.default_rng(21).random((8, d))
        prepared = PreparedRun(config, "mw", values)
        assert prepared.walks
        for seed in range(40):
            TestAgainstReferenceLoop._assert_same(
                prepared, np.random.default_rng(seed), np.random.default_rng(seed)
            )

    @pytest.mark.parametrize("shape", ["marginal", "epsilon", "mixed", "one-expert", "epoch"])
    def test_stored_comparator_ope(self, shape):
        config, kind, stream = SHAPES[shape]()
        prepared = _prepared(config, kind, stream)
        assert prepared.comparator_loss == best_in_hindsight_ope(stream)[1]
        g = play_game(config, kind, stream, 0, prepared=prepared)
        assert g.comparator_loss == prepared.comparator_loss

    def test_stored_comparator_ball(self):
        config, kind, stream = SHAPES["ball"]()
        prepared = _prepared(config, kind, stream)
        want = best_in_hindsight_oco_ball(stream, config.radius)[1]
        assert prepared.comparator_loss == want
        assert prepared.cap == config.cap == 2.0 * config.B * config.eta_accounted


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


class TestSpanSums:
    """A binary experts run sums its total loss over spans of the cumulative
    table, and reads it bit for bit as the gather of its played losses sums it."""

    @staticmethod
    def _assert_spans(prepared, rngs) -> list[Transcript]:
        assert prepared.binary
        runs = []
        for rng in rngs:
            t = prepared.run(rng)
            got = t.total_loss
            # a bool matrix cannot sum to -0.0, so even a zero total is not gathered
            assert "round_losses" not in vars(t)
            assert type(got) is float
            assert _bits(got) == _bits(float(_gathered(t).sum()))
            assert _bits(got) == _bits(float(t.round_losses.sum()))
            runs.append(t)
        return runs

    @classmethod
    def _assert_seeds(cls, prepared, n_seeds) -> list[Transcript]:
        return cls._assert_spans(prepared, (np.random.default_rng(s) for s in range(n_seeds)))

    @pytest.mark.parametrize(
        "shape, n_seeds",
        [("marginal", 200), ("epsilon", 200), ("sparse", 50), ("mixed", 50), ("dense", 3),
         ("one-expert", 30), ("epoch", 30)],
    )
    def test_shapes(self, shape, n_seeds):
        config, kind, stream = SHAPES[shape]()
        runs = self._assert_seeds(_prepared(config, kind, stream), n_seeds)
        if shape in ("mixed", "dense", "epoch"):
            assert all(t.rows for t in runs) and any(t.total_loss for t in runs)

    @pytest.mark.parametrize("B, T", [(1, 40), (1, 700), (3, 301), (4, 11), (7, 200), (8, 8)])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_batch_sizes_and_degenerate_p(self, B, T, p):
        # B = 1, and B > 1 with a short last batch where T is not a multiple of B
        config = L2PConfig(T=T, B=B, eta=0.05, p=p, delta0=0.0, delta1=1e-6)
        for d in (1, 2, 5):
            stream = _uniform_stream(d, T, seed=T + d)
            self._assert_seeds(_prepared(config, "mw", stream), 20)

    @pytest.mark.parametrize("T", [30, 200])
    def test_no_event_and_an_event_at_the_last_batch(self, T):
        config = L2PConfig(T=T, B=1, eta=0.05, p=0.3, delta0=0.0, delta1=1e-6)
        prepared = _prepared(config, "mw", _uniform_stream(3, T, seed=4))
        n = config.n_batches
        values = np.zeros(3 * n + 8)
        values[1] = 0.999  # y on the last expert, x on the first
        (t,) = self._assert_spans(prepared, [_Scripted(values)])
        assert t.rows == [] and t.total_loss == prepared.column_totals[0] > 0
        values[3 * n - 3] = 0.999  # the S' uniform of batch n
        (t,) = self._assert_spans(prepared, [_Scripted(values)])
        assert t.rows == [n - 1] and t.total_loss > 0

    @staticmethod
    def _assert_gathers(prepared, n_seeds) -> list[Transcript]:
        """A run that is not binary: its total is the gather's sum, sign included."""
        assert not prepared.binary and prepared.loss_sums.dtype == np.float64
        runs = []
        for seed in range(n_seeds):
            t = prepared.run(np.random.default_rng(seed))
            assert _bits(t.total_loss) == _bits(float(_gathered(t).sum()))
            assert "round_losses" in vars(t)
            runs.append(t)
        return runs

    @pytest.mark.parametrize("fill", [0.0, 1.0, -0.0], ids=["zeros", "ones", "negative-zeros"])
    def test_constant_matrices(self, fill):
        for T, B, d in ((1, 1, 3), (50, 1, 2), (301, 3, 4)):
            config = L2PConfig(T=T, B=B, eta=0.05, p=0.3, delta0=0.0, delta1=1e-6)
            if _bits(fill) == _bits(-0.0):  # -0.0 has no bool twin
                runs = self._assert_gathers(PreparedRun(config, "mw", np.full((T, d), fill)), 10)
            else:
                prepared = PreparedRun(config, "mw", np.full((T, d), bool(fill)))
                runs = self._assert_seeds(prepared, 10)
            for t in runs:
                assert t.total_loss == T * fill

    def test_zeros_of_both_signs(self):
        # a float64 run is fractional, -0.0 losses included: it keeps a
        # float table and gathers its total, whose sign only the gather knows
        values = np.full((60, 2), -0.0)
        values[::7, 1] = 0.0
        values[5, 1] = 1.0
        config = L2PConfig(T=60, B=2, eta=0.05, p=0.5, delta0=0.0, delta1=1e-6)
        runs = self._assert_gathers(PreparedRun(config, "mw", values), 40)
        assert {t.total_loss for t in runs} == {0.0, 1.0}

    def test_ope_b1_over_seeds(self):
        config, kind, stream = SHAPES["ope-b1"]()
        prepared = _prepared(config, kind, stream)
        runs = self._assert_seeds(prepared, 20)
        assert min(len(t.rows) for t in runs) > 50

    @pytest.mark.parametrize("kind", ["fractional", "one-half"])
    def test_other_losses_take_the_gather(self, kind):
        rng = np.random.default_rng(17)
        if kind == "fractional":
            values = rng.random((300, 4))
        else:
            # a float64 matrix is fractional whatever its values: this 0/1
            # matrix with one 0.5 gathers its totals as the fractional one does
            values = (rng.random((300, 4)) < 0.5).astype(float)
            values[150, 2] = 0.5
        config = L2PConfig(T=300, B=2, eta=0.05, p=0.2, delta0=0.0, delta1=1e-6)
        prepared = PreparedRun(config, "mw", values)
        assert not prepared.binary
        for seed in range(10):
            t = prepared.run(np.random.default_rng(seed))
            assert t.total_loss == float(_gathered(t).sum())
            assert "round_losses" in vars(t)

    def test_ball_takes_the_gather(self):
        prepared = _prepared(*SHAPES["ball"]())
        assert not prepared.binary
        t = prepared.run(np.random.default_rng(3))
        assert t.total_loss == float(t.round_losses.sum())


class TestBoolMatrix:
    """A bool loss matrix, as the generators make, is binary and keeps counts;
    its float64 copy is not binary and keeps float64 cumulative losses of the
    same values. Every other table, comparator and transcript byte is the same."""

    @staticmethod
    def _assert_same_run(config, values, n_seeds):
        assert values.dtype == np.bool_
        kept = PreparedRun(config, "mw", values)
        floats = PreparedRun(config, "mw", values.astype(np.float64))
        assert kept.loss_values is values and floats.loss_values.dtype == np.float64
        assert kept.binary and floats.binary is False
        counts, sums = kept.loss_sums, floats.loss_sums
        assert counts.dtype == np.min_scalar_type(config.T) and sums.dtype == np.float64
        assert counts.astype(np.float64).tobytes() == sums.tobytes()
        for name in ("cdf_floors", "column_totals", "batch_sums", "cdfs"):
            a, b = getattr(kept, name), getattr(floats, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert _bits(kept.sure) == _bits(floats.sure)
        assert _bits(kept.comparator_loss) == _bits(floats.comparator_loss)
        for seed in range(n_seeds):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            a, b = kept.run(rng_a), floats.run(rng_b)
            assert _bits(a.total_loss) == _bits(b.total_loss)
            assert "round_losses" not in vars(a) and "round_losses" in vars(b)  # b gathered
            for name in ("batch_losses", "round_losses"):
                got, want = getattr(a, name), getattr(b, name)
                assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert _digest(a, rng_a) == _digest(b, rng_b)

    @pytest.mark.parametrize(
        "shape, n_seeds",
        [("marginal", 200), ("epsilon", 200), ("sparse", 50), ("mixed", 50), ("ope-b1", 3),
         ("dense", 3), ("one-expert", 30), ("epoch", 30)],
    )
    def test_reference_shapes(self, shape, n_seeds):
        config, _, stream = SHAPES[shape]()
        self._assert_same_run(config, stream.values, n_seeds)

    def test_short_last_batch(self):
        # B > 1 with T not a multiple of B: the float64 batch sums and round
        # losses of a bool matrix cover the short last batch
        config = L2PConfig(T=103, B=5, eta=0.05, p=0.3, delta0=0.0, delta1=1e-6)
        stream = bernoulli_experts(4, 103, (0.1, 0.4, 0.6, 0.9), 9)
        self._assert_same_run(config, stream.values, 30)

    def test_a_bool_ball_matrix_is_float64(self):
        config, kind, stream = SHAPES["ball"]()
        values = stream.values > 0
        assert PreparedRun(config, kind, values).loss_values.dtype == np.float64
