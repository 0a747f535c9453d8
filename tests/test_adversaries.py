import numpy as np
import pytest

from l2p.adversaries import (
    LossStream,
    bernoulli_experts,
    epoch_lower_bound_stream,
    linear_oco_stream,
    neighbor_of,
)


class TestBernoulliExperts:
    def test_all_zero_means(self):
        s = bernoulli_experts(3, 50, [0.0, 0.0, 0.0], seed=0)
        assert not s.values.any()

    def test_all_one_means(self):
        s = bernoulli_experts(2, 50, [1.0, 1.0], seed=0)
        assert (s.values == 1.0).all()

    def test_best_expert_separation(self):
        # with means (0.4, 0.6) over 1e4 rounds the gap is ~20 sigma
        s = bernoulli_experts(2, 10_000, [0.4, 0.6], seed=3)
        totals = s.values.sum(axis=0)
        assert totals[0] < totals[1]

    def test_reproducible(self):
        a = bernoulli_experts(4, 100, [0.2, 0.4, 0.6, 0.8], seed=9)
        b = bernoulli_experts(4, 100, [0.2, 0.4, 0.6, 0.8], seed=9)
        assert np.array_equal(a.values, b.values)

    def test_bad_means(self):
        with pytest.raises(ValueError):
            bernoulli_experts(2, 10, [0.5, 1.5], seed=0)
        # a JSON null reads as NaN, which made an expert that never loses
        with pytest.raises(ValueError, match=r"means must lie in \[0, 1\]"):
            bernoulli_experts(3, 10, [None, 0.5, 0.7], seed=0)
        with pytest.raises(ValueError, match="means must have length d"):
            bernoulli_experts(3, 10, [0.5, 0.5], seed=0)


class TestEpochStream:
    def test_arithmetic_small(self):
        # (16*1)^{4/3} = 40.3 -> 40, clamped to T=16, epoch length 1
        with pytest.warns(UserWarning, match="clamped"):
            s = epoch_lower_bound_stream(16, 1.0, 2, seed=0)
        assert s.n_epochs == 16 and s.epoch_len == 1 and s.clamped

    def test_arithmetic_canonical(self):
        # (1e4 * 0.01)^{4/3} = 100^{4/3} ~ 464.16 -> 464 epochs of 22 rounds
        s = epoch_lower_bound_stream(10_000, 0.01, 4, seed=0)
        assert s.n_epochs == 464 and s.epoch_len == 22 and not s.clamped

    def test_constant_within_epochs(self):
        s = epoch_lower_bound_stream(10_000, 0.01, 4, seed=5)
        for e in range(0, s.n_epochs, 37):
            lo = e * s.epoch_len
            hi = min(lo + s.epoch_len, s.T)
            block = s.values[lo:hi]
            assert (block == block[0]).all()

    def test_binary_fair_values(self):
        s = epoch_lower_bound_stream(10_000, 0.01, 4, seed=1)
        assert set(np.unique(s.values)) <= {0.0, 1.0}
        # epoch draws are fair coins per coordinate
        draws = s.values[:: s.epoch_len]
        assert abs(draws.mean() - 0.5) < 0.05

    def test_epoch_independence(self):
        # adjacent epochs agree on a coordinate about half the time
        s = epoch_lower_bound_stream(50_000, 0.01, 2, seed=2)
        draws = s.values[:: s.epoch_len]
        agree = (draws[1:] == draws[:-1]).mean()
        n = (draws.shape[0] - 1) * draws.shape[1]
        assert abs(agree - 0.5) < 4 / np.sqrt(n)

    def test_single_expert(self):
        with pytest.warns(UserWarning, match="clamped"):
            s = epoch_lower_bound_stream(100, 0.5, 1, seed=0)
        assert s.d == 1 and s.values.shape == (100, 1)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            epoch_lower_bound_stream(10, 0.001, 2, seed=0)


class TestLinearStream:
    def test_sphere_norms(self):
        s = linear_oco_stream(3, 1000, 2.0, seed=0, kind="iid-sphere")
        np.testing.assert_allclose(np.linalg.norm(s.values, axis=1), 2.0, rtol=1e-9)

    def test_one_dimensional_sphere(self):
        s = linear_oco_stream(1, 500, 1.0, seed=1, kind="iid-sphere")
        assert set(np.unique(s.values)) <= {-1.0, 1.0}
        assert abs(s.values.mean()) < 4 / np.sqrt(500)

    def test_sphere_mean_near_zero(self):
        s = linear_oco_stream(4, 10_000, 1.0, seed=2, kind="iid-sphere")
        se = 1.0 / np.sqrt(4 * 10_000)
        assert np.abs(s.values.mean(axis=0)).max() < 4 * se

    def test_drift_deterministic(self):
        a = linear_oco_stream(2, 100, 1.0, seed=0, kind="drift")
        b = linear_oco_stream(2, 100, 1.0, seed=123, kind="drift")
        assert np.array_equal(a.values, b.values)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            linear_oco_stream(2, 10, 1.0, seed=0, kind="mystery")

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0])
    def test_nonpositive_lipschitz(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz must be positive"):
            linear_oco_stream(2, 10, lipschitz, seed=0, kind="iid-sphere")


def test_unknown_stream_kind_refused():
    # a misspelt gradient kind whose rows lie in [0, 1] would pass as expert losses
    with pytest.raises(ValueError, match="unknown stream kind 'sphere'"):
        LossStream("sphere", 2, 1, 0, [[0.5, 0.5]])


def test_matrix_stream_is_linear_exactly_with_a_lipschitz():
    # the same rows are expert losses without a bound and gradients with one
    rows = [[0.6, 0.8], [1.0, 0.0]]
    assert not LossStream("matrix", 2, 2, 0, rows).is_oco
    assert LossStream("matrix", 2, 2, 0, rows, lipschitz=1.0).is_oco
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        LossStream("matrix", 2, 1, 0, [[-0.6, 0.8]])
    with pytest.raises(ValueError, match="exceeds the lipschitz bound"):
        LossStream("matrix", 2, 1, 0, [[0.6, 0.8]], lipschitz=0.5)


@pytest.mark.parametrize(
    "kind, values, lipschitz, match",
    [("bernoulli", [[0.5, 0.5, 0.5]], None, r"shape \(T, d\)"),
     ("bernoulli", [0.5, 0.5], None, r"shape \(T, d\)"),
     ("iid-sphere", [[0.3, 0.4]], None, "positive lipschitz"),
     ("iid-sphere", [[0.0, 0.0]], 0.0, "positive lipschitz")],
    ids=["experts-wrong-width", "experts-flat", "gradients-no-lipschitz",
         "gradients-zero-lipschitz"],
)
def test_malformed_stream_refused(kind, values, lipschitz, match):
    with pytest.raises(ValueError, match=match):
        LossStream(kind, 2, 1, 0, values, lipschitz=lipschitz)


class TestNeighborOf:
    def test_identical_replacement(self):
        s = bernoulli_experts(3, 20, [0.5] * 3, seed=4)
        n = neighbor_of(s, 7, s.values[7])
        assert np.array_equal(n.values, s.values)

    def test_single_round_differs(self):
        s = LossStream("bernoulli", 2, 5, 0, np.zeros((5, 2)))
        n = neighbor_of(s, 0, [1.0, 1.0])
        diff = (n.values != s.values).any(axis=1)
        assert diff.tolist() == [True, False, False, False, False]

    def test_involution(self):
        s = bernoulli_experts(2, 10, [0.3, 0.7], seed=8)
        original = s.values[4].copy()
        back = neighbor_of(neighbor_of(s, 4, [1.0, 0.0]), 4, original)
        assert np.array_equal(back.values, s.values)

    def test_bad_index(self):
        s = bernoulli_experts(2, 10, [0.5, 0.5], seed=0)
        with pytest.raises(ValueError):
            neighbor_of(s, 10, [0.0, 0.0])

    def test_bad_dimension(self):
        s = bernoulli_experts(2, 10, [0.5, 0.5], seed=0)
        with pytest.raises(ValueError, match="wrong dimension"):
            neighbor_of(s, 3, [0.0, 0.0, 0.0])

    def test_validates_loss_type(self):
        s = bernoulli_experts(2, 10, [0.5, 0.5], seed=0)
        with pytest.raises(ValueError):
            neighbor_of(s, 3, [2.0, 0.0])  # outside [0,1] for expert losses
