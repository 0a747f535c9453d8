import math

import numpy as np
import pytest

from l2p import adversaries
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

    @pytest.mark.parametrize(
        "T, d",
        [(1, 3), (adversaries._CHUNK - 1, 3), (adversaries._CHUNK, 3), (adversaries._CHUNK + 1, 3),
         (20_000, 10)],
        ids=["one-row", "chunk-less-one", "chunk", "chunk-plus-one", "ope-b1"],
    )
    def test_chunked_draw_is_one_draw(self, monkeypatch, T, d):
        # the bool losses are those of one rng.random((T, d)) compare, and the
        # generator ends where that draw leaves it
        made, default_rng = [], np.random.default_rng

        def recorded(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        means = np.linspace(0.35, 0.65, d)
        s = bernoulli_experts(d, T, means, seed=11)
        rng = default_rng(11)
        want = rng.random((T, d)) < means
        assert s.values.dtype == np.bool_ and s.values.tobytes() == want.tobytes()
        assert made[0].bit_generator.state == rng.bit_generator.state
        assert made[0].random() == rng.random()

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

    def test_one_epoch_at_t_eps_one(self):
        # (4 * 0.25)^{4/3} = 1: the smallest count the construction takes, one
        # epoch that spans the horizon
        s = epoch_lower_bound_stream(4, 0.25, 3, seed=0)
        assert s.n_epochs == 1 and s.epoch_len == 4 and not s.clamped
        assert (s.values == s.values[0]).all()

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

    @pytest.mark.parametrize(
        "T, eps, count",
        [(16, 1.0, "40"), (16, 1e250, "inf"), (1000, 1e250, "inf"), (16, 1e308, "inf")],
        ids=["count-40", "count-past-a-double", "count-past-a-double-T-1000",
             "T-eps-past-a-double"],
    )
    def test_clamped_count(self, T, eps, count):
        # a count past a double's range, or a T eps past it, is clamped as any
        # count above T is: T epochs of one round, one Ber(1/2)^d draw each
        with pytest.warns(UserWarning) as record:
            s = epoch_lower_bound_stream(T, eps, 2, seed=0)
        assert [str(w.message) for w in record] == [
            f"epoch count {count} exceeds T={T}; clamped to T"
        ]
        assert s.n_epochs == T and s.epoch_len == 1 and s.clamped
        assert np.array_equal(s.values, np.random.default_rng(0).random((T, 2)) < 0.5)


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

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_lipschitz(self, lipschitz):
        # a NaN or infinite bound is refused as a bound, not as the values it would make
        for kind in ("iid-sphere", "drift"):
            with pytest.raises(ValueError, match="lipschitz must be positive"):
                linear_oco_stream(2, 10, lipschitz, seed=0, kind=kind)


def test_matrix_stream_is_linear_exactly_with_a_lipschitz():
    # every stream is its matrix: generated or not, it holds gradients
    # exactly when it carries a bound, and T and d are its shape
    losses = [bernoulli_experts(3, 7, [0.5] * 3, seed=0),
              epoch_lower_bound_stream(100, 0.1, 3, seed=0)]
    gradients = [linear_oco_stream(3, 7, 1.0, seed=0, kind=kind)
                 for kind in ("iid-sphere", "drift")]
    assert [s.is_oco for s in losses + gradients] == [False, False, True, True]
    assert [(s.T, s.d) for s in losses + gradients] == [(7, 3), (100, 3), (7, 3), (7, 3)]
    # the same rows are expert losses without a bound and gradients with one
    rows = [[0.6, 0.8], [1.0, 0.0]]
    assert not LossStream(rows).is_oco
    assert LossStream(rows, lipschitz=1.0).is_oco
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        LossStream([[-0.6, 0.8]])
    with pytest.raises(ValueError, match="exceeds the lipschitz bound"):
        LossStream([[0.6, 0.8]], lipschitz=0.5)


@pytest.mark.parametrize("on_disk", [False, True], ids=["array", "memmap"])
@pytest.mark.parametrize("dtype", [np.bool_, np.float64], ids=["bool", "float64"])
def test_shape_is_read_off_the_matrix(tmp_path, dtype, on_disk):
    # a bool or float64 matrix, in memory or memory-mapped from a .npy
    # file, is kept as it comes: a bool memory map stays one
    values = (np.arange(15).reshape(5, 3) % 2).astype(dtype)
    if on_disk:
        np.save(tmp_path / "losses.npy", values)
        values = np.load(tmp_path / "losses.npy", mmap_mode="r")
    s = LossStream(values)
    assert (s.T, s.d) == (5, 3) and type(s.T) is int and type(s.d) is int
    assert s.values.dtype == dtype and np.shares_memory(s.values, values)
    assert isinstance(s.values.base, np.memmap) == on_disk


@pytest.mark.parametrize("lipschitz, dtype", [(None, np.bool_), (2.0, np.float64)])
def test_a_bool_matrix_stays_bool_only_as_losses(lipschitz, dtype):
    values = np.eye(3, dtype=np.bool_)
    s = LossStream(values, lipschitz=lipschitz)
    assert s.values.dtype == dtype and np.array_equal(s.values, values)
    assert (s.values is values) == (dtype is np.bool_)


@pytest.mark.parametrize(
    "values, lipschitz, match",
    [([0.5, 0.5], None, r"shape \(T, d\)"),
     ([[[0.5, 0.5]]], None, r"shape \(T, d\)"),
     ([[0.0, 0.0]], 0.0, "positive lipschitz"),
     ([[3.0, 4.0]], math.nan, "positive lipschitz"),
     ([[3.0, 4.0]], math.inf, "positive lipschitz")],
    ids=["experts-flat", "experts-cube", "gradients-zero-lipschitz",
         "gradients-nan-lipschitz", "gradients-infinite-lipschitz"],
)
def test_malformed_stream_refused(values, lipschitz, match):
    with pytest.raises(ValueError, match=match):
        LossStream(values, lipschitz=lipschitz)


class TestNeighborOf:
    def test_identical_replacement(self):
        s = bernoulli_experts(3, 20, [0.5] * 3, seed=4)
        n = neighbor_of(s, 7, s.values[7])
        assert np.array_equal(n.values, s.values)

    def test_single_round_differs(self):
        s = LossStream(np.zeros((5, 2)))
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

    def test_bool_stream_stays_bool_for_a_binary_row(self):
        s = bernoulli_experts(3, 20, [0.5] * 3, seed=4)
        n = neighbor_of(s, 7, 1.0 - s.values[7])
        assert n.values.dtype == np.bool_ and s.values.dtype == np.bool_
        assert (n.values[7] != s.values[7]).all()
        assert np.array_equal(np.delete(n.values, 7, 0), np.delete(s.values, 7, 0))

    @pytest.mark.parametrize(
        "row", [[0.3, 1.0, 0.0], [-0.0, 1.0, 0.0]], ids=["fraction", "negative-zero"]
    )
    def test_bool_stream_promotes_for_another_row(self, row):
        s = bernoulli_experts(3, 20, [0.5] * 3, seed=4)
        n = neighbor_of(s, 7, row)
        assert n.values.dtype == np.float64 and s.values.dtype == np.bool_
        assert n.values[7].tobytes() == np.array(row).tobytes()  # 0.3 stays 0.3, -0.0 stays -0.0
        assert np.array_equal(np.delete(n.values, 7, 0), np.delete(s.values, 7, 0))

    def test_validates_loss_type(self):
        s = bernoulli_experts(2, 10, [0.5, 0.5], seed=0)
        with pytest.raises(ValueError):
            neighbor_of(s, 3, [2.0, 0.0])  # outside [0,1] for expert losses

    @pytest.mark.parametrize(
        "make",
        [lambda: epoch_lower_bound_stream(100, 0.1, 2, seed=3),
         lambda: epoch_lower_bound_stream(16, 1.0, 2, seed=3),
         lambda: linear_oco_stream(2, 10, 2.0, seed=3, kind="iid-sphere")],
        ids=["epochs", "clamped-epochs", "gradients"],
    )
    @pytest.mark.filterwarnings("ignore:epoch count")
    def test_keeps_what_the_matrix_cannot_say(self, make):
        s = make()
        n = neighbor_of(s, 5, [0.0, 1.0])
        kept = ("lipschitz", "n_epochs", "epoch_len", "clamped")
        assert [getattr(n, f) for f in kept] == [getattr(s, f) for f in kept]
        assert (n.T, n.d, n.is_oco) == (s.T, s.d, s.is_oco)
