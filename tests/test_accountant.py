import dataclasses
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import l2p
from l2p.accountant import (
    PrivacyBudget,
    TunerError,
    ball_config,
    cdp_to_approx,
    config_budget,
    group_privacy,
    ope_config,
    tune_oco,
    tune_ope,
)
from l2p.measures import ETA_MAX, effective_eta_rmw
from l2p.transform import L2PConfig


def _budget(eta, p, T, B, delta0, delta1):
    """The budget of the experts run with these parameters."""
    return config_budget(L2PConfig(T=T, B=B, eta=eta, p=p, delta0=delta0, delta1=delta1))


class TestL2pPrivacy:
    def test_golden_value(self):
        # 0.2 + 0.01 + 3*1000*1e-4*0.1*log(1e6)/20 + sqrt(6*1000*1e-4*0.1*log^2(1e6)/10)
        b = _budget(0.01, 0.1, 1000, 10, 0.0, 1e-6)
        assert b.epsilon == pytest.approx(1.3009, abs=1e-3)
        assert b.delta == 2 * 1000 * 1e-6

    def test_delta0_term(self):
        log1 = math.log(1e6)
        expected = 0.002 + 2 * 1000 * (200 + log1 / 0.1) * math.e * 10 * 1e-12
        b = _budget(0.01, 0.1, 1000, 10, 1e-12, 1e-6)
        assert b.delta == pytest.approx(expected, rel=1e-12)

    def test_p_zero_notes_not_raises(self):
        b = _budget(0.01, 0.0, 1000, 10, 0.0, 1e-6)
        assert math.isinf(b.epsilon)
        assert not b.preconditions_met

    def test_preconditions(self):
        good = _budget(0.001, 0.9, 10_000, 1, 0.0, 1e-3)
        assert good.preconditions_met
        bad = _budget(0.01, 0.1, 1000, 10, 0.0, 1e-6)
        assert not bad.preconditions_met

    @given(
        st.floats(1e-5, 0.1),
        st.floats(1e-5, 0.1),
        st.floats(0.05, 0.99),
        st.integers(10, 10_000),
        st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_eta(self, eta_lo, gap, p, T, B):
        d1 = 1e-6
        lo = _budget(eta_lo, p, T, B, 0.0, d1).epsilon
        hi = _budget(min(eta_lo + gap, ETA_MAX), p, T, B, 0.0, d1).epsilon
        assert hi >= lo - 1e-12

    @given(st.integers(10, 5000), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_T_and_B(self, T, B):
        base = _budget(0.01, 0.3, T, B, 0.0, 1e-6)
        more_T = _budget(0.01, 0.3, 2 * T, B, 0.0, 1e-6)
        assert more_T.epsilon >= base.epsilon
        assert more_T.delta >= base.delta
        bigger_B = _budget(0.01, 0.3, T, 2 * B, 0.0, 1e-6)
        assert bigger_B.epsilon <= base.epsilon + 1e-12

    def test_pure_function(self):
        a = _budget(0.013, 0.21, 777, 3, 1e-13, 1e-7)
        b = _budget(0.013, 0.21, 777, 3, 1e-13, 1e-7)
        assert a == b


class TestGroupPrivacy:
    def test_identity(self):
        b = group_privacy(0.37, 1e-5, 1)
        assert b.epsilon == 0.37 and b.delta == 1e-5

    def test_triple(self):
        b = group_privacy(0.1, 1e-6, 3)
        assert b.epsilon == pytest.approx(0.3)
        assert b.delta == pytest.approx(3 * math.exp(0.2) * 1e-6, rel=1e-12)

    def test_zeros(self):
        b = group_privacy(0.0, 0.0, 5)
        assert b.epsilon == 0.0 and b.delta == 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            group_privacy(0.1, 1e-6, 0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="need eps >= 0"):
            group_privacy(-0.1, 1e-6, 2)

    def test_overflow_is_a_vacuous_delta(self):
        # e^{999} overflows a double; the grown delta is reported as 1
        b = group_privacy(1.0, 1e-6, 1000)
        assert b.epsilon == 1000.0 and b.delta == 1.0
        assert b.notes == ("delta exceeded 1; reported as 1 (vacuous)",)


class TestCdpConversion:
    def test_golden(self):
        b = cdp_to_approx(0.01, 1e-6)
        assert b.epsilon == pytest.approx(1.1151, abs=1e-3)

    def test_vanishes(self):
        assert cdp_to_approx(1e-12, 1e-6).epsilon < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            cdp_to_approx(1.5, 0.1)
        with pytest.raises(ValueError):
            cdp_to_approx(0.5, 0.3)


class TestTuneOpe:
    def test_canonical(self):
        cfg = tune_ope(10**6, 10, 1.0, 1e-6)
        assert cfg.B == 1
        eps0 = (10**6) ** -0.25 * math.log(10) ** 0.75
        eta = min(eps0, 1.0) ** (2 / 3) / ((10**6) ** (1 / 3) * math.log(10**6 / 1e-6))
        assert cfg.eta == pytest.approx(eta, rel=1e-12)
        assert cfg.p == pytest.approx(10 * eta, rel=1e-12)
        budget = config_budget(cfg)
        assert budget.epsilon <= 1.0 and budget.delta <= 1e-6

    def test_large_epsilon_clamps_B(self):
        assert tune_ope(10**4, 5, 100.0, 1e-6).B == 1

    @pytest.mark.parametrize(
        "T, eps, match",
        [(0, 1.0, "T must be at least 1"), (100, 0.0, "epsilon must be positive"),
         (100, -1.0, "epsilon must be positive")],
        ids=["T-0", "eps-0", "eps-negative"],
    )
    @pytest.mark.parametrize("tune", ["ope", "oco"])
    def test_inputs_refused(self, tune, T, eps, match):
        with pytest.raises(ValueError, match=match):
            if tune == "ope":
                tune_ope(T, 3, eps, 1e-6)
            else:
                tune_oco(T, 3, eps, 1e-6, 1.0, 1.0)

    def test_infeasible(self):
        with pytest.raises(TunerError):
            tune_ope(10, 2, 1e-6, 1e-6)

    @pytest.mark.parametrize("T, d, eps, delta", [(20, 2, 0.1, 0.05), (50, 2, 0.05, 0.05)])
    def test_floor_binds(self, T, d, eps, delta):
        # 10 eta / eps falls below B/T here, so p sits on the floor, and the
        # config is still accepted only on its recomputed budget
        cfg = tune_ope(T, d, eps, delta)
        assert 10.0 * cfg.eta / eps < cfg.B / T == cfg.p
        budget = config_budget(cfg)
        assert budget.epsilon <= eps and budget.delta <= delta
        assert T * cfg.p / cfg.B >= 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tune_ope(100, 1, 1.0, 1e-6)
        with pytest.raises(ValueError):
            tune_ope(100, 5, 1.0, 1.5)

    @given(
        st.integers(2, 6).map(lambda k: 10**k),
        st.integers(2, 200),
        st.floats(0.05, 4.0),
        st.floats(1e-8, 1e-2),
    )
    @settings(max_examples=30, deadline=None)
    def test_self_consistency(self, T, d, eps, delta):
        try:
            cfg = tune_ope(T, d, eps, delta)
        except TunerError:
            assume(False)
        budget = config_budget(cfg)
        assert budget.epsilon <= eps
        assert budget.delta <= delta
        assert 0 < cfg.eta <= ETA_MAX
        assert 0 < cfg.p < 1
        assert T * cfg.p / cfg.B >= 1


class TestTuneOco:
    def test_smoke_and_recheck(self):
        cfg = tune_oco(10**4, 3, 1.0, 1e-6, 1.0, 1.0)
        assert cfg.radius == 0.5
        assert cfg.eta_accounted == pytest.approx(
            effective_eta_rmw(cfg.beta, cfg.lam, 1.0, cfg.delta0), rel=1e-12
        )
        assert cfg.eta_accounted > cfg.eta  # sqrt-log term dominates
        budget = config_budget(cfg)
        assert budget.epsilon <= 1.0 and budget.delta <= 1e-6

    def test_scale_invariance(self):
        a = tune_oco(10**4, 4, 0.5, 1e-6, 1.0, 1.0)
        b = tune_oco(10**4, 4, 0.5, 1e-6, 2.0, 2.0)
        assert a.eta == b.eta and a.B == b.B and a.p == b.p
        assert a.lam == pytest.approx(b.lam)
        assert b.radius == 2 * a.radius

    def test_delta_invalid(self):
        with pytest.raises(ValueError):
            tune_oco(1000, 3, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("L, D", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_lipschitz_and_diameter_positive(self, L, D):
        with pytest.raises(ValueError, match="lipschitz and diameter must be positive"):
            tune_oco(1000, 3, 1.0, 1e-6, L, D)

    def test_lambda_formula(self):
        T, d = 10**4, 3
        cfg = tune_oco(T, d, 1.0, 1e-6, 1.0, 1.0)
        expected_lam = max(math.sqrt(T), math.sqrt(d * math.log(T)) / cfg.eta)
        assert cfg.lam == pytest.approx(expected_lam, rel=1e-12)
        assert cfg.beta == pytest.approx(cfg.eta**2 * cfg.lam / 20.0, rel=1e-12)

    def test_tuner_returns_the_ball_config_of_its_step(self):
        # one home for lam, beta, delta0 and the accounted eta, shared with the CLI
        cfg = tune_oco(10**4, 3, 0.5, 1e-6, 1.0, 2.0)
        assert cfg == ball_config(10**4, 3, cfg.B, cfg.eta, cfg.p, 1e-6, 1.0, 2.0)
        with pytest.raises(ValueError):
            ball_config(100, 3, 1, 0.01, 0.0, 1e-6, 1.0, 1.0)

    @pytest.mark.parametrize(
        "delta, L, D", [(0.0, 1.0, 1.0), (1e-6, 0.0, 1.0), (1e-6, 1.0, 0.0)],
        ids=["delta-0", "lipschitz-0", "diameter-0"],
    )
    def test_ball_config_refuses_what_it_cannot_price(self, delta, L, D):
        # each of these divided by zero before it was refused
        with pytest.raises(ValueError):
            ball_config(100, 3, 1, 0.01, 0.5, delta, L, D)


def _report_preconditions_met(c: L2PConfig) -> bool:
    """The rule configs marked themselves with before the accountant took it over."""
    log_term = math.log(1.0 / c.delta1)
    eta_eff = c.eta_effective
    return not (
        c.T * c.p / c.B < 1.0
        or c.p == 0.0
        or eta_eff * c.B * log_term / max(c.p, 1e-300) > 1.0
        or eta_eff > ETA_MAX
        or c.p in (0.0, 1.0)
    )


_PS = (0.0, 1e-3, 0.5, 1.0 - 1e-9, 1.0)


@dataclasses.dataclass(frozen=True)
class _Accounted(L2PConfig):
    """A ball config whose accounted eta is fixed, so it can sit exactly at ETA_MAX."""

    accounted: float = 0.0

    @property
    def eta_accounted(self) -> float:
        return self.accounted


def _grid():
    # T p / B runs from 0 through exactly 1 (T=1000, B=1, p=1e-3) to 1000
    for T, B, eta, p, delta in itertools.product(
        (10, 1000), (1, 4), (1e-4, 0.01, 0.1), _PS, (1e-6, 0.1)
    ):
        yield ope_config(T, B, eta, p, delta)
    # ball runs, with the accounted eta on either side of ETA_MAX
    for T, B, p, eta_accounted in itertools.product(
        (10, 1000), (1, 4), _PS, (1e-4, 0.05, ETA_MAX, 0.1000001, 0.5)
    ):
        yield _Accounted(
            T=T, B=B, eta=min(eta_accounted, 0.01), p=p, delta0=1e-12, delta1=1e-6,
            beta=0.01, lam=10.0, radius=0.5, lipschitz=1.0, accounted=eta_accounted,
        )
    for T, B, eta, p in itertools.product((200, 10**4), (1, 4), (1e-3, 0.05), _PS[1:]):
        yield ball_config(T, 3, B, eta, p, 1e-6, 1.0, 1.0)


class TestConfigBudgetPreconditions:
    def test_matches_the_config_report_rule(self):
        configs = list(_grid())
        outcomes = [config_budget(c).preconditions_met for c in configs]
        assert outcomes == [_report_preconditions_met(c) for c in configs]
        assert any(outcomes) and not all(outcomes)
        # the grid crosses every boundary the rule draws
        assert {c.T * c.p / c.B >= 1.0 for c in configs} == {True, False}
        assert {c.eta_effective > ETA_MAX for c in configs} == {True, False}
        assert any(c.T * c.p / c.B == 1.0 for c in configs)

    def test_notes_name_each_extra_precondition(self):
        above = ball_config(200, 3, 1, 0.05, 0.5, 1e-6, 1.0, 1.0)
        assert above.eta_accounted > ETA_MAX
        assert config_budget(above).notes[-1] == (
            "accounted eta exceeds the divergence cap; budget is nominal only"
        )
        for p in (0.0, 1.0):
            notes = config_budget(ope_config(1000, 1, 0.001, p, 1e-6)).notes
            assert notes[-1] == f"degenerate fake-switch probability p={p:g}; run is not private"


class TestOpeConfig:
    def test_slacks(self):
        config = ope_config(400, 2, 0.01, 0.3, 1e-6)
        assert config == L2PConfig(T=400, B=2, eta=0.01, p=0.3, delta0=0.0, delta1=1e-6 / 800)
        assert config_budget(config).delta == pytest.approx(1e-6, rel=1e-12)


class TestPrivacyBudget:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PrivacyBudget(-1.0, 0.5)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.5)

    def test_to_dict(self):
        d = PrivacyBudget(1.0, 0.1, False, ("x",)).to_dict()
        assert d["epsilon"] == 1.0 and d["notes"] == ["x"]


def test_package_exports():
    # every exported name resolves, and the removed composition routines, the
    # budget function that config_budget replaced and the stream-file
    # functions that .npy matrices replaced stay gone
    assert all(hasattr(l2p, name) for name in l2p.__all__)
    for name in ("advanced_composition", "modified_advanced_composition", "l2p_privacy",
                 "save_stream", "load_stream"):
        assert name not in l2p.__all__
        assert not hasattr(l2p, name)
    assert "floor" not in {f.name for f in dataclasses.fields(PrivacyBudget)}
