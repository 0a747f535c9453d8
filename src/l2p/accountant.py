"""Privacy arithmetic: run budgets, group privacy, tuners, and the
theoretical regret rates of both problems.

Every function here is pure and uses natural logarithms. One function,
``config_budget``, prices every run: ``l2p plan`` and ``run``, the
audits and the tuners' own checks all read it. For a
config with accounted step size ``eta``, fake-switch rate ``p``,
horizon ``T``, batch ``B`` and slacks ``delta0``, ``delta1`` it reports

    eps   = 2 eta / p + eta + 3 T eta^2 p log(1/delta1) / (2 B)
            + sqrt(6 T eta^2 p log^2(1/delta1) / B)
    delta = 2 T (2/eta + log(1/delta1)/p) e B delta0 + 2 T delta1

valid when T p / B >= 1, eta B log(1/delta1) / p <= 1, eta <= ETA_MAX
and 0 < p < 1. The budget is always computed; each unmet precondition
adds a note and clears ``preconditions_met``. The config's own checks
keep eta in (0, ETA_MAX] for the nominal step, so the formula never
meets eta = 0.

This module is also the one home of the config formulas (``ope_config``,
``ball_config`` and the tuners built on them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .transform import L2PConfig
from .measures import ETA_MAX

_E = math.e
_P_CAP = 1.0 - 1e-9
_MAX_SHRINKS = 10


class TunerError(RuntimeError):
    """No parameter setting met the target budget within the shrink allowance."""


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) pair with provenance notes."""

    epsilon: float
    delta: float
    preconditions_met: bool = True
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.epsilon < 0.0 or math.isnan(self.epsilon):
            raise ValueError("epsilon must be nonnegative")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")

    def to_dict(self) -> dict:
        """The budget as strict-JSON values: an infinite epsilon is None (JSON null)."""
        return {
            "epsilon": None if math.isinf(self.epsilon) else self.epsilon,
            "delta": self.delta,
            "preconditions_met": self.preconditions_met,
            "notes": list(self.notes),
        }


def _capped_delta(value: float, notes: list[str]) -> float:
    if value > 1.0 or math.isnan(value):
        notes.append("delta exceeded 1; reported as 1 (vacuous)")
        return 1.0
    return value


def group_privacy(eps: float, delta: float, k: int) -> PrivacyBudget:
    """Budget against inputs differing in ``k`` elements: (k eps, k e^{(k-1) eps} delta)."""
    if k < 1 or int(k) != k:
        raise ValueError("group size must be a positive integer")
    if eps < 0.0 or not 0.0 <= delta <= 1.0:
        raise ValueError("need eps >= 0 and delta in [0, 1]")
    k = int(k)
    notes: list[str] = []
    try:
        grown = k * math.exp((k - 1) * eps) * delta
    except OverflowError:
        grown = math.inf
    return PrivacyBudget(k * eps, _capped_delta(grown, notes), True, tuple(notes))


def cdp_to_approx(rho: float, delta: float) -> PrivacyBudget:
    """Convert a rho-concentrated-DP guarantee to (3 sqrt(rho log(1/delta)), delta)."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must lie in (0, 1/4)")
    return PrivacyBudget(3.0 * math.sqrt(rho * math.log(1.0 / delta)), delta)


def _check_tuner_inputs(T: int, d: int, eps: float, delta: float) -> None:
    if T < 1:
        raise ValueError("T must be at least 1")
    if d < 2:
        raise ValueError("need at least two experts / dimensions")
    if not 0.0 < eps < math.inf:
        raise ValueError("target epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("target delta must lie in (0, 1)")


def _first_feasible(problem: str, eps: float, delta: float, eta: float, candidate) -> L2PConfig:
    """The first of ``candidate(eta)``, ``candidate(eta / 2)``, ... that the accountant accepts.

    A candidate is accepted if its recomputed budget meets (eps, delta)
    and T p / B >= 1; eta is halved at most ``_MAX_SHRINKS`` times.
    """
    for _ in range(_MAX_SHRINKS + 1):
        config = candidate(eta)
        budget = config_budget(config)
        feasible = config.T * config.p / config.B >= 1.0
        if budget.epsilon <= eps and budget.delta <= delta and feasible:
            return config
        eta /= 2.0
    raise TunerError(
        f"no feasible {problem} tuning for T={config.T}, eps={eps:g} within {_MAX_SHRINKS} shrinks"
    )


def ope_config(T: int, B: int, eta: float, p: float, delta: float) -> L2PConfig:
    """The experts run for step ``eta``, with delta0 = 0 and delta1 = delta / (2T)."""
    return L2PConfig(T=T, B=B, eta=eta, p=p, delta0=0.0, delta1=delta / (2.0 * T))


def tune_ope(T: int, d: int, eps: float, delta: float) -> L2PConfig:
    """Closed-form experts tuning, self-verified through the accountant.

    Sets B = max(1, round(1/eps)), eta = min(eps0, eps)^{2/3} /
    (T^{1/3} log(T/delta)) with eps0 = T^{-1/4} log^{3/4}(d),
    p = min(10 eta / eps, 1 - 1e-9) and :func:`ope_config`'s slacks.
    ``p`` is floored at B/T: below that the switch-rate precondition
    T p / B >= 1 cannot hold. The floor is not priced separately: like
    every candidate, a floored one is accepted only if its recomputed
    budget meets (eps, delta) and T p / B >= 1. Otherwise eta is halved
    (p re-derived) for at most 10 shrinks before giving up.
    """
    _check_tuner_inputs(T, d, eps, delta)
    eps0 = T ** -0.25 * math.log(d) ** 0.75
    eta = min(eps0, eps) ** (2.0 / 3.0) / (T ** (1.0 / 3.0) * math.log(T / delta))
    B = max(1, round(1.0 / eps))
    return _first_feasible(
        "experts", eps, delta, min(eta, ETA_MAX),
        lambda eta: ope_config(T, B, eta, min(max(10.0 * eta / eps, B / T), _P_CAP), delta),
    )


def ball_config(
    T: int,
    d: int,
    B: int,
    eta: float,
    p: float,
    delta: float,
    lipschitz: float,
    diameter: float,
) -> L2PConfig:
    """The ball run for a nominal step ``eta``; its config derives the larger accounted eta.

    The measure parameters are lam = (L/D) max(sqrt(T), sqrt(d log T)/eta)
    and beta = eta^2 lam / (20 L^2) on the ball of radius D/2.
    ``delta0`` is chosen so the budget's delta0 term spends at most a quarter
    of the target ``delta``, and ``delta1 = delta / (4T)`` at most half.
    """
    if eta <= 0.0 or not 0.0 < p <= 1.0 or not delta > 0.0:
        raise ValueError("ball accounting needs eta > 0, p in (0, 1] and delta > 0")
    if not (0.0 < lipschitz < math.inf and 0.0 < diameter < math.inf):
        raise ValueError("lipschitz and diameter must be positive and finite")
    lam = (lipschitz / diameter) * max(math.sqrt(T), math.sqrt(d * math.log(T)) / eta)
    beta = eta * eta * lam / (20.0 * lipschitz * lipschitz)
    delta1 = delta / (4.0 * T)
    delta0 = delta / (8.0 * T * (2.0 / eta + math.log(1.0 / delta1) / p) * _E * B)
    return L2PConfig(
        T=T,
        B=B,
        eta=eta,
        p=p,
        delta0=delta0,
        delta1=delta1,
        beta=beta,
        lam=lam,
        radius=diameter / 2.0,
        lipschitz=lipschitz,
    )


def tune_oco(
    T: int, d: int, eps: float, delta: float, lipschitz: float, diameter: float
) -> L2PConfig:
    """Ball tuning for linear losses, self-verified through the accountant.

    The nominal step is eta = eps^{2/3} / (T^{1/3} log(T/delta)) with
    B = max(1, round(1 / (2 eps log(1/delta)))) and p = min(eta/eps,
    1 - 1e-9); :func:`ball_config` derives the measure and the slacks, and
    its config the accounted divergence ``eta'``. That exceeds the nominal eta, so
    the verification loop halves the nominal eta (with p frozen at its
    initial value: p scales with eta, so re-deriving it would leave
    eta'/p invariant and the loop could never terminate).
    """
    _check_tuner_inputs(T, d, eps, delta)
    eta = min(eps ** (2.0 / 3.0) / (T ** (1.0 / 3.0) * math.log(T / delta)), ETA_MAX)
    B = max(1, round(1.0 / (2.0 * eps * math.log(1.0 / delta))))
    p = min(max(eta / eps, B / T), _P_CAP)
    return _first_feasible(
        "ball", eps, delta, eta,
        lambda eta: ball_config(T, d, B, eta, p, delta, lipschitz, diameter),
    )


def regret_bound_ope(T: int, d: int, eps: float, delta: float) -> float:
    """The experts regret rate ``sqrt(T log d) + T^{1/3} log(d) log(T/delta) / eps^{2/3}``."""
    return math.sqrt(T * math.log(d)) + T ** (1.0 / 3.0) * math.log(d) * math.log(
        T / delta
    ) / eps ** (2.0 / 3.0)


def regret_bound_oco(
    T: int, d: int, eps: float, delta: float, lipschitz: float, diameter: float
) -> float:
    """The DP-OCO regret rate ``L D (sqrt(T) + T^{1/3} sqrt(d) log(T/delta) / eps^{2/3})``."""
    return lipschitz * diameter * (
        math.sqrt(T) + T ** (1.0 / 3.0) * math.sqrt(d) * math.log(T / delta) / eps ** (2.0 / 3.0)
    )


def config_budget(config: L2PConfig) -> PrivacyBudget:
    """The budget of one run of ``config``, with a note for every unmet precondition.

    The formula is priced at the config's accounted eta (its nominal one
    for experts). Beyond the formula's own two preconditions, an accounted
    eta above the divergence cap ``ETA_MAX`` and a fake-switch rate of 0
    or 1 clear ``preconditions_met``.
    """
    eta, p, T, B = config.eta_effective, config.p, config.T, config.B
    notes: list[str] = []
    log1 = math.log(1.0 / config.delta1)
    if p == 0.0:
        eps = math.inf
        notes.append("p=0: no fake switches, epsilon unbounded")
    else:
        eps = (
            2.0 * eta / p
            + eta
            + 3.0 * T * eta * eta * p * log1 / (2.0 * B)
            + math.sqrt(6.0 * T * eta * eta * p * log1 * log1 / B)
        )
    if config.delta0 == 0.0:
        delta_mass = 0.0
    elif p == 0.0:
        delta_mass = math.inf
    else:
        delta_mass = 2.0 * T * (2.0 / eta + log1 / p) * _E * B * config.delta0
    delta = _capped_delta(delta_mass + 2.0 * T * config.delta1, notes)

    pre_switch = T * p / B >= 1.0
    pre_ratio = p > 0.0 and eta * B * log1 / p <= 1.0
    if not pre_switch:
        notes.append("precondition T*p/B >= 1 not met")
    if not pre_ratio:
        notes.append("precondition eta*B*log(1/delta1)/p <= 1 not met")
    if math.isinf(eps):
        notes.append("epsilon is infinite")
    if eta > ETA_MAX:
        notes.append("accounted eta exceeds the divergence cap; budget is nominal only")
    if p in (0.0, 1.0):
        notes.append(f"degenerate fake-switch probability p={p:g}; run is not private")
    met = pre_switch and pre_ratio and eta <= ETA_MAX and p not in (0.0, 1.0)
    return PrivacyBudget(eps, delta, met, tuple(notes))
