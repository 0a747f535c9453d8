"""Differentially private online learning by lazy switching.

A generic batched switching layer turns any multiplicatively updated
measure into a private online learner; shipped instantiations are
multiplicative weights over experts and a regularized Gaussian-shaped
measure over a Euclidean ball for linear OCO. The package also carries
the matching privacy accountant and closed-form tuners, oblivious
adversary generators (including the hard epoch construction for
low-switching learners), a regret harness, and empirical audits of the
distributional and privacy claims.
"""

__version__ = "0.1.0"

from .accountant import (
    PrivacyBudget,
    TunerError,
    ball_config,
    cdp_to_approx,
    config_budget,
    group_privacy,
    ope_config,
    regret_bound_oco,
    regret_bound_ope,
    tune_oco,
    tune_ope,
)
from .adversaries import (
    LossStream,
    bernoulli_experts,
    epoch_lower_bound_stream,
    linear_oco_stream,
    neighbor_of,
)
from .audit import (
    AuditReport,
    empirical_epsilon,
    marginal_tv_profile,
    ratio_range_check,
    switch_statistics,
)
from .harness import (
    GameResult,
    MonteCarloSummary,
    best_in_hindsight_oco_ball,
    best_in_hindsight_ope,
    monte_carlo,
    play_game,
    strawman_fixed_switch,
)
from .measures import (
    RmwMeasure,
    SamplerError,
    effective_eta_rmw,
)
from .seeding import replicate_seed, splitmix64
from .transform import (
    ConfigError,
    L2PConfig,
    PreparedRun,
    Transcript,
)

__all__ = [
    "AuditReport",
    "ConfigError",
    "GameResult",
    "L2PConfig",
    "LossStream",
    "MonteCarloSummary",
    "PreparedRun",
    "PrivacyBudget",
    "RmwMeasure",
    "SamplerError",
    "Transcript",
    "TunerError",
    "ball_config",
    "bernoulli_experts",
    "best_in_hindsight_oco_ball",
    "best_in_hindsight_ope",
    "cdp_to_approx",
    "config_budget",
    "effective_eta_rmw",
    "empirical_epsilon",
    "epoch_lower_bound_stream",
    "group_privacy",
    "linear_oco_stream",
    "marginal_tv_profile",
    "monte_carlo",
    "neighbor_of",
    "ope_config",
    "play_game",
    "ratio_range_check",
    "regret_bound_oco",
    "regret_bound_ope",
    "replicate_seed",
    "splitmix64",
    "strawman_fixed_switch",
    "switch_statistics",
    "tune_oco",
    "tune_ope",
]
