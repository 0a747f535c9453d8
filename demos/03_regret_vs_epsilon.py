#!/usr/bin/env python3
"""Regret against the privacy level, printed beside the paper's rate.

Replays the same Bernoulli stream under tunings for a grid of epsilon
targets. Regret falls as epsilon grows (privacy loosens) and levels off
from eps=0.5 on. The ``theory`` column is ``regret_bound_ope``, the
regret rate of the analysis with every constant set to 1. It is printed
beside the regret for scale and is not a ceiling: at eps=1 the mean
regret (2220.3) is above it (1697). The sizes are modest, so the demo
takes about a second; scale T and reps up for smoother curves.
"""

import numpy as np

from l2p import bernoulli_experts, monte_carlo, regret_bound_ope, tune_ope

T, d, delta, reps = 20_000, 10, 1e-6, 30
stream = bernoulli_experts(d, T, np.linspace(0.35, 0.65, d), seed=4)

print(f"T={T} d={d} delta={delta} reps={reps}")
print(f"{'eps':>6} {'B':>4} {'eta':>10} {'mean regret':>12} {'std':>8} {'theory':>10}")
for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
    config = tune_ope(T, d, eps, delta)
    mc = monte_carlo(config, stream, reps, base_seed=11)
    theory = regret_bound_ope(T, d, eps, delta)
    print(
        f"{eps:>6} {config.B:>4} {config.eta:>10.2e} "
        f"{mc.mean_regret:>12.1f} {mc.std_regret:>8.1f} {theory:>10.0f}"
    )

print()
print("the same sweep is available as a CSV artifact via:")
print("  l2p sweep --config run.json --epsilon-grid 0.05 0.1 0.2 0.5 1.0")
