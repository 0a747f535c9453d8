#!/usr/bin/env python3
"""Tour of the privacy accountant.

Walks through the budget of a single switching run, group privacy,
the concentrated-DP conversion, and the two closed-form tuners.
Everything here is pure arithmetic; nothing is simulated.
"""

import math

from l2p import (
    L2PConfig,
    cdp_to_approx,
    config_budget,
    group_privacy,
    tune_oco,
    tune_ope,
)

print("=== one run of the switching engine ===")
budget = config_budget(L2PConfig(T=1000, B=10, eta=0.01, p=0.1, delta0=0.0, delta1=1e-6))
print(f"eta=0.01 p=0.1 T=1000 B=10 delta1=1e-6 ->")
print(f"  epsilon = {budget.epsilon:.4f}")
print(f"  delta   = {budget.delta}")
print(f"  preconditions met: {budget.preconditions_met}")
for note in budget.notes:
    print(f"  note: {note}")

print()
print("=== group privacy and CDP conversion ===")
grp = group_privacy(0.1, 1e-6, k=3)
print(f"(0.1, 1e-6)-DP against triples: ({grp.epsilon:.2f}, {grp.delta:.4e})")
cdp = cdp_to_approx(rho=0.01, delta=1e-6)
print(f"0.01-CDP converts to ({cdp.epsilon:.4f}, 1e-6)-DP")

print()
print("=== closed-form tuners verify themselves through the accountant ===")
cfg = tune_ope(T=10**6, d=10, eps=1.0, delta=1e-6)
out = config_budget(cfg)
print(f"experts, T=1e6 d=10 target (1, 1e-6):")
print(f"  B={cfg.B} eta={cfg.eta:.3e} p={cfg.p:.3e}")
print(f"  achieved ({out.epsilon:.4f}, {out.delta:.2e}) <= target")

cfg = tune_oco(T=10**4, d=3, eps=1.0, delta=1e-6, lipschitz=1.0, diameter=1.0)
out = config_budget(cfg)
print(f"ball OCO, T=1e4 d=3 target (1, 1e-6):")
print(f"  B={cfg.B} eta={cfg.eta:.3e} (accounted {cfg.eta_accounted:.3e}) p={cfg.p:.3e}")
print(f"  lam={cfg.lam:.1f} beta={cfg.beta:.3e} radius={cfg.radius}")
print(f"  achieved ({out.epsilon:.4f}, {out.delta:.2e}) <= target")
print()
print("note: the accounted eta for the ball measure exceeds the nominal one;")
print("the accountant always uses the recomputed divergence, so the budget")
print("it reports is the one the sampler actually satisfies. The ratio")
print(f"here is {cfg.eta_accounted / cfg.eta:.2f}, driven by sqrt(log(2/delta0)) =")
print(f"{math.sqrt(math.log(2 / cfg.delta0)):.2f}.")
