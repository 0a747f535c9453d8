#!/usr/bin/env python3
"""Linear losses on a Euclidean ball: the continuous instantiation.

The measure over the ball is a Gaussian shaped by the accumulated
gradient, truncated to the ball; sampling is exact rejection, which
raises rather than return an approximate point. Shows the tuner's
recomputed divergence, a full run staying inside the ball, and the
sampler centered at the origin when no gradients have arrived.
"""

import numpy as np

from l2p import (
    RmwMeasure,
    best_in_hindsight_oco_ball,
    config_budget,
    linear_oco_stream,
    play_game,
    tune_oco,
)

T, d = 10_000, 3
config = tune_oco(T, d, eps=1.0, delta=1e-6, lipschitz=1.0, diameter=1.0)
budget = config_budget(config)
print(f"tuned: B={config.B} eta={config.eta:.2e} -> accounted {config.eta_accounted:.2e}")
print(f"measure: lam={config.lam:.1f} beta={config.beta:.2e} radius={config.radius}")
print(f"budget: ({budget.epsilon:.3f}, {budget.delta:.2e})")
print()

stream = linear_oco_stream(d, T, 1.0, seed=8, kind="iid-sphere")
game = play_game(config, "rmw", stream, seed=12)
norms = [float(np.linalg.norm(x)) for x in game.transcript.models]
point, best = best_in_hindsight_oco_ball(stream, config.radius)
print(f"run: {game.switch_count_x} switches over {game.transcript.n_batches} batches")
print(f"all iterates inside the ball: max |x| = {max(norms):.4f} <= {config.radius}")
print(f"total loss {game.total_loss:.1f} vs best fixed point {best:.1f} "
      f"-> regret {game.regret:.1f}")
print()

center = RmwMeasure(np.zeros(d), config.beta, config.lam, config.radius)
rng = np.random.default_rng(0)
pts = np.array([center.sample(rng) for _ in range(20_000)])
print("sampler with zero gradient sum (should be centered at the origin):")
print(f"  empirical mean {np.round(pts.mean(axis=0), 4)}")
print(f"  per-coordinate sd {np.round(pts.std(axis=0), 4)} "
      f"(untruncated sd would be {center.gaussian_sigma:.4f})")

drift = linear_oco_stream(d, 2000, 1.0, seed=0, kind="drift")
cfg2 = tune_oco(2000, d, eps=1.0, delta=1e-4, lipschitz=1.0, diameter=1.0)
game2 = play_game(cfg2, "rmw", drift, seed=3)
print()
print(f"slowly rotating gradients, T=2000: regret {game2.regret:.1f} "
      f"({game2.switch_count_x} switches)")
