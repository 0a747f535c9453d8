#!/usr/bin/env python3
"""Anatomy of one private experts run.

Builds a small Bernoulli stream, tunes the engine, plays a single seeded
game, and dissects the transcript: which batches kept the model, which
switched for real, and which switches were fakes forced by the data-free
coin. Ends by dumping the run's CSV, a diagnostic log: its batch_loss
column is the played expert's raw loss, so it is not a private release.
"""

import io

import numpy as np

from l2p import bernoulli_experts, config_budget, play_game, tune_ope

T, d = 2000, 5
stream = bernoulli_experts(d, T, np.linspace(0.3, 0.7, d), seed=42)
config = tune_ope(T, d, eps=1.0, delta=1e-4)
budget = config_budget(config)

print(f"stream: {d} experts, {T} rounds, best expert should be #0")
print(f"tuned:  B={config.B} eta={config.eta:.2e} p={config.p:.2e}")
print(f"budget: ({budget.epsilon:.3f}, {budget.delta:.1e}), "
      f"preconditions met: {budget.preconditions_met}")
print()

game = play_game(config, "mw", stream, seed=7)
t = game.transcript
print(f"played {t.n_batches} batches of {config.B} rounds")
print(f"total loss {game.total_loss:.1f}, best-in-hindsight {game.comparator_loss:.1f}, "
      f"regret {game.regret:.1f}")
print(f"model switches: {game.switch_count_x} "
      f"(reference chain: {game.switch_count_y}), fakes: {game.fake_switch_count}")
print()

print("first switching decisions (S=keep coin, S'=fake coin, A=reference coin):")
shown = 0
for s in range(2, t.n_batches + 1):
    S, Sp, A = t.coins[s - 1].tolist()
    switched_x = t.switched[s - 1, 0]
    if switched_x or shown < 3:
        kind = "real" if switched_x and S == 0 else ("fake" if switched_x else "kept")
        print(f"  s={s:3d} x={t.models[s - 1]} S={S} S'={Sp} A={A}  -> {kind}")
        shown += 1
    if shown >= 10:
        break
print()

buf = io.StringIO()
t.write_csv(buf)
lines = buf.getvalue().splitlines()
print("diagnostic log (head):")
for line in lines[:6]:
    print(" ", line)
print(f"  ... {len(lines) - 6} more rows")
