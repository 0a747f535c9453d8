#!/usr/bin/env python3
"""Anatomy of one private experts run.

Builds a small Bernoulli stream, tunes the engine, plays a single seeded
game, and dissects the transcript: which batches kept the model, which
switched for real, and which switches were fakes forced by the data-free
coin. A transcript is its switch events, so the coins of each batch are
decoded from the event codes (4 S + 2 S' + A; a batch with no event
kept every coin).

Ends with the head of a per-batch diagnostic log built from the events:
one CSV row per batch with columns s, x, S, Sprime, A, switched_x,
switched_y and batch_loss (blank coins in batch 1). The budget is stated
for the played models, the x column. The coins, switched_y, the
reference-chain and fake switch counts and the batch_loss column, the
played expert's raw loss, are engine diagnostics outside it: at ope-b1's
accounted epsilon, (x_1, y_1, S_2) alone needs delta = 1.602e-4
(tests/test_audit.py::TestSCoin). So the log is not a private release.
"""

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

codes = dict(zip(t.rows, t.codes))


def coins(s):
    """(S, S', A) of batch s >= 2: its event's code, or all 1 if it kept."""
    code = codes.get(s - 1, 7)
    return code >> 2, code >> 1 & 1, code & 1


print("first switching decisions (S=keep coin, S'=fake coin, A=reference coin):")
shown = 0
for s in range(2, t.n_batches + 1):
    S, Sp, A = coins(s)
    switched_x = 1 - (S & Sp)
    if switched_x or shown < 3:
        kind = "real" if switched_x and S == 0 else ("fake" if switched_x else "kept")
        print(f"  s={s:3d} x={t.models[s - 1]} S={S} S'={Sp} A={A}  -> {kind}")
        shown += 1
    if shown >= 10:
        break
print()

print("diagnostic log (head):")
print("  s,x,S,Sprime,A,switched_x,switched_y,batch_loss")
for s in range(1, 6):
    x = t.models[s - 1]
    batch = stream.values[(s - 1) * config.B : s * config.B, x]
    if s == 1:
        row = [s, x, "", "", "", 0, 0]
    else:
        S, Sp, A = coins(s)
        row = [s, x, S, Sp, A, 1 - (S & Sp), 1 - A]
    print("  " + ",".join(map(str, row + [repr(float(batch.sum(dtype=np.float64)))])))
print(f"  ... {t.n_batches - 5} more rows")
