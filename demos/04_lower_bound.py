#!/usr/bin/env python3
"""The epoch construction that defeats limited-switching learners.

The stream draws one fair-coin loss vector per epoch and repeats it for
the whole epoch, so past epochs predict nothing and a learner that
cannot afford to switch inside an epoch eats expected loss 1/2 per
round. Any member of the limited-switching family lands near the
T^{1/3} / eps^{2/3} regret floor here; a scheduled-switching uniform
baseline demonstrates it, and a tuned engine run edges it out only
through within-epoch adaptation.
"""

import numpy as np

from l2p import epoch_lower_bound_stream, monte_carlo, strawman_fixed_switch, tune_ope

T, eps, d = 10_000, 0.01, 4
stream = epoch_lower_bound_stream(T, eps, d, seed=0)
print(f"stream: T={T}, eps={eps}, d={d} -> {stream.n_epochs} epochs "
      f"of {stream.epoch_len} rounds")

floor = 0.1 * T ** (1 / 3) / eps ** (2 / 3)
comparator = np.sqrt(stream.n_epochs) * stream.epoch_len
print(f"regret floor 0.1 T^(1/3)/eps^(2/3) = {floor:.1f}; "
      f"comparator gap sqrt(E)*B_ep = {comparator:.1f}")
print()

budget = round((T * eps) ** (2 / 3))
straw = [strawman_fixed_switch(stream, budget, seed=k).regret for k in range(200)]
print(f"strawman ({budget} scheduled uniform switches): "
      f"mean regret {np.mean(straw):.1f} +- {np.std(straw) / np.sqrt(len(straw)):.1f}")

config = tune_ope(T, d, eps=0.5, delta=0.01)
mc = monte_carlo(config, stream, 500, base_seed=1)
print(f"tuned engine (eps=0.5 target, B={config.B}): "
      f"mean regret {mc.mean_regret:.1f} +- {mc.std_regret / np.sqrt(500):.1f}")
print()
print("both sit an order of magnitude above the floor: limited switching")
print("cannot escape this stream, which is the point of the construction.")
