"""Oblivious loss-sequence generators.

Streams are materialized up front: the whole sequence is a deterministic
function of (kind, parameters, seed), which both enforces obliviousness
and makes neighboring-stream experiments exactly reproducible. A stream
of kind ``"matrix"`` holds losses that no generator made, such as a
``.npy`` file's. Two streams are neighbors when they differ in exactly
one round.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

# The relative slack a gradient norm may exceed a lipschitz bound by.
# Generated sphere rows exceed their bound by a few ulps (at most 3,
# measured at d in {2, 3, 10, 50}), and unit-norm rows written from
# float32 exceed 1 by up to about 4.5e-8; the slack covers both.
LIPSCHITZ_RTOL = 1e-6

_OPE_KINDS = ("bernoulli", "epoch_lower_bound")
_OCO_KINDS = ("iid-sphere", "drift")


@dataclass(frozen=True, eq=False)
class LossStream:
    """A full horizon of losses: rows of ``values`` are rounds.

    For expert streams each row is a loss vector in [0,1]^d; for linear
    streams each row is a gradient with norm at most ``lipschitz``. A
    ``"matrix"`` stream is linear exactly when it carries a ``lipschitz``.
    ``n_epochs``/``epoch_len`` are set only by the epoch construction.
    """

    kind: str
    d: int
    T: int
    seed: int
    values: np.ndarray
    lipschitz: float | None = None
    n_epochs: int | None = None
    epoch_len: int | None = None
    clamped: bool = False

    def __post_init__(self):
        if self.kind not in (*_OPE_KINDS, *_OCO_KINDS, "matrix"):
            raise ValueError(f"unknown stream kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.T, self.d):
            raise ValueError("values must have shape (T, d)")
        if not np.isfinite(vals).all():
            raise ValueError("stream values must be finite")
        if self.is_oco:
            if self.lipschitz is None or self.lipschitz <= 0:
                raise ValueError("linear streams need a positive lipschitz bound")
            norms = np.linalg.norm(vals, axis=1)
            if norms.max(initial=0.0) > self.lipschitz * (1 + LIPSCHITZ_RTOL):
                raise ValueError("gradient norm exceeds the lipschitz bound")
        else:
            if vals.min(initial=0.0) < 0 or vals.max(initial=0.0) > 1:
                raise ValueError("expert losses must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    @property
    def is_oco(self) -> bool:
        if self.kind == "matrix":
            return self.lipschitz is not None
        return self.kind in _OCO_KINDS


def bernoulli_experts(d: int, T: int, means, seed: int) -> LossStream:
    """Independent Bernoulli(means[x]) loss per expert and round."""
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (d,):
        raise ValueError("means must have length d")
    if not (means.min() >= 0 and means.max() <= 1):  # NaN fails both
        raise ValueError("means must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    values = (rng.random((T, d)) < means).astype(np.float64)
    return LossStream("bernoulli", d, T, seed, values)


def epoch_lower_bound_stream(T: int, eps: float, d: int, seed: int) -> LossStream:
    """Piecewise-constant fair-coin losses: the hard instance for low switching.

    Splits the horizon into ``E = round((T*eps)^(4/3))`` epochs (clamped
    to [1, T], short last epoch) and draws one Ber(1/2)^d loss per
    epoch, repeated for every round of that epoch. A low-switching
    learner must either sit out an epoch at expected loss 1/2 per round
    or spend privacy budget on a switch inside it.
    """
    if T < 1 or d < 1 or not 0.0 < eps < math.inf:
        raise ValueError("the epoch construction needs T >= 1, d >= 1 and a finite epsilon > 0")
    if (T * eps) ** (2.0 / 3.0) < 1.0:
        raise ValueError("need (T*eps)^(2/3) >= 1 for the epoch construction")
    raw = round((T * eps) ** (4.0 / 3.0))
    clamped = raw > T
    if clamped:
        warnings.warn(f"epoch count {raw} exceeds T={T}; clamped to T", stacklevel=2)
    E = min(max(int(raw), 1), T)
    epoch_len = -(-T // E)
    rng = np.random.default_rng(seed)
    draws = (rng.random((E, d)) < 0.5).astype(np.float64)
    values = np.repeat(draws, epoch_len, axis=0)[:T]
    return LossStream(
        "epoch_lower_bound", d, T, seed, values, n_epochs=E, epoch_len=epoch_len, clamped=clamped
    )


def linear_oco_stream(d: int, T: int, lipschitz: float, seed: int, kind: str) -> LossStream:
    """Linear-loss gradients: iid on the sphere, or a deterministic slow drift."""
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    if kind == "iid-sphere":
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((T, d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        values = lipschitz * g / norms
    elif kind == "drift":
        theta = 2.0 * np.pi * np.arange(T) / max(T, 1)
        values = np.zeros((T, d))
        values[:, 0] = np.cos(theta)
        if d > 1:
            values[:, 1] = np.sin(theta)
        values *= lipschitz
    else:
        raise ValueError(f"unknown linear stream kind {kind!r}")
    return LossStream(kind, d, T, seed, values, lipschitz=lipschitz)


def neighbor_of(stream: LossStream, index: int, replacement) -> LossStream:
    """Copy of ``stream`` with round ``index`` replaced.

    ``replacement`` is a raw vector; it is validated against the
    stream's loss type.
    """
    if not 0 <= index < stream.T:
        raise ValueError(f"index {index} outside [0, {stream.T})")
    row = np.asarray(replacement, dtype=np.float64)
    if row.shape != (stream.d,):
        raise ValueError("replacement has the wrong dimension")
    values = stream.values.copy()
    values[index] = row
    return replace(stream, values=values)
