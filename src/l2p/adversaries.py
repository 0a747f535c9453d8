"""Oblivious loss-sequence generators.

Streams are materialized up front: a generated sequence is a
deterministic function of its generator's parameters and seed, which
both enforces obliviousness and makes neighboring-stream experiments
exactly reproducible. A stream is its (T, d) matrix, whoever made it (a
generator or a ``.npy`` file), plus what the matrix cannot say: the
gradient bound of a linear stream and the epoch construction's layout.
Two streams are neighbors when they differ in exactly one round.

Every generated experts stream holds only 0s and 1s and keeps them as a
``bool`` matrix, one byte per loss where float64 takes eight; every
other loss or gradient matrix is kept in float64.
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

# Rows per chunk of the Bernoulli draw: its float64 uniforms stay small
# (160 KB at d = 10), whatever T is.
_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class LossStream:
    """A full horizon of losses: a (T, d) matrix whose rows are rounds.

    ``T`` and ``d`` are read off the matrix. A stream is linear
    exactly when it carries a ``lipschitz`` bound: each row is then a
    gradient with norm at most ``lipschitz``, and otherwise a loss vector
    in [0, 1]^d. ``n_epochs``/``epoch_len`` are set only by the epoch
    construction.

    An experts matrix that arrives as ``bool``, such as a generated one or
    a bool ``.npy`` file's, stays bool (a memory map stays one); it holds
    only 0s and 1s, so it skips the finiteness and [0, 1] scans. Every
    other matrix, and every gradient matrix, is kept in float64.
    """

    values: np.ndarray
    lipschitz: float | None = None
    n_epochs: int | None = None
    epoch_len: int | None = None
    clamped: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype != np.bool_ or self.is_oco:
            vals = np.asarray(vals, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("values must have shape (T, d)")
        object.__setattr__(self, "values", vals)
        if vals.dtype == np.bool_:  # 0s and 1s are finite and lie in [0, 1]
            return
        if not np.isfinite(vals).all():
            raise ValueError("stream values must be finite")
        if self.is_oco:
            if not 0 < self.lipschitz < math.inf:
                raise ValueError("linear streams need a finite positive lipschitz bound")
            norms = np.linalg.norm(vals, axis=1)
            if norms.max(initial=0.0) > self.lipschitz * (1 + LIPSCHITZ_RTOL):
                raise ValueError("gradient norm exceeds the lipschitz bound")
        elif vals.min(initial=0.0) < 0 or vals.max(initial=0.0) > 1:
            raise ValueError("expert losses must lie in [0, 1]")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def is_oco(self) -> bool:
        return self.lipschitz is not None


def bernoulli_experts(d: int, T: int, means, seed: int) -> LossStream:
    """Independent Bernoulli(means[x]) loss per expert and round, as a bool matrix.

    The losses are ``rng.random((T, d)) < means``, the same uniforms in
    the same order, compared ``_CHUNK`` rows at a time into the matrix, so
    no float64 temporary of its size is made and the generator ends where
    one draw leaves it.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (d,):
        raise ValueError("means must have length d")
    if not (means.min() >= 0 and means.max() <= 1):  # NaN fails both
        raise ValueError("means must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    values = np.empty((T, d), dtype=np.bool_)
    for a in range(0, T, _CHUNK):
        rows = min(_CHUNK, T - a)
        np.less(rng.random((rows, d)), means, out=values[a : a + rows])
    return LossStream(values)


def epoch_lower_bound_stream(T: int, eps: float, d: int, seed: int) -> LossStream:
    """Piecewise-constant fair-coin losses: the hard instance for low switching.

    Splits the horizon into ``E = round((T*eps)^(4/3))`` epochs (at least
    1, clamped to T however large; short last epoch) and draws one Ber(1/2)^d loss per
    epoch, repeated for every round of that epoch. A low-switching
    learner must either sit out an epoch at expected loss 1/2 per round
    or spend privacy budget on a switch inside it.
    """
    if T < 1 or d < 1 or not 0.0 < eps < math.inf:
        raise ValueError("the epoch construction needs T >= 1, d >= 1 and a finite epsilon > 0")
    if (T * eps) ** (2.0 / 3.0) < 1.0:
        raise ValueError("need (T*eps)^(2/3) >= 1 for the epoch construction")
    try:
        raw = round((T * eps) ** (4.0 / 3.0))
    except OverflowError:  # the count, or T*eps itself, is past a double's range
        raw = math.inf
    clamped = raw > T
    if clamped:
        warnings.warn(f"epoch count {raw} exceeds T={T}; clamped to T", stacklevel=2)
    E = T if clamped else raw  # at least 1: T*eps >= 1 is checked above
    epoch_len = -(-T // E)
    rng = np.random.default_rng(seed)
    draws = rng.random((E, d)) < 0.5
    values = np.repeat(draws, epoch_len, axis=0)[:T]
    return LossStream(values, n_epochs=E, epoch_len=epoch_len, clamped=clamped)


def linear_oco_stream(d: int, T: int, lipschitz: float, seed: int, kind: str) -> LossStream:
    """Linear-loss gradients: iid on the sphere, or a deterministic slow drift."""
    if not 0 < lipschitz < math.inf:
        raise ValueError("lipschitz must be positive and finite")
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
    return LossStream(values, lipschitz=lipschitz)


def neighbor_of(stream: LossStream, index: int, replacement) -> LossStream:
    """Copy of ``stream`` with round ``index`` replaced.

    ``replacement`` is a raw vector; it is validated against the
    stream's loss type. A bool stream's copy stays bool when every
    entry of the row is +0.0 or 1.0, and is float64 otherwise, so a 0.3
    stays 0.3 (and a -0.0 stays -0.0).
    """
    if not 0 <= index < stream.T:
        raise ValueError(f"index {index} outside [0, {stream.T})")
    row = np.asarray(replacement, dtype=np.float64)
    if row.shape != (stream.d,):
        raise ValueError("replacement has the wrong dimension")
    binary = ((row == 1.0) | ((row == 0.0) & ~np.signbit(row))).all()
    values = stream.values.astype(stream.values.dtype if binary else np.float64)
    values[index] = row
    return replace(stream, values=values)
