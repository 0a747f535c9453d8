"""Lazy measure families driving the private switching layer.

A "measure" is an unnormalized density over the decision set that is
updated multiplicatively after each loss, so the log-density change per
round is a data-independent function of that round's loss alone. That
structure is what the switching layer exploits: every ratio it needs is
a ratio of unnormalized measures, so normalization constants never have
to be computed (or leaked).

Two families are implemented:

* experts -- multiplicative weights over ``d`` experts, kept in
  log-space (linear-space weights underflow after a few thousand
  rounds): the log-weights are ``-eta`` times the cumulative losses.
* :class:`RmwMeasure` -- a quadratically regularized measure over the
  Euclidean ball of radius ``radius``, specialized to linear losses.
  With gradient sum ``G`` the unnormalized log-density is
  ``-beta * (<G, x> + lam * |x|^2)``, i.e. a Gaussian with mean
  ``-G / (2 lam)`` and isotropic variance ``1 / (2 beta lam)`` truncated
  to the ball.

Either measure at a batch start is a function of the cumulative losses
before that batch alone, so a whole run's measures are one table built
from the loss matrix by :func:`cumulative_table`, which a run of either
kind keeps: the ball's gradient sums, or the experts' cumulative losses,
scaled by ``-eta`` into log-weights where they are read. When every
loss is 0 or 1 the cumulative losses are counts, and a table of them
can be kept in the smallest unsigned integer type that holds T; scaled
in float64, a count gives the same log-weight as the float sum it equals.
:func:`normalized` turns log-weights into densities, and ``_cdf_heads``
into the first d - 1 entries of each sampling CDF row, the last being 1.
:func:`cdf_floor_table` keeps them as 16-bit fixed-point floors on a
``2**-16`` grid, at a quarter of a float64 table's size or less; the
engine picks from the floors and re-decides, on one exact row from the
same builder, the rare uniform that lies in the grid step of the floor
it counted. The same pass gives the widest spread of a row step of the
log-weights, which bounds every batch's log ratio.
The experts measure exists only as these tables; :class:`RmwMeasure` is
the ball's sampler and exact oracle for one row.

The tables are built ``_CHUNK`` rows at a time, so a build makes no
temporary the size of a table. Every entry is the double the one-shot
expression gives: a cumulative sum is one ``np.cumsum`` carried across
chunks in its own order of additions, and every other step works row
by row, so a CDF row built alone is also the table's row, bit for bit.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Divergence parameter cap required by the switching layer's analysis.
ETA_MAX = 0.1

# Rows per chunk of a table build: a chunk's temporaries stay small
# (160 KB at d = 10) while the per-chunk numpy calls stay few.
_CHUNK = 2048

# The floor of a CDF entry F is min(floor(F * 2**16), 2**16 - 1), a
# uint16. Over 2**16 it lies at or below F, less than one grid step under
# it below the cap and at most one step under 1 at it, so always less
# than FLOOR_GAP = two steps under F: the table invariant the tests check.
# The engine's screen needs only the uncapped bound (see
# PreparedRun._exact_pick).
FLOOR_SCALE = 2.0**16
FLOOR_GAP = 2.0**-15
_FLOOR_TOP = 1.0 - 2.0**-16  # the least entry whose floor is the cap, 2**16 - 1

# Ball sampler: proposals drawn one at a time, then blocks of that many
# proposals drawn per numpy call, at most REJECTION_BLOCKS of them.
REJECTION_CAP = 10_000
REJECTION_BLOCKS = 100


class SamplerError(RuntimeError):
    """Ball sampler produced no usable point; parameters are infeasible."""


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis of finite input, kept as a length-1 axis.

    The steps are those of ``scipy.special.logsumexp`` on finite real
    input: the maximum terms are counted rather than summed, and the
    result is ``log1p(rest / count) + log(count) + max``, so the two
    agree bit for bit.
    """
    top = a.max(axis=-1, keepdims=True)
    ties = a == top
    count = ties.sum(axis=-1, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(ties, -np.inf, a - top)).sum(axis=-1, keepdims=True)
    rest = np.where(rest == 0, rest, rest / count)
    return np.log1p(rest) + np.log(count) + top


def normalized(log_weights: np.ndarray) -> np.ndarray:
    """Normalized densities of log-weights, along the last axis."""
    p = np.exp(log_weights - logsumexp(log_weights))
    return p / p.sum(axis=-1, keepdims=True)


def _cdf_heads(log_weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The first d - 1 entries of each row's sampling CDF (the last is 1): the one CDF builder."""
    return np.cumsum(normalized(log_weights)[..., :-1], axis=-1, out=out)


def cdf_floor_table(loss_sums: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """The uint16 floors of the CDF heads of ``loss_sums * -eta``, and the widest row-step spread.

    The spread is max - min of a row step of ``loss_sums * -eta``, 0 for one
    row. Each chunk is scaled once, with the previous chunk's last row for
    the step into it, and :func:`_cdf_heads` sums its rows' first d - 1 CDF
    entries into the spent log-weight buffer of the chunk, viewed as a
    (rows, d - 1) block. Entry F keeps ``min(floor(F * 2**16), 2**16 - 1)``:
    capped at ``1 - 2**-16``, the least entry whose floor is the cap, scaled
    by ``2**16`` (exact) and cast to uint16, which truncates and so floors a
    nonnegative double. Over ``2**16`` a floor lies at or below its entry
    and less than ``FLOOR_GAP`` under it. The last CDF entry is 1 in every
    row, and no uniform below 1 counts it, so it is not kept.
    """
    n, d = loss_sums.shape
    floors = np.empty((n, d - 1), dtype=np.uint16)
    if d == 1:  # one expert: every step has spread 0
        return floors, 0.0
    spread = 0.0
    for a in range(0, n, _CHUNK):
        lo = max(a - 1, 0)  # the previous chunk's last row, for the step into this chunk
        log_weights = np.multiply(loss_sums[lo : a + _CHUNK], -eta, dtype=np.float64)
        spread = max(spread, np.ptp(log_weights[1:] - log_weights[:-1], axis=1).max(initial=0.0))
        rows = log_weights.shape[0] - (a - lo)
        head = log_weights.reshape(-1)[: rows * (d - 1)].reshape(rows, d - 1)
        _cdf_heads(log_weights[a - lo :], out=head)
        if head[:, -1].max() > _FLOOR_TOP:  # a row rises, so its last kept entry is its largest
            np.minimum(head, _FLOOR_TOP, out=head)
        np.multiply(head, FLOOR_SCALE, out=head)
        floors[a : a + rows] = head
    return floors, float(spread)


def cumulative_table(values: np.ndarray, B: int, dtype=np.float64) -> np.ndarray:
    """Per-batch cumulative sums of a (T, d) loss or gradient matrix.

    Row ``s - 1`` is the sum of all rounds before batch ``s`` starts, so
    row 0 is zero; the measure in force for batch ``s`` is a function of
    that row alone. The running sum is taken over chunks of rounds in
    one reused buffer, and every B-th row is kept. Each chunk's first
    round is added to the last running sum before the chunk is summed,
    the order ``np.cumsum`` adds in, so the table is bit for bit
    ``np.cumsum(values, axis=0)`` at the batch ends.

    The table is allocated in ``dtype`` and the kept rows are cast into
    it as they are stored. An unsigned integer ``dtype`` that holds T
    stores the losses of a matrix of 0s and 1s as exact counts: each
    running sum is then an integer below 2**53, so the cast loses nothing.
    """
    T, d = values.shape
    n_batches = -(-T // B)
    cum = np.zeros((n_batches, d), dtype=dtype)
    rounds = (n_batches - 1) * B  # the rounds before the last batch starts
    buf = np.empty((min(_CHUNK, rounds), d))
    for a in range(0, rounds, _CHUNK):
        part = buf[: min(_CHUNK, rounds - a)]
        if a:  # the previous chunk, a full one, left its last running sum in buf[-1]
            np.add(buf[-1], values[a], out=part[0])
        else:
            part[0] = values[0]
        part[1:] = values[a + 1 : a + part.shape[0]]
        np.cumsum(part, axis=0, out=part)
        first = a + (B - 1 - a) % B  # the first batch end in the chunk
        kept = part[first - a :: B]
        k = (first + 1) // B
        cum[k : k + kept.shape[0]] = kept
    return cum


@dataclass(frozen=True, eq=False)
class RmwMeasure:
    """Regularized measure over the ball: ``-beta * (<G, x> + lam |x|^2)``."""

    grad_sum: np.ndarray
    beta: float
    lam: float
    radius: float

    def __post_init__(self):
        g = _as_float_vector(self.grad_sum, "gradient sum")
        for name in ("beta", "lam", "radius"):
            val = float(getattr(self, name))
            if not 0.0 < val < math.inf:
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, val)
        object.__setattr__(self, "grad_sum", g)

    @property
    def d(self) -> int:
        return self.grad_sum.size

    def log_unnorm(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(-self.beta * (self.grad_sum @ x + self.lam * (x @ x)))

    @property
    def gaussian_mean(self) -> np.ndarray:
        return -self.grad_sum / (2.0 * self.lam)

    @property
    def gaussian_sigma(self) -> float:
        return math.sqrt(1.0 / (2.0 * self.beta * self.lam))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Exact draw from the measure, by rejection from ``N(gaussian_mean, gaussian_sigma^2 I)``.

        The first ``REJECTION_CAP`` proposals are drawn one at a time, the
        draw order every pinned transcript uses. Later ones come
        ``REJECTION_CAP`` rows per numpy call, at most ``REJECTION_BLOCKS``
        times, and the first row inside the ball is returned: the first
        success in a sequence of i.i.d. proposals is an exact draw however
        the proposals are batched. Raises :class:`SamplerError` if none
        lands.
        """
        mean = self.gaussian_mean
        sigma = self.gaussian_sigma
        r2 = self.radius * self.radius
        for _ in range(REJECTION_CAP):
            z = mean + sigma * rng.standard_normal(self.d)
            if float(z @ z) <= r2:
                return z
        for _ in range(REJECTION_BLOCKS):
            z = mean + sigma * rng.standard_normal((REJECTION_CAP, self.d))
            inside = np.flatnonzero(np.einsum("ij,ij->i", z, z) <= r2)
            if inside.size:
                return z[inside[0]].copy()  # not a view that keeps the block alive
        n = REJECTION_CAP * (1 + REJECTION_BLOCKS)
        raise SamplerError(f"no proposal of {n} landed in the ball at d={self.d}")


def effective_eta_rmw(beta: float, lam: float, lipschitz: float, delta0: float) -> float:
    """Divergence parameter the accountant must use for the ball measure.

    One update moves the normalized density by at most
    ``2 beta L^2 / lam + sqrt(8 beta L^2 log(2/delta0) / lam)`` in
    delta0-approximate max divergence, which is strictly larger than the
    nominal step size for any small ``delta0``.
    """
    if not all(0.0 < v < math.inf for v in (beta, lam, lipschitz)):
        raise ValueError("beta, lam and lipschitz must be positive and finite")
    if not 0.0 < delta0 < 1.0:
        raise ValueError("delta0 must lie in (0, 1)")
    bl2 = beta * lipschitz * lipschitz
    return 2.0 * bl2 / lam + math.sqrt(8.0 * bl2 * math.log(2.0 / delta0) / lam)
