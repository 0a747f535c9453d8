"""Batched correlated-sampling switcher with a parallel reference chain.

The engine plays one model per batch of ``B`` rounds. At each batch
boundary it keeps the previous model with probability

    min(1, cur(x_prev) / (e^{2 B eta} prev(x_prev))
           * prev(y_prev) / cur(y_prev))

where ``y`` is a second chain of models that never feeds back into the
played chain and is refreshed by an independent data-free coin.
Dividing by the reference point makes the keep probability depend only
on the most recent batch of losses, and the ``e^{2 B eta}`` deflation
caps how much any single batch can move it. A data-free
Bernoulli(p)-complement coin forces occasional fake refreshes of both
chains, so an observer cannot tell a data-driven switch from a
scheduled one.

Everything is computed on unnormalized measures in log-space and
exponentiated once: normalization constants cancel in the ratios, and
the min() then acts on an exact quantity.

A :class:`PreparedRun` is built from the config, whose ``measure_kind``
is ``"mw"`` (experts) or ``"rmw"`` (the ball), and the loss matrix
alone: the measure of every batch is a row of one cumulative table,
``loss_sums`` (cumulative losses for experts, gradient sums for the
ball), so set-up makes no per-batch objects. An experts run also keeps
the 16-bit floors of its sampling CDFs. Both tables are built chunk by
chunk with no temporary of their size. A binary experts
run, one whose loss matrix is bool, as every generated experts stream
is, keeps its cumulative losses as integer counts in the smallest
unsigned type that holds T; a count times ``-eta`` is the double the
float sum gives, so the run is the one a float64 matrix of 0s and 1s
gives, bit for bit. Its sums are taken and its played losses gathered
in float64. The ball sampler is built only for the batch that resamples.

Randomness contract (frozen for reproducibility): at each batch s >= 2
the engine consumes three uniforms, in the order S, S', A, then at most
one resample draw for the played chain followed by at most one for the
reference chain. Identical seed, config and losses give bit-identical
transcripts.

The experts path does Python work per switch, not per batch. Each of
its draws is one ``rng.random()`` double, so a run's doubles are drawn
ahead and read in contract order. Every batch takes three and every
resample one more, so a run that reads past what it has drawn draws up
to the count its position says it is sure to use, and no further:
``c + 3(n - s + 1)`` at batch s's S double c, and ``c + r + 3(n - s)``
just past batch s's coins with r resamples pending. The S' and A coins
and the resamples use no data, and the S coin's keep probability is
never below ``sure``, a floor set-up derives from the widest spread of
the log ratios. So a batch whose S double is below ``sure`` and whose
S' and A doubles are below ``1 - p`` keeps, whatever x and y are: its
exact ratio is never computed. One loop runs every experts run, and
only its reader depends on the run's length. A run of at most
``_WALK`` batches reads its doubles as one Python list and steps
through every batch. A longer run reads its doubles ``_BLOCK`` at a
time: one compare per block finds the rare doubles, those at or above
the lower of ``sure`` and ``1 - p``, and the loop visits only the
batches they can fail. In a tuned run nearly all doubles are below
both. Both read the cumulative loss and CDF floor
tables through flat memoryviews built at set-up. A pick bisects a row of
CDF floors, the first d - 1 entries of the exact row each floored to a
multiple of 2**-16 (capped one step below 1) and kept as a uint16. Only
a uniform in the grid step of the last floor the pick counted can pick
differently on the exact row, so only then is that one row's exact CDF
built and the pick re-decided on it: every pick is the exact table's. The S, S', A, x-resample,
y-resample order, the transcripts and the generator's end state are
those of a batch-by-batch loop. Ball runs keep that loop: their sampler
draws normals, which cannot be pre-drawn bit-identically.

A run returns its switch events as a :class:`Transcript`, and nothing
per batch: the played models and losses are derived from the events on
first read. A game reads only its total loss. On a binary experts run
that is a sum, over the switch events that move the played expert, of
differences of the count table, so the game costs its switches alone;
on any other run it is one gather of the played losses. Set-up also
computes the run's best-in-hindsight comparator, which depends only on
the loss matrix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .adversaries import LIPSCHITZ_RTOL
from .measures import (
    ETA_MAX,
    FLOOR_SCALE,
    RmwMeasure,
    _cdf_heads,
    cdf_floor_table,
    cumulative_table,
    effective_eta_rmw,
)

# Runs of at most _WALK batches step through every batch: finding a
# block's rare doubles costs a few numpy calls, more than testing so few
# batches, and their doubles fit one short Python list. Longer runs hold
# at most _BLOCK doubles (512 KB) at a time, so a run's memory does not
# grow with its length, and visit only the batches a rare double can
# fail. Each block costs a draw, a compare and a hit list, so a block
# holds the doubles of a 20,000-batch run. Both share one loop and draw rule.
_WALK = 48
_BLOCK = 65536
# The screen's floor under every keep probability is shrunk by this
# much, so exp's rounding can only add visits; the absolute term
# makes a floor at or near the subnormal range screen nothing out.
_FLOOR_RTOL = 1e-12
_FLOOR_ATOL = 1e-300


class ConfigError(ValueError):
    """A configuration violates a hard constraint; raised when it is built."""


@dataclass(frozen=True)
class L2PConfig:
    """All tuned parameters of one run.

    ``eta`` is the nominal divergence step. Only ball (OCO) runs set
    ``beta``, ``lam``, ``radius`` and ``lipschitz``, and their ``delta0``
    lies in (0, 1); from these ``eta_accounted`` derives the larger
    divergence bound the measure satisfies, which the engine's acceptance
    cap and the accountant use. Building a config
    that breaks a hard constraint raises :class:`ConfigError`, naming
    every constraint it breaks; the analysis preconditions, which only
    mark a run, are the accountant's (``config_budget``).
    """

    T: int
    B: int
    eta: float
    p: float
    delta0: float
    delta1: float
    beta: float | None = None
    lam: float | None = None
    radius: float | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        errors: list[str] = []
        # a bool's type is not int, so True is refused as a count
        if not ((type(self.T) is int or isinstance(self.T, np.integer)) and self.T >= 1):
            errors.append("T must be a positive integer")
        if not ((type(self.B) is int or isinstance(self.B, np.integer)) and self.B >= 1):
            errors.append("B must be a positive integer")
        if not 0.0 < self.eta <= ETA_MAX:
            errors.append(f"eta must lie in (0, {ETA_MAX}]")
        if not 0.0 <= self.p <= 1.0:
            errors.append("p must lie in [0, 1]")
        if self.delta0 < 0.0:
            errors.append("delta0 must be nonnegative")
        elif not self.delta0 < 1.0:
            errors.append("delta0 must lie in [0, 1)")
        if not 0.0 < self.delta1 < 1.0:
            errors.append("delta1 must lie in (0, 1)")
        oco_fields = (self.beta, self.lam, self.radius, self.lipschitz)
        if any(v is not None for v in oco_fields):
            if any(v is None or not 0.0 < v < math.inf for v in oco_fields):
                errors.append("ball runs need beta, lam, radius and lipschitz, all positive")
            if not 0.0 < self.delta0 < 1.0:
                errors.append("ball runs need delta0 in (0, 1), their divergence bound's domain")
        if errors:
            raise ConfigError("; ".join(errors))

    @property
    def n_batches(self) -> int:
        return -(-self.T // self.B)

    @property
    def eta_accounted(self) -> float | None:
        """The ball measure's divergence bound at ``delta0``; None for experts."""
        if self.beta is None:
            return None
        return effective_eta_rmw(self.beta, self.lam, self.lipschitz, self.delta0)

    @property
    def eta_effective(self) -> float:
        return self.eta if self.beta is None else self.eta_accounted

    @property
    def cap(self) -> float:
        """The acceptance cap ``2 B eta_effective``, also on a short final batch."""
        return 2.0 * self.B * self.eta_effective

    @property
    def measure_kind(self) -> str:
        """``"rmw"`` (the ball) when the ball fields are set, else ``"mw"`` (experts)."""
        return "mw" if self.beta is None else "rmw"


@dataclass(eq=False)
class Transcript:
    """Record of one run: its switch events, and the played models they give.

    A run is its switch events; every other batch keeps both models.
    Event k happens at 0-based batch ``rows[k]`` with coins coded as
    ``codes[k]`` = 4 S + 2 S' + A, and ``event_xs[k + 1]``,
    ``event_ys[k + 1]`` are the played and reference models in force
    from it on; ``event_xs[0]``, ``event_ys[0]`` are the batch-1 draws.
    Every event fails a coin, so its code is below 7, and the counts
    are read off the codes: x stays put only at code 6 (S = S' = 1), y
    at the odd codes (A = 1), and only code 3 (S' = A = 1) has no
    data-free refresh on either chain. ``switch_count_x``,
    ``switch_count_y`` and ``fake_switch_count`` count the other events;
    ``switch_counts`` reads all three at once.

    ``models[s-1]``, the played model of batch s, and ``round_losses``,
    the played losses gathered from the loss matrix, are derived from
    the events and ``prepared``, the run that produced them, on first
    read and then cached, so a transcript costs O(switches) until they
    are read. ``total_loss`` is a sum over the events on a binary run.
    The budget is stated for the played models, ``models``, from ``rows``
    and ``event_xs``. ``codes`` (each event's S, S' and A coins), ``event_ys``
    and ``switch_count_y`` and ``fake_switch_count``, read off them, are
    engine diagnostics outside it: at ope-b1's accounted epsilon, (x_1, y_1,
    S_2) alone needs delta = 1.602e-4 (``tests/test_audit.py::TestSCoin``).
    A transcript derives no per-batch coin, reference model or log ratio.
    """

    prepared: PreparedRun = field(repr=False)
    rows: list[int]
    codes: list[int]
    event_xs: list
    event_ys: list = field(repr=False)

    @property
    def n_batches(self) -> int:
        return self.prepared.config.n_batches

    @property
    def switch_counts(self) -> tuple[int, int, int]:
        """``(switch_count_x, switch_count_y, fake_switch_count)``, counted on one bytes copy of the codes."""
        codes = bytes(self.codes)  # every code is below 7
        n, kept_both = len(codes), codes.count(3)
        return n - codes.count(6), n - codes.count(1) - kept_both - codes.count(5), n - kept_both

    @property
    def switch_count_x(self) -> int:
        return self.switch_counts[0]

    @property
    def switch_count_y(self) -> int:
        return self.switch_counts[1]

    @property
    def fake_switch_count(self) -> int:
        return self.switch_counts[2]

    @property
    def total_loss(self) -> float:
        """``round_losses.sum()``; on a binary run, the same double in O(switches).

        There the expert x played over batches [a, b) played
        ``loss_sums[b, x] - loss_sums[a, x]``, the last one up to the column
        total, and row 0 is zero. So the total telescopes to the column
        total of the last expert played plus, at each event at row b that
        moves the played expert from x to x', ``loss_sums[b, x] -
        loss_sums[b, x']``. That sum of counts is an exact integer, and a
        bool matrix cannot sum to -0.0, so a zero total is +0.0 as the
        gather's is.
        """
        prepared = self.prepared
        if prepared.binary:
            sums, d, moved, xs = prepared._sums, prepared.loss_sums.shape[1], 0, self.event_xs
            for b, x, new in zip(self.rows, xs, xs[1:]):
                if new != x:
                    at = b * d
                    moved += sums[at + x] - sums[at + new]
            return float(prepared.column_totals[xs[-1]]) + moved
        return float(self.round_losses.sum())

    @cached_property
    def _spans(self) -> np.ndarray:
        """The number of batches each model pair is in force: from batch 1, then from each event."""
        bounds = np.array([0, *self.rows, self.n_batches])
        return bounds[1:] - bounds[:-1]

    def _per_batch(self, models: list):
        return chain.from_iterable(map(repeat, models, self._spans.tolist()))

    @cached_property
    def models(self) -> tuple:
        return tuple(self._per_batch(self.event_xs))

    @cached_property
    def round_losses(self) -> np.ndarray:
        prepared = self.prepared
        T, B = prepared.config.T, prepared.config.B
        if prepared.is_mw:
            xs = np.array(self.event_xs).repeat(self._spans * B)[:T]
            return _picks(prepared.loss_values, xs).astype(np.float64, copy=False)
        round_losses = np.empty(T)
        for s, x in enumerate(self._per_batch(self.event_xs)):
            round_losses[s * B : (s + 1) * B] = prepared.loss_values[s * B : (s + 1) * B] @ x
        return round_losses


class PreparedRun:
    """One (config, loss matrix) pair, precomputed once and run many times.

    The config's ``measure_kind`` is ``"mw"`` (experts; ``loss_values``
    holds losses in [0, 1]) or ``"rmw"`` (the ball; ``loss_values`` holds
    gradients). ``kind`` echoes it, and :class:`ConfigError` is raised
    if it differs. Every data-dependent table is a function of the
    losses alone, so replicates share them; only the coin and resample
    draws differ between runs. The loss matrix is kept in C order,
    copied only if it comes in another, and in float64, except that an
    experts matrix of dtype bool stays bool.
    ``domain_error`` is None for a matrix in the domain the config's
    budget holds on (losses in [0, 1]; gradient norms at most its
    ``lipschitz``), else the message of the :class:`ConfigError` :meth:`run` raises.
    Both kinds keep the n x d cumulative table ``loss_sums`` (of losses or
    gradients); experts runs also keep the n x (d - 1) ``cdf_floors``, the uint16 floors on
    a ``2**-16`` grid of the first d - 1 entries of every batch's sampling
    CDF (the last is 1), with one flat memoryview of each that the engine
    loop reads, and ``sure``, a floor under the keep probability of every batch
    and every pair of models. No exact float64 CDF table is kept: a pick
    builds one exact row only when its uniform lies in the grid step of
    the last floor it counted (see :meth:`_exact_pick`).
    The log-weights ``loss_sums * -eta`` are formed in float64 where they
    are read. ``binary`` is whether an experts run's loss matrix is bool;
    a binary run's ``loss_sums`` holds exact counts in
    ``np.min_scalar_type(T)``, whose memoryview reads Python ints, and
    any other run's, a float64 matrix of 0s and 1s included, holds
    float64; a table whose last row is not finite is refused. Runs of at
    most ``_WALK`` batches (``walks``) step through every batch. Both kinds
    keep the column totals of the loss matrix, in float64 also on a bool
    matrix, and ``comparator_loss``, the best-in-hindsight loss they
    give. The acceptance cap ``cap`` is the config's, which always
    uses the full ``2 B eta`` exponent, also on a short final batch.
    """

    def __init__(self, config: L2PConfig, kind: str, loss_values: np.ndarray):
        if kind != config.measure_kind:
            raise ConfigError(f"measure kind {kind!r} is not the config's {config.measure_kind!r}")
        self.is_mw = config.measure_kind == "mw"
        loss_values = np.asarray(loss_values)
        self.binary = self.is_mw and loss_values.dtype == np.bool_
        # C order, so a gather from the flat matrix copies nothing
        loss_values = np.ascontiguousarray(loss_values, np.bool_ if self.binary else np.float64)
        if loss_values.ndim != 2 or loss_values.shape[0] != config.T:
            raise ValueError("loss matrix must have T rows of one loss each")
        self.config = config
        self.loss_values = loss_values
        self.cap = config.cap
        n = config.n_batches
        self.walks = self.is_mw and n <= _WALK
        if self.is_mw:
            inside = self.binary or (loss_values.min() >= 0.0 and loss_values.max() <= 1.0)
            self.domain_error = None if inside else "an experts run needs every loss in [0, 1]"
        else:
            largest = float(np.linalg.norm(loss_values, axis=1).max())
            inside = largest <= config.lipschitz * (1.0 + LIPSCHITZ_RTOL)
            self.domain_error = None if inside else (
                f"largest gradient norm {largest!r} exceeds the config's "
                f"lipschitz {config.lipschitz!r}"
            )
        dtype = np.min_scalar_type(config.T) if self.binary else np.float64
        # A binary matrix sums to exact counts. Any other's running sum that meets a
        # NaN or an inf, or overflows, stays so to the last row, refused below; one that
        # hits only a column total is a value outside the run's domain. So numpy need
        # not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            self.column_totals = loss_values.sum(axis=0, dtype=np.float64)
            self.loss_sums = cumulative_table(loss_values, config.B, dtype)
        # read as Python numbers: np.isfinite on counts cost ope-b1 0.1 MB of peak RSS
        if not all(map(math.isfinite, self.loss_sums[-1].tolist())):
            raise ValueError("cumulative losses must be finite")
        if not self.is_mw:
            self.comparator_loss = _best_ball_point(self.column_totals, config.radius)[1]
            return
        self.comparator_loss = _best_expert(self.column_totals)[1]
        self.cdf_floors, spread = cdf_floor_table(self.loss_sums, config.eta)
        self._sums = memoryview(self.loss_sums.reshape(-1))
        self._cdf = memoryview(self.cdf_floors.reshape(-1))
        # A batch's log ratio is r[x] - r[y] for r the difference of two
        # rows, so it is at least minus the widest such row's spread;
        # rounding is monotone, so this holds for the computed values too.
        floor = math.exp(min(-self.cap - spread, 0.0))
        self.sure = floor * (1.0 - _FLOOR_RTOL) - _FLOOR_ATOL

    def run(self, rng: np.random.Generator) -> Transcript:
        if self.domain_error:
            raise ConfigError(self.domain_error)
        return self._experts(rng) if self.is_mw else self._ball(rng)

    def _experts(self, rng: np.random.Generator) -> Transcript:
        """An experts run: the keep test of every batch that can fail, in contract order.

        Each draw of the contract is one ``rng.random()`` double, and
        ``rng.random(k)`` yields the same doubles as k scalar calls. A
        run uses ``3n - 1`` of them plus one per resample, and draws no
        others, by the position rule of the module docstring, in the
        form ``walks`` picks. A walked run reads them as one Python list
        and tests every batch. A longer run reads a block of at most
        ``_BLOCK`` at a time, and each pass resumes the block's iterator
        of rare doubles at the first that fails its role (S from
        ``sure`` on, S' and A from ``1 - p`` on): only that double's
        batch is tested, and every batch before it keeps. When the batch
        at the cursor is not all read, or resamples run past the end,
        both kinds read on through :func:`_refill`. At a test the exact
        log ratio is computed only if the S double is at or above
        ``sure``; below it S is 1 for every pair of models. A pick
        bisects one row's span of the flat CDF floor table with the
        integer key ``floor(v * 2**16)``, screened as :meth:`_exact_pick` says.
        """
        n, d = self.loss_sums.shape
        cap, keep_y, sure, m = self.cap, 1.0 - self.config.p, self.sure, -self.config.eta
        sums, cdf, exp, floor, scale = self._sums, self._cdf, math.exp, math.floor, FLOOR_SCALE
        k = d - 1  # floors per row
        need = 3 * n - 1  # batch 1 reads two doubles, later ones three
        if self.walks:  # read inline: on a run of a few batches a call is a visible share
            block, u, start, stop, hits = None, rng.random(need).tolist(), 0, need, None
        else:
            block, u, start, stop, hits = _refill(rng, np.empty(0), None, 0, 0, need, sure, keep_y)
        # a pick bisects a row of CDF floors; see _exact_pick for the screen
        v, w = u[0], u[1]
        key, wkey = floor(v * scale), floor(w * scale)
        x, y = bisect_right(cdf, key, 0, k), bisect_right(cdf, wkey, 0, k)
        if x and key == cdf[x - 1]:
            x = self._exact_pick(0, v)
        if y and wkey == cdf[y - 1]:
            y = self._exact_pick(0, w)
        rows, codes, xs, ys = [], [], [x], [y]
        s, c = 2, 2  # next batch to test, position of its S double
        while s <= n:
            if hits is not None:  # to the first batch from c on that a rare double fails
                for j, v in hits:
                    if j >= c:
                        role = (j - c) % 3  # 0 for S, 1 for S', 2 for A
                        if v >= (keep_y if role else sure):
                            s, c = s + (j - c) // 3, j - role
                            break
                else:  # no batch in the block can fail: to the first it does not hold whole
                    skip = -(-(stop - 2 - c) // 3)  # c is at most stop
                    s, c = s + skip, c + 3 * skip
            if c + 3 > stop:  # the batch's doubles are not all read
                if s <= n:  # from batch s on, three doubles each
                    block, u, start, stop, hits = _refill(
                        rng, block, u, start, c, c + 3 * (n - s + 1), sure, keep_y
                    )
                continue
            i = c - start
            u0 = u[i]
            if u0 < sure:  # below every pair's keep probability
                S = True
            else:
                at_x, at_y = (s - 1) * d + x, (s - 1) * d + y
                lr = (sums[at_x] * m - sums[at_x - d] * m) - (sums[at_y] * m - sums[at_y - d] * m)
                S = lr >= cap or u0 < exp(lr - cap)
            Sp, A = u[i + 1] < keep_y, u[i + 2] < keep_y
            c += 3
            if not (S and Sp and A):
                move_x = not (S and Sp)
                resamples = move_x + (not A)
                if c + resamples > stop:  # to the resamples, then three per later batch
                    block, u, start, stop, hits = _refill(
                        rng, block, u, start, c, c + resamples + 3 * (n - s), sure, keep_y
                    )
                lo = (s - 1) * k
                if move_x:
                    v = u[c - start]
                    key = floor(v * scale)
                    x = bisect_right(cdf, key, lo, lo + k) - lo
                    if x and key == cdf[lo + x - 1]:
                        x = self._exact_pick(s - 1, v)
                    c += 1
                if not A:
                    v = u[c - start]
                    key = floor(v * scale)
                    y = bisect_right(cdf, key, lo, lo + k) - lo
                    if y and key == cdf[lo + y - 1]:
                        y = self._exact_pick(s - 1, v)
                    c += 1
                rows.append(s - 1)
                codes.append(4 * S + 2 * Sp + A)
                xs.append(x)
                ys.append(y)
            s += 1
        return Transcript(self, rows, codes, xs, ys)

    def _exact_pick(self, row: int, v: float) -> int:
        """The expert uniform v picks from the exact CDF of row ``row``, built for this pick.

        The engine's picks bisect a row of CDF floors instead, with the
        integer key ``floor(v * 2**16)``: a floor f is at most
        ``v * 2**16``, which is exact, exactly when it is at most the key.
        Every floor over ``2**16`` is at or below its exact entry, so a
        floor pick counts every entry the exact pick counts, and more
        only if v lies below the exact entry of the last floor f it
        counted. An uncapped floor's entry lies below ``(f + 1) / 2**16``,
        so a key above f counts it exactly; the cap, ``2**16 - 1``, is
        never below a key. So only a key equal to f can pick
        differently, and only then does the engine call this, on a row
        from the floors' own builder: every pick is exact, bit for bit.
        """
        log_weights = np.multiply(self.loss_sums[row], -self.config.eta, dtype=np.float64)
        return bisect_right(_cdf_heads(log_weights).tolist(), v)

    def _ball(self, rng: np.random.Generator) -> Transcript:
        """A ball run, by the per-batch loop.

        The ball sampler draws normals, which cannot be pre-drawn
        bit-identically, so every batch draws its coins in turn.
        """
        n = self.config.n_batches
        cap, keep_y = self.cap, 1.0 - self.config.p
        g, beta = self.loss_sums, self.config.beta
        x = self._ball_sample(1, rng)
        y = self._ball_sample(1, rng)
        rows, codes, xs, ys = [], [], [x], [y]
        for s in range(2, n + 1):
            S, Sp, A = _keep_test(_ball_log_ratio(g, beta, s, x, y), *rng.random(3), cap, keep_y)
            if S and Sp and A:
                continue
            if not (S and Sp):
                x = self._ball_sample(s, rng)
            if not A:
                y = self._ball_sample(s, rng)
            rows.append(s - 1)
            codes.append(4 * S + 2 * Sp + A)
            xs.append(x)
            ys.append(y)
        return Transcript(self, rows, codes, xs, ys)

    def _ball_sample(self, s: int, rng: np.random.Generator) -> np.ndarray:
        """A draw from the batch-s ball measure, built for this one draw."""
        config = self.config
        return RmwMeasure(self.loss_sums[s - 1], config.beta, config.lam, config.radius).sample(rng)


def _best_expert(totals: np.ndarray) -> tuple[int, float]:
    """The expert of least total loss and that loss; ties break toward the lowest index."""
    best = int(np.argmin(totals))
    return best, float(totals[best])


def _best_ball_point(total: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """The point of the radius ball with least linear loss against ``total``: -R G/|G|."""
    norm = float(np.linalg.norm(total))
    if norm == 0.0:
        return np.zeros(total.size), 0.0
    return -radius * total / norm, -radius * norm


def _picks(table: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[i, cols[i]]`` for every row i, by one take from the flat table."""
    n, d = table.shape
    at = np.arange(0, n * d, d)
    at += cols
    return table.ravel().take(at)


def _refill(rng, block, u, start: int, c: int, need: int, sure: float, keep_y: float):
    """The run's doubles from c on, drawn up to ``need``, the count the run is sure to use.

    Returns the block, the doubles the loop indexes, their start and
    stop positions, and the block's rare doubles. A walked run has no
    block (None) and no rare doubles: it extends its list ``u``. A
    screened run keeps the rest of ``block``, which starts at
    ``start``, draws fresh doubles up to ``_BLOCK`` in all, and finds
    the rare ones, at or above the lower of ``sure`` and ``keep_y``, as
    one iterator of (position, value) pairs: a batch can fail only
    through an S double at or above ``sure`` or an S' or A double at or
    above ``keep_y``.
    """
    if block is None:
        u += rng.random(need - start - len(u)).tolist()
        return None, u, start, start + len(u), None
    rest = block[c - start :]
    fresh = rng.random(min(_BLOCK - rest.size, need - start - block.size))
    block = np.concatenate((rest, fresh)) if rest.size else fresh  # a first read copies nothing
    at = np.flatnonzero(block >= min(sure, keep_y))
    return block, memoryview(block), c, c + block.size, zip((at + c).tolist(), block[at].tolist())


def _ball_log_ratio(g: np.ndarray, beta: float, s: int, x: np.ndarray, y: np.ndarray) -> float:
    """The ball's raw log ratio at batch s >= 2 for played model x and reference model y."""
    delta_g = g[s - 1] - g[s - 2]
    return float(-beta * (delta_g @ x)) - float(-beta * (delta_g @ y))


def _keep_test(lr: float, u0, u1, u2, cap: float, keep_y: float) -> tuple[bool, bool, bool]:
    """The coins (S, S', A) of one batch from its log ratio and three uniforms."""
    acc = 1.0 if lr >= cap else math.exp(lr - cap)
    return u0 < acc, u1 < keep_y, u2 < keep_y
