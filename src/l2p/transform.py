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

A :class:`PreparedRun` is built from the measure kind (``"mw"`` for
experts, ``"rmw"`` for the ball) and the loss matrix alone: the
measure of every batch is a row of one cumulative table, so set-up
makes no per-batch objects. The ball sampler is built only for the
batch that resamples.

Randomness contract (frozen for reproducibility): at each batch s >= 2
the engine consumes three uniforms, in the order S, S', A, then at most
one resample draw for the played chain followed by at most one for the
reference chain. Identical seed, config and losses give bit-identical
transcripts.

The experts path does Python work per switch, not per batch. Each of
its draws is one ``rng.random()`` double, so a run's doubles are drawn
ahead in blocks and read in contract order. Every batch takes three and
every resample one more, so the engine draws ahead only doubles the run
is sure to use. Between switches x and y are fixed, and the keep tests
of a stretch of batches are evaluated at once over the pre-drawn
doubles; only the batches around a switch are tested one at a time. The
S, S', A, x-resample, y-resample order, the transcripts and the
generator's end state are those of a batch-by-batch loop. Ball runs
keep that loop: their sampler draws normals, which cannot be pre-drawn
bit-identically.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .measures import ETA_MAX, RmwMeasure, cumulative_table, mw_log_weights, normalized

# The experts engine tests batches one at a time, reading _CHUNK of them
# per numpy call, until _PROBE keep in a row (events come densely in
# short, high-p runs); it then searches vector windows for the next
# event, of _WINDOW batches first and each twice the one before, up to
# _WINDOW_MAX. Uniforms are drawn _BLOCK at a time, so a run's memory
# does not grow with its length.
_PROBE = 8
_CHUNK = 16
_WINDOW = 64
_WINDOW_MAX = 2048
_BLOCK = 3 * _WINDOW_MAX
# A window's S uniform within this much of its np.exp acceptance is
# re-decided by the scalar formula; the absolute term also sends every
# subnormal acceptance there.
_BOUNDARY_RTOL = 1e-12
_BOUNDARY_ATOL = 1e-300
# A batch's coins coded as 4 S + 2 S' + A index these tables of its
# (S, S', A) row and its (switched_x, switched_y) bits; _KEEP is the
# all-keep code and _FIRST marks batch 1, which has no coins.
_KEEP, _FIRST = 7, 8
_CODE_COINS = np.array(
    [(S, Sp, A) for S in (0, 1) for Sp in (0, 1) for A in (0, 1)] + [(-1, -1, -1)],
    dtype=np.int8,
)
_CODE_SWITCHED = np.array(
    [(1 - (S & Sp), 1 - A) for S, Sp, A in _CODE_COINS[:_FIRST]] + [(0, 0)],
    dtype=np.int8,
)


class ConfigError(ValueError):
    """Configuration violates a hard constraint; the run cannot start."""


@dataclass(frozen=True)
class ConfigReport:
    """Validation outcome: hard errors stop a run, warnings only mark it."""

    hard_errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.hard_errors

    @property
    def preconditions_met(self) -> bool:
        return not self.hard_errors and not self.warnings


@dataclass(frozen=True)
class L2PConfig:
    """All tuned parameters of one run.

    ``eta`` is the nominal divergence step; for the ball instantiation
    ``eta_accounted`` carries the (larger) divergence bound the measure
    actually satisfies, and both the engine's acceptance cap and the
    accountant use it when present. ``beta``, ``lam``, ``radius`` and
    ``lipschitz`` are only set for ball (OCO) runs.
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
    eta_accounted: float | None = None

    @property
    def n_batches(self) -> int:
        return -(-self.T // self.B)

    @property
    def eta_effective(self) -> float:
        return self.eta if self.eta_accounted is None else self.eta_accounted

    @cached_property
    def report(self) -> ConfigReport:
        hard: list[str] = []
        soft: list[str] = []
        if self.T < 1:
            hard.append("T must be a positive integer")
        if self.B < 1:
            hard.append("B must be a positive integer")
        if not 0.0 < self.eta <= ETA_MAX:
            hard.append(f"eta must lie in (0, {ETA_MAX}]")
        if not 0.0 <= self.p <= 1.0:
            hard.append("p must lie in [0, 1]")
        if self.delta0 < 0.0:
            hard.append("delta0 must be nonnegative")
        if not 0.0 < self.delta1 < 1.0:
            hard.append("delta1 must lie in (0, 1)")
        oco_fields = (self.beta, self.lam, self.radius, self.lipschitz)
        if any(v is not None for v in oco_fields):
            if any(v is None or v <= 0.0 for v in oco_fields):
                hard.append("ball runs need beta, lam, radius and lipschitz, all positive")
            elif self.eta_accounted is None:
                hard.append("ball runs need eta_accounted, the divergence bound of their measure")
        if hard:
            return ConfigReport(tuple(hard), ())
        if self.T * self.p / self.B < 1.0:
            soft.append("switch-rate precondition T*p/B >= 1 not met")
        log_term = math.log(1.0 / self.delta1)
        eta_eff = self.eta_effective
        if self.p == 0.0 or eta_eff * self.B * log_term / max(self.p, 1e-300) > 1.0:
            soft.append("ratio-concentration precondition eta*B*log(1/delta1)/p <= 1 not met")
        if eta_eff > ETA_MAX:
            soft.append("accounted eta exceeds the divergence cap; budget is nominal only")
        if self.p in (0.0, 1.0):
            soft.append(f"degenerate fake-switch probability p={self.p:g}; run is not private")
        return ConfigReport((), tuple(soft))

    def validate(self) -> ConfigReport:
        return self.report


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One batch of the released transcript. Coins are None for s=1."""

    s: int
    x: int | np.ndarray
    S: int | None
    Sprime: int | None
    A: int | None
    switched_x: int
    switched_y: int
    batch_loss: float


# CSV column order is part of the file contract; never reorder.
CSV_COLUMNS = ("s", "x", "S", "Sprime", "A", "switched_x", "switched_y", "batch_loss")


def _format_model(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return ",".join(repr(float(v)) for v in np.asarray(x).ravel())


@dataclass(frozen=True, eq=False)
class Transcript:
    """Released record of one run plus in-memory diagnostics.

    Column storage: ``models[s-1]`` is the played model of batch s,
    ``coins`` holds (S, S', A) per batch with -1 sentinels in batch 1,
    and ``switched`` holds the (switched_x, switched_y) bits. The three
    counts are taken from the run's switch events: batches that switched
    x, batches that switched y, and batches with a data-free refresh on
    either chain (S'=0 or A=0). ``ys``
    and ``raw_log_ratios`` (the log correlated-sampling ratio before
    the acceptance cap, one entry per batch s >= 2) are diagnostics for
    audits and are never serialized.
    """

    models: tuple
    coins: np.ndarray
    switched: np.ndarray
    batch_losses: np.ndarray
    round_losses: np.ndarray
    switch_count_x: int
    switch_count_y: int
    fake_switch_count: int
    ys: tuple = field(default=(), repr=False)
    raw_log_ratios: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_batches(self) -> int:
        return len(self.models)

    @cached_property
    def records(self) -> tuple[BatchRecord, ...]:
        out = []
        for i, x in enumerate(self.models):
            S, Sp, A = (None, None, None) if i == 0 else map(int, self.coins[i])
            out.append(
                BatchRecord(
                    i + 1,
                    x,
                    S,
                    Sp,
                    A,
                    int(self.switched[i, 0]),
                    int(self.switched[i, 1]),
                    float(self.batch_losses[i]),
                )
            )
        return tuple(out)

    @property
    def total_loss(self) -> float:
        return float(self.round_losses.sum())

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for i, x in enumerate(self.models):
            coins = ["", "", ""] if i == 0 else [int(v) for v in self.coins[i]]
            writer.writerow(
                [i + 1, _format_model(x)]
                + coins
                + [
                    int(self.switched[i, 0]),
                    int(self.switched[i, 1]),
                    repr(float(self.batch_losses[i])),
                ]
            )


class PreparedRun:
    """One (config, measure kind, loss matrix) triple, precomputed once and run many times.

    ``kind`` is ``"mw"`` (experts; ``loss_values`` holds losses in
    [0, 1]) or ``"rmw"`` (the ball; ``loss_values`` holds gradients, and
    the config carries beta, lam and radius). Every data-dependent
    table is a function of the losses alone, so replicates share them;
    only the coin and resample draws differ between runs. Experts runs
    keep the log-weights and sampling CDFs of every batch, ball runs
    the gradient sums; both keep the per-batch loss sums and the
    column totals of the loss matrix, from which the comparator follows.
    The acceptance cap always uses the full ``2 B eta`` exponent, also on
    a short final batch.
    """

    def __init__(self, config: L2PConfig, kind: str, loss_values: np.ndarray):
        report = config.report
        if not report.ok:
            raise ConfigError("; ".join(report.hard_errors))
        if kind not in ("mw", "rmw"):
            raise ValueError(f"unknown measure kind {kind!r}")
        loss_values = np.asarray(loss_values, dtype=np.float64)
        if loss_values.ndim != 2 or loss_values.shape[0] != config.T:
            raise ValueError("loss matrix must have T rows of one loss each")
        self.config = config
        self.loss_values = loss_values
        self.is_mw = kind == "mw"
        starts = np.arange(config.n_batches) * config.B
        self.batch_sums = np.add.reduceat(loss_values, starts, axis=0)
        self.column_totals = loss_values.sum(axis=0)
        if self.is_mw:
            self.log_weights = mw_log_weights(loss_values, config.eta, config.B)
            cdfs = np.cumsum(normalized(self.log_weights), axis=1)
            cdfs[:, -1] = 1.0  # guard against cumulative round-off at the top
            self.cdfs = cdfs
        else:
            if config.beta is None:
                raise ValueError("ball runs need beta/lam/radius on the config")
            self.grad_sums = cumulative_table(loss_values, config.B)
            self.beta = config.beta

    def run(self, rng: np.random.Generator) -> Transcript:
        events = self._mw_events(rng) if self.is_mw else self._ball_events(rng)
        return self._assemble(events)

    def _pick(self, s: int, v: float) -> int:
        """The expert that uniform ``v`` selects from the normalized batch-s measure.

        A CDF row is finite, nondecreasing up to its last entry and ends
        at 1.0 > v, so ``v < cdf[i]`` is monotone in i and bisection finds
        what ``searchsorted(side="right")`` finds, an index below d.
        """
        return bisect_right(self.cdfs[s - 1], v)

    def _mw_events(self, rng: np.random.Generator) -> _Events:
        """Switch events of one experts run, found over pre-drawn doubles.

        Each draw of the contract is one ``rng.random()`` double, and
        ``rng.random(k)`` yields the same doubles as k scalar calls. A
        run uses ``3n - 1`` of them plus one per resample, so they are
        drawn ahead in blocks, never past what the run is sure to use,
        and read with a cursor. Between events x and y are fixed, so the
        batches are tested one at a time until ``_PROBE`` keep in a row,
        and from there in doubling vector windows up to the next event.
        """
        config = self.config
        n = config.n_batches
        cap = 2.0 * config.B * config.eta_effective
        keep_y = 1.0 - config.p
        lw = self.log_weights
        u = _Uniforms(rng, 3 * n - 1)

        v0, v1 = u.span(0, 2).tolist()
        row = self.cdfs[0].tolist()  # as in _pick, for both batch-1 draws
        x, y = bisect_right(row, v0), bisect_right(row, v1)
        events = _Events(x, y, n)
        raw = events.raw_log_ratios
        s, c = 2, 2  # next batch to test, cursor of its S uniform in u
        quiet = 0  # batches kept in a row
        while s <= n:
            if quiet < _PROBE:
                stop = min(s + _CHUNK, n + 1)
                first, base = s, c
                draws = u.span(c, 3 * (stop - s)).tolist()
                cx = lw[s - 2 : stop - 1, x].tolist()
                cy = lw[s - 2 : stop - 1, y].tolist()
                ratios: list[float] = []
                while s < stop and quiet < _PROBE:
                    j, i = s - first, c - base
                    if i + 3 > len(draws):  # resamples pushed the coins past the list
                        u.extend(draws, base, i + 3 * (stop - s))
                    lr = (cx[j + 1] - cx[j]) - (cy[j + 1] - cy[j])
                    ratios.append(lr)
                    S, Sp, A = _keep_test(lr, draws[i], draws[i + 1], draws[i + 2], cap, keep_y)
                    c += 3
                    if S and Sp and A:
                        quiet += 1
                    else:
                        quiet = 0
                        resamples = (not (S and Sp)) + (not A)
                        u.owed += resamples
                        if c - base + resamples > len(draws):
                            u.extend(draws, base, c - base + resamples)
                        if not (S and Sp):
                            x = self._pick(s, draws[c - base])
                            cx = lw[first - 2 : stop - 1, x].tolist()
                            c += 1
                        if not A:
                            y = self._pick(s, draws[c - base])
                            cy = lw[first - 2 : stop - 1, y].tolist()
                            c += 1
                        events.add(s, S, Sp, A, x, y)
                    s += 1
                raw[first - 2 : s - 2] = ratios
                continue
            start, width = s, _WINDOW
            while start <= n:
                end = min(start + width, n + 1)
                cx = lw[start - 2 : end - 1, x]
                cy = lw[start - 2 : end - 1, y]
                lr = (cx[1:] - cx[:-1]) - (cy[1:] - cy[:-1])
                at = c + 3 * (start - s)
                kept = _kept_prefix(lr, u.span(at, 3 * (end - start)), cap, keep_y)
                raw[start - 2 : start - 2 + kept] = lr[:kept]
                start += kept
                if start < end:
                    break
                width = min(2 * width, _WINDOW_MAX)
            c += 3 * (start - s)
            s, quiet = start, 0
        return events

    def _ball_events(self, rng: np.random.Generator) -> _Events:
        """Switch events of one ball run, by the per-batch loop.

        The ball sampler draws normals, which cannot be pre-drawn
        bit-identically, so every batch draws its coins in turn.
        """
        config = self.config
        n = config.n_batches
        cap = 2.0 * config.B * config.eta_effective
        keep_y = 1.0 - config.p
        g, beta = self.grad_sums, self.beta
        x = self._ball_sample(1, rng)
        y = self._ball_sample(1, rng)
        events = _Events(x, y, n)
        for s in range(2, n + 1):
            delta_g = g[s - 1] - g[s - 2]
            lr = float(-beta * (delta_g @ x)) - float(-beta * (delta_g @ y))
            events.raw_log_ratios[s - 2] = lr
            S, Sp, A = _keep_test(lr, *rng.random(3), cap, keep_y)
            if S and Sp and A:
                continue
            if not (S and Sp):
                x = self._ball_sample(s, rng)
            if not A:
                y = self._ball_sample(s, rng)
            events.add(s, S, Sp, A, x, y)
        return events

    def _ball_sample(self, s: int, rng: np.random.Generator) -> np.ndarray:
        """A draw from the batch-s ball measure, built for this one draw."""
        config = self.config
        return RmwMeasure(self.grad_sums[s - 1], self.beta, config.lam, config.radius).sample(rng)

    def _assemble(self, events: _Events) -> Transcript:
        """The transcript of one run from its switch events; every other batch keeps."""
        T, B, n = self.config.T, self.config.B, self.config.n_batches
        bounds = [0, *events.rows, n]
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]

        if self.is_mw:
            xs, ys = np.array((events.xs, events.ys)).repeat(lengths, axis=1)
            batch_losses = self.batch_sums[np.arange(n), xs]
            if B == 1:  # each batch sum is then its one round's loss, bit for bit
                round_losses = batch_losses.copy()
            else:
                round_losses = self.loss_values[np.arange(T), xs.repeat(B)[:T]]
            models, ys = tuple(xs.tolist()), tuple(ys.tolist())
        else:
            models = tuple(chain.from_iterable(map(repeat, events.xs, lengths)))
            ys = tuple(chain.from_iterable(map(repeat, events.ys, lengths)))
            round_losses = np.empty(T)
            batch_losses = np.empty(n)
            for s, x in enumerate(models):
                round_losses[s * B : (s + 1) * B] = self.loss_values[s * B : (s + 1) * B] @ x
                batch_losses[s] = self.batch_sums[s] @ x

        return Transcript(
            models,
            _CODE_COINS.take(events.codes, axis=0),
            _CODE_SWITCHED.take(events.codes, axis=0),
            batch_losses,
            round_losses,
            events.switches_x,
            events.switches_y,
            events.fakes,
            ys,
            events.raw_log_ratios,
        )


class _Uniforms:
    """A run's uniforms in contract order, drawn from its generator in blocks.

    ``span(c, k)`` returns uniforms c to c + k - 1 of the run. Calls
    never ask for an earlier c than before, so a block keeps only what
    lies at or past the last c. Only uniforms the run is sure to use are
    drawn: ``owed`` counts those not drawn yet, the caller adds one per
    resample, and a run that ends has drawn exactly what it used.
    """

    __slots__ = ("rng", "owed", "block", "start")

    def __init__(self, rng: np.random.Generator, owed: int):
        first = min(owed, _BLOCK)
        self.rng, self.owed = rng, owed - first
        self.block, self.start = rng.random(first), 0

    def span(self, c: int, k: int) -> np.ndarray:
        lo, hi = c - self.start, c + k - self.start
        if hi > self.block.size:
            more = min(max(hi - self.block.size, _BLOCK), self.owed)
            self.owed -= more
            fresh = self.rng.random(more)
            if lo < self.block.size:
                fresh = np.concatenate((self.block[lo:], fresh))
            self.block, self.start, lo, hi = fresh, c, 0, k
        return self.block[lo:hi]

    def extend(self, draws: list, base: int, k: int) -> None:
        """Extend ``draws``, the uniforms from ``base`` on, to k of them."""
        draws += self.span(base + len(draws), k - len(draws)).tolist()


class _Events:
    """The switch events of one run, in batch order, and its per-batch columns.

    Event k happens at 0-based batch ``rows[k]``; the models ``xs[k + 1]``,
    ``ys[k + 1]`` are in force from it on, and ``xs[0]``, ``ys[0]`` are the
    batch-1 draws. ``codes[s - 1]`` is batch s's coins coded as
    ``4 S + 2 S' + A`` (``_KEEP`` unless an event set it), and
    ``raw_log_ratios[s - 2]`` is filled in for every batch s >= 2. The
    counts tally the events that switch x, that switch y, and that
    refresh a chain by the data-free coins (S'=0 or A=0).
    """

    __slots__ = (
        "rows", "xs", "ys", "codes", "raw_log_ratios", "switches_x", "switches_y", "fakes"
    )

    def __init__(self, x, y, n_batches: int):
        self.rows: list[int] = []
        self.xs, self.ys = [x], [y]
        self.codes = np.full(n_batches, _KEEP, dtype=np.int8)
        self.codes[0] = _FIRST
        self.raw_log_ratios = np.empty(n_batches - 1)
        self.switches_x = self.switches_y = self.fakes = 0

    def add(self, s: int, S: bool, Sp: bool, A: bool, x, y) -> None:
        self.rows.append(s - 1)
        self.codes[s - 1] = 4 * S + 2 * Sp + A
        self.xs.append(x)
        self.ys.append(y)
        self.switches_x += not (S and Sp)
        self.switches_y += not A
        self.fakes += not (Sp and A)


def _keep_test(lr: float, u0, u1, u2, cap: float, keep_y: float) -> tuple[bool, bool, bool]:
    """The coins (S, S', A) of one batch from its log ratio and three uniforms."""
    acc = 1.0 if lr >= cap else math.exp(lr - cap)
    return u0 < acc, u1 < keep_y, u2 < keep_y


def _kept_prefix(lr: np.ndarray, draws: np.ndarray, cap: float, keep_y: float) -> int:
    """How many leading batches of a window pass their keep test.

    ``lr`` holds the window's raw log ratios and ``draws`` three
    uniforms per batch. ``np.exp`` may differ from ``math.exp`` by one
    ulp, so the vector test only rules batches in: a batch whose S
    uniform lies within ``_BOUNDARY_RTOL`` of the vector acceptance is
    re-decided by :func:`_keep_test`, like every batch it rules out.
    """
    bound = np.exp(np.minimum(lr - cap, 0.0))
    bound *= 1.0 - _BOUNDARY_RTOL
    bound -= _BOUNDARY_ATOL
    triples = draws.reshape(-1, 3)
    sure = triples[:, 0] < bound
    sure &= np.maximum(triples[:, 1], triples[:, 2]) < keep_y
    start = 0
    while start < sure.size:
        i = start + int(sure[start:].argmin())
        if sure[i]:
            break
        if not all(_keep_test(float(lr[i]), *triples[i].tolist(), cap, keep_y)):
            return i
        start = i + 1
    return sure.size
