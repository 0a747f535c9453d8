"""Empirical checks of the distributional and privacy claims, at toy scale.

Each audit compares a Monte-Carlo statistic of real engine runs against
the theoretical bound plus an explicitly separated sampling slack, and
reports both numbers so "claim violated" and "not enough samples" stay
distinguishable. Each plays one :class:`PreparedRun` per stream, and the
marginal audit reads its exact oracle off that run's cumulative table.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .accountant import config_budget
from .adversaries import LossStream
from .measures import normalized
from .seeding import replicate_seed
from .transform import L2PConfig, PreparedRun, Transcript, _ball_log_ratio, _picks

_MIN_BUCKET = 100
_WILSON_Z = 2.0


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: pass iff statistic <= threshold."""

    name: str
    n_samples: int
    statistic: float
    threshold: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.threshold)

    def to_json_line(self) -> str:
        """The report as one line of strict JSON: a non-finite statistic or threshold is null."""
        return json.dumps(
            {
                "name": self.name,
                "n_samples": self.n_samples,
                "statistic": _finite_or_none(self.statistic),
                "threshold": _finite_or_none(self.threshold),
                "passed": self.passed,
                "notes": list(self.notes),
            },
            sort_keys=True,
            allow_nan=False,
        )


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _report(name, n, stat, thr, notes=()) -> AuditReport:
    return AuditReport(name, n, float(stat), float(thr), tuple(notes))


def _prepared(config: L2PConfig, stream: LossStream) -> PreparedRun:
    return PreparedRun(config, config.measure_kind, stream.values)


def _run_many(prepared: PreparedRun, n_runs: int, base_seed: int):
    for i in range(n_runs):
        yield prepared.run(np.random.default_rng(replicate_seed(base_seed, i)))


def exact_batch_distributions(prepared: PreparedRun) -> np.ndarray:
    """Oracle: the exact normalized expert distribution at each batch start.

    Row ``s - 1`` normalizes the batch-s log-weights, ``-eta`` times the
    run's cumulative losses, formed in float64 as the engine forms them.
    """
    return normalized(np.multiply(prepared.loss_sums, -prepared.config.eta, dtype=np.float64))


def marginal_tv_profile(
    config: L2PConfig, stream: LossStream, n_runs: int, base_seed: int = 0
) -> list[AuditReport]:
    """TV distance between the empirical law of each batch's model and the oracle.

    One report per batch index s, named ``marginal_tv[s=<s>]``. Each run
    contributes one model per batch, so a single fleet of ``n_runs``
    runs measures all marginals at once. With zero measure slack the
    played model's marginal is exactly the current normalized measure,
    so the whole allowance is Monte-Carlo slack 3*sqrt(d/n_runs).
    """
    if config.delta0 != 0.0:
        raise ValueError("marginal audit needs the expert instantiation with delta0=0")
    if stream.d > 8 or config.n_batches > 10:
        raise ValueError("marginal audit is exact-oracle only: d <= 8 and s <= 10")
    if n_runs < 10_000:
        raise ValueError("need at least 1e4 runs for a meaningful TV estimate")
    prepared = _prepared(config, stream)
    counts = _marginal_counts(prepared, n_runs, base_seed)
    exact = exact_batch_distributions(prepared)
    slack = 3.0 * math.sqrt(stream.d / n_runs)
    reports = []
    for s in range(1, config.n_batches + 1):
        tv = 0.5 * float(np.abs(counts[s - 1] / n_runs - exact[s - 1]).sum())
        reports.append(
            _report(
                f"marginal_tv[s={s}]",
                n_runs,
                tv,
                slack,
                (f"claim bound 0 (delta0=0), monte-carlo slack {slack:.4g}",),
            )
        )
    return reports


def _marginal_counts(prepared: PreparedRun, n_runs: int, base_seed: int) -> np.ndarray:
    """How many of the runs play expert x at batch s, as ``counts[s - 1, x]``.

    Counted from each run's switch events: its k-th model pair is in
    force from batch ``rows[k - 1] + 1`` (batch 1 for k = 0) up to the
    next event, so the per-batch model column is never built.
    """
    n, d = prepared.loss_sums.shape
    counts = [0] * (n * d)
    for transcript in _run_many(prepared, n_runs, base_seed):
        since = 0
        for x, until in zip(transcript.event_xs, [*transcript.rows, n]):
            for i in range(since * d + x, until * d, d):
                counts[i] += 1
            since = until
    return np.array(counts, dtype=np.float64).reshape(n, d)


def ratio_range_check(
    config: L2PConfig, stream: LossStream, n_runs: int, base_seed: int = 0
) -> AuditReport:
    """Fraction of raw correlated-sampling ratios outside [e^{-2B eta}, e^{2B eta}].

    A ratio is drawn at each batch after the first, so a one-batch
    config, which has none to check, is refused. Each run's ratios are
    formed from its switch events by :func:`_raw_log_ratios`.
    """
    if n_runs < 1:
        raise ValueError("ratio audit needs at least 1 run")
    if config.n_batches < 2:
        raise ValueError("ratio audit needs at least two batches")
    cap = config.cap
    outside = 0
    total = 0
    for transcript in _run_many(_prepared(config, stream), n_runs, base_seed):
        lr = _raw_log_ratios(transcript)
        total += lr.size
        outside += int(np.count_nonzero(np.abs(lr) > cap + 1e-12))
    frac = outside / max(total, 1)
    slack = 3.0 * math.sqrt(config.B / (config.T * n_runs))
    return _report(
        "ratio_range",
        total,
        frac,
        config.delta1 + slack,
        (f"claim bound {config.delta1:g}, monte-carlo slack {slack:.4g}",),
    )


def _raw_log_ratios(transcript: Transcript) -> np.ndarray:
    """The log ratio of every batch s >= 2 before the acceptance cap, as the keep test forms it.

    Batch s tests the models in force over batch s - 1, read off the
    switch events, on rows s - 1 and s - 2 of the run's cumulative
    table. An experts entry is ``(lw[s-1, x] - lw[s-2, x]) - (lw[s-1, y]
    - lw[s-2, y])`` with each log-weight ``lw = loss_sums * -eta`` formed
    in float64 as the engine forms it, so the values are the engine's
    bit for bit; a ball entry is the engine's own :func:`_ball_log_ratio`.
    """
    prepared = transcript.prepared
    sums, n = prepared.loss_sums, transcript.n_batches
    spans = np.diff([0, *transcript.rows, n - 1])  # of batches 1 to n - 1, per model pair
    if not prepared.is_mw:
        pairs = zip(transcript.event_xs, transcript.event_ys, spans.tolist())
        models = [(x, y) for x, y, span in pairs for _ in range(span)]
        beta = prepared.config.beta
        return np.array([_ball_log_ratio(sums, beta, s, x, y) for s, (x, y) in enumerate(models, 2)])
    xs, ys = np.repeat(transcript.event_xs, spans), np.repeat(transcript.event_ys, spans)
    m = -prepared.config.eta
    gathers = ((rows, cols) for cols in (xs, ys) for rows in (sums[1:], sums[:-1]))
    x1, x0, y1, y0 = (np.multiply(_picks(*g), m, dtype=np.float64) for g in gathers)
    return (x1 - x0) - (y1 - y0)


def _bucket(transcript: Transcript):
    """A run's (switch pattern, final model): the batches s >= 2 that switched x, and x_n.

    Read off the switch events: x switches at an event unless both S and
    S' are 1, i.e. unless its code 4 S + 2 S' + A is at least 6.
    """
    pattern = [0] * (transcript.n_batches - 1)
    for row, code in zip(transcript.rows, transcript.codes):
        if code < 6:
            pattern[row - 1] = 1
    return tuple(pattern), int(transcript.event_xs[-1])


def _wilson(count: int, n: int) -> float:
    z2 = _WILSON_Z * _WILSON_Z
    return (count + z2 / 2.0) / (n + z2)


def empirical_epsilon(
    config: L2PConfig,
    stream: LossStream,
    neighbor: LossStream,
    n_runs: int,
    base_seed: int = 0,
) -> AuditReport:
    """Transcript-bucketing lower-bound estimate of the realized epsilon.

    Buckets each run by (switch pattern, final model), shrinks the two
    empirical bucket masses toward 1/2 a la Wilson, and takes the worst
    absolute log-ratio over buckets seen at least ``_MIN_BUCKET`` (100) times.
    Passes when the estimate stays under the accountant's epsilon plus
    three combined standard errors. Raw ratios on rare buckets explode,
    hence the count filter; an empty filter yields an inconclusive pass.
    Fewer than ``_MIN_BUCKET`` runs per stream are refused: no bucket
    could reach the filter. The two streams must differ in at most one round.
    """
    if n_runs < _MIN_BUCKET:
        raise ValueError(f"bucketing audit needs at least {_MIN_BUCKET} runs per stream")
    if stream.d != 2 or config.T > 20 or config.B > 2:
        raise ValueError("bucketing audit needs d=2, T <= 20, B <= 2")
    if stream.T != neighbor.T or stream.d != neighbor.d:
        raise ValueError("neighbor stream has mismatched shape")
    if np.count_nonzero((stream.values != neighbor.values).any(axis=1)) > 1:
        raise ValueError("neighbor stream differs in more than one round")
    counts_a = Counter(map(_bucket, _run_many(_prepared(config, stream), n_runs, base_seed)))
    counts_b = Counter(map(_bucket, _run_many(_prepared(config, neighbor), n_runs, base_seed + 1)))
    eps_budget = config_budget(config).epsilon
    best = 0.0
    best_se = 0.0
    qualifying = 0
    for key in set(counts_a) | set(counts_b):
        ca, cb = counts_a.get(key, 0), counts_b.get(key, 0)
        if max(ca, cb) < _MIN_BUCKET:
            continue
        qualifying += 1
        pa, pb = _wilson(ca, n_runs), _wilson(cb, n_runs)
        stat = abs(math.log(pa / pb))
        if stat > best:
            best = stat
            best_se = math.sqrt(
                (1.0 - pa) / (n_runs * pa) + (1.0 - pb) / (n_runs * pb)
            )
    notes = [f"accountant epsilon {eps_budget:.4g}", f"{qualifying} buckets past filter"]
    if qualifying == 0:
        notes.append("inconclusive: no bucket reached the count filter")
    return _report(
        "empirical_epsilon", 2 * n_runs, best, eps_budget + 3.0 * best_se, notes
    )


def switch_statistics(
    config: L2PConfig, stream: LossStream, n_runs: int, base_seed: int = 0
) -> AuditReport:
    """Fraction of ``n_runs`` runs whose fake-switch count exceeds 2 T p log(1/delta1) / B.

    The engine's analysis gives each run probability at most delta1 of
    exceeding the bound; the threshold adds binomial slack plus a 3/n
    allowance so that a handful of unlucky runs in a small sample does
    not flip the audit. Each run's fake switches are counted off its
    transcript's switch events, so a ball config is audited on its own
    measure and no run gathers its played losses.
    """
    if n_runs < 100:
        raise ValueError("need at least 100 runs from an identical config")
    bound = 2.0 * config.T * config.p * math.log(1.0 / config.delta1) / config.B
    runs = _run_many(_prepared(config, stream), n_runs, base_seed)
    exceed = sum(1 for t in runs if t.fake_switch_count > bound)
    frac = exceed / n_runs
    d1 = config.delta1
    slack = 3.0 * math.sqrt(d1 * (1.0 - d1) / n_runs) + 3.0 / n_runs
    return _report(
        "switch_statistics",
        n_runs,
        frac,
        d1 + slack,
        (f"bound {bound:.4g} fake switches per run",),
    )
