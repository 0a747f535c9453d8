"""Algorithm-vs-adversary games: regret, replicates, baselines.

Regret is always measured against the best fixed decision in hindsight,
which follows from the column totals of the loss matrix. A
:class:`PreparedRun` computes the comparator once per prepared run, at
set-up, so a game costs its engine run and no pass over the stream or
its totals. Replicate ``i`` derives its own generator from
``replicate_seed(base_seed, i)``. Replicates run in order on one
thread, because the engine holds the GIL.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .adversaries import LossStream
from .seeding import replicate_seed
from .transform import L2PConfig, PreparedRun, Transcript
from .transform import _best_ball_point, _best_expert

REP_CSV_COLUMNS = (
    "rep",
    "seed",
    "T",
    "B",
    "eta",
    "p",
    "regret",
    "switches_x",
    "switches_y",
    "total_loss",
    "comparator_loss",
)


@dataclass
class GameResult:
    """One full game: transcript, losses and switch counts; ``regret`` is read off the losses.

    A kept transcript costs O(switches) until its columns are read, and
    it keeps its prepared run alive. ``transcript`` may be dropped
    (None) by replicated drivers that never read it; the switch and
    fake-switch counts survive either way.
    """

    transcript: Transcript | None
    total_loss: float
    comparator_loss: float
    switch_count_x: int
    switch_count_y: int
    seed: int
    fake_switch_count: int = 0

    @property
    def regret(self) -> float:
        return self.total_loss - self.comparator_loss


def best_in_hindsight_ope(stream: LossStream) -> tuple[int, float]:
    """Best fixed expert; ties break toward the lowest index."""
    return _best_expert(stream.values.sum(axis=0))


def best_in_hindsight_oco_ball(stream: LossStream, radius: float) -> tuple[np.ndarray, float]:
    """Best fixed point in the ball for linear losses: -R * G/|G|, loss -R |G|."""
    return _best_ball_point(stream.values.sum(axis=0), radius)


def play_game(
    config: L2PConfig,
    measure_kind: str,
    stream: LossStream,
    seed: int,
    prepared: PreparedRun | None = None,
    keep_transcript: bool = True,
) -> GameResult:
    """One seeded run against a fixed stream, with its regret.

    ``measure_kind`` echoes the config's. A game raises :class:`ConfigError`
    if it differs, or if the losses lie outside the config's domain.
    ``prepared``, when given, must be built from the same config and
    stream; replicated callers pass one to share its tables and
    comparator between games.
    """
    if prepared is None:
        prepared = PreparedRun(config, measure_kind, stream.values)
    transcript = prepared.run(np.random.default_rng(seed))
    switches_x, switches_y, fake = transcript.switch_counts
    return GameResult(
        transcript=transcript if keep_transcript else None,
        total_loss=transcript.total_loss,
        comparator_loss=prepared.comparator_loss,
        switch_count_x=switches_x,
        switch_count_y=switches_y,
        seed=seed,
        fake_switch_count=fake,
    )


def _std(values: np.ndarray) -> float:
    return 0.0 if values.size <= 1 else float(values.std(ddof=1))


@dataclass(frozen=True)
class MonteCarloSummary:
    results: tuple[GameResult, ...]
    mean_regret: float
    std_regret: float
    mean_switches_x: float
    std_switches_x: float
    mean_switches_y: float
    config: L2PConfig

    def rep_rows(self) -> list[list]:
        rows = []
        for i, r in enumerate(self.results):
            rows.append(
                [
                    i,
                    r.seed,
                    self.config.T,
                    self.config.B,
                    repr(self.config.eta),
                    repr(self.config.p),
                    repr(r.regret),
                    r.switch_count_x,
                    r.switch_count_y,
                    repr(r.total_loss),
                    repr(r.comparator_loss),
                ]
            )
        return rows

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REP_CSV_COLUMNS)
        writer.writerows(self.rep_rows())

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_reps": len(self.results),
                "mean_regret": self.mean_regret,
                "std_regret": self.std_regret,
                "mean_switches_x": self.mean_switches_x,
                "std_switches_x": self.std_switches_x,
                "mean_switches_y": self.mean_switches_y,
            },
            sort_keys=True,
        )


def monte_carlo(
    config: L2PConfig, stream: LossStream, n_reps: int, base_seed: int
) -> MonteCarloSummary:
    """Replicated runs on one fixed stream with derived per-rep seeds, transcripts dropped."""
    if n_reps < 1:
        raise ValueError("need at least one replicate")
    kind = config.measure_kind
    prepared = PreparedRun(config, kind, stream.values)
    results = [
        play_game(
            config, kind, stream, replicate_seed(base_seed, i),
            prepared=prepared, keep_transcript=False,
        )
        for i in range(n_reps)
    ]
    regrets = np.array([r.regret for r in results])
    sx = np.array([r.switch_count_x for r in results], dtype=np.float64)
    sy = np.array([r.switch_count_y for r in results], dtype=np.float64)
    return MonteCarloSummary(
        results=tuple(results),
        mean_regret=float(regrets.mean()),
        std_regret=_std(regrets),
        mean_switches_x=float(sx.mean()),
        std_switches_x=_std(sx),
        mean_switches_y=float(sy.mean()),
        config=config,
    )


def strawman_fixed_switch(stream: LossStream, switch_budget: int, seed: int) -> GameResult:
    """Limited-switching baseline: uniform expert, resampled on a fixed schedule.

    Resamples exactly at rounds floor(k T / S) for k = 0..S-1 and plays
    the drawn expert until the next scheduled switch. The simplest
    member of the limited-switching family the epoch stream defeats.
    """
    T, d = stream.T, stream.d
    if not 1 <= switch_budget <= T:
        raise ValueError("switch budget must lie in [1, T]")
    rng = np.random.default_rng(seed)
    switch_rounds = sorted({(k * T) // switch_budget for k in range(switch_budget)})
    total = 0.0
    bounds = switch_rounds + [T]
    for k in range(len(switch_rounds)):
        expert = int(rng.integers(d))
        lo, hi = bounds[k], bounds[k + 1]
        total += float(stream.values[lo:hi, expert].sum())
    _, comp = best_in_hindsight_ope(stream)
    return GameResult(
        transcript=None,
        total_loss=total,
        comparator_loss=comp,
        switch_count_x=len(switch_rounds),
        switch_count_y=0,
        seed=seed,
    )
