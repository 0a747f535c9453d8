"""In-memory spans around calls into l2p, recorded from outside the library.

The benchmark edits nothing under ``src/``. Tracing replaces each
traced name where the library looks it up (every ``l2p`` module
attribute bound to the function, or the class attribute for methods)
with a wrapper that records one span per call: name, start, end and
the span that was open when it began. Spans stay in memory and are
written out once, when the benchmark ends. A name the library no
longer has is skipped and listed, so the metrics built on it read as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

# (span name, module, attribute path). Spans are named after the layer
# (module) whose code they time. Generator construction is numpy's, but
# the library calls it once per run, so it is timed under ``seeding``.
TARGETS = (
    ("cli.main", "l2p.cli", "main"),
    ("adversaries.bernoulli_experts", "l2p.adversaries", "bernoulli_experts"),
    ("adversaries.neighbor_of", "l2p.adversaries", "neighbor_of"),
    ("accountant.tune_ope", "l2p.accountant", "tune_ope"),
    ("accountant.config_budget", "l2p.accountant", "config_budget"),
    ("harness.measure_sequence", "l2p.harness", "measure_sequence"),
    ("harness.monte_carlo", "l2p.harness", "monte_carlo"),
    ("harness.play_game", "l2p.harness", "play_game"),
    ("harness.best_in_hindsight_ope", "l2p.harness", "best_in_hindsight_ope"),
    ("transform.PreparedRun.__init__", "l2p.transform", "PreparedRun.__init__"),
    ("transform.PreparedRun.run", "l2p.transform", "PreparedRun.run"),
    ("seeding.replicate_seed", "l2p.seeding", "replicate_seed"),
    ("seeding.default_rng", "numpy.random", "default_rng"),
    ("audit.marginal_tv_profile", "l2p.audit", "marginal_tv_profile"),
    ("audit.empirical_epsilon", "l2p.audit", "empirical_epsilon"),
)

RUN_SPAN = "transform.PreparedRun.run"


class Tracer:
    """Spans as four parallel lists, plus run counts taken from transcripts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.missing: list[str] = []
        # (span index, batches or None) per engine run, and the transcripts kept
        # while ``keep_transcripts`` is set, for switch counts taken later
        # so that counting costs no time inside a span.
        self.runs: list[tuple[int, int]] = []
        self.keep_transcripts = False
        self.transcripts: list = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if on_result is not None:
                on_result(i, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        undo = []
        try:
            for name, module, path in TARGETS:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                hook = self._count_run if name == RUN_SPAN else None
                wrapper = self.wrap(name, original, hook)
                for holder in _holders(owner, attr, original, "." in path):
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def _count_run(self, span: int, transcript) -> None:
        self.runs.append((span, getattr(transcript, "n_batches", None)))
        if self.keep_transcripts:
            self.transcripts.append(transcript)

    def write_csv(self, fh) -> None:
        fh.write("id,name,start,end,parent\n")
        for i, name in enumerate(self.names):
            fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time the span's direct children cover."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [
            self.ends[i] - self.starts[i] - child[i]
            for i, n in enumerate(self.names)
            if n == name
        ]

    def descendants(self, roots: tuple[str, ...], name: str) -> list[float]:
        """Durations of the ``name`` spans that ran inside any span named in ``roots``."""
        under = [False] * len(self.names)
        out = []
        for i, parent in enumerate(self.parents):
            under[i] = parent >= 0 and (under[parent] or self.names[parent] in roots)
            if under[i] and self.names[i] == name:
                out.append(self.ends[i] - self.starts[i])
        return out


def _resolve(module: str, path: str):
    """Owner object and attribute name for ``module``/``path``; owner None if gone."""
    owner = sys.modules.get(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


def _holders(owner, attr, original, is_method):
    """Every object whose ``attr`` is the original: its module and each importer."""
    if is_method:
        return [owner]
    holders = [owner]
    for name, mod in list(sys.modules.items()):
        if (name == "l2p" or name.startswith("l2p.")) and mod is not owner:
            if getattr(mod, attr, None) is original:
                holders.append(mod)
    return holders


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _mean_count(transcripts, attr: str):
    """Mean of a per-run count over the kept transcripts; None if any lacks it."""
    values = [getattr(t, attr, None) for t in transcripts]
    if not values or None in values:
        return None
    return statistics.fmean(values)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans; None marks a layer the run never reached.

    Switch counts are means over ``tracer.transcripts``, the runs of one
    workload command, which repeat exactly for a fixed seed.
    ``audit.self_us_per_run`` is the audits' time outside the engine
    runs they make, per run: generator construction, seeding and
    bucketing, plus the traced seeding wrappers' own overhead. Building
    a run's transcript happens inside the engine run, so it counts in
    ``transform.run_ms``.
    """
    runs = [(tracer.ends[i] - tracer.starts[i], b) for i, b in tracer.runs]
    kept = tracer.transcripts
    switches_x = _mean_count(kept, "switch_count_x")
    batches = _mean_count(kept, "n_batches")
    audits = ("audit.marginal_tv_profile", "audit.empirical_epsilon")
    audit_runs = tracer.descendants(audits, RUN_SPAN)
    audit_outside = sum(sum(tracer.durations(a)) for a in audits) - sum(audit_runs)
    rng_s = _median(tracer.durations("seeding.default_rng"))
    seed_s = _median(tracer.durations("seeding.replicate_seed")) or 0.0
    comparator = tracer.durations("harness.best_in_hindsight_ope")
    return {
        "transform.run_ms": _median([d for d, _ in runs], 1e3),
        "transform.ns_per_batch": _median([d / b for d, b in runs if b], 1e9),
        "transform.switches_x": switches_x,
        "transform.switches_y": _mean_count(kept, "switch_count_y"),
        "transform.fake_switches": _mean_count(kept, "fake_switch_count"),
        "transform.switch_share": (
            switches_x / (batches - 1) if switches_x is not None and batches and batches > 1 else None
        ),
        "seeding.rng_us": None if rng_s is None else (rng_s + seed_s) * 1e6,
        "harness.comparator_ms": _median(comparator, 1e3),
        "harness.game_self_ms": _median(tracer.self_times("harness.play_game"), 1e3),
        "harness.monte_carlo_s": _median(tracer.durations("harness.monte_carlo")),
        "audit.marginal_s": _median(tracer.durations("audit.marginal_tv_profile")),
        "audit.epsilon_s": _median(tracer.durations("audit.empirical_epsilon")),
        "audit.self_us_per_run": audit_outside * 1e6 / len(audit_runs) if audit_runs else None,
    }
