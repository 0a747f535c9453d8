"""The benchmark's workloads: inputs from a seed, the command, its checks.

ope-b1
    ``l2p run`` on experts, T=2e4, d=10, eps=1, delta=1e-6, Bernoulli
    means linspace(0.35, 0.65). The tuner picks B=1, so there are 2e4
    batches per run: the per-batch Python loop and the per-batch
    measure objects dominate. T is kept at 2e4, not the 1e5 of the
    experts B=1 acceptance point, so that a game takes about 0.1 s and
    a command about 0.35 s: see ``run.py`` on why samples are short.
audit-tiny
    ``marginal_tv_profile`` (d=3, T=5, B=1, p=0.5, eta=0.1) and
    ``empirical_epsilon`` (``tune_ope(10, 2, 0.5, 0.05)``, so B=2, with
    the neighbour at T//2). Every run has at most 5 batches, so the
    per-batch loop is bypassed and the fixed per-run cost dominates.

The benchmark's seed is the adversary's seed and the replicate base
seed. Functions are looked up on their module at call time, so the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import l2p
import l2p.cli

EPS = 1.0
DELTA = 1e-6
RUN_FILES = ("reps.csv", "summary.json", "provenance.json")


class Checks:
    """Correctness checks and calls, counted; a failed one keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn``; an exception counts as a failed check and yields None."""
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is a counted failure
            self.check(name, False, repr(exc))
            return None
        self.check(name, True)
        return out


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


def theory_bound_ope(T: int, d: int, eps: float, delta: float) -> float:
    """The experts regret bound sqrt(T ln d) + T^(1/3) ln d ln(T/delta) / eps^(2/3)."""
    return math.sqrt(T * math.log(d)) + T ** (1 / 3) * math.log(d) * math.log(
        T / delta
    ) / eps ** (2 / 3)


@functools.lru_cache(maxsize=4)
def uniform_regret(T: int, d: int, seed: int) -> float:
    """Expected regret of uniform play on the ope stream: a bar for ignoring the losses."""
    stream = l2p.adversaries.bernoulli_experts(d, T, np.linspace(0.35, 0.65, d), seed)
    values = stream.values
    return float(values.mean(axis=1).sum() - values.sum(axis=0).min())


def _timed(times: dict, key: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    times[key] = times.get(key, 0.0) + time.perf_counter() - start
    return out


def prepare(config, kind: str, stream, times: dict):
    """The PreparedRun the harness builds for one (config, stream) pair."""
    sequence = getattr(l2p.harness, "measure_sequence", None)
    if sequence is None:
        # Once the per-batch measure objects are gone, PreparedRun is
        # planned to build from the measure kind and the loss matrix;
        # the measures.* set-up metrics then read as absent.
        return _timed(times, "prepare_s", l2p.transform.PreparedRun, config, kind, stream.values)
    measures = _timed(times, "sequence_s", sequence, config, kind, stream)
    times["states"] = times.get("states", 0) + len(measures)
    return _timed(times, "prepare_s", l2p.transform.PreparedRun, config, measures, stream.values)


def play(inputs, seed: int, keep_transcript: bool = False):
    return l2p.harness.play_game(
        inputs.config,
        inputs.kind,
        inputs.stream,
        seed,
        prepared=inputs.prepared,
        keep_transcript=keep_transcript,
    )


class CliRun:
    """``l2p run`` on one tuned experts problem; the command writes three files.

    ``uniform_share`` caps the closed-loop games' mean regret as a share
    of uniform play's regret on the same stream. At T=2e4 that mean
    reads about 0.73 of uniform's on every seed tried, with a standard
    error under 0.01 over a run's games; one game's ratio has a
    standard deviation of 0.07 to 0.1, which is why the cap is not put
    on a command's two replicates. A policy that ignores the losses
    reads about 1. At small T the privacy term dominates and regret is
    about uniform's, so the smoke size leaves the cap out (None).
    """

    kind = "mw"
    games_per_cycle = 8

    def __init__(self, T: int, d: int, reps: int, uniform_share: float | None, cycle_s: float):
        self.T, self.d, self.reps, self.uniform_share = T, d, reps, uniform_share
        self.cycle_s = cycle_s

    def run_config(self, seed: int) -> dict:
        return {
            "schema": 1,
            "problem": "ope",
            "T": self.T,
            "d": self.d,
            "epsilon": EPS,
            "delta": DELTA,
            "reps": self.reps,
            "base_seed": seed,
            "adversary": {
                "kind": "bernoulli",
                "means": [float(m) for m in np.linspace(0.35, 0.65, self.d)],
                "seed": seed,
            },
        }

    def build(self, seed: int, times: dict):
        """Stream, tuned config and PreparedRun, each step timed into ``times``."""
        means = np.linspace(0.35, 0.65, self.d)
        stream = _timed(times, "stream_s", l2p.adversaries.bernoulli_experts, self.d, self.T, means, seed)
        config = _timed(times, "tune_s", l2p.accountant.tune_ope, self.T, self.d, EPS, DELTA)
        prepared = prepare(config, self.kind, stream, times)
        return SimpleNamespace(config=config, kind=self.kind, stream=stream, prepared=prepared)

    def command(self, seed: int, workdir: Path):
        """Run ``l2p run`` in process; return its exit code and output files."""
        workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = workdir / "run.json"
        cfg_path.write_text(json.dumps(self.run_config(seed)), encoding="utf-8")
        out_dir = workdir / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = l2p.cli.main(["run", "--config", str(cfg_path), "--output", str(out_dir)])
        files = {n: (out_dir / n).read_bytes() for n in RUN_FILES if (out_dir / n).is_file()}
        return code, files

    def check(self, checks: Checks, files: dict, seed: int, reps: int | None = None) -> None:
        reps = self.reps if reps is None else reps
        rows = files["reps.csv"].decode("utf-8").splitlines()[1:]
        checks.check("reps.csv rows", len(rows) == reps, f"{len(rows)} rows for {reps} replicates")
        regret = json.loads(files["summary.json"])["mean_regret"]
        bound = theory_bound_ope(self.T, self.d, EPS, DELTA)
        checks.check("mean regret", regret <= 10 * bound, f"{regret} > 10 x {bound}")

    def check_games(self, checks: Checks, regrets: list[float], seed: int) -> None:
        """Every game's regret is finite; their mean is under the uniform-play cap."""
        checks.check("finite regrets", all(map(math.isfinite, regrets)))
        if self.uniform_share is not None and regrets:
            mean = statistics.fmean(regrets)
            cap = self.uniform_share * uniform_regret(self.T, self.d, seed)
            checks.check("games' regret under uniform play's", mean <= cap, f"{mean} > {cap}")


class AuditTiny:
    """The marginal and empirical-epsilon audits; the command prints JSON lines.

    The timed games are runs at the marginal audit's shape (T=5, B=1).
    """

    games_per_cycle = 2000

    def __init__(self, marginal_runs: int, epsilon_runs: int, cycle_s: float):
        self.marginal_runs, self.epsilon_runs, self.cycle_s = marginal_runs, epsilon_runs, cycle_s

    def _audit_inputs(self, seed: int, times: dict):
        adv = l2p.adversaries
        marginal = _timed(times, "stream_s", adv.bernoulli_experts, 3, 5, (0.2, 0.5, 0.8), seed)
        stream = _timed(times, "stream_s", adv.bernoulli_experts, 2, 10, (0.25, 0.75), seed)
        flipped = 1.0 - stream.values[5]
        neighbor = _timed(times, "stream_s", adv.neighbor_of, stream, 5, flipped)
        marginal_config = _timed(
            times, "tune_s", l2p.transform.L2PConfig, T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6
        )
        config = _timed(times, "tune_s", l2p.accountant.tune_ope, 10, 2, 0.5, 0.05)
        return marginal, marginal_config, stream, neighbor, config

    def build(self, seed: int, times: dict):
        marginal, marginal_config, stream, _, config = self._audit_inputs(seed, times)
        prepare(config, "mw", stream, times)
        prepared = prepare(marginal_config, "mw", marginal, times)
        return SimpleNamespace(config=marginal_config, kind="mw", stream=marginal, prepared=prepared)

    def command(self, seed: int, workdir: Path):
        """Both audits in process; return exit code 0 and their JSON lines."""
        marginal, marginal_config, stream, neighbor, config = self._audit_inputs(seed, {})
        reports = list(
            l2p.audit.marginal_tv_profile(marginal_config, marginal, self.marginal_runs, base_seed=seed)
        )
        reports.append(
            l2p.audit.empirical_epsilon(config, stream, neighbor, self.epsilon_runs, base_seed=seed)
        )
        text = "".join(r.to_json_line() + "\n" for r in reports)
        return 0, {"audit.jsonl": text.encode("utf-8")}

    def check(self, checks: Checks, files: dict, seed: int, n_reports: int = 6) -> None:
        """One marginal report per batch (5), then the epsilon report; all pass."""
        reports = [json.loads(line) for line in files["audit.jsonl"].splitlines()]
        checks.check("audit reports", len(reports) == n_reports, f"{len(reports)} != {n_reports}")
        failed = [r["name"] for r in reports if not r["passed"]]
        checks.check("audits pass", not failed, ", ".join(failed))

    def check_games(self, checks: Checks, regrets: list[float], seed: int) -> None:
        """Every game's regret is finite; five rounds give no regret bar to test."""
        checks.check("finite regrets", all(map(math.isfinite, regrets)))


def get(name: str, smoke: bool = False):
    """The named workload; ``smoke`` shrinks it for the benchmark's own test.

    ``cycle_s`` is the time of one cycle (a command and
    ``games_per_cycle`` games) on a quiet 2-core host, so that a run of
    ``--seconds`` makes about ``seconds / cycle_s`` cycles. The
    audit-tiny command is kept near a second (the marginal audit needs
    1e4 runs; the epsilon audit makes 1000 per stream).
    """
    if name == "ope-b1":
        return CliRun(2_000, 10, 2, None, 0.3) if smoke else CliRun(20_000, 10, 2, 0.9, 1.1)
    if name == "audit-tiny":
        return AuditTiny(10_000, 1_000, 1.0) if smoke else AuditTiny(10_000, 1_000, 1.3)
    raise ValueError(f"unknown workload {name!r}")
