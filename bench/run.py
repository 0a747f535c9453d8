"""The l2p benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ope-b1 --seed 1 --seconds 25 --trace 0

The workloads (ope-b1, audit-tiny) and their checks are in
``workloads.py``. A run has two phases:

1. Set-up: ``SETUP_PROBES`` fresh interpreters each time ``import l2p``
   and the workload's set-up (stream, tuning, measure sequence,
   PreparedRun). ``setup_s`` is the median total.
2. A fixed number of cycles, about ``--seconds`` long on a quiet host:
   each runs the workload command in process, then a block of the
   workload's fixed number of games, a single-caller closed loop of
   ``play_game`` on one PreparedRun. Every command must give
   byte-identical output files.

All times are raw wall-clock times. The host this benchmark was
written on shares its cores with other tenants: the same
interpreter-bound code runs at one of two speeds, about 2x apart,
flipping every fraction of a millisecond to a few hundred
milliseconds, and the share of slow time drifts over minutes. A sample
of 0.1 s or more averages the flips, so its time follows the drift,
and any statistic of such samples moves with it from run to run. The
fastest of many short samples is the steadiest figure, as ``timeit``
advises. So the workloads keep their games short, and the gated game
time is ``game_ms.min``, the fastest of a fixed number of games.
Commands (0.3 s on ope-b1, 1 s on audit-tiny) spread too much to gate:
``wall_s`` is reported, not gated. The report line gives, for games
and commands alike, the sample count, the fastest, the median and the
tail (the highest percentile with ``TAIL_BEYOND`` samples beyond it).

With ``--trace 1`` the closed loop is traced, the commands alternate
untraced and traced, and the per-layer metrics are printed
instead of the end-to-end ones; ``trace.overhead_s`` is the fastest
traced minus the fastest untraced command time. Spans are written,
gzipped, to ``.bench_build/l2p-bench/trace-<workload>.csv.gz``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is a JSON
report: environment, failed checks, output digests and details. A
metric of a layer the workload never reaches reads 0 and is listed in
the report under "absent". Without l2p sources under ``src/`` the
benchmark exits 2 and prints no result.
"""

import os

# Pin every thread pool before numpy is imported, here or in a probe.
THREAD_VARS = (
    "L2P_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "l2p-bench"

WORKLOADS = ("ope-b1", "audit-tiny")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WARM_UP_BELOW_S = 0.05
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "game_ms.min": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "adversaries.stream_ms": "ms",
    "accountant.tune_us": "us",
    "measures.sequence_s": "s",
    "measures.states": "count",
    "transform.prepare_s": "s",
    "transform.run_ms": "ms",
    "transform.ns_per_batch": "ns",
    "transform.switches_x": "count",
    "transform.switches_y": "count",
    "transform.fake_switches": "count",
    "transform.switch_share": "ratio",
    "seeding.rng_us": "us",
    "harness.comparator_ms": "ms",
    "harness.game_self_ms": "ms",
    "harness.monte_carlo_s": "s",
    "audit.marginal_s": "s",
    "audit.epsilon_s": "s",
    "audit.self_us_per_run": "us",
    "trace.overhead_s": "s",
}
# (metric, probe key, scale): per-layer set-up figures, medians over probes.
PROBE_LAYERS = (
    ("cli.import_s", "import_s", 1.0),
    ("adversaries.stream_ms", "stream_s", 1e3),
    ("accountant.tune_us", "tune_s", 1e6),
    ("measures.sequence_s", "sequence_s", 1.0),
    ("measures.states", "states", 1.0),
    ("transform.prepare_s", "prepare_s", 1.0),
)
SETUP_STEPS = ("import_s", "stream_s", "tune_s", "sequence_s", "prepare_s")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="l2p benchmark, one workload per process")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def run_probe(workload: str, seed: int, smoke: bool) -> dict:
    """Time ``import l2p`` and the workload's set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed), "1" if smoke else "0"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(workloads, spans, args, work: Path) -> dict:
    """Run set-up probes and the cycles; return raw samples, checks and the tracer."""
    w = workloads.get(args.workload, args.smoke)
    checks = workloads.Checks()
    tracer = spans.Tracer() if args.trace else None

    probes = []
    for _ in range(SETUP_PROBES):
        probe = checks.call("set-up probe", run_probe, args.workload, args.seed, args.smoke)
        if probe is not None:
            probes.append(probe)

    inputs = checks.call("in-process set-up", w.build, args.seed, {})
    walls = {False: [], True: []}
    outputs = []
    games = []
    regrets = []
    loop = workloads.play, inputs, args.seed << 20, regrets
    cycles = n_cycles(args.seconds, w.cycle_s, tracer is not None)
    for cycle in range(cycles):
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.keep_transcripts = cycle == 1
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            result = checks.call("command", w.command, args.seed, work / f"command-{cycle}")
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.keep_transcripts = False
        if result is not None:
            code, files = result
            checks.check("command exit code", code == 0, f"exit {code}")
            try:
                w.check(checks, files, args.seed)
            except (KeyError, ValueError) as exc:
                checks.check("command outputs", False, repr(exc))
            outputs.append(files)
        if inputs is not None:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                play_block(checks, loop, games, w.games_per_cycle)
    checks.check(
        "same-seed outputs identical",
        len(outputs) == cycles and all(files == outputs[0] for files in outputs),
        "outputs differ between same-seed invocations",
    )
    if inputs is not None:
        w.check_games(checks, regrets, args.seed)

    return {
        "checks": checks,
        "probes": probes,
        "walls": walls,
        "games": games,
        "outputs": outputs,
        "tracer": tracer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def n_cycles(seconds: float, cycle_s: float, traced: bool) -> int:
    """Cycles in a run: about ``seconds`` long on a quiet host, at least two.

    The count depends on ``--seconds`` alone, not on how fast the run
    goes, so every run takes the same order statistics of the same
    number of samples. A traced run needs an even count, so that
    untraced and traced commands alternate in pairs.
    """
    cycles = max(2, round(seconds / cycle_s))
    return cycles + cycles % 2 if traced else cycles


def play_block(checks, loop, games: list, count: int) -> None:
    """``count`` closed-loop games; times go to ``games``, regrets to the loop's list.

    While games are short (under ``WARM_UP_BELOW_S``) an untimed game
    goes first, because the command before has just evicted their caches.
    """
    play, inputs, base_seed, regrets = loop
    if not games or games[-1] < WARM_UP_BELOW_S:
        checks.call("warm-up game", play, inputs, base_seed + len(games))
    for _ in range(count):
        t0 = time.perf_counter()
        game = checks.call("play_game", play, inputs, base_seed + len(games))
        elapsed = time.perf_counter() - t0
        if game is None:
            return
        games.append(elapsed)
        regrets.append(game.regret)


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def spread(samples: list[float], scale: float = 1.0) -> dict:
    """Sample count, fastest, median and tail of ``samples``, for the report line."""
    out = {
        "samples": len(samples),
        "min": min(samples) * scale if samples else None,
        "median": _median(samples, scale),
    }
    if len(samples) > TAIL_BEYOND:
        value, pct = tail(samples)
        out.update(tail=value * scale, tail_percentile=pct)
    return out


def end_to_end(raw: dict) -> tuple[dict, dict]:
    games, walls = raw["games"], raw["walls"][False]
    metrics = {
        "setup_s": _median([sum(p.get(k, 0.0) for k in SETUP_STEPS) for p in raw["probes"]]),
        "game_ms.min": min(games) * 1e3 if games else None,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    details = {
        "setup_s": {"samples": len(raw["probes"])},
        "wall_s": spread(walls),
        "game_ms": spread(games, 1e3),
    }
    return metrics, details


def per_layer(spans, raw: dict) -> tuple[dict, dict]:
    probes = raw["probes"]
    metrics = {}
    for name, key, scale in PROBE_LAYERS:
        values = [p[key] for p in probes if key in p]
        metrics[name] = _median(values, scale)
    tracer = raw["tracer"]
    metrics.update(spans.layer_metrics(tracer))
    walls = raw["walls"]
    metrics["trace.overhead_s"] = (
        min(walls[True]) - min(walls[False]) if walls[True] and walls[False] else None
    )
    details = {
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "spans": len(tracer.names),
        "missing_targets": tracer.missing,
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "l2p" / "__init__.py").is_file():
        print(f"error: no l2p sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import l2p

    if Path(l2p.__file__).resolve().parent != (SRC / "l2p").resolve():
        print(f"error: imported l2p from {l2p.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    env = environment(args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        raw = measure(workloads, spans, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        metrics, details = per_layer(spans, raw)
        units = PER_LAYER
        WORK.mkdir(parents=True, exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}.csv.gz"
        with gzip.open(trace_file, "wt", encoding="utf-8", compresslevel=1) as fh:
            raw["tracer"].write_csv(fh)
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics, details = end_to_end(raw)
        units = END_TO_END
        missing = [name for name, value in metrics.items() if value is None]
        if missing:
            print(f"error: could not measure {', '.join(missing)}", file=sys.stderr)
            for failure in raw["checks"].failures:
                print(f"failed: {failure}", file=sys.stderr)
            return 1
    absent = sorted(name for name, value in metrics.items() if value is None)
    checks = raw["checks"]
    report = {
        "workload": args.workload,
        "env": env,
        "ops_failed_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures,
        "digests": workloads.digests(raw["outputs"][0]) if raw["outputs"] else {},
        "absent": absent,
        "details": details,
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": 0.0 if metrics[name] is None else metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
