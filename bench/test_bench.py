"""The benchmark's own test, at reduced size.

Run from the repository root: python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("ope-b1", "audit-tiny")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert report["digests"] and not report["failures"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_check_counts_a_wrong_expected_value(tmp_path):
    w = workloads.get("ope-b1", smoke=True)
    code, files = w.command(7, tmp_path)
    assert code == 0
    right = workloads.Checks()
    w.check(right, files, 7)
    assert right.attempted == 2 and right.failed == 0
    wrong = workloads.Checks()
    w.check(wrong, files, 7, reps=w.reps + 1)
    assert wrong.attempted == 2 and wrong.failed == 1

    audit = workloads.get("audit-tiny", smoke=True)
    lines = {"audit.jsonl": b'{"name": "a", "passed": true}\n{"name": "b", "passed": true}\n'}
    right = workloads.Checks()
    audit.check(right, lines, 7, n_reports=2)
    assert right.failed == 0
    wrong = workloads.Checks()
    audit.check(wrong, lines, 7, n_reports=3)
    assert wrong.failed == 1


def test_regret_check_fails_for_uniform_play():
    """At full size the games' regret cap rejects a learner that ignores the losses."""
    w = workloads.get("ope-b1")
    uniform = workloads.uniform_regret(w.T, w.d, 7)
    checks = workloads.Checks()
    w.check_games(checks, [uniform] * 4, 7)
    assert checks.failures == [f"games' regret under uniform play's: {uniform} > {w.uniform_share * uniform}"]
    checks = workloads.Checks()
    w.check_games(checks, [0.5 * uniform] * 4, 7)
    assert checks.attempted == 2 and checks.failed == 0
    checks = workloads.Checks()
    w.check_games(checks, [float("nan")], 7)
    assert checks.failed == 2


def test_failed_call_is_counted():
    checks = workloads.Checks()
    assert checks.call("boom", lambda: 1 / 0) is None
    assert checks.call("fine", lambda: 3) == 3
    assert (checks.attempted, checks.failed) == (2, 1)


def test_interaction_table_covers_every_layer_metric():
    table = json.loads((BENCH / "interactions.json").read_text(encoding="utf-8"))["rows"]
    layers = {m["name"] for m in SPEC["per_layer"]}
    ends = {m["name"] for m in SPEC["end_to_end"]} | {"wall_s"}
    assert {row["layer"] for row in table} == layers
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for row in table:
        assert set(row["moves"]) <= ends and set(row["workloads"]) <= set(WORKLOADS)


def test_tracer_self_time_and_a_deleted_target(monkeypatch):
    import l2p.harness

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    assert tracer.parents == [-1, 0, 0]
    (self_time,) = tracer.self_times("outer")
    assert 0.0 <= self_time < tracer.durations("outer")[0]

    gone = ("harness.gone", "l2p.harness", "gone")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (gone,))
    original = l2p.harness.play_game
    tracer = spans.Tracer()
    with tracer.installed():
        assert l2p.harness.play_game is not original
    assert l2p.harness.play_game is original
    assert tracer.missing == ["harness.gone"]
    assert spans.layer_metrics(tracer)["audit.marginal_s"] is None


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("ope-b1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
