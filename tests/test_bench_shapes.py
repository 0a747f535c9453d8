"""The benchmark's call shapes: its workloads build, play and run at smoke size.

``bench/workloads.py`` is loaded read-only from its file, so a change to
a signature the benchmark calls fails here and not first in a benchmark
run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEED = 7


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave nothing under bench/
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["ope-b1", "audit-tiny"])
def test_workload_builds_and_plays(workloads, name):
    w = workloads.get(name, smoke=True)
    checks = workloads.Checks()
    inputs = checks.call("in-process set-up", w.build, SEED, {})
    games = [checks.call("play_game", workloads.play, inputs, (SEED << 20) + i) for i in range(3)]
    w.check_games(checks, [g.regret for g in games if g is not None], SEED)
    assert checks.failures == []
    assert checks.attempted == 5


def test_ope_b1_command(workloads, tmp_path):
    w = workloads.get("ope-b1", smoke=True)
    code, files = w.command(SEED, tmp_path)
    assert code == 0
    checks = workloads.Checks()
    w.check(checks, files, SEED)
    assert checks.failures == []
    assert checks.attempted == 2
