"""Each demo prints byte for byte what it printed before the screened engine.

The hashes are SHA-256 digests of each demo's stdout, recorded before the
screened experts engine and the removal of ``Transcript.records``; the
runs are seeded, so any change to a transcript, a tuned value or the
report format shows here. Demo 02's was re-recorded when it came to call
its CSV a diagnostic log; only that heading changed. Demo 01's was
re-recorded when the composition routines were removed; only its
composition section went.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_accounting.py": "f3627a50ebcefc662cc70b5830e4cf2b3974e85047f98c9f14aea2974eba5e7e",
    "02_experts_run.py": "00b52f389804f1883fc2e124408bad01944bc99cf715e99cedbdb6fb2ce20c3a",
    "03_regret_vs_epsilon.py": "8bd3b03384cf59729cfcbafe7836f35c858be37d1f1142305a99cd36c8af0579",
    "04_lower_bound.py": "ed0fa6d5cd3922e0ab49ff6c08823d191e603ed686f5d7653ebe2ed258e52c84",
    "05_ball_oco.py": "71ef283a1283819ea1d67fc16ae5387697453035ee6f8464bc49f842fcd6af43",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, check=True, timeout=120, env=env,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == STDOUT_SHA256[name]
