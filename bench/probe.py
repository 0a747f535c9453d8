"""Set-up probe, run in a fresh interpreter: ``import l2p`` plus one workload's set-up.

Usage: python3 bench/probe.py <workload> <seed> <smoke 0|1>

Prints one JSON object of step times in seconds (``import_s``,
``stream_s``, ``tune_s``, ``sequence_s``, ``prepare_s``) and the count
of per-batch measure objects built (``states``).
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import l2p  # noqa: F401  (the timed step)

    import_s = time.perf_counter() - start
    import workloads

    times = {"import_s": import_s}
    workloads.get(name, smoke).build(seed, times)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
