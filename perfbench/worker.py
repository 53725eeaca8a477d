"""One workload process: set up, say so, then run and check.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE TMPDIR

MODE is `setup` (exit once set up), `run` (whole rounds for SECONDS, each
piece and a calibration loop timed on their own, then checks) or `trace`
(the traced layer suite). The process prints `ready` on its own line once
set up, so the parent can time the set-up from the outside, and one JSON
object as its last line. catpurify comes from PYTHONPATH, which the parent
points at the source tree.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def calibration_loop() -> float:
    """A fixed pure-Python loop of float math and dict updates that runs no
    catpurify code. Timed once after every round, its median time measures
    the machine's speed over the run (README.md, "Why a calibrated round")."""
    acc = 0.0
    buckets: dict[int, float] = {}
    for i in range(3000):
        x = math.exp(-(i % 97) * 0.01) * math.cos(i * 0.001)
        buckets[i % 61] = buckets.get(i % 61, 0.0) + x
        acc += x if i & 1 else -x
    return acc


def run(workload: str, seed: int, seconds: float, tmp: Path, setup_only: bool) -> dict:
    wl = workloads.IN_PROCESS[workload](seed, tmp)
    print("ready", flush=True)
    if setup_only:
        return {}
    times: list[list[float]] = [[] for _ in wl.pieces]
    calibration: list[float] = []
    start = time.perf_counter()
    while not calibration or time.perf_counter() - start < seconds:
        for i, piece in enumerate(wl.pieces):
            t0 = time.perf_counter()
            piece()
            times[i].append(time.perf_counter() - t0)
        wl.after_round()
        t0 = time.perf_counter()
        calibration_loop()
        calibration.append(time.perf_counter() - t0)
    # peak memory before the references (mpmath) are loaded
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "outcomes": wl.check(),
        "round_cal": sum(statistics.median(t) for t in times) / statistics.median(calibration),
        "rss_mb": rss_mb,
    }


def trace(seed: int, seconds: float, tmp: Path, trace_path: Path) -> dict:
    import spans

    import catpurify  # noqa: F401  (set-up, as in an untraced run)

    print("ready", flush=True)
    return spans.traced_run(seed, seconds, tmp, trace_path)


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode, tmp = argv[1], int(argv[2]), float(argv[3]), argv[4], Path(argv[5])
    if mode == "trace":
        result = trace(seed, seconds, tmp, Path(argv[6]))
    else:
        result = run(workload, seed, seconds, tmp, mode == "setup")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
