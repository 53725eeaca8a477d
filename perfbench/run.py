"""catpurify benchmark: one workload per call, end-to-end metrics from an
untraced run or per-layer metrics from a traced one.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; catpurify is taken from `src/`, nothing is
installed. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; it is also appended to
`.perfbench/results.jsonl`, and a traced run writes its spans to
`.perfbench/trace-<workload>-<seed>.csv.gz`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import OK, ROOT, SRC, WRONG

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUPS = 5  # cold set-ups per run; setup_s is their median
IMPORT_REPEATS = 3


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, tmp: Path, *extra: str) -> tuple[float, dict]:
    """Start a worker, time it from spawn to `ready`, collect its result."""
    tmp.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds), mode, str(tmp), *extra]
    with open(tmp / "worker.err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=workloads.cli_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"worker {mode} {workload} failed (exit {proc.returncode}):\n{err.read()[-2000:]}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else {}


def in_process(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[list[int], dict]:
    setups = [_worker(workload, seed, seconds, "setup", tmp / f"setup{i}")[0] for i in range(SETUPS - 1)]
    setup, result = _worker(workload, seed, seconds, "run", tmp / "run")
    setups.append(setup)
    return result["outcomes"], {
        "setup_s": (statistics.median(setups), "s"),
        "round_cal": (result["round_cal"], "cal"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


_IMPORT_PROBE = "import time; t = time.perf_counter(); import catpurify; print(time.perf_counter() - t)"


def import_layer() -> tuple[list[int], dict]:
    """Fresh-interpreter import costs: a bare interpreter, and `import
    catpurify` under -X importtime, whose cumulative column attributes the
    time to numpy and scipy.integrate (0 when catpurify does not import
    them)."""
    outcomes = []
    bare, numpy_s, scipy_s, total = [], [], [], []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "pass"], capture_output=True)
        bare.append(time.perf_counter() - start)
        outcomes.append(OK if proc.returncode == 0 else workloads.ERROR)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=workloads.cli_env(),
            capture_output=True,
            text=True,
        )
        outcomes.append(OK if proc.returncode == 0 else workloads.ERROR)
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        numpy_s.append(cumulative.get("numpy", 0) / 1e6)
        scipy_s.append(cumulative.get("scipy.integrate", 0) / 1e6)
        total.append(float(proc.stdout.strip() or "nan"))
    return outcomes, {
        "import.python_s": (statistics.median(bare), "s"),
        "import.numpy_s": (statistics.median(numpy_s), "s"),
        "import.scipy_integrate_s": (statistics.median(scipy_s), "s"),
        "import.catpurify_s": (statistics.median(total), "s"),
    }


def traced(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[list[int], dict]:
    outcomes, metrics = import_layer()
    trace_path = OUT / f"trace-{workload}-{seed}.csv.gz"
    _, result = _worker(workload, seed, seconds, "trace", tmp / "trace", str(trace_path))
    outcomes += result["outcomes"]
    metrics.update({name: tuple(value) for name, value in result["metrics"].items()})
    return outcomes, {name: metrics[name] for name in spans.metric_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "catpurify" / "__init__.py").is_file():
        print(f"error: no catpurify source tree under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            outcomes, metrics = traced(args.workload, args.seed, args.seconds, tmp)
        else:
            outcomes, metrics = in_process(args.workload, args.seed, args.seconds, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": WRONG not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o != OK),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
