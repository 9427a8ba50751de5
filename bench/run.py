"""The z2ucodes benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload verify|census|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/.  A run is a series of fresh worker processes
(bench/worker.py), each running the next slice of a round, until it has
whole rounds for about --seconds.  Spreading a round over processes
averages out how fast one process happens to be: the same census round
runs up to 15% faster or slower from one process to the next, for the
life of the process.  Set-up (package import plus writing the inputs) is
timed in every worker and reported as the median.  The last line of
stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (whole rounds in one traced worker).  The exit status is
0 only when every operation succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BENCH, ROOT, WORKLOADS, another_round

DEFAULT_SEED = 1
# Operations one worker process runs before the next takes over.  Fixed
# slices give every operation the same warm-up (caches the program fills
# in earlier operations of its slice) in every run.
SLICE_OPS = 20
# Every run ends within this many seconds, however slow the program.
DEADLINE_S = 170


def run_worker(args: list[str], workdir: Path, deadline: float) -> dict:
    """Run bench/worker.py and return the JSON object of its last line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workdir", str(workdir), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def timed_run(common: list[str], seconds: float, scratch: Path, deadline: float) -> dict:
    """Whole rounds, each spread over worker processes, for about ``seconds``.

    wall_s is the time of one round with each op at its median over the
    rounds, so that a burst of load on a shared machine moves one sample
    of an op, not the result.
    """
    rounds: list[list[float]] = []
    current: list[float] = []
    setups, rss = [], []
    failed = check_failures = 0
    start = time.perf_counter()
    while True:
        part = run_worker(
            [*common, "--slice", str(len(current)), str(SLICE_OPS)],
            scratch / f"w{len(setups)}",
            deadline,
        )
        current += part["times"]
        setups.append(part["setup_s"])
        rss.append(part["peak_rss_mb"])
        failed += part["failed"]
        check_failures += part["check_failures"]
        if len(current) == part["ops_per_round"]:
            rounds.append(current)
            current = []
            if not another_round(start, seconds, len(rounds)):
                break
    every_op = [t for times in rounds for t in times]
    return {
        "correct": check_failures == 0,
        "attempted": len(every_op),
        "failed": failed,
        "rounds": rounds,
        "workers": len(setups),
        "metrics": {
            "wall_s": {"value": sum(statistics.median(t) for t in zip(*rounds)), "unit": "s"},
            "op_p50_s": {"value": statistics.median(every_op), "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        },
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        if trace:
            return run_worker([*common, "--trace", str(seconds)], scratch / "traced", deadline)
        return timed_run(common, seconds, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    line = f"{workload}: {result['attempted']} commands, {result['failed']} failed"
    if "rounds" in result:
        line += f", {len(result['rounds'])} rounds over {result['workers']} worker processes"
    print(f"{line}, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    ops = [t for times in result.get("rounds", []) for t in times]
    # A percentile is a tail only with at least ten samples beyond it.
    if len(ops) >= 40:
        p75 = statistics.quantiles(ops, n=4)[2]
        print(f"  {'op_p75_s (not gated)':48s} {p75:.6g} s")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "z2ucodes" / "cli.py").is_file():
        print(f"bench: no z2ucodes source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] and out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
