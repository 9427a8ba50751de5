"""One worker process of a workload run: set up, run a slice of a round
(or, traced, whole rounds), check every output, and print one JSON line.

A round issues every operation of the workload once, one after another
(a closed loop with one client).  An operation is one call of
``z2ucodes.cli.main`` with ``--format json``; its stdout is captured and
checked after its timed span ends.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --slice FIRST COUNT
    python3 bench/worker.py --workload NAME --seed N --workdir DIR --trace SECONDS

``--slice`` runs COUNT ops of a round from index FIRST on (fewer at the
round's end); bench/run.py starts one such process after another until
it has whole rounds.  ``--trace`` alternates untraced and traced whole
rounds for about SECONDS and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "census")


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], list[str]]


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the seeded inputs under workdir and return one round of ops."""
    import checks
    import inputs

    if workload == "verify":
        # The full (7,7) code first, then the seeded sample.
        sample = inputs.sample_specs(seed, checks.rank)
        full, *paths = inputs.write_specs([inputs.FULL_SPEC, *(spec for spec, _ in sample)], workdir)
        return [Op(["verify", "--spec", str(full), "--format", "json"], checks.check_verify_full)] + [
            Op(
                ["verify", "--spec", str(path), "--format", "json"],
                partial(checks.check_verify_sample, spec=spec, expected_rank=r),
            )
            for path, (spec, r) in zip(paths, sample)
        ]
    if workload == "census":
        return [
            Op(
                ["census", "--alpha", str(a), "--beta", str(b), "--format", "json"],
                partial(checks.check_census, alpha=a, beta=b),
            )
            for a, b in inputs.census_pairs(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def judge(rc: "int | None", out: str, check: Callable[[dict], list[str]]) -> list[str]:
    """Problems with one operation: a nonzero exit, unreadable output or a
    failed check.  An empty list means the operation succeeded."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return check(doc)


class Runner:
    """Runs rounds of ops against the program and keeps the accounting."""

    def __init__(self, cli, ops: list[Op]):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.rounds: list[list[float]] = []

    def round(self) -> float:
        """One pass over the ops; returns the summed op time."""
        self.rounds.append([self.one(op) for op in self.ops])
        return sum(self.rounds[-1])

    def slice(self, first: int, count: int) -> list[float]:
        """Ops ``first`` to ``first + count`` of a round (or to its end);
        returns their times."""
        return [self.one(op) for op in self.ops[first : first + count]]

    def one(self, op: Op) -> float:
        """Run and check one op; returns its time."""
        buf = io.StringIO()
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(op.argv)
        except Exception as exc:  # one failed op must not end the run
            print(f"bench: {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc is None:
            self.failed += 1
            return elapsed
        problems = judge(rc, buf.getvalue(), op.check)
        if problems:
            self.failed += 1
            self.check_failures += rc == 0
            print(f"bench: {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and write the inputs; returns (cli, ops, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import z2ucodes.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported z2ucodes from {cli.__file__}, not from {SRC}")
    ops = build_ops(workload, seed, workdir)
    return cli, ops, time.perf_counter() - start


def another_round(start: float, seconds: float, done: int) -> bool:
    """Whether to start one more round: always the first, then only if it
    is due to end within ``seconds``, so that no run outlasts ``seconds``
    by more than its first round, however long a round is."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done < seconds


def traced_phase(runner: Runner, seconds: float) -> dict:
    """Pairs of one untraced and one traced round, for the given time.

    Counts come from the first traced round (a later round that differs is
    reported on stderr); self times are medians over the traced rounds.
    """
    from tracer import OVERHEAD_METRIC, Tracer, metric_names

    plain, traced, totals = [], [], []
    start = time.perf_counter()
    while another_round(start, seconds, len(traced)):
        plain.append(runner.round())
        with Tracer() as tracer:
            traced.append(runner.round())
        totals.append(tracer.totals)
    for later in totals[1:]:
        for name, value in later.items():
            if not name.endswith("_s") and value != totals[0][name]:
                print(f"bench: {name} changed between rounds", file=sys.stderr)
    metrics = {}
    for name, unit in metric_names():
        if name == OVERHEAD_METRIC:
            value = statistics.median(traced) - statistics.median(plain)
        elif unit == "s":
            value = statistics.median(t[name] for t in totals)
        else:
            value = totals[0][name]
        metrics[name] = (value, unit)
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--slice", type=int, nargs=2, metavar=("FIRST", "COUNT"))
    mode.add_argument("--trace", type=float, metavar="SECONDS")
    args = parser.parse_args(argv)

    try:
        cli, ops, setup_s = setup(args.workload, args.seed, args.workdir)
        runner = Runner(cli, ops)
        if args.trace is not None:
            metrics = traced_phase(runner, args.trace)
            out = {
                "correct": runner.check_failures == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        else:
            out = {
                "ops_per_round": len(ops),
                "times": runner.slice(*args.slice),
                "failed": runner.failed,
                "check_failures": runner.check_failures,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
