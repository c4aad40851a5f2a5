"""Benchmark for polystress: one workload, one seed, one process.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Run from the repository root.  Set-up generates the workload's seeded
instances; it runs three times and `setup_s` is the median.  Then
passes over the workload's op list run one op at a time (closed loop,
one caller, no threads) until the next pass would overrun `--seconds`,
with at least two passes.  The first pass checks every output's
invariants and, for the default seed, its digest against
`bench/digests.json`; later passes must reproduce the first pass's
digests.  Nothing is checked inside a timed interval.

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends half
the budget on untraced passes and half on passes with every traced
library function wrapped, and prints the per-layer metrics; the whole
trace (per pass and op group, with one span per op) is written to
`bench/out/`.  A line starting with "report" carries the environment
and run record; the last stdout line is the JSON result.

`--write-digests` runs one pass on the default seed and records its
output digests instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SETUP_RUNS = 3
MIN_PASSES = 2


def canary() -> float:
    """A fixed pure-Python loop; host-speed diagnostic, never used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def op_latency(latencies: list) -> dict:
    """Median op latency and the highest percentile with ten samples beyond it."""
    lat = sorted(latencies)
    idx = max(len(lat) - 11, 0)
    return {
        "samples": len(lat),
        "p50_s": statistics.median(lat),
        "tail_percentile": 100.0 * (idx + 1) / len(lat),
        "tail_s": lat[idx],
    }


class Runner:
    """Runs passes over the ops, times each op and checks its output."""

    def __init__(self, ops, seed, canonical, expected):
        self.ops = ops
        self.seed = seed
        self.canonical = canonical
        self.expected = expected  # op id -> sha256, or None off the default seed
        self.first = None  # op id -> sha256 from the first pass
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.pass_times = []

    def _fail(self, op, msg):
        self.failed += 1
        print(f"FAIL {op.id}: {msg}", file=sys.stderr)

    def _verify(self, op, out, first_pass):
        digest = hashlib.sha256(self.canonical(op.kind, out).encode()).hexdigest()
        if not first_pass:
            if self.first.get(op.id) != digest:
                self._fail(op, "output differs from the first pass")
            return
        self.first[op.id] = digest
        try:
            op.check(out)
        except AssertionError as exc:
            self._fail(op, f"check: {exc}")
            return
        if self.expected is not None and self.expected.get(op.id) != digest:
            self._fail(op, "output differs from the committed digest")

    def run_pass(self, tracer=None):
        first_pass = self.first is None
        if first_pass:
            self.first = {}
        # A fresh seeded order each pass spreads every op kind's samples over
        # the whole run, so a slow spell on the host does not land on one kind.
        order = list(self.ops)
        random.Random(f"{self.seed}:{self.attempted}").shuffle(order)
        total = 0.0
        for op in order:
            self.attempted += 1
            if tracer is not None:
                tracer.begin_op(op)
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # an op that raises counts as failed; the run goes on
                t1 = time.perf_counter()
                self._fail(op, traceback.format_exc())
                out = None
            else:
                t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op(op, t0, t1)
            total += t1 - t0
            self.latencies.append(t1 - t0)
            if out is not None:
                self._verify(op, out, first_pass)
        self.pass_times.append(total)
        if tracer is not None:
            tracer.end_pass()

    def run_for(self, seconds, min_passes, tracer=None):
        """Passes until the next one would overrun the budget."""
        start = time.perf_counter()
        walls = []
        while True:
            t0 = time.perf_counter()
            self.run_pass(tracer)
            walls.append(time.perf_counter() - t0)
            if len(walls) >= min_passes and time.perf_counter() - start + statistics.median(walls) > seconds:
                return


def setup(workloads, workload, seed, workdir):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    ops = workloads.SETUPS[workload](workloads.Instances(seed, str(workdir)))
    return time.perf_counter() - t0, ops


def end_to_end(runner, seconds, setups) -> tuple:
    runner.run_for(seconds, MIN_PASSES)
    # Op latency percentiles stay in the record: across seeds on a shared
    # host their spread exceeded any bound the benchmark may set.
    record = {"pass_times_s": runner.pass_times, "op_latency": op_latency(runner.latencies)}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(runner.pass_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return record, metrics


def per_layer(runner, seconds, workload, workloads) -> tuple:
    import tracing

    runner.run_for(seconds / 2, 1)
    untraced = list(runner.pass_times)
    runner.pass_times = []
    tracer = tracing.Tracer()
    absent = tracer.install([workloads])
    try:
        runner.run_for(seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    per_pass = [tracing.totals(tables) for tables, _ in tracer.passes]
    first = per_pass[0]
    record = {
        "untraced_passes": len(untraced),
        "traced_passes": len(per_pass),
        # counts must repeat exactly from pass to pass; any that do not are listed
        "count_drift": sorted(
            f"{name}.{key}"
            for later in per_pass[1:]
            for name, row in later.items()
            for key, val in row.items()
            if key != "self_s" and first[name].get(key, 0) != val
        ),
        "reach_errors": [f"{name} is not in the library" for name in absent] + tracing.reach_errors(workload, first),
        "trace_file": str(tracing.write(tracer.passes, HERE / "out", workload, runner.seed).relative_to(HERE.parent)),
    }
    metrics = {}
    for name, unit in tracing.metric_names():
        base, key = name.rsplit(".", 1)
        if key == "self_s":
            val = statistics.median(p[base]["self_s"] for p in per_pass)
        else:
            val = first[base].get(key, 0)
        metrics[name] = (val, unit)
    metrics["trace.overhead"] = (statistics.median(runner.pass_times) / statistics.median(untraced), "ratio")
    return record, metrics


def measure(args, workdir) -> tuple:
    """Run one workload; returns (run record, result or None)."""
    import workloads
    from polystress.rat import Rat

    canary_before = canary()
    setups = []
    for _ in range(1 if args.trace or args.write_digests else SETUP_RUNS):
        dt, ops = setup(workloads, args.workload, args.seed, workdir)
        setups.append(dt)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_digests:
        expected = json.loads(DIGESTS.read_text())[args.workload]
    runner = Runner(ops, args.seed, workloads.canonical, expected)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "backend": f"{Rat.__module__}.{Rat.__name__}",
        "nproc": os.cpu_count(),
        "ops_per_pass": len(ops),
        "setup_runs_s": setups,
    }
    os.chdir(workdir)  # the CLI ops name their instance files relative to here
    if args.write_digests:
        runner.run_pass()
        if runner.failed:
            raise SystemExit("error: outputs fail their checks; digests not written")
        doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        doc[args.workload] = runner.first
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return record, None
    if args.trace:
        extra, metrics = per_layer(runner, args.seconds, args.workload, workloads)
    else:
        extra, metrics = end_to_end(runner, args.seconds, setups)
    record.update(extra)
    canary_after = canary()
    record["canary_s"] = [canary_before, canary_after]
    if args.trace:
        metrics["host.canary_s"] = ((canary_before + canary_after) / 2, "s")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["certify", "stress", "load"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "polystress" / "__init__.py").is_file():
        print(f"error: no polystress sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        record, result = measure(args, workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    print("report " + json.dumps(record))
    if record.get("reach_errors"):
        print("error: " + "; ".join(record["reach_errors"]), file=sys.stderr)
        return 1
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
