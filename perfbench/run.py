"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory.  The run sets up (imports, seeded inputs, Moebius
reference), then repeats whole rounds of the workload's operations
until S seconds have passed, checks the outputs, and prints one JSON
line last.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 rounds alternate between untraced ones
and the same rounds run under `spans.instrument`, and the metrics are
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("coarse-cantor", "spectrum-moebius", "pointwise-lab")
# Set-up is timed in fresh processes, spread over the run between rounds
# (never during one), so its median sees the same machine as the rounds.
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the setup phases as JSON and exit")
    return parser.parse_args(argv)


def setup(args, scratch: str) -> dict:
    """Everything before the first operation: imports, inputs, reference."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mfgibbs.cli  # noqa: F401  (numpy comes in with it)
    import_s = time.perf_counter() - t0
    if not os.path.abspath(mfgibbs.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mfgibbs imported from {mfgibbs.cli.__file__}, not {SRC}")
    import inputs
    inputs.generate(args.workload, args.seed, ROOT, scratch)
    with open(os.path.join(scratch, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    with open(os.path.join(HERE, "moebius_reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return {"plan": plan, "reference": reference, "import_s": import_s}


def probe_setup(args) -> dict:
    """Wall time of a fresh process that only sets up, from spawn to exit."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"setup probe failed: {done.stderr.strip()}")
    return {"wall_s": wall, **json.loads(done.stdout.strip().splitlines()[-1])}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mfgibbs", "cli.py")):
        print(f"no mfgibbs sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
    try:
        if args.setup_only:
            ready = setup(args, scratch)
            print(json.dumps({"import_s": ready["import_s"]}))
            return 0
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    probes = [probe_setup(args)]
    ready = setup(args, scratch)
    import spans
    import workloads

    threads = max(1, min(2, os.cpu_count() or 1))
    work = workloads.make(ready["plan"], threads, ready["reference"])
    rec, untraced = spans.Recorder(), spans.NullRecorder()

    first = None
    failed, wrong = [], []
    attempted = failures = 0
    untraced_wall, traced_wall, cpu, traced_rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        passes = [False, True] if args.trace else [False]
        for traced in passes:
            restore = None
            if traced:
                rec.new_round()
                traced_rounds.append(rec.current_round)
                restore = spans.instrument(rec)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                ops = work.run_round(rec if traced else untraced)
            finally:
                if restore is not None:
                    restore()
            wall, cpu_s = time.perf_counter() - w0, time.process_time() - c0
            (traced_wall if traced else untraced_wall).append(wall)
            if not traced:
                cpu.append(cpu_s)
            if first is None:
                first = ops
                failed, wrong = work.check(ops)
                failed_keys = {f.split(": ")[0] for f in failed}
            else:
                wrong = wrong + compare(first, ops, traced)
            attempted += len(ops)
            failures += sum(1 for op in ops if op.key in failed_keys)
        elapsed = time.perf_counter() - start
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(probe_setup(args))
        if elapsed >= args.seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrong = wrong + work.deep_check()

    for line in failed[:5]:
        print("known fault:", line, file=sys.stderr)
    for line in wrong[:20]:
        print("WRONG:", line, file=sys.stderr)

    if args.trace:
        overhead_s = work.round_time(traced_wall) - work.round_time(untraced_wall)
        values = spans.layer_metrics(rec, traced_rounds, overhead_s,
                                       statistics.median(p["import_s"] for p in probes))
        rec.dump(os.path.join(WORK, f"trace-{args.workload}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "wall_s": work.round_time(untraced_wall),
            "cpu_s": work.round_time(cpu),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(f"{args.workload}: {len(untraced_wall) + len(traced_wall)} rounds, "
          f"{attempted} operations, {failures} failed on known faults", file=sys.stderr)
    print(json.dumps(result))
    return 0


def compare(first, ops, traced) -> list[str]:
    """A later round, traced or not, must reproduce the first round."""
    what = "traced round" if traced else "repeat"
    if [op.key for op in ops] != [op.key for op in first]:
        return [f"{what}: operations differ from the first round"]
    for a, b in zip(first, ops):
        if (a.output, a.error) != (b.output, b.error):
            return [f"{what}: {b.key} differs from the first round"]
    return []


if __name__ == "__main__":
    sys.exit(main())
