"""Run the three perfbench workloads and record their end-to-end metrics.

    python tools/bench_record.py --pr N [--label NAME] [--seed S] [--seconds T]
                                 [--checkout DIR]
    python tools/bench_record.py --out PATH [...]

Each workload runs once as `python3 perfbench/run.py --trace 0` from the
root of the source checkout DIR (default: this repository).  The run is
appended, under its label, to BENCH_<N>.json at the repository root, or
to PATH: per workload its metrics, `correct`, `failed` and `attempted`,
and for the run the core count, the Python and numpy versions, and the
checkout's commit, with `dirty` set when tracked files differ from it.
Exits 1 unless every workload reports `correct: true`.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("coarse-cantor", "spectrum-moebius", "pointwise-lab")


def _git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(checkout: Path, workload: str, seed: int,
                 seconds: float) -> dict:
    """One untraced perfbench run: its JSON verdict, or the failure."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {done.returncode}: "
                f"{done.stderr.strip()[-2000:]}"}
    verdict = json.loads(lines[-1])
    return {"correct": verdict["correct"], "failed": verdict["failed"],
            "attempted": verdict["attempted"],
            "metrics": {name: m["value"]
                        for name, m in verdict["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--pr", type=int, help="write BENCH_<PR>.json")
    where.add_argument("--out", type=Path, help="write this file instead")
    parser.add_argument("--label", default="run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    run = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
           "commit": _git(checkout, "rev-parse", "HEAD"),
           "dirty": bool(_git(checkout, "status", "--porcelain",
                              "--untracked-files=no")),
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": version("numpy"), "workloads": {}}
    for workload in WORKLOADS:
        result = run_workload(checkout, workload, args.seed, args.seconds)
        run["workloads"][workload] = result
        print(f"{workload}: {json.dumps(result)}", file=sys.stderr)

    record = json.loads(out.read_text()) if out.exists() else {"runs": []}
    record["runs"].append(run)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] for r in run["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
