"""Time `import mfgibbs.cli` in fresh processes.

    python tools/import_time.py [--runs N] [--against DIR]

Each run starts a new interpreter, imports numpy, and then times `import
mfgibbs.cli` from a source tree: this repository's src, and with
`--against DIR` also DIR/src, another checkout, the two runs of a round
alternating so that a change in the machine's load reaches both trees
alike.  Prints each tree's median and quartiles over N runs (default 20)
and the core count.

Each tree's package is timed from a copy without its __pycache__, so
a stale cache in one checkout does not favour either.  The tool states
whether bytecode was written.  Where it is not (PYTHONDONTWRITEBYTECODE
set, or python -B), every run compiles the package again and the time
includes the compilation.  Where it is, one untimed run per tree writes
the cache first, and the times are of loading it.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ("import time, numpy\n"
         "start = time.perf_counter()\n"
         "import mfgibbs.cli\n"
         "print(time.perf_counter() - start)\n")


def import_seconds(src: Path) -> float:
    """One fresh process's `import mfgibbs.cli` from src, numpy loaded."""
    done = subprocess.run([sys.executable, "-c", CHILD],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20,
                        help="timed runs per tree, at least 2")
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout, timed from its src")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    trees = [ROOT / "src"]
    if args.against is not None:
        trees.append(args.against.resolve() / "src")
    for src in trees:
        if not (src / "mfgibbs" / "cli.py").is_file():
            parser.error(f"no mfgibbs package in {src}")
    times = {src: [] for src in trees}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {src: Path(tmp) / str(i) for i, src in enumerate(trees)}
        for src, copy in copies.items():
            shutil.copytree(src / "mfgibbs", copy / "mfgibbs",
                            ignore=shutil.ignore_patterns("__pycache__"))
        if sys.flags.dont_write_bytecode:
            print("bytecode not written: every run compiles the package")
        else:
            print("bytecode written: one untimed run per tree fills the "
                  "cache")
            for copy in copies.values():
                import_seconds(copy)
        for _ in range(args.runs):
            for src, copy in copies.items():
                times[src].append(import_seconds(copy))
    print(f"import mfgibbs.cli after numpy, {args.runs} runs per tree, "
          f"{os.cpu_count()} cores")
    for src, ts in times.items():
        q1, median, q3 = (1e3 * q for q in statistics.quantiles(ts, n=4))
        print(f"{str(src):40} median {median:6.1f} ms, "
              f"quartiles {q1:.1f}-{q3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
