"""CLI output pinned byte for byte on every sample config.

Each file under tests/golden/<config>/ holds the exit code, stdout and
stderr of one `mfgibbs` invocation.  A change that moves a printed
number on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and names each moved number in its change notes.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfgibbs.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("cantor_14_34", "lebesgue", "moebius_pair", "uniform_cantor")
VARIANTS = {
    "check": ("check",),
    "pressure": ("pressure",),
    "pressure-deep": ("pressure", "--depth", "19"),
    "beta": ("beta", "--q-steps", "21"),
    "beta-deep": ("beta", "--depth", "15", "--q-steps", "21"),
    "spectrum": ("spectrum",),
    "endpoints": ("endpoints",),
    "cdf": ("cdf", "--points", "0,1/9,0.25,1/3,0.5,0.7,1"),
    "holder": ("holder", "--points", "0,1"),
    "coarse": ("coarse", "--depth", "8"),
    "predict-packing": ("predict-packing",),
    "verify-prop": ("verify-prop", "--depth", "12"),
    "detrend": ("detrend",),
    "detrend-points": ("detrend", "--points", "0.25"),
}
CASES = [(config, variant) for config in CONFIGS for variant in VARIANTS]


def run_case(config: str, variant: str) -> str:
    argv = [*VARIANTS[variant], "--config",
            str(ROOT / "configs" / f"{config}.json"), "--threads", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"exit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def golden_path(config: str, variant: str) -> Path:
    return GOLDEN / config / f"{variant}.txt"


@pytest.mark.parametrize("config,variant", CASES)
def test_cli_output_matches_golden(config, variant):
    expected = golden_path(config, variant).read_text(encoding="utf-8")
    assert run_case(config, variant) == expected


# replays every case in a fresh interpreter whose BLAS runs one thread
_REPLAY = """
from test_golden_cli import CASES, golden_path, run_case
bad = [f"{c}/{v}" for c, v in CASES
       if run_case(c, v) != golden_path(c, v).read_text(encoding="utf-8")]
print("mismatched goldens:", *bad)
raise SystemExit(1 if bad else 0)
"""


def test_goldens_do_not_depend_on_blas_threads():
    path = [str(ROOT / "src"), str(ROOT / "tests"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _REPLAY], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    for config, variant in CASES:
        path = golden_path(config, variant)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(run_case(config, variant), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files under {GOLDEN}", file=sys.stderr)
