"""CLI output pinned byte for byte on every sample config.

Each file under tests/golden/<config>/ holds the exit code, stdout and
stderr of one `mfgibbs` invocation.  A change that moves a printed
number on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints each rewritten file whose content changed, with the
number of moved numbers and the largest move, for its change notes.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mfgibbs import thermodynamics
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:nan|inf)")


def moved_numbers(old: str, new: str) -> tuple[int, float] | None:
    """How many numbers differ between two outputs and the largest
    |difference|, or None when the text between the numbers differs."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    moved = [abs(float(a) - float(b)) for a, b
             in zip(_NUMBER.findall(old), _NUMBER.findall(new)) if a != b]
    return len(moved), max(moved, default=0.0)


def rewrite_goldens() -> None:
    """Write every case's golden and report those whose content changed."""
    for config, variant in CASES:
        path = golden_path(config, variant)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        new = run_case(config, variant)
        if new == old:
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(new, encoding="utf-8")
        name = path.relative_to(ROOT)
        if old is None:
            print(f"{name}: new file")
        elif (moved := moved_numbers(old, new)) is None:
            print(f"{name}: text changed")
        else:
            print(f"{name}: {moved[0]} numbers moved, "
                  f"largest |delta| {moved[1]:.3g}")


def test_moved_numbers_counts_each_move_and_the_largest():
    old = "exit 0\nq,beta\n-1,0.5\n0,2e-17\n1,-3\n"
    assert moved_numbers(old, old) == (0, 0.0)
    new = "exit 0\nq,beta\n-1,0.25\n0,2e-17\n1,-3.5\n"
    assert moved_numbers(old, new) == (2, 0.5)
    assert moved_numbers(old, old.replace("beta", "alpha")) is None


@pytest.mark.parametrize("config,variant", CASES)
def test_cli_output_matches_golden(config, variant):
    expected = golden_path(config, variant).read_text(encoding="utf-8")
    assert run_case(config, variant) == expected


@pytest.mark.parametrize("chunk", [1 << 12, 1 << 19])
@pytest.mark.parametrize("variant", ["pressure-deep", "beta-deep"])
def test_deep_moebius_goldens_do_not_depend_on_block_size(monkeypatch,
                                                          variant, chunk):
    # level 19 is composed in 128 blocks, then in one
    monkeypatch.setattr(thermodynamics, "_CHUNK", chunk)
    expected = golden_path("moebius_pair", variant).read_text(encoding="utf-8")
    assert run_case("moebius_pair", variant) == expected


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
    rewrite_goldens()
