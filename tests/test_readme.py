"""The python blocks of README.md run as written, in order, in one
namespace, as a reader would paste the tour; and each `mfgibbs` line of
its command block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from mfgibbs.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# the lines of the command-line block
COMMANDS = [line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("mfgibbs ")]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_lists_every_subcommand():
    assert sorted(line.split()[1] for line in COMMANDS) == sorted(_COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, capsys, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:  # the block writes its own file; keep it here
        i = argv.index("--out")
        del argv[i:i + 2]
    monkeypatch.chdir(ROOT)
    code = main(argv + ["--out", str(tmp_path / "out.csv")])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "out.csv").read_text().count("\n") >= 2
