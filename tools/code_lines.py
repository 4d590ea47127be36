"""Count the code lines of each module of the mfgibbs package.

A code line is a line that is not blank, not only a comment, and not
inside a module, class or function docstring; docstrings are found with
`ast`.  Prints one line per module and the total:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/mfgibbs next to this script's parent.
"""

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "mfgibbs"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(1 for n, line in enumerate(text.splitlines(), start=1)
               if n not in skip and line.strip()
               and not line.strip().startswith("#"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else DEFAULT
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:24} {n:6}")
    print(f"{'total':24} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
