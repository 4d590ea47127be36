"""Every name the package exports has a caller in the library or the
benchmark, apart from the oracles listed here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfgibbs"

# exported for tests and for readers as a closed-form reference
ORACLES = {"exact_exponent_at_coded_point"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def _referenced(path: Path, strings: bool) -> set[str]:
    """Names a module reads, imports or (with `strings`) spells as a
    string; a def or class statement alone is no reference."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def test_every_export_has_a_caller():
    exported = {alias.asname or alias.name
                for node in ast.walk(_tree(PACKAGE / "__init__.py"))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced(path, strings=False)
    # perfbench wraps some functions by their names as strings
    for path in (ROOT / "perfbench").rglob("*.py"):
        used |= _referenced(path, strings=True)
    assert ORACLES <= exported
    assert sorted(exported - used - ORACLES) == []
