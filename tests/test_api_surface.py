"""Every name the package exports has a caller in the library or the
benchmark, apart from the oracles listed here; result records are named
tuples, and dataclasses are kept for the types that check or derive
their fields."""

import ast
import dataclasses
import importlib
import inspect
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


# each result record and its fields, in order; only the last fields
# of PressureResult and OscReport have defaults
RECORDS = {
    "estimators.CdfValue": ("value", "error_bound"),
    "estimators.HolderEstimate": ("t0", "exponent", "scale_pairs"),
    "estimators.CoarseBin": ("alpha_center", "count", "f_alpha"),
    "estimators.CoarseSpectrum": ("delta", "bin_width", "bins", "kept_mass"),
    "holder_lab.SecantSlope": ("total", "decomposition_check"),
    "holder_lab.TauBlock": ("tau", "value"),
    "holder_lab.Separator": ("word", "case", "interval"),
    "holder_lab.ScalingRecord": ("n", "N", "s", "t", "r", "slope_k",
                                 "separator"),
    "holder_lab.PerturbationExperiment": (
        "tau", "ell", "k", "n_set", "N_range", "records", "slope_log_slope",
        "slope_log_r", "expected_log_slope", "expected_log_r",
        "residual_spread_by_N"),
    "holder_lab.SlopeRecord": ("n", "s", "t", "slope_k"),
    "holder_lab.SlopeProbe": ("x", "omega_prefix", "k", "records",
                              "classification", "limit_value",
                              "oscillation_range", "degenerate_hypothesis"),
    "holder_lab.DetrendResult": ("t0", "alpha_hat", "degree_max",
                                 "window_radii", "coefficients",
                                 "residual_exponent", "passed", "skipped",
                                 "hypothesis_violation"),
    "ifs_geometry.OscReport": ("satisfied", "violations"),
    "spectrum.LevelSums": ("level", "geometric", "potential", "counts"),
    "spectrum.LegendreValue": ("value", "interior"),
    "thermodynamics.PressureResult": ("value", "error_bound", "levels"),
    "thermodynamics.CohomologyReport": ("ratio_min", "ratio_max",
                                        "degenerate"),
}
DEFAULTS = {"thermodynamics.PressureResult": {"levels": ()},
            "ifs_geometry.OscReport": {"violations": ()}}
# the types whose construction checks or derives fields
DATACLASSES = {"estimators.DepthPolicy", "estimators.Scales",
               "ifs_geometry.ContractionMap", "ifs_geometry.IfsSystem",
               "spectrum.SpectrumCurve", "symbolic.Word",
               "symbolic.PeriodicWord", "symbolic.SymbolStream",
               "thermodynamics.Potential"}


def test_result_records_are_named_tuples():
    named, frozen = {}, set()
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"mfgibbs.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            where = f"{path.stem}.{name}"
            if issubclass(cls, tuple) and hasattr(cls, "_fields"):
                named[where] = cls
            elif dataclasses.is_dataclass(cls):
                assert cls.__dataclass_params__.frozen, where
                frozen.add(where)
    assert {where: cls._fields for where, cls in named.items()} == RECORDS
    assert {where: cls._field_defaults for where, cls in named.items()
            if cls._field_defaults} == DEFAULTS
    assert frozen == DATACLASSES
    # the lab module carries results only
    assert "dataclasses" not in (PACKAGE / "holder_lab.py").read_text()
