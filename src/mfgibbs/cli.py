"""Command line front end: JSON config in, CSV out.

Every setting is resolved by one reader, `_setting`: the flag when it is
given, else the config field, else the default.  It returns where the
value came from, and its checks name that flag or field, so every fault
in the input exits 2 with its source named.  Each rule about a value
lives in the library type or function that consumes it (Scales, the
box sizes of coarse_spectrum, the probe's odd k, the level cap); the
CLI states none of them again, and turns the library's refusal into a
ConfigError that names the value's source.  Each subcommand returns its
table, a header, rows and a one-line summary; `main` writes the rows as
CSV, to --out or stdout, and the summary to stderr.

Output is byte-identical for a given config, regardless of --threads
(accepted and ignored).  Numbers are printed with 17 significant digits
so CSV golden files round-trip through binary64 exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import (CapacityError, ConfigError, DomainError,
                     NormalizationError, PrecisionError, ToolkitError)
from .estimators import (DepthPolicy, DistributionFunction, Scales,
                         coarse_spectrum, deep_policy, default_policy,
                         default_scale_base, holder_exponent_estimate)
from .holder_lab import (PROBE_MAX_PERIOD, PROBE_MIN_DEPTHS, _require_odd,
                         derivative_limit_probe, detrend_exponent_test)
from .ifs_geometry import IfsSystem, stream_point
from .spectrum import (DEFAULT_Q_MAX, DEFAULT_Q_MIN, DEFAULT_Q_STEPS,
                       beta_grid, endpoints, spectrum_curve,
                       spectrum_predictions)
from .symbolic import ENUMERATION_CAP, PeriodicWord, Word
from .thermodynamics import (Potential, _check_level, cohomology_diagnostic,
                             default_level, effective_range, normalize,
                             pressure, require_normalized)

SCHEMA_VERSION = 1

# the default battery for verify-prop: short periodic codings mixing
# both letters in assorted proportions, plus the two fixed points
DEFAULT_BATTERY = (
    "0", "1", "01", "10", "001", "010", "100", "011", "110", "101",
    "0111", "1110", "1101", "1011", "00111", "01110", "11100", "11001",
    "10011", "01111")


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{where}: expected a number, got "
                          f"{type(value).__name__}")
    p, slash, q = str(value).partition("/")
    try:
        number = float(p) / float(q) if slash else float(value)
    except (ValueError, ArithmeticError):
        kind = "rational" if slash else "number"
        raise ConfigError(f"{where}: bad {kind} {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _int(value, where: str) -> int:
    v = _num(value, where)
    if not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def _each(read, unit: str = ""):
    """A reader of lists whose entries `read` reads; given a unit, the
    list must hold at least one."""
    def read_list(value, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got "
                              f"{type(value).__name__}")
        values = [read(v, where) for v in value]
        if unit and not values:
            raise ConfigError(f"{where}: need at least one {unit}")
        return values
    return read_list


# a q or alpha grid point costs a root or a Legendre step
_GRID_POINTS = 10**6


def _at_least(n: int, unit: str, cap: float = math.inf):
    """A reader of integers of at least n, counting `unit`, and at most
    `cap` and the cap on enumerated counts."""
    def read(value, where: str) -> int:
        v = _int(value, where)
        if v < n:
            raise ConfigError(f"{where}: need at least {n} {unit}, got {v}")
        top = min(cap, ENUMERATION_CAP)
        if v > top:
            raise ConfigError(f"{where}: at most {top} {unit}, got {v}")
        return v
    return read


def _positive(read):
    """`read`, refusing a value of 0 or below."""
    def read_positive(value, where: str):
        v = read(value, where)
        if v <= 0:
            raise ConfigError(f"{where}: must be positive, got {v:g}")
        return v
    return read_positive


def _within(lo: float, hi: float):
    """A reader of numbers from lo to hi, the ends included."""
    def read(value, where: str) -> float:
        v = _num(value, where)
        if not lo <= v <= hi:
            raise ConfigError(f"{where}: {v} is outside [{lo}, {hi}]")
        return v
    return read


def _named(where: str, errors, call, *args, **kwargs):
    """call(*args, **kwargs), a refusal of type `errors` turned into a
    ConfigError that names `where`, the value's source: the library
    states the rule, the CLI only where the value came from."""
    try:
        return call(*args, **kwargs)
    except errors as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _block(cfg: dict, key: str) -> dict:
    """Optional config section `key`; absent means all defaults."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object, got "
                          f"{type(block).__name__}")
    return block


def _get(mapping, key, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{where}: missing field {key!r}")
    return mapping[key]


def _setting(args, cfg: dict, flag, field: str, default, read):
    """One setting as `(value, where)`, where naming its source.

    The value is the flag's when the flag is given, else the config
    field `section.key` (a bare `key` is top-level), else `default`; a
    field with no default must be set.  `read(value, where)` checks and
    converts it, so its faults name the flag or field.
    """
    section, _, key = field.rpartition(".")
    block = _block(cfg, section) if section else cfg
    value = getattr(args, flag[2:].replace("-", "_"), None) if flag else None
    if value is not None:
        return read(value, flag), flag
    value = (_get(block, key, section) if default is None
             else block.get(key, default))
    return read(value, field), field


def _field(cfg: dict, field: str, default, read):
    """The value of a config field that no flag sets."""
    return _setting(None, cfg, None, field, default, read)[0]


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # a long integer, deep nesting
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {version!r}")
    return cfg


def build_system(cfg: dict) -> IfsSystem:
    sys_cfg = _get(cfg, "system", "config")
    family = _get(sys_cfg, "family", "system")
    dom = _get(sys_cfg, "domain", "system")
    if not isinstance(dom, list) or len(dom) != 2:
        raise ConfigError("system.domain: expected [lo, hi]")
    domain = (_num(dom[0], "system.domain"), _num(dom[1], "system.domain"))
    maps = _get(sys_cfg, "maps", "system")
    if not isinstance(maps, list) or len(maps) < 2:
        raise ConfigError("system.maps: need a list of at least two maps")
    if family not in ("affine", "moebius"):
        raise ConfigError(f"system.family: unknown family {family!r}")
    keys = ("ratio", "offset") if family == "affine" else ("a", "b", "c", "d")
    entries = [tuple(_num(_get(mp, key, f"maps[{i}]"), f"maps[{i}].{key}")
                     for key in keys) for i, mp in enumerate(maps)]
    build = IfsSystem.affine if family == "affine" else IfsSystem.moebius
    return _named("system", ValueError, build, domain, entries)


def _potential(cfg: dict, ifs: IfsSystem) -> Potential:
    """The config's potential as written, before any normalization."""
    _get(cfg, "potential", "config")
    kind = _get(_block(cfg, "potential"), "kind", "potential")
    m = ifs.alphabet_size
    nums = _each(_num)
    try:
        if kind == "bernoulli":
            if "probabilities" in cfg["potential"]:
                vals = _field(cfg, "potential.probabilities", None, nums)
                psi = Potential.from_probabilities(vals)
            else:
                vals = _field(cfg, "potential.log_weights", None, nums)
                psi = Potential.bernoulli(vals)
            if len(vals) != m:
                raise ConfigError(
                    f"potential: {len(vals)} weights for {m} maps")
        elif kind == "finite_range":
            psi = Potential.finite_range(
                _field(cfg, "potential.depth", None, _int), m,
                _field(cfg, "potential.table", None, nums))
        elif kind == "geometric_multiple":
            coeff = _field(cfg, "potential.coefficient", None, _num)
            shift = _field(cfg, "potential.shift", 0.0, _num)
            try:
                psi = Potential.geometric(ifs, coeff, shift)
            except ValueError as exc:  # led by the field, geom or shift
                raise ConfigError("potential." + str(exc).replace(
                    "geom:", "coefficient:", 1)) from None
        else:
            raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    return psi


def _normalizes(cfg: dict) -> bool:
    """Whether the config asks for its potential normalized."""
    norm = _block(cfg, "potential").get("normalize", False)
    if not isinstance(norm, bool):
        raise ConfigError(f"potential.normalize: expected true or false, "
                          f"got {norm!r}")
    return norm


def build_potential(cfg: dict, ifs: IfsSystem, threads=None,
                    depth: int = 10):
    """The config's potential, normalized at level `depth` if it asks.

    `threads` is unused; it stays third because perfbench/workloads.py
    passes a thread count there, which would otherwise become `depth`.
    """
    psi = _potential(cfg, ifs)
    if _normalizes(cfg):
        # _level refuses a level past the cap, so the one CapacityError
        # left is a finite-range table's transfer matrix
        psi = _named("potential.depth", CapacityError, normalize, ifs, psi,
                     k_max=depth)
    return psi


# the subcommands that read --depth as the periodic-point level
_LEVEL_COMMANDS = ("pressure", "beta", "spectrum", "predict-packing")


def _level(args, cfg: dict, ifs: IfsSystem) -> int:
    """The one periodic-point level of a run.

    --depth where the subcommand reads it as the level, else the
    config's pressure.depth, else the library default (the potential's
    range, or 10).  The potential is normalized at this level and
    pressure, beta and the spectra solve at it, so beta(1) = 0 holds
    at the level of the roots; no other `--depth` moves it.  A level
    the run composes is refused past the enumeration cap: beta and the
    spectra always compose it, pressure and normalization only short of
    the potential's range.
    """
    psi = _potential(cfg, ifs)
    flag = "--depth" if args.command in _LEVEL_COMMANDS else None
    level, where = _setting(args, cfg, flag, "pressure.depth",
                            default_level(ifs, psi), _positive(_int))
    r = effective_range(ifs, psi)
    if (args.command in ("beta", "spectrum", "predict-packing")
            or (r is None or r > level)
            and (args.command == "pressure" or _normalizes(cfg))):
        _named(where, CapacityError, _check_level, ifs.alphabet_size, level)
    return level


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _points(args, cfg: dict, section: str, read) -> list:
    """--points, else the config's `section.points`, else its top-level
    `points`, each point read by `read`."""
    field = f"{section}.points"
    if "points" not in _block(cfg, section):
        if args.points is None and "points" not in cfg:
            raise ConfigError(f"no points given: pass --points or set "
                              f"{field} in the config")
        field = "points"
    return _setting(args, cfg, "--points", field, None,
                    _each(read, "point"))[0]


def _scales_from(cfg: dict, ifs: IfsSystem) -> Scales:
    if "scales" not in cfg:
        return Scales(default_scale_base(ifs))
    base = _field(cfg, "scales.base", None, _num)
    j_min = _field(cfg, "scales.j_min", 1, _int)
    j_max = _field(cfg, "scales.j_max", 20, _int)
    try:
        return Scales(base, j_min, j_max)
    except ValueError as exc:  # led by the field at fault
        raise ConfigError(f"scales.{exc}") from None


def _distribution(ifs, psi, policy=None) -> DistributionFunction:
    """The DistributionFunction of psi.  Its one ValueError, the refusal
    of a table, is led by `depth:` and becomes a ConfigError naming
    potential.depth."""
    try:
        return DistributionFunction(ifs, psi, policy)
    except ValueError as exc:
        raise ConfigError(f"potential.{exc}") from None


def _q_grid(args, cfg, ifs, psi, min_steps: int = 3):
    """The q grid from the flags, else the config, for a potential of
    zero pressure: one the config normalizes, or one that passes the
    gate before any beta(q) root."""
    q_min, at_min = _setting(args, cfg, "--q-min", "q_grid.min",
                             DEFAULT_Q_MIN, _num)
    q_max, at_max = _setting(args, cfg, "--q-max", "q_grid.max",
                             DEFAULT_Q_MAX, _num)
    steps, _ = _setting(args, cfg, "--q-steps", "q_grid.steps",
                        DEFAULT_Q_STEPS,
                        _at_least(min_steps, "points", _GRID_POINTS))
    if q_min >= q_max:
        raise ConfigError(f"{at_min}: {q_min:g} is not below the grid's "
                          f"upper end {q_max:g}")
    if q_max - q_min == math.inf:
        raise ConfigError(f"{at_max}: the span from {q_min:g} to {q_max:g} "
                          f"overflows")
    if not _normalizes(cfg):
        require_normalized(ifs, psi)
    # the end of larger |q|, which spectrum_curve and beta_grid refuse first
    return q_min, q_max, steps, at_max if abs(q_max) >= abs(q_min) else at_min


def _curve(args, cfg, ifs, psi, level):
    """The spectrum curve on the q grid, for `spectrum` and
    `predict-packing`."""
    q_min, q_max, steps, far = _q_grid(args, cfg, ifs, psi)
    return _named(far, PrecisionError, spectrum_curve, ifs, psi, k=level,
                  q_min=q_min, q_max=q_max, q_steps=steps)


def _cmd_check(args, cfg, ifs, psi, level):
    diag = cohomology_diagnostic(ifs, psi)
    rng = effective_range(ifs, psi)
    osc = ifs.osc_report
    rows = [
        ("family", "affine" if ifs.is_affine() else "moebius"),
        ("alphabet_size", ifs.alphabet_size),
        ("r_min", ifs.r_min),
        ("r_max", ifs.r_max),
        ("osc_satisfied", osc.satisfied),
        ("effective_range", "none" if rng is None else rng),
        ("ratio_min", diag.ratio_min),
        ("ratio_max", diag.ratio_max),
        ("degenerate", diag.degenerate),
    ]
    return (("property", "value"), rows,
            f"check: osc={_fmt(osc.satisfied)} "
            f"degenerate={_fmt(diag.degenerate)}")


def _cmd_pressure(args, cfg, ifs, psi, level):
    tol, _ = _setting(args, cfg, "--tol", "pressure.tol", 1e-12,
                      _within(0.0, math.inf))
    r = effective_range(ifs, psi)
    if level < 2 and (r is None or r > level):
        # short of the potential's range the bound needs two levels
        at = "--depth" if args.depth is not None else "pressure.depth"
        raise ConfigError(f"{at}: need at least 2 levels, got {level}")
    # as in build_potential, a CapacityError is the transfer matrix's
    result = _named("potential.depth", CapacityError, pressure, ifs, psi,
                    k_max=level, tol=tol)
    return (("level", "pressure"),
            [(i + 1, v) for i, v in enumerate(result.levels)],
            f"pressure: value={_fmt(result.value)} "
            f"error_bound={_fmt(result.error_bound)} "
            f"levels={len(result.levels)}")


def _cmd_beta(args, cfg, ifs, psi, level):
    q_min, q_max, steps, far = _q_grid(args, cfg, ifs, psi, min_steps=2)
    # the grid that spectrum_curve samples
    qs, betas, _ = _named(far, PrecisionError, beta_grid, ifs, psi,
                          np.linspace(q_min, q_max, steps), k=level)
    return (("q", "beta"), zip(qs.tolist(), betas.tolist()),
            f"beta: {steps} points on [{q_min:g}, {q_max:g}]")


def _cmd_spectrum(args, cfg, ifs, psi, level):
    curve = _curve(args, cfg, ifs, psi, level)
    columns = (curve.qs, curve.betas, curve.alphas, curve.beta_stars)
    return (("q", "beta", "alpha", "beta_star"),
            zip(*(column.tolist() for column in columns)),
            f"spectrum: alpha_minus={curve.alpha_minus:.6f} "
            f"alpha_plus={curve.alpha_plus:.6f} "
            f"alpha_zero={curve.alpha_zero:.6f} "
            f"beta_star_alpha_zero={curve.dimension:.6f} "
            f"degenerate={_fmt(curve.degenerate)}")


def _cmd_endpoints(args, cfg, ifs, psi, level):
    ell_max, where = _setting(args, cfg, "--depth", "endpoints.ell_max", 6,
                              _positive(_int))
    # a level past the cap is refused before any level is composed
    lo, hi = _named(where, CapacityError, endpoints, ifs, psi,
                    ell_max=ell_max)
    return (("alpha_minus", "alpha_plus"), [(lo, hi)],
            f"endpoints: [{lo:.6f}, {hi:.6f}] at ell_max={ell_max}")


def _cmd_cdf(args, cfg, ifs, psi, level):
    # outside the domain F is 0 or 1, so any finite point is valid
    points = _points(args, cfg, "cdf", _num)
    default = default_policy(ifs)
    policy = DepthPolicy(
        max_depth=args.depth or default.max_depth,
        mass_tol=default.mass_tol if args.tol is None
        else _within(0.0, math.inf)(args.tol, "--tol"))
    F = _distribution(ifs, psi, policy)
    rows = [(x, *F.cdf(x)) for x in points]
    worst = max([0.0] + [bound for _, _, bound in rows])
    return (("x", "value", "error_bound"), rows,
            f"cdf: {len(points)} points, max error bound {_fmt(worst)}")


def _cmd_holder(args, cfg, ifs, psi, level):
    points = _points(args, cfg, "holder", _within(*ifs.domain))
    scales = _scales_from(cfg, ifs)
    F = _distribution(ifs, psi, deep_policy(ifs))
    ests = [holder_exponent_estimate(F, t0, scales) for t0 in points]
    rows = [(est.t0, est.exponent, len(est.scale_pairs)) for est in ests]
    return (("t0", "exponent", "usable_scales"), rows,
            f"holder: {len(points)} points, method=regression")


def _cmd_coarse(args, cfg, ifs, psi, level):
    if args.depth is not None:
        where = "--depth"
        # a depth past the float range's exponents forms no box size
        deltas = [_named(where, OverflowError, pow, default_scale_base(ifs),
                         -args.depth)]
    else:
        deltas, where = _field(cfg, "coarse.deltas", None,
                               _each(_num, "box size")), "coarse.deltas"
    width = _field(cfg, "coarse.alpha_bin_width", 0.2, _positive(_num))
    F = _distribution(ifs, psi)
    try:
        # every box size is checked before the first box is counted
        results = coarse_spectrum(F, deltas, alpha_bin_width=width)
    except (DomainError, CapacityError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError as exc:  # the width's bins leave int64
        raise ConfigError(f"coarse.alpha_bin_width: {exc}") from None
    # a bin is (alpha_center, count, f_alpha)
    rows = [(result.delta, *b) for result in results for b in result.bins]
    return (("delta", "alpha_center", "count", "f_alpha"), rows,
            f"coarse: {len(deltas)} deltas, {len(rows)} bins, "
            f"kept_mass_min={min(r.kept_mass for r in results):.6f}")


def _cmd_verify_prop(args, cfg, ifs, psi, level):
    m = ifs.alphabet_size

    def word(value, where):
        text = str(value)
        try:
            parsed = Word.parse(text)
        except ValueError:
            parsed = Word(())
        if not parsed or max(parsed) >= m:
            raise ConfigError(f"{where}: {text!r} is not a word on the "
                              f"symbols 0 to {m - 1}")
        w = parsed.symbols
        period = next(p for p in range(1, len(w) + 1) if w == w[p:] + w[:p])
        if period > PROBE_MAX_PERIOD:
            raise ConfigError(f"{where}: {text!r} has period {period}; the "
                              f"probe resolves periods up to "
                              f"{PROBE_MAX_PERIOD}")
        return text, parsed

    def odd(value, where):
        k = _int(value, where)
        _named(where, ValueError, _require_odd, k)
        return k
    words = _field(cfg, "probe.words", list(DEFAULT_BATTERY), _each(word))
    ks = _field(cfg, "probe.ks", [1, 3], _each(odd))
    n_max, _ = _setting(args, cfg, "--depth", "probe.n_max", 25,
                        _at_least(PROBE_MIN_DEPTHS, "depths"))
    F = _distribution(ifs, psi, deep_policy(ifs))
    # the probe stops short of F's depth cap, so no deeper scale is read,
    # and 2**-n_max stays a positive radius
    scales = Scales(2.0, 1, min(n_max, F.policy.max_depth))
    rows = []
    finite = violations = 0
    for text, parsed in words:
        x = stream_point(ifs, PeriodicWord(parsed).stream())
        for k in ks:
            probe = derivative_limit_probe(F, x, k, scales)
            hit = probe.classification == "finite_limit"
            finite += hit
            violations += hit and not probe.degenerate_hypothesis
            rows.append((text, k, x, probe.classification,
                         math.nan if probe.limit_value is None
                         else probe.limit_value,
                         probe.degenerate_hypothesis))
    return (("word", "k", "x", "classification", "limit_value",
             "degenerate_hypothesis"), rows,
            f"verify-prop: {len(rows)} probes, finite_limit={finite}, "
            f"violations={violations}", 1 if violations else 0)


def _cmd_detrend(args, cfg, ifs, psi, level):
    in_domain = _within(*ifs.domain)
    if args.points is None:
        t0 = _field(cfg, "detrend.t0", None, in_domain)
    elif len(args.points) == 1:
        t0 = in_domain(args.points[0], "--points")
    else:
        raise ConfigError(f"--points: detrend takes one point, "
                          f"got {len(args.points)}")
    alpha_hat = (_field(cfg, "detrend.alpha_hat", None, _num)
                 if "alpha_hat" in _block(cfg, "detrend") else None)
    windows = _field(cfg, "detrend.windows", 8, _at_least(2, "windows"))
    F = _distribution(ifs, psi, deep_policy(ifs))
    result = detrend_exponent_test(F, t0, alpha_hat, windows=windows)
    rows = []
    for j, per_window in enumerate(result.coefficients, start=1):
        for i, coeff in enumerate(per_window):
            rows.append((j, i + 1, result.window_radii[i], coeff))
    residual = (math.nan if result.residual_exponent is None
                else result.residual_exponent)
    return (("degree", "window", "radius", "coefficient"), rows,
            f"detrend: t0={t0:g} alpha_hat={result.alpha_hat:.6f} "
            f"residual={residual:.6f} passed={_fmt(result.passed)} "
            f"skipped={_fmt(result.skipped)} "
            f"violation={_fmt(result.hypothesis_violation)}")


def _cmd_predict_packing(args, cfg, ifs, psi, level):
    curve = _curve(args, cfg, ifs, psi, level)
    if "alphas" in _block(cfg, "packing"):
        alphas = _field(cfg, "packing.alphas", None, _each(_num))
    else:
        n = _field(cfg, "packing.alpha_steps", 101,
                   _at_least(2, "points", _GRID_POINTS))
        lo, hi = curve.alpha_minus, curve.alpha_plus
        alphas = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return (("alpha", "hausdorff", "packing", "empty"),
            spectrum_predictions(curve, alphas),
            f"predict-packing: plateau={curve.dimension:.6f} on "
            f"[{curve.alpha_minus:.6f}, {curve.alpha_zero:.6f}]")


_Q_FLAGS = ("--depth", "--q-min", "--q-max", "--q-steps")
# each subcommand's handler and the flags it reads besides --config, --out
# and --threads; any other flag is an argparse error
_COMMANDS = {
    "check": (_cmd_check, ()),
    "pressure": (_cmd_pressure, ("--depth", "--tol")),
    "beta": (_cmd_beta, _Q_FLAGS),
    "spectrum": (_cmd_spectrum, _Q_FLAGS),
    "endpoints": (_cmd_endpoints, ("--depth",)),
    "cdf": (_cmd_cdf, ("--points", "--depth", "--tol")),
    "holder": (_cmd_holder, ("--points",)),
    "coarse": (_cmd_coarse, ("--depth",)),
    "verify-prop": (_cmd_verify_prop, ("--depth",)),
    "detrend": (_cmd_detrend, ("--points",)),
    "predict-packing": (_cmd_predict_packing, _Q_FLAGS),
}
_FLAG_TYPES = {"--depth": int, "--tol": float, "--q-min": float,
               "--q-max": float, "--q-steps": int, "--points": str}


# one parser per process: parse_args reads it and changes nothing, and
# a parser built per call leaves its subparsers in reference cycles
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgibbs",
        description="Multifractal toolkit for Gibbs measures on "
                    "self-conformal sets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored")
        for flag in flags:
            p.add_argument(flag, type=_FLAG_TYPES[flag], default=None)
    return parser


def _check_args(args) -> None:
    """The flag faults found before the config is read; --points becomes
    the list of its comma-separated points."""
    if args.threads < 1:
        raise ConfigError("--threads must be positive")
    if getattr(args, "depth", None) is not None and args.depth < 1:
        raise ConfigError("--depth must be positive")
    text = getattr(args, "points", None)
    if text is not None:
        args.points = [tok for tok in map(str.strip, text.split(",")) if tok]
        if not args.points:
            raise ConfigError(f"--points: no points in {text!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        cfg = load_config(args.config)
        ifs = build_system(cfg)
        level = _level(args, cfg, ifs)
        psi = build_potential(cfg, ifs, depth=level)
        try:
            header, rows, summary, *code = _COMMANDS[args.command][0](
                args, cfg, ifs, psi, level)
        except NormalizationError as exc:
            if not _normalizes(cfg):
                raise
            # the distribution function checks the pressure deeper than
            # a shallow level pins it to zero
            raise ConfigError(
                f"pressure.depth: level {level} is too shallow to "
                f"normalize at; the potential keeps pressure "
                f"{exc.value:.3e}, not zero within {exc.bound:.3e}") from None
        text = "".join(",".join(map(_fmt, row)) + "\n"
                       for row in (header, *rows))
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"--out: {exc}") from None
        else:
            sys.stdout.write(text)
        print(summary, file=sys.stderr)
        return code[0] if code else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
