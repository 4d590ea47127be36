"""Command line front end: JSON config in, CSV out.

Output is byte-identical for a given config, regardless of --threads
(accepted and ignored).  Numbers are printed with 17 significant digits
so CSV golden files round-trip through binary64 exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ConfigError, NormalizationError, ToolkitError
from .estimators import (DepthPolicy, DistributionFunction, Scales,
                         coarse_spectrum, deep_policy, default_policy,
                         default_scale_base, holder_exponent_estimate)
from .holder_lab import (PROBE_MIN_DEPTHS, derivative_limit_probe,
                         detrend_exponent_test)
from .ifs_geometry import IfsSystem, stream_point
from .spectrum import (beta_grid, endpoints, spectrum_curve,
                       spectrum_predictions)
from .symbolic import PeriodicWord, Word
from .thermodynamics import (Potential, cohomology_diagnostic,
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
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number")
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, str) and "/" in value:
        p, _, q = value.partition("/")
        try:
            den = float(q)
            if den == 0.0:
                raise ValueError
            number = float(p) / den
        except ValueError:
            raise ConfigError(f"{where}: bad rational {value!r}") from None
    elif isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"{where}: bad number {value!r}") from None
    else:
        raise ConfigError(f"{where}: expected a number, got "
                          f"{type(value).__name__}")
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _int(value, where: str) -> int:
    v = _num(value, where)
    if not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got "
                          f"{type(value).__name__}")
    return value


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


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
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
    try:
        if family == "affine":
            entries = [( _num(_get(mp, "ratio", f"maps[{i}]"), f"maps[{i}].ratio"),
                         _num(_get(mp, "offset", f"maps[{i}]"), f"maps[{i}].offset"))
                       for i, mp in enumerate(maps)]
            return IfsSystem.affine(domain, entries)
        if family == "moebius":
            entries = [tuple(_num(_get(mp, key, f"maps[{i}]"),
                                  f"maps[{i}].{key}")
                             for key in ("a", "b", "c", "d"))
                       for i, mp in enumerate(maps)]
            return IfsSystem.moebius(domain, entries)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None
    raise ConfigError(f"system.family: unknown family {family!r}")


def _potential(cfg: dict, ifs: IfsSystem) -> Potential:
    """The config's potential as written, before any normalization."""
    _get(cfg, "potential", "config")
    pot_cfg = _block(cfg, "potential")
    kind = _get(pot_cfg, "kind", "potential")
    m = ifs.alphabet_size
    try:
        if kind == "bernoulli":
            if "probabilities" in pot_cfg:
                vals = [_num(v, "potential.probabilities") for v in _list(
                    pot_cfg["probabilities"], "potential.probabilities")]
                psi = Potential.from_probabilities(vals)
            else:
                vals = [_num(v, "potential.log_weights") for v in _list(
                    _get(pot_cfg, "log_weights", "potential"),
                    "potential.log_weights")]
                psi = Potential.bernoulli(vals)
            if len(vals) != m:
                raise ConfigError(
                    f"potential: {len(vals)} weights for {m} maps")
        elif kind == "finite_range":
            r = _int(_get(pot_cfg, "depth", "potential"), "potential.depth")
            table = [_num(v, "potential.table") for v in _list(
                _get(pot_cfg, "table", "potential"), "potential.table")]
            psi = Potential.finite_range(r, m, table)
        elif kind == "geometric_multiple":
            coeff = _num(_get(pot_cfg, "coefficient", "potential"),
                         "potential.coefficient")
            shift = _num(pot_cfg.get("shift", 0.0), "potential.shift")
            psi = Potential.geometric(ifs, coeff, shift)
        else:
            raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    return psi


def build_potential(cfg: dict, ifs: IfsSystem, threads=None,
                    depth: int = 10):
    """The config's potential, normalized at level `depth` if it asks.

    `threads` is unused; it stays third because perfbench/workloads.py
    passes a thread count there, which would otherwise become `depth`.
    """
    psi = _potential(cfg, ifs)
    norm = _block(cfg, "potential").get("normalize", False)
    if not isinstance(norm, bool):
        raise ConfigError(f"potential.normalize: expected true or false, "
                          f"got {norm!r}")
    if norm:
        psi = normalize(ifs, psi, k_max=depth)
    return psi


# the subcommands that read --depth as the periodic-point level
_LEVEL_COMMANDS = ("pressure", "beta", "spectrum", "predict-packing")


def _level(args, cfg: dict, ifs: IfsSystem) -> int:
    """The one periodic-point level of a run.

    --depth where the subcommand reads it as the level, else the
    config's pressure.depth, else the library default (the potential's
    range, or 10).  The potential is normalized at this level and
    pressure, beta and the spectra solve at it, so beta(1) = 0 holds
    at the level of the roots; no other `--depth` moves it.
    """
    if args.command in _LEVEL_COMMANDS and args.depth is not None:
        return args.depth
    block = _block(cfg, "pressure")
    if "depth" in block:
        depth = _int(block["depth"], "pressure.depth")
        if depth < 1:
            raise ConfigError(f"pressure.depth: must be positive, got {depth}")
        return depth
    return default_level(ifs, _potential(cfg, ifs))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(out_path, header, rows) -> None:
    text = ",".join(header) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _parse_points(text: str, where: str) -> list[float]:
    points = [_num(tok.strip(), where)
              for tok in text.split(",") if tok.strip()]
    if not points:
        raise ConfigError(f"{where}: no points in {text!r}")
    return points


def _config_points(args, cfg, key: str) -> list[float]:
    if args.points:
        return _parse_points(args.points, "--points")
    block = _block(cfg, key)
    where = f"{key}.points" if "points" in block else "points"
    pts = block.get("points", cfg.get("points"))
    if pts is None:
        raise ConfigError(f"no points given: pass --points or set "
                          f"{key}.points in the config")
    points = [_num(v, where) for v in _list(pts, where)]
    if not points:
        raise ConfigError(f"{where}: need at least one point")
    return points


def _scales_from(cfg: dict, ifs: IfsSystem) -> Scales:
    if "scales" not in cfg:
        return Scales(default_scale_base(ifs))
    block = _block(cfg, "scales")
    base = _num(_get(block, "base", "scales"), "scales.base")
    j_min = _int(block.get("j_min", 1), "scales.j_min")
    j_max = _int(block.get("j_max", 20), "scales.j_max")
    if base <= 1.0:
        raise ConfigError(f"scales.base: must exceed 1, got {base:g}")
    if j_max <= j_min:
        raise ConfigError(f"scales.j_max: must exceed scales.j_min, got "
                          f"{j_max} <= {j_min}")
    return Scales(base, j_min, j_max)


def _require_normalized(cfg, ifs, psi) -> None:
    """Refuse a potential of nonzero pressure before any beta(q) root.

    One the config asks to normalize has zero pressure by construction.
    """
    if not _block(cfg, "potential").get("normalize", False):
        require_normalized(ifs, psi)


def _q_grid(args, cfg, min_steps: int = 3):
    """The q grid from the flags, else the config; a fault names the flag
    or field its value came from."""
    block = _block(cfg, "q_grid")
    at_min = "--q-min" if args.q_min is not None else "q_grid.min"
    at_steps = "--q-steps" if args.q_steps is not None else "q_grid.steps"
    q_min = args.q_min if args.q_min is not None else _num(
        block.get("min", -10.0), at_min)
    q_max = args.q_max if args.q_max is not None else _num(
        block.get("max", 10.0), "q_grid.max")
    steps = args.q_steps if args.q_steps is not None else _int(
        block.get("steps", 201), at_steps)
    if steps < min_steps:
        raise ConfigError(f"{at_steps}: need at least {min_steps} points, "
                          f"got {steps}")
    if q_min >= q_max:
        raise ConfigError(f"{at_min}: {q_min:g} is not below the grid's "
                          f"upper end {q_max:g}")
    return q_min, q_max, steps


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
    _write_csv(args.out, ("property", "value"), rows)
    _summary(f"check: osc={_fmt(osc.satisfied)} "
             f"degenerate={_fmt(diag.degenerate)}")
    return 0


def _cmd_pressure(args, cfg, ifs, psi, level):
    tol = args.tol if args.tol is not None else _num(
        _block(cfg, "pressure").get("tol", 1e-12), "pressure.tol")
    r = effective_range(ifs, psi)
    if level < 2 and (r is None or r > level):
        # short of the potential's range the bound needs two levels
        at = "--depth" if args.depth is not None else "pressure.depth"
        raise ConfigError(f"{at}: need at least 2 levels, got {level}")
    result = pressure(ifs, psi, k_max=level, tol=tol)
    rows = [(i + 1, v) for i, v in enumerate(result.levels)]
    _write_csv(args.out, ("level", "pressure"), rows)
    _summary(f"pressure: value={_fmt(result.value)} "
             f"error_bound={_fmt(result.error_bound)} "
             f"levels={len(result.levels)}")
    return 0


def _cmd_beta(args, cfg, ifs, psi, level):
    q_min, q_max, steps = _q_grid(args, cfg, min_steps=2)
    _require_normalized(cfg, ifs, psi)
    qs = [q_min + (q_max - q_min) * i / (steps - 1) for i in range(steps)]
    qs, betas, _ = beta_grid(ifs, psi, qs, k=level)
    _write_csv(args.out, ("q", "beta"), zip(qs.tolist(), betas.tolist()))
    _summary(f"beta: {steps} points on [{q_min:g}, {q_max:g}]")
    return 0


def _cmd_spectrum(args, cfg, ifs, psi, level):
    q_min, q_max, steps = _q_grid(args, cfg)
    _require_normalized(cfg, ifs, psi)
    curve = spectrum_curve(ifs, psi, k=level, q_min=q_min, q_max=q_max,
                           q_steps=steps)
    columns = (curve.qs, curve.betas, curve.alphas, curve.beta_stars)
    _write_csv(args.out, ("q", "beta", "alpha", "beta_star"),
               zip(*(column.tolist() for column in columns)))
    _summary(f"spectrum: alpha_minus={curve.alpha_minus:.6f} "
             f"alpha_plus={curve.alpha_plus:.6f} "
             f"alpha_zero={curve.alpha_zero:.6f} "
             f"beta_star_alpha_zero={curve.dimension:.6f} "
             f"degenerate={_fmt(curve.degenerate)}")
    return 0


def _cmd_endpoints(args, cfg, ifs, psi, level):
    ell_max = args.depth if args.depth is not None else _int(
        _block(cfg, "endpoints").get("ell_max", 6), "endpoints.ell_max")
    if ell_max < 1:
        raise ConfigError(f"endpoints.ell_max: must be positive, got {ell_max}")
    lo, hi = endpoints(ifs, psi, ell_max=ell_max)
    _write_csv(args.out, ("alpha_minus", "alpha_plus"), [(lo, hi)])
    _summary(f"endpoints: [{lo:.6f}, {hi:.6f}] at ell_max={ell_max}")
    return 0


def _cmd_cdf(args, cfg, ifs, psi, level):
    points = _config_points(args, cfg, "cdf")
    default = default_policy(ifs)
    policy = DepthPolicy(
        max_depth=args.depth if args.depth is not None else default.max_depth,
        mass_tol=args.tol if args.tol is not None else default.mass_tol)
    F = DistributionFunction(ifs, psi, policy)
    rows = []
    worst = 0.0
    for x in points:
        val = F.cdf(x)
        worst = max(worst, val.error_bound)
        rows.append((x, val.value, val.error_bound))
    _write_csv(args.out, ("x", "value", "error_bound"), rows)
    _summary(f"cdf: {len(points)} points, max error bound {_fmt(worst)}")
    return 0


def _cmd_holder(args, cfg, ifs, psi, level):
    points = _config_points(args, cfg, "holder")
    scales = _scales_from(cfg, ifs)
    F = DistributionFunction(ifs, psi, deep_policy(ifs))
    rows = []
    for t0 in points:
        est = holder_exponent_estimate(F, t0, scales)
        rows.append((t0, est.exponent, len(est.scale_pairs)))
    _write_csv(args.out, ("t0", "exponent", "usable_scales"), rows)
    _summary(f"holder: {len(points)} points, method=regression")
    return 0


def _cmd_coarse(args, cfg, ifs, psi, level):
    block = _block(cfg, "coarse")
    if args.depth is not None:
        base = default_scale_base(ifs)
        deltas = [base ** (-args.depth)]
    else:
        deltas = [_num(v, "coarse.deltas") for v in _list(
            _get(block, "deltas", "coarse"), "coarse.deltas")]
        if not deltas:
            raise ConfigError("coarse.deltas: need at least one box size")
    width = _num(block.get("alpha_bin_width", 0.2), "coarse.alpha_bin_width")
    if width <= 0.0:
        raise ConfigError(f"coarse.alpha_bin_width: must be positive, "
                          f"got {width:g}")
    F = DistributionFunction(ifs, psi)
    rows = []
    kept = []
    for result in coarse_spectrum(F, deltas, alpha_bin_width=width):
        kept.append(result.kept_mass)
        for b in result.bins:
            rows.append((result.delta, b.alpha_center, b.count, b.f_alpha))
    _write_csv(args.out, ("delta", "alpha_center", "count", "f_alpha"), rows)
    _summary(f"coarse: {len(deltas)} deltas, {len(rows)} bins, "
             f"kept_mass_min={min(kept):.6f}")
    return 0


def _cmd_verify_prop(args, cfg, ifs, psi, level):
    block = _block(cfg, "probe")
    words = _list(block.get("words", list(DEFAULT_BATTERY)), "probe.words")
    ks = [_int(v, "probe.ks") for v in _list(block.get("ks", [1, 3]),
                                             "probe.ks")]
    at_n_max = "--depth" if args.depth is not None else "probe.n_max"
    n_max = args.depth if args.depth is not None else _int(
        block.get("n_max", 25), at_n_max)
    if n_max < PROBE_MIN_DEPTHS:
        raise ConfigError(f"{at_n_max}: need at least {PROBE_MIN_DEPTHS} "
                          f"depths, got {n_max}")
    F = DistributionFunction(ifs, psi, deep_policy(ifs))
    scales = Scales(2.0, 1, n_max)
    rows = []
    finite = violations = 0
    for text in words:
        word = Word.parse(str(text))
        x = stream_point(ifs, PeriodicWord(word).stream())
        for k in ks:
            probe = derivative_limit_probe(F, x, k, scales)
            hit = probe.classification == "finite_limit"
            finite += hit
            violations += hit and not probe.degenerate_hypothesis
            rows.append((str(text), k, x, probe.classification,
                         math.nan if probe.limit_value is None
                         else probe.limit_value,
                         probe.degenerate_hypothesis))
    _write_csv(args.out, ("word", "k", "x", "classification", "limit_value",
                          "degenerate_hypothesis"), rows)
    _summary(f"verify-prop: {len(rows)} probes, finite_limit={finite}, "
             f"violations={violations}")
    return 1 if violations else 0


def _cmd_detrend(args, cfg, ifs, psi, level):
    block = _block(cfg, "detrend")
    if args.points:
        points = _parse_points(args.points, "--points")
        if len(points) != 1:
            raise ConfigError(f"--points: detrend takes one point, "
                              f"got {len(points)}")
        t0 = points[0]
    else:
        t0 = _num(_get(block, "t0", "detrend"), "detrend.t0")
    alpha_hat = block.get("alpha_hat")
    if alpha_hat is not None:
        alpha_hat = _num(alpha_hat, "detrend.alpha_hat")
    windows = _int(block.get("windows", 8), "detrend.windows")
    if windows < 2:
        raise ConfigError(f"detrend.windows: need at least 2 windows, "
                          f"got {windows}")
    F = DistributionFunction(ifs, psi, deep_policy(ifs))
    result = detrend_exponent_test(F, t0, alpha_hat, windows=windows)
    rows = []
    for j, per_window in enumerate(result.coefficients, start=1):
        for i, coeff in enumerate(per_window):
            rows.append((j, i + 1, result.window_radii[i], coeff))
    _write_csv(args.out, ("degree", "window", "radius", "coefficient"), rows)
    residual = (math.nan if result.residual_exponent is None
                else result.residual_exponent)
    _summary(f"detrend: t0={t0:g} alpha_hat={result.alpha_hat:.6f} "
             f"residual={residual:.6f} passed={_fmt(result.passed)} "
             f"skipped={_fmt(result.skipped)} "
             f"violation={_fmt(result.hypothesis_violation)}")
    return 0


def _cmd_predict_packing(args, cfg, ifs, psi, level):
    q_min, q_max, steps = _q_grid(args, cfg)
    _require_normalized(cfg, ifs, psi)
    curve = spectrum_curve(ifs, psi, k=level, q_min=q_min, q_max=q_max,
                           q_steps=steps)
    block = _block(cfg, "packing")
    if "alphas" in block:
        alphas = [_num(v, "packing.alphas")
                  for v in _list(block["alphas"], "packing.alphas")]
    else:
        n = _int(block.get("alpha_steps", 101), "packing.alpha_steps")
        if n < 2:
            raise ConfigError(f"packing.alpha_steps: need at least 2 points, "
                              f"got {n}")
        lo, hi = curve.alpha_minus, curve.alpha_plus
        alphas = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    _write_csv(args.out, ("alpha", "hausdorff", "packing", "empty"),
               spectrum_predictions(curve, alphas))
    _summary(f"predict-packing: plateau={curve.dimension:.6f} on "
             f"[{curve.alpha_minus:.6f}, {curve.alpha_zero:.6f}]")
    return 0


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
    flags = vars(args)
    if args.threads < 1:
        raise ConfigError("--threads must be positive")
    if flags.get("depth") is not None and args.depth < 1:
        raise ConfigError("--depth must be positive")
    # argparse reads these floats itself and accepts "nan" and "inf"
    for flag in ("--q-min", "--q-max", "--tol"):
        value = flags.get(flag[2:].replace("-", "_"))
        if value is not None:
            _num(value, flag)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        cfg = load_config(args.config)
        ifs = build_system(cfg)
        level = _level(args, cfg, ifs)
        psi = build_potential(cfg, ifs, depth=level)
        try:
            return _COMMANDS[args.command][0](args, cfg, ifs, psi, level)
        except NormalizationError as exc:
            if not _block(cfg, "potential").get("normalize", False):
                raise
            # the distribution function checks the pressure deeper than
            # a shallow level pins it to zero
            raise ConfigError(
                f"pressure.depth: level {level} is too shallow to "
                f"normalize at; the potential keeps pressure "
                f"{exc.value:.3e}, not zero within {exc.bound:.3e}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
