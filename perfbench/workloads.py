"""The three workloads: their operations and output checks.

A round runs every operation of a workload once: CLI subcommands
through `mfgibbs.cli.main`, each inside a `cli.<command>` span, or, for
pointwise-lab, the library calls themselves.  A traced round is the same
round run under `spans.instrument`, so its spans time the program's own
code.  Each operation yields an `Op` with its output and, when it
raised or exited non-zero, the error.

`check` compares the first round's outputs with the oracles and sorts
every operation into passed, failed on a known fault, or wrong.  Later
rounds, traced or not, must reproduce the first round exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction

import oracles

# Rounding allowance for a descent's accumulated value: at most 60 levels,
# each adding one product and one sum rounded to half an ulp of a value <= 1.
ACCUMULATION_ALLOWANCE = 2 * 60 * 2.0 ** -53

@dataclass
class Op:
    key: str
    output: object = None
    error: str | None = None


def parse_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


class CliWorkload:
    """Operations that are CLI subcommands, run in-process."""

    # A round takes seconds, and other tenants of a shared machine slow the
    # cores for tens of seconds at a time, so no round escapes them and the
    # median round is steadier than the fastest (README, Metrics).
    round_time = staticmethod(statistics.median)

    def __init__(self, plan: dict, threads: int):
        self.plan = plan
        self.threads = threads
        from mfgibbs import cli
        self.cli = cli

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def run_round(self, rec) -> list[Op]:
        ops = []
        for key, argv in self.commands():
            out, err = io.StringIO(), io.StringIO()
            with rec.span("cli." + argv[0]), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv + ["--threads", str(self.threads)])
            ops.append(Op(key, out.getvalue(),
                          None if code == 0 else f"exit {code}: {err.getvalue().strip()}"))
        return ops


# --- coarse-cantor -----------------------------------------------------------

class CoarseCantor(CliWorkload):
    def __init__(self, plan, threads):
        super().__init__(plan, threads)
        self.config = plan["config"]
        cfg = oracles.read_config(self.config)
        self.probs = oracles.probabilities(cfg)
        self.width = float(cfg.get("coarse", {}).get("alpha_bin_width", 0.2))

    def commands(self):
        return [(f"coarse j={j}", ["coarse", "--config", self.config, "--depth", str(j)])
                for j in self.plan["depths"]]

    def check(self, ops) -> tuple[list[str], list[str]]:
        failed, wrong = [], []
        for op in ops:
            if op.error:
                wrong.append(f"{op.key}: {op.error}")
                continue
            j = int(op.key.split("=")[1])
            delta = 3.0 ** -j
            hist = {}
            for d, center, count, f_alpha in parse_csv(op.output):
                b = round(float(center) / self.width - 0.5)
                hist[b] = int(count)
                if float(d) != delta:
                    wrong.append(f"{op.key}: delta column {d}")
                if abs(float(f_alpha) - math.log(int(count)) / -math.log(delta)) > 1e-12:
                    wrong.append(f"{op.key}: f_alpha {f_alpha} for count {count}")
            expected = oracles.binomial_histogram(j, self.probs, self.width)
            if oracles.bin_edge_margin(j, self.probs, self.width) < 1e-9:
                wrong.append(f"{op.key}: an exponent sits on a bin edge; the oracle is ambiguous")
            if hist == expected:
                continue
            extra = {b: hist.get(b, 0) - expected.get(b, 0) for b in set(hist) | set(expected)}
            slivers = math.ceil(1.0 / delta) - 3 ** j
            if all(v >= 0 for v in extra.values()) and 0 < sum(extra.values()) <= slivers:
                failed.append(f"{op.key}: sliver")
            else:
                wrong.append(f"{op.key}: histogram {sorted(hist.items())} "
                             f"!= binomial {sorted(expected.items())}")
        return failed, wrong

    def deep_check(self) -> list[str]:
        """Each kept box mass against its cylinder mass, at 3^-11 and 3^-12.

        Only the 2^j cylinder boxes can hold mass; a kept box anywhere else
        already shows in the histogram.  Their edges are the program's
        edges lo + delta * i, evaluated with the same public `cdf_many`
        that `coarse` uses.
        """
        import numpy as np
        from mfgibbs import DistributionFunction
        cli = self.cli
        wrong = []
        cfg = cli.load_config(self.config)
        ifs = cli.build_system(cfg)
        psi = cli.build_potential(cfg, ifs, 1)
        F = DistributionFunction(ifs, psi)
        for j in (11, 12):
            if j not in self.plan["depths"]:
                continue
            d = 3.0 ** -j
            n = math.ceil(1.0 / d)
            boxes = oracles.cylinder_boxes(j, self.probs)
            edges = np.array([[d * i, 1.0 if i + 1 == n else d * (i + 1)] for i, _ in boxes])
            values, errors = F.cdf_many(edges.ravel())
            masses = values[1::2] - values[0::2]
            errs = errors[1::2] + errors[0::2]
            keep = (masses > 0.0) & (masses >= 10.0 * errs)
            for (i, exact), m, e, kept in zip(boxes, masses, errs, keep):
                exact = float(exact)
                if kept and abs(m - exact) > e + ACCUMULATION_ALLOWANCE:
                    wrong.append(f"delta=3^-{j} box {i}: mass {m!r} vs {exact!r} (bound {e!r})")
                    break
        return wrong


# --- spectrum-moebius --------------------------------------------------------

class SpectrumMoebius(CliWorkload):
    def __init__(self, plan, threads, reference):
        super().__init__(plan, threads)
        self.config = plan["config"]
        self.reference = reference
        self.oracle_cfg = oracles.read_config(self.config)
        self._ratios = None

    def commands(self):
        p, c = self.plan, self.config
        k = str(p["spectrum_depth"])
        return [
            ("pressure", ["pressure", "--config", c, "--depth", str(p["pressure_depth"])]),
            ("spectrum", ["spectrum", "--config", c, "--depth", k]),
            ("beta", ["beta", "--config", c, "--depth", k, "--q-steps", str(p["beta_steps"])]),
            ("predict-packing", ["predict-packing", "--config", c, "--depth", k]),
            ("endpoints", ["endpoints", "--config", c]),
            ("check", ["check", "--config", c]),
        ]

    def periodic_ratios(self):
        """Extremes of S psi / S phi over cycles of length <= 6, psi = phi - P_10(phi).

        P_10 is the normalizing constant `normalize` subtracts at depth 10.
        """
        if self._ratios is None:
            import mpmath
            maps = oracles.moebius_maps(self.oracle_cfg)
            dom = oracles.domain(self.oracle_cfg)
            levels = oracles.cycle_multipliers(maps, dom, 10)
            c = oracles.level_pressure(levels, 10)
            ratios = [1 - n * c / mpmath.log(lam)
                      for n, mults in enumerate(levels[:6], start=1) for lam in mults]
            self._ratios = (float(min(ratios)), float(max(ratios)))
        return self._ratios

    def check(self, ops) -> tuple[list[str], list[str]]:
        wrong = []
        out = {}
        for op in ops:
            if op.error:
                wrong.append(f"{op.key}: {op.error}")
            else:
                out[op.key] = parse_csv(op.output)
        if wrong:
            return [], wrong

        levels = [float(v) for _, v in out["pressure"]]
        if len(levels) != self.plan["pressure_depth"]:
            wrong.append(f"pressure: {len(levels)} levels")
        diffs = [levels[i] - levels[i - 1] for i in range(1, len(levels))]
        for i in range(2, len(diffs)):
            if not 0.0 < diffs[i] / diffs[i - 1] < 0.5:
                wrong.append(f"pressure: level {i + 2} does not contract "
                             f"({diffs[i] / diffs[i - 1]:.4f})")
        if abs(levels[-1]) > 1e-12:
            wrong.append(f"pressure: normalized level {len(levels)} is {levels[-1]!r}")

        dim = self.reference["dimension"]
        k = self.plan["spectrum_depth"]
        bias = oracles.depth_bias(self.reference, k)
        lowest = dim + min(0.0, 1.01 * bias) - 1e-12
        highest = dim + max(0.0, 1.01 * bias) + 1e-12
        curves = {}
        for key in ("spectrum", "beta"):
            qs = [float(r[0]) for r in out[key]]
            betas = [float(r[1]) for r in out[key]]
            curves[key] = dict(zip(qs, betas))
            if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
                wrong.append(f"{key}: beta is not decreasing")
            if any(betas[i - 1] - 2 * betas[i] + betas[i + 1] < -1e-12
                   for i in range(1, len(betas) - 1)):
                wrong.append(f"{key}: beta is not convex")
            at = {round(q, 9): b for q, b in zip(qs, betas)}
            if abs(at.get(1.0, math.inf)) > 1e-10:
                wrong.append(f"{key}: beta(1) = {at.get(1.0)!r}")
            # README: the depth-k root lies between dim and dim + bias, bias the
            # first-order size log Z_k(dim)/(k lyapunov); a better root is closer to dim
            beta0 = at.get(0.0, math.inf)
            if not lowest <= beta0 <= highest:
                wrong.append(f"{key}: beta(0) = {beta0!r}, outside "
                             f"[{lowest!r}, {highest!r}]")
            print(f"{key}: beta(0) - dim = {beta0 - dim:.6e}, first-order "
                  f"depth-{k} bias {bias:.6e}", file=sys.stderr)
        spec = {round(q, 9): b for q, b in curves["spectrum"].items()}
        for q, b in curves["beta"].items():
            if abs(spec.get(round(q, 9), math.inf) - b) > 1e-12:
                wrong.append(f"beta and spectrum disagree at q={q!r}")
                break

        top = spec[0.0] + 1e-9
        for alpha, haus, pack, empty in out["predict-packing"]:
            if empty == "true":
                continue
            h, p = float(haus), float(pack)
            if not (0.0 <= h <= p + 1e-12 and p <= top):
                wrong.append(f"predict-packing: alpha={alpha} hausdorff={haus} packing={pack}")
                break

        lo, hi = self.periodic_ratios()
        (e_lo, e_hi), = out["endpoints"]
        if abs(float(e_lo) - lo) > 1e-12 or abs(float(e_hi) - hi) > 1e-12:
            wrong.append(f"endpoints: [{e_lo}, {e_hi}] vs oracle [{lo!r}, {hi!r}]")
        props = dict(out["check"])
        maps = oracles.moebius_maps(self.oracle_cfg)
        derivs = [float(oracles.moebius_derivative(q, x)) for q in maps
                  for x in oracles.domain(self.oracle_cfg)]
        expect = {"family": "moebius", "alphabet_size": str(len(maps)),
                  "osc_satisfied": "true", "effective_range": "none",
                  "degenerate": "false"}
        for name, value in expect.items():
            if props.get(name) != value:
                wrong.append(f"check: {name} = {props.get(name)}")
        for name, value in (("r_min", min(derivs)), ("r_max", max(derivs)),
                            ("ratio_min", lo), ("ratio_max", hi)):
            if abs(float(props[name]) - value) > 1e-12:
                wrong.append(f"check: {name} = {props[name]} vs {value!r}")
        return [], wrong

    def deep_check(self):
        return []


# --- pointwise-lab -----------------------------------------------------------

class PointwiseLab:
    """Library calls, one operation each, on three systems under deep_policy."""

    # A round takes under a second, so some rounds of every run fall where
    # other tenants leave the cores alone, and the fastest round is steadier
    # than the median (README, Metrics).
    round_time = staticmethod(min)

    def __init__(self, plan: dict, threads: int):
        self.plan = plan
        self.threads = threads
        from mfgibbs import cli
        self.cli = cli
        self.battery = cli.DEFAULT_BATTERY
        self._c = None

    def run_round(self, rec) -> list[Op]:
        from mfgibbs import (DistributionFunction, PeriodicWord, Scales, SymbolStream,
                             Word, deep_policy, derivative_limit_probe,
                             detrend_exponent_test, find_tau_block,
                             holder_exponent_estimate, ratio_scaling_experiment,
                             secant_slope, stream_point)
        from mfgibbs.errors import ToolkitError
        cli = self.cli
        ops: list[Op] = []

        def run(key, fn, *args, **kwargs):
            try:
                value = fn(*args, **kwargs)
            except (ToolkitError, ValueError) as exc:
                ops.append(Op(key, None, f"{type(exc).__name__}: {exc}"))
                return None
            ops.append(Op(key, value))
            return value

        def coded(prefix, period):
            stream = SymbolStream(Word.parse(prefix) if prefix else Word(()),
                                  PeriodicWord(Word.parse(period)))
            return run(f"{name} point {prefix}({period})", stream_point, ifs, stream)

        def cdf(kind, x):
            v = run(f"{name} cdf {kind} {x!r}", F.cdf, x)
            if v is not None:
                ops[-1].output = (x, v.value, v.error_bound)

        for name, entry in self.plan.items():
            cfg = cli.load_config(entry["config"])
            ifs = cli.build_system(cfg)
            psi = cli.build_potential(cfg, ifs, self.threads)
            F = run(f"{name} init", DistributionFunction, ifs, psi, deep_policy(ifs))
            if F is None:
                continue
            ops[-1].output = None
            lo, hi = ifs.domain
            for x in [lo] + entry["uniform"] + [hi]:
                cdf("uniform", x)
            for prefix, period in entry["coded"]:
                x = coded(prefix, period)
                if x is not None:
                    cdf("coded", x)
            for w in entry.get("cylinders", ()):
                for word in (w, w + "0", w + "1"):
                    for tail in ("0", str(ifs.alphabet_size - 1)):
                        x = coded(word, tail)
                        if x is not None:
                            cdf(f"cylinder {word} {tail}", x)
            scales = Scales(2.0, 1, 25)
            for text in self.battery:
                x = run(f"{name} battery point {text}", stream_point, ifs,
                        PeriodicWord(Word.parse(text)).stream())
                for k in (1, 3):
                    probe = run(f"{name} probe {text} k={k}", derivative_limit_probe,
                                F, x, k, scales)
                    if probe is not None:
                        ops[-1].output = (probe.classification, probe.limit_value,
                                          probe.degenerate_hypothesis)
            t0s = list(entry["holder_t0"])
            for prefix, period in entry.get("holder_coded", ()):
                x = coded(prefix, period)
                if x is not None:
                    t0s.append(x)
            for t0 in t0s:
                est = run(f"{name} holder {t0!r}", holder_exponent_estimate, F, t0)
                if est is not None:
                    ops[-1].output = est.exponent
            for t0 in entry["detrend_t0"]:
                res = run(f"{name} detrend {t0!r}", detrend_exponent_test, F, t0)
                if res is not None:
                    ops[-1].output = (res.passed, res.skipped, res.hypothesis_violation,
                                      res.alpha_hat)
            for s, x, t in entry["secant"]:
                for k in (1, 3):
                    res = run(f"{name} secant {s!r} {x!r} {t!r} k={k}", secant_slope,
                              F, s, x, t, k)
                    if res is not None:
                        ops[-1].output = (res.total, res.decomposition_check,
                                          (s, x, t, k))
            if name == "lebesgue":
                continue   # psi is phi itself: no block separates psi from 1*phi
            for k in (1, 3):
                tb = run(f"{name} tau k={k}", find_tau_block, ifs, psi, k)
                if tb is None:
                    continue
                ops[-1].output = (tb.tau.symbols, tb.value)
                for omega in entry["omegas"]:
                    ex = run(f"{name} scaling {omega} k={k}", ratio_scaling_experiment,
                             ifs, psi, PeriodicWord(Word.parse(omega)), tb.tau, k,
                             n_set=(2, 3, 4, 5), N_range=range(1, 7))
                    if ex is not None:
                        ops[-1].output = (ex.tau.symbols, ex.slope_log_slope,
                                          ex.expected_log_slope, ex.slope_log_r,
                                          ex.expected_log_r)
        return ops

    def check(self, ops) -> tuple[list[str], list[str]]:
        failed, wrong = [], []
        cdf_values = {}
        points = {}
        for op in ops:
            name, kind = op.key.split(" ", 2)[:2]
            if op.error:
                if (name == "moebius_pair" and kind == "probe"
                        and "nonpositive secant quotient" in op.error):
                    failed.append(f"{op.key}: probe-depth")
                else:
                    wrong.append(f"{op.key}: {op.error}")
                continue
            if kind == "point":
                points[op.key] = op.output
            if kind == "cdf":
                cdf_values.setdefault(name, []).append((op.key, op.output))
        for name, entry in self.plan.items():
            wrong += self._check_config(name, entry, cdf_values.get(name, []), points,
                                        [op for op in ops if op.key.startswith(name + " ")
                                         and not op.error])
        return failed, wrong

    def _check_config(self, name, entry, values, points, ops) -> list[str]:
        wrong = []
        cfg = oracles.read_config(entry["config"])
        lo, hi = oracles.domain(cfg)
        affine = cfg["system"]["family"] == "affine"
        if affine:
            maps, probs = oracles.affine_maps(cfg), oracles.probabilities(cfg)
            # degenerate: log p_i / log r_i is the same for every map
            exps = {math.log(p) / math.log(r) for (r, _), p in zip(maps, probs)}
            degenerate = max(exps) - min(exps) < 1e-12
        else:
            degenerate = False   # psi = phi - P(phi) with P(phi) < 0, as dim < 1
        # Lebesgue measure: the maps tile the domain and each weight is its ratio
        lebesgue = (affine and all(p == r for (r, _), p in zip(maps, probs))
                    and sum(r for r, _ in maps) == 1)

        for key, (x, v, e) in values:
            if e < 0.0 or not -ACCUMULATION_ALLOWANCE <= v <= 1.0 + ACCUMULATION_ALLOWANCE:
                wrong.append(f"{key}: value {v!r} error {e!r}")
            elif lebesgue:
                if abs(v - x) > e + ACCUMULATION_ALLOWANCE:
                    wrong.append(f"{key}: F = {v!r}, expected x")
            elif affine:
                # the true F(x) lies in [v, v + e] and in the oracle's bracket
                f_lo, f_hi = oracles.affine_cdf(maps, probs, (lo, hi), Fraction(x))
                if (float(f_hi) < v - ACCUMULATION_ALLOWANCE
                        or float(f_lo) > v + e + ACCUMULATION_ALLOWANCE):
                    wrong.append(f"{key}: F = {v!r} (+{e!r}), exact in "
                                 f"[{float(f_lo)!r}, {float(f_hi)!r}]")
        at = {x: (v, e) for _, (x, v, e) in values}
        if at.get(float(lo), (None,))[0] != 0.0 or at.get(float(hi), (None,))[0] != 1.0:
            wrong.append(f"{name}: F(lo) = {at.get(float(lo))}, F(hi) = {at.get(float(hi))}")
        running = -math.inf
        for x in sorted(at):
            v, e = at[x]
            if running > v + e + ACCUMULATION_ALLOWANCE:
                wrong.append(f"{name}: F decreases before x = {x!r}")
                break
            running = max(running, v)

        if "cylinders" in entry:
            quads = oracles.moebius_maps(cfg)
            last = str(len(quads) - 1)
            for w in entry["cylinders"]:
                total, bound = 0.0, 0.0
                masses = {}
                for word in (w, w + "0", w + "1"):
                    ends = []
                    exact = oracles.moebius_cylinder(quads, (lo, hi), [int(s) for s in word])
                    for tail, ex in zip(("0", last), exact):
                        x = points.get(f"{name} point {word}({tail})")
                        # stream_point resolves coded points to 1e-14
                        if x is None or abs(x - float(ex)) > 1e-14:
                            wrong.append(f"{name}: coded point {word}({tail}) = {x!r}, "
                                         f"cylinder end {float(ex)!r}")
                            return wrong
                        ends.append(at[x])
                    masses[word] = ends[1][0] - ends[0][0]
                    bound += ends[0][1] + ends[1][1]
                total = masses[w + "0"] + masses[w + "1"]
                if abs(masses[w] - total) > bound + ACCUMULATION_ALLOWANCE:
                    wrong.append(f"{name}: cylinder {w} mass {masses[w]!r} != children {total!r}")

        holder_exact = {}
        if affine and not degenerate:
            e0, e1 = oracles.cantor_holder_exponents(probs)
            holder_exact = {0.0: (e0, 1e-12), 1.0: (e1, 1e-12)}
        for op in ops:
            kind = op.key.split(" ")[1]
            if kind == "probe":
                cls, limit, flag = op.output
                if flag != degenerate:
                    wrong.append(f"{op.key}: degenerate_hypothesis {flag}")
                if cls == "finite_limit" and not degenerate:
                    wrong.append(f"{op.key}: finite_limit on a non-degenerate system")
            elif kind == "holder":
                t0 = float(op.key.split(" ")[2])
                want = (1.0, 1e-6) if lebesgue else holder_exact.get(t0)
                if want is not None and abs(op.output - want[0]) > want[1]:
                    wrong.append(f"{op.key}: exponent {op.output!r}, expected {want[0]!r}")
                if not 0.0 < op.output < 2.0:
                    wrong.append(f"{op.key}: exponent {op.output!r}")
            elif kind == "detrend":
                passed, skipped, violation, alpha_hat = op.output
                if degenerate and not violation:
                    wrong.append(f"{op.key}: smooth F not flagged")
                if not degenerate and not (passed and not violation):
                    wrong.append(f"{op.key}: passed={passed} violation={violation}")
            elif kind == "secant":
                total, residual, (s, x, t, k) = op.output
                if residual > 1e-12:
                    wrong.append(f"{op.key}: residual {residual!r}")
                if lebesgue and abs(total - (t - s) ** (1 - k)) > 1e-12 * max(1.0, abs(total)):
                    wrong.append(f"{op.key}: slope {total!r} on F(x) = x")
            elif kind == "tau":
                symbols, value = op.output
                want = self._tau_value(cfg, symbols, int(op.key[-1]))
                if abs(value - want) > 1e-9:
                    wrong.append(f"{op.key}: S(psi - k phi)(tau) = {value!r}, oracle {want!r}")
            elif kind == "scaling":
                symbols, fit, want, fit_r, want_r = op.output
                k = int(op.key[-1])
                if abs(want - self._tau_value(cfg, symbols, k)) > 1e-9:
                    wrong.append(f"{op.key}: expected log slope {want!r}")
                if abs(want_r + self._log_multiplier(cfg, symbols)) > 1e-9:
                    wrong.append(f"{op.key}: expected log r {want_r!r}")
                # README: Moebius fits at N <= 6 carry more distortion
                rel = 0.1 if affine else 0.2
                if abs(fit - want) > rel * abs(want) or abs(fit_r - want_r) > rel * abs(want_r):
                    wrong.append(f"{op.key}: fits {fit!r}, {fit_r!r} vs {want!r}, {want_r!r}")
        return wrong

    def _log_multiplier(self, cfg, symbols) -> float:
        """log of the derivative of the cycle's composition at its fixed point."""
        if cfg["system"]["family"] == "affine":
            maps = oracles.affine_maps(cfg)
            return sum(math.log(maps[s][0]) for s in symbols)
        return oracles.cycle_log_multiplier(oracles.moebius_maps(cfg),
                                            oracles.domain(cfg), symbols)

    def _tau_value(self, cfg, symbols, k) -> float:
        """S(psi - k phi) over one period of the cycle."""
        log_phi = self._log_multiplier(cfg, symbols)
        if cfg["system"]["family"] == "affine":
            probs = oracles.probabilities(cfg)
            return sum(math.log(probs[s]) for s in symbols) - k * log_phi
        return (1 - k) * log_phi - len(symbols) * self._normalizer(cfg)

    def _normalizer(self, cfg) -> float:
        """P_10(phi), the constant `normalize` subtracts at the config's depth 10."""
        if self._c is None:
            levels = oracles.cycle_multipliers(oracles.moebius_maps(cfg),
                                               oracles.domain(cfg), 10)
            self._c = oracles.level_pressure(levels, 10)
        return self._c

    def deep_check(self):
        return []


def make(plan: dict, threads: int, reference: dict):
    workload = plan["workload"]
    inputs = plan["inputs"]
    if workload == "coarse-cantor":
        return CoarseCantor(inputs, threads)
    if workload == "spectrum-moebius":
        return SpectrumMoebius(inputs, threads, reference)
    return PointwiseLab(inputs, threads)
