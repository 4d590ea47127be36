"""Spans and counts recorded around calls into mfgibbs, from outside it.

`instrument` swaps selected public functions of the package for
wrappers that open a span on entry and close it on exit, and records
counts at the same boundary.  Every module global bound to the original
function is swapped, so calls one module makes into another are caught
as well as the benchmark's own calls.  Nothing in the package changes
on disk, and `restore` puts the originals back.

Spans live in flat arrays until the run ends.  A span's self time is
its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager


MODULES = ("cli", "estimators", "thermodynamics", "spectrum", "holder_lab",
           "ifs_geometry", "symbolic")


class NullRecorder:
    """Stand-in for untraced runs: a span costs one no-op context."""

    @contextmanager
    def span(self, name):
        yield


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.round = array("i")
        self._stack = [-1]
        self.current_round = 0
        self.counts: list[dict[str, float]] = [{}]
        self.samples: dict[str, list[tuple[float, int]]] = {}

    def new_round(self):
        self.current_round += 1
        self.counts.append({})

    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1])
        self.round.append(self.current_round)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start[index] = time.perf_counter()
        return index

    def close(self, index: int) -> float:
        t = time.perf_counter()
        self.end[index] = t
        self._stack.pop()
        return t - self.start[index]

    def parent_name(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n: float = 1):
        c = self.counts[-1]
        c[name] = c.get(name, 0) + n

    def extreme(self, name: str, value: float, pick=max):
        c = self.counts[-1]
        c[name] = value if name not in c else pick(c[name], value)

    def sample(self, name: str, seconds: float, weight: int = 1):
        self.samples.setdefault(name, []).append((seconds, weight))

    # --- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [self.end[i] - self.start[i] for i in range(len(self.start))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def per_round(self, rounds):
        """Busy (outermost span of each name) and self time per name, per round."""
        own = self.self_times()
        busy = {r: {} for r in rounds}
        selfs = {r: {} for r in rounds}
        for i in range(len(self.start)):
            r = self.round[i]
            if r not in busy:
                continue
            name = self.names[self.name[i]]
            s = selfs[r]
            s[name] = s.get(name, 0.0) + own[i]
            if not self._inside_same(i):
                b = busy[r]
                b[name] = b.get(name, 0.0) + self.end[i] - self.start[i]
        return busy, selfs

    def _inside_same(self, i: int) -> bool:
        name = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name:
                return True
            p = self.parent[p]
        return False

    def dump(self, path: str, extra: dict) -> None:
        """Write every span (name, parent, round, start, end) and the counts."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **extra,
                "names": self.names,
                "spans": {
                    "name": list(self.name),
                    "parent": list(self.parent),
                    "round": list(self.round),
                    "start_s": [round(v - t0, 9) for v in self.start],
                    "end_s": [round(v - t0, 9) for v in self.end],
                },
                "counts_per_round": self.counts,
            }, fh)


def weighted_quantile(samples, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    goal = q * total
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= goal:
            return value
    return ordered[-1][0]


def _wrap(rec: Recorder, name: str, fn, after=None, failed=None):
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            seconds = rec.close(index)
            if failed is not None:
                failed(rec, seconds)
            raise
        seconds = rec.close(index)
        if after is not None:
            after(rec, seconds, args, kwargs, out)
        return out
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _after_cdf(rec, seconds, args, kwargs, out):
    rec.count("estimators.cdf.points")
    rec.count("estimators.cdf.exact", out.error_bound == 0.0)
    rec.extreme("estimators.cdf.err_bound_max", out.error_bound)
    rec.sample("estimators.cdf", seconds)


def _after_cdf_many(rec, seconds, args, kwargs, out):
    values, errors = out
    n = len(values)
    rec.count("estimators.cdf.points", n)
    rec.count("estimators.cdf.exact", int((errors == 0.0).sum()))
    if n:
        rec.extreme("estimators.cdf.err_bound_max", float(errors.max()))
        rec.sample("estimators.cdf", seconds / n, n)


def _after_cdf_many_boxes(rec, seconds, args, kwargs, out):
    _after_cdf_many(rec, seconds, args, kwargs, out)
    if rec.parent_name() == "estimators.coarse_spectrum":
        rec.count("estimators.coarse_spectrum.boxes", len(out[0]) - 1)


def _after_periodic_sums(rec, seconds, args, kwargs, out):
    rec.count("thermodynamics.periodic_sums.calls")
    rec.count("thermodynamics.periodic_sums.words", len(out))


def _after_pressure(rec, seconds, args, kwargs, out):
    rec.count("thermodynamics.pressure.levels", len(out.levels))


def _counter(name):
    def after(rec, seconds, args, kwargs, out):
        rec.count(name)
    return after


def _sampler(name):
    def after(rec, seconds, args, kwargs, out):
        rec.count(name + ".calls")
        rec.sample(name, seconds)
    return after


def _after_max_safe_depth(rec, seconds, args, kwargs, out):
    rec.extreme("ifs_geometry.max_safe_depth", out, min)


def _probe_failed(rec, seconds):
    rec.count("holder_lab.derivative_limit_probe.calls")
    rec.count("holder_lab.derivative_limit_probe.failed")
    rec.sample("holder_lab.derivative_limit_probe", seconds)


def instrument(rec: Recorder):
    """Wrap the package's public functions; returns a callable that undoes it."""
    from mfgibbs import (cli, estimators, holder_lab, ifs_geometry, spectrum,
                         symbolic, thermodynamics)

    functions = [
        (cli, "load_config", "cli.load_config", None, None),
        (cli, "build_system", "cli.build_system", None, None),
        (cli, "build_potential", "cli.build_potential", None, None),
        (thermodynamics, "periodic_sums", "thermodynamics.periodic_sums", _after_periodic_sums, None),
        (thermodynamics, "pressure", "thermodynamics.pressure", _after_pressure, None),
        (thermodynamics, "normalize", "thermodynamics.normalize", None, None),
        (thermodynamics, "cohomology_diagnostic", "thermodynamics.cohomology_diagnostic",
         _counter("thermodynamics.cohomology_diagnostic.calls"), None),
        (spectrum, "beta_of_q", "spectrum.beta_of_q", _sampler("spectrum.beta_of_q"), None),
        (spectrum, "endpoints", "spectrum.endpoints", None, None),
        (spectrum, "spectrum_curve", "spectrum.spectrum_curve", None, None),
        (spectrum, "legendre", "spectrum.legendre", None, None),
        (estimators, "coarse_spectrum", "estimators.coarse_spectrum", None, None),
        (estimators, "holder_exponent_estimate", "estimators.holder_exponent_estimate", None, None),
        (holder_lab, "derivative_limit_probe", "holder_lab.derivative_limit_probe",
         _sampler("holder_lab.derivative_limit_probe"), _probe_failed),
        (holder_lab, "secant_slope", "holder_lab.secant_slope", None, None),
        (holder_lab, "detrend_exponent_test", "holder_lab.detrend_exponent_test", None, None),
        (holder_lab, "ratio_scaling_experiment", "holder_lab.ratio_scaling_experiment", None, None),
        (holder_lab, "find_tau_block", "holder_lab.find_tau_block", None, None),
        (ifs_geometry, "stream_point", "ifs_geometry.stream_point",
         _counter("ifs_geometry.stream_point.calls"), None),
        (ifs_geometry, "max_safe_depth", "ifs_geometry.max_safe_depth", _after_max_safe_depth, None),
        (symbolic, "distortion_bound", "symbolic.distortion_bound", None, None),
    ]
    modules = [m for n, m in list(sys.modules.items())
               if n == "mfgibbs" or n.startswith("mfgibbs.")]
    undo = []
    for home, attr, name, after, failed in functions:
        original = getattr(home, attr)
        wrapper = _wrap(rec, name, original, after, failed)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    DF = estimators.DistributionFunction
    LS = spectrum.LevelSums
    methods = [
        (DF, "__init__", _wrap(rec, "estimators.distribution_function_init", DF.__init__)),
        (DF, "cdf", _wrap(rec, "estimators.cdf", DF.cdf, _after_cdf)),
        (DF, "cdf_many", _wrap(rec, "estimators.cdf", DF.cdf_many, _after_cdf_many_boxes)),
        (LS, "build", classmethod(_wrap(rec, "spectrum.level_sums", LS.build.__func__,
                                        _counter("spectrum.level_sums.builds")))),
    ]
    for cls, attr, replacement in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return restore


def layer_metrics(rec: Recorder, rounds, overhead_s: float,
                  import_s: float) -> dict[str, float]:
    """Per-layer figures: medians over traced rounds of per-round totals."""
    busy, selfs = rec.per_round(rounds)
    med = statistics.median

    def busy_of(name):
        return med([busy[r].get(name, 0.0) for r in rounds])

    def count_of(name):
        return med([rec.counts[r].get(name, 0) for r in rounds])

    building = ("cli.load_config", "cli.build_system", "cli.build_potential")
    out = {"cli.import_s": import_s,
           "cli.build_potential_s": med([sum(busy[r].get(name, 0.0) for name in building)
                                         for r in rounds])}
    points = count_of("estimators.cdf.points")
    out.update({
        "estimators.cdf.points": points,
        "estimators.cdf.busy_s": busy_of("estimators.cdf"),
        "estimators.cdf.p50_us": 1e6 * weighted_quantile(rec.samples.get("estimators.cdf", []), 0.5),
        "estimators.cdf.p90_us": 1e6 * weighted_quantile(rec.samples.get("estimators.cdf", []), 0.9),
        "estimators.cdf.exact_ratio": (count_of("estimators.cdf.exact") / points) if points else 0.0,
        "estimators.cdf.err_bound_max": max((rec.counts[r].get("estimators.cdf.err_bound_max", 0.0)
                                             for r in rounds), default=0.0),
        "estimators.coarse_spectrum.busy_s": busy_of("estimators.coarse_spectrum"),
        "estimators.coarse_spectrum.boxes": count_of("estimators.coarse_spectrum.boxes"),
        "estimators.distribution_function_init_s": busy_of("estimators.distribution_function_init"),
        "estimators.holder_exponent_estimate.busy_s": busy_of("estimators.holder_exponent_estimate"),
    })
    words = count_of("thermodynamics.periodic_sums.words")
    sums_busy = busy_of("thermodynamics.periodic_sums")
    out.update({
        "thermodynamics.periodic_sums.calls": count_of("thermodynamics.periodic_sums.calls"),
        "thermodynamics.periodic_sums.words": words,
        "thermodynamics.periodic_sums.busy_s": sums_busy,
        "thermodynamics.periodic_sums.words_per_s": words / sums_busy if sums_busy else 0.0,
        "thermodynamics.pressure.busy_s": busy_of("thermodynamics.pressure"),
        "thermodynamics.pressure.levels": count_of("thermodynamics.pressure.levels"),
        "thermodynamics.normalize.busy_s": busy_of("thermodynamics.normalize"),
        "thermodynamics.cohomology_diagnostic.calls": count_of("thermodynamics.cohomology_diagnostic.calls"),
        "thermodynamics.cohomology_diagnostic.busy_s": busy_of("thermodynamics.cohomology_diagnostic"),
    })
    builds = count_of("spectrum.level_sums.builds")
    roots = count_of("spectrum.beta_of_q.calls")
    out.update({
        "spectrum.level_sums.builds": builds,
        "spectrum.level_sums.busy_s": busy_of("spectrum.level_sums"),
        "spectrum.beta_of_q.calls": roots,
        "spectrum.beta_of_q.busy_s": busy_of("spectrum.beta_of_q"),
        "spectrum.beta_of_q.p50_ms": 1e3 * weighted_quantile(rec.samples.get("spectrum.beta_of_q", []), 0.5),
        "spectrum.roots_per_build": roots / builds if builds else 0.0,
        "spectrum.endpoints.busy_s": busy_of("spectrum.endpoints"),
    })
    out.update({
        "holder_lab.derivative_limit_probe.calls": count_of("holder_lab.derivative_limit_probe.calls"),
        "holder_lab.derivative_limit_probe.failed": count_of("holder_lab.derivative_limit_probe.failed"),
        "holder_lab.derivative_limit_probe.busy_s": busy_of("holder_lab.derivative_limit_probe"),
        "holder_lab.derivative_limit_probe.p50_ms": 1e3 * weighted_quantile(
            rec.samples.get("holder_lab.derivative_limit_probe", []), 0.5),
        "holder_lab.secant_slope.busy_s": busy_of("holder_lab.secant_slope"),
        "holder_lab.detrend_exponent_test.busy_s": busy_of("holder_lab.detrend_exponent_test"),
        "holder_lab.ratio_scaling_experiment.busy_s": busy_of("holder_lab.ratio_scaling_experiment"),
        "ifs_geometry.stream_point.calls": count_of("ifs_geometry.stream_point.calls"),
        "ifs_geometry.stream_point.busy_s": busy_of("ifs_geometry.stream_point"),
        "ifs_geometry.max_safe_depth": min((rec.counts[r]["ifs_geometry.max_safe_depth"] for r in rounds
                                            if "ifs_geometry.max_safe_depth" in rec.counts[r]),
                                           default=0),
        "symbolic.distortion_bound.busy_s": busy_of("symbolic.distortion_bound"),
    })
    for module in MODULES:
        out[module + ".self_s"] = med([
            sum(v for k, v in selfs[r].items() if k.split(".", 1)[0] == module)
            for r in rounds])
    out["trace.overhead_s"] = overhead_s
    return {k: float(v) for k, v in out.items()}


def layer_metric_names() -> list[str]:
    """Names `layer_metrics` reports, in order (used to cross-check BENCHMARK.json)."""
    rec = Recorder()
    return list(layer_metrics(rec, [0], 0.0, 0.0))
