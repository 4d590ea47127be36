"""Quantitative experiments on secant slopes of the distribution function.

The central objects are secant quotients (F(t) - F(s))/(t - s)^k along
cylinder scales.  For a measure whose potential is not a multiple of
the geometric one (up to coboundaries), these quotients admit no finite
positive limit at coded points: perturbing a cylinder by repeating a
block tau with S(psi - k*phi)(tau) != 0 drives the quotient up or down
at a controlled exponential rate while staying geometrically separated
from the base point.  The ops here build those perturbations, verify
the separation, fit the predicted rates, and classify observed limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (BlockSearchError, DomainError, PrecisionError,
                     SeparatorError)
from .estimators import (DistributionFunction, Scales, deep_policy,
                         default_scale_base, holder_exponent_estimate)
from .ifs_geometry import (WIDTH_FLOOR, IfsSystem, cylinder_interval,
                           max_safe_depth, stream_point)
from .symbolic import (PeriodicWord, SymbolStream, Word, enumerate_words,
                       ergodic_sum)
from .thermodynamics import Potential


def _require_odd(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd integer")


def _as_stream(omega) -> SymbolStream:
    return omega.stream() if isinstance(omega, PeriodicWord) else omega


@dataclass(frozen=True)
class SecantSlope:
    total: float
    decomposition_check: float


def secant_slope(F: DistributionFunction, s: float, x: float, t: float,
                 k: int) -> SecantSlope:
    """Secant quotient over [s, t] and the residual of its exact split.

    With r = (t-x)/(t-s) and odd k,
        (F(t)-F(s))/(t-s)^k
            = r^k (F(t)-F(x))/(t-x)^k + (1-r)^k (F(s)-F(x))/(s-x)^k
    identically, so decomposition_check vanishes up to rounding.
    """
    if not s < x < t:
        raise ValueError("need s < x < t")
    _require_odd(k)
    if t - s < 1e-13:
        raise PrecisionError("secant base below the precision floor")
    fs = F.cdf(s).value
    fx = F.cdf(x).value
    ft = F.cdf(t).value
    total = (ft - fs) / (t - s) ** k
    r = (t - x) / (t - s)
    recomposed = (r ** k * (ft - fx) / (t - x) ** k
                  + (1.0 - r) ** k * (fs - fx) / (s - x) ** k)
    return SecantSlope(total=total,
                       decomposition_check=abs(total - recomposed))


@dataclass(frozen=True)
class TauBlock:
    tau: Word
    value: float


def find_tau_block(ifs: IfsSystem, psi: Potential, k: int,
                   ell_max: int = 6) -> TauBlock:
    """Shortest block (lex-first on ties) with at least two distinct
    letters and |S(psi - k*phi)| > 1e-6 at its cycle.

    Fails only when psi is cohomologous to k*phi, in which case no
    block at any length separates them.
    """
    _require_odd(k)
    phi = Potential.geometric(ifs)
    for ell in range(2, ell_max + 1):
        for w in enumerate_words(ifs.alphabet_size, ell):
            if len(w.distinct_symbols()) < 2:
                continue
            pw = PeriodicWord(w)
            value = ergodic_sum(psi, pw, ell) - k * ergodic_sum(phi, pw, ell)
            if abs(value) > 1e-6:
                return TauBlock(tau=w, value=value)
    raise BlockSearchError(
        f"no block up to length {ell_max} separates psi from {k}*phi; "
        f"the potentials look cohomologous")


def perturbed_cylinder(ifs: IfsSystem, omega_prefix: Word, tau: Word,
                       N: int) -> tuple[float, float]:
    """Cylinder interval of omega_prefix followed by N copies of tau."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return cylinder_interval(ifs, omega_prefix + tau.repeat(N))


def admissible_depths(omega, tau: Word, candidates) -> list[int]:
    """Depths where the separator case analysis applies.

    A depth n works when omega continues from n with the block's first
    letter forever (constant tail) or with a different letter; a single
    matching letter followed by something else falls between the cases.
    """
    stream = _as_stream(omega)
    t1 = tau[0]
    return [n for n in candidates
            if stream.is_constant_from(n, t1) or stream.symbol_at(n) != t1]


@dataclass(frozen=True)
class Separator:
    word: Word
    case: int
    interval: tuple[float, float]


def find_separator(ifs: IfsSystem, omega, n: int, tau: Word) -> Separator:
    """A cylinder of level <= n + |tau| + 1 strictly between the coded
    point of omega and the perturbed cylinders at depth n.

    Case 1: omega is constant t1 from depth n on; the separator stays
    inside that run and branches off one letter later than the block
    does.  Case 2: omega leaves t1 immediately; the separator sits at
    the extreme edge of the t1 child, on the side facing omega.  The
    placement is verified geometrically against the N = 2 perturbation
    (larger N only pulls the perturbed cylinder deeper into the block's
    own child, keeping the separator between).
    """
    if len(tau.distinct_symbols()) < 2:
        raise ValueError("tau needs at least two distinct letters")
    stream = _as_stream(omega)
    m = ifs.alphabet_size
    t1 = tau[0]
    prefix = stream.head(n)
    if stream.is_constant_from(n, t1):
        j = next(i for i in range(len(tau)) if tau[i] != t1)
        sep = prefix + Word((t1,) * (j + 1) + (tau[j],))
        case = 1
    elif stream.symbol_at(n) != t1:
        fill = 0 if stream.symbol_at(n) < t1 else m - 1
        sep = prefix + Word((t1,) + (fill,) * len(tau))
        case = 2
    else:
        raise SeparatorError(
            f"depth {n} not admissible: omega matches the block's first "
            f"letter at {n} without a constant tail")
    x = stream_point(ifs, stream)
    s_lo, s_hi = cylinder_interval(ifs, sep)
    p_lo, p_hi = cylinder_interval(ifs, prefix + tau.repeat(2))
    if not ((x < s_lo and s_hi < p_lo) or (p_hi < s_lo and s_hi < x)):
        raise SeparatorError(
            f"separator cylinder is not strictly between the point and the "
            f"perturbed cylinder at depth {n}")
    return Separator(word=sep, case=case, interval=(s_lo, s_hi))


@dataclass(frozen=True)
class ScalingRecord:
    n: int
    N: int
    s: float
    t: float
    r: float
    slope_k: float
    separator: Word


@dataclass(frozen=True)
class PerturbationExperiment:
    tau: Word
    ell: int
    k: int
    n_set: tuple[int, ...]
    N_range: tuple[int, ...]
    records: tuple[ScalingRecord, ...]
    slope_log_slope: float
    slope_log_r: float
    expected_log_slope: float
    expected_log_r: float
    residual_spread_by_N: tuple[float, ...]


def _common_slope(rows: dict[int, list[float]], Ns: list[int]):
    # shared slope across groups, one intercept per group
    nbar = sum(Ns) / len(Ns)
    den = sum((N - nbar) ** 2 for N in Ns) * len(rows)
    num = 0.0
    for ys in rows.values():
        ybar = sum(ys) / len(ys)
        num += sum((N - nbar) * (y - ybar) for N, y in zip(Ns, ys))
    slope = num / den
    resid = {n: [y - (sum(ys) / len(ys)) - slope * (N - nbar)
                 for N, y in zip(Ns, ys)]
             for n, ys in rows.items()}
    return slope, resid


def ratio_scaling_experiment(ifs: IfsSystem, psi: Potential, omega,
                             tau: Word, k: int, n_set,
                             N_range) -> PerturbationExperiment:
    """Fit the exponential rates of the perturbed secant data.

    For each admissible depth n and each N, the perturbed cylinder
    [omega|_n tau^N] yields a secant quotient slope_k and a ratio
    r = (t - x)/(t - s).  Their logs grow linearly in N with slopes
    S(psi - k*phi)(tau) and -S(phi)(tau) respectively; the fit shares
    one slope across depths, and the residual spread over n at fixed N
    stays bounded (the comparability constants do not depend on n).
    """
    _require_odd(k)
    Ns = [int(N) for N in N_range]
    if len(Ns) < 2:
        raise ValueError("need at least two N values")
    stream = _as_stream(omega)
    x = stream_point(ifs, stream)
    F = DistributionFunction(ifs, psi, deep_policy(ifs))
    usable: list[tuple[int, Separator]] = []
    for n in n_set:
        try:
            usable.append((int(n), find_separator(ifs, omega, n, tau)))
        except SeparatorError:
            continue
    if len(usable) < 2:
        raise SeparatorError("fewer than two admissible depths; widen n_set")
    records = []
    log_slopes: dict[int, list[float]] = {}
    log_rs: dict[int, list[float]] = {}
    for n, sep in usable:
        prefix = stream.head(n)
        ls, lr = [], []
        for N in Ns:
            s, t = cylinder_interval(ifs, prefix + tau.repeat(N))
            slope = (F.cdf(t).value - F.cdf(s).value) / (t - s) ** k
            r = (t - x) / (t - s)
            if slope <= 0.0 or r == 0.0:
                raise PrecisionError(
                    f"degenerate secant data at n={n}, N={N}")
            records.append(ScalingRecord(n=n, N=N, s=s, t=t, r=r,
                                         slope_k=slope, separator=sep.word))
            ls.append(math.log(slope))
            lr.append(math.log(abs(r)))
        log_slopes[n] = ls
        log_rs[n] = lr
    fit_slope, resid_slope = _common_slope(log_slopes, Ns)
    fit_r, _ = _common_slope(log_rs, Ns)
    pw = PeriodicWord(tau)
    ell = tau_len = len(tau)
    phi = Potential.geometric(ifs)
    exp_slope = ergodic_sum(psi, pw, ell) - k * ergodic_sum(phi, pw, ell)
    exp_r = -ergodic_sum(phi, pw, ell)
    spread = tuple(
        max(resid_slope[n][i] for n in resid_slope)
        - min(resid_slope[n][i] for n in resid_slope)
        for i in range(len(Ns)))
    return PerturbationExperiment(
        tau=tau, ell=tau_len, k=k,
        n_set=tuple(n for n, _ in usable), N_range=tuple(Ns),
        records=tuple(records),
        slope_log_slope=fit_slope, slope_log_r=fit_r,
        expected_log_slope=exp_slope, expected_log_r=exp_r,
        residual_spread_by_N=spread)


@dataclass(frozen=True)
class SlopeRecord:
    n: int
    s: float
    t: float
    slope_k: float


@dataclass(frozen=True)
class SlopeProbe:
    x: float
    omega_prefix: Word
    k: int
    records: tuple[SlopeRecord, ...]
    classification: str
    limit_value: float | None
    oscillation_range: tuple[float, float] | None
    degenerate_hypothesis: bool


def _locate_coding(ifs: IfsSystem, x: float, depth: int
                   ) -> tuple[list[int], list[tuple[float, float]]]:
    """The first `depth` letters of a coding of x and the cylinder ends
    at every depth, the base interval first; each child's ends come from
    its matrix with cylinder_interval's float operations."""
    # rightmost child at touching points, matching the CDF convention
    lo, hi = ifs.domain
    if not lo <= x <= hi:
        raise DomainError("x outside the certified interval")
    word: list[int] = []
    ends = [(lo, hi)]
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for _ in range(depth):
        chosen = None
        nearest = None
        for j, mp in enumerate(ifs.maps):
            ma, mb, mc, md = mp.coefficients()
            na, nb = a * ma + b * mc, a * mb + b * md
            nc, nd = c * ma + d * mc, c * mb + d * md
            cl = (na * lo + nb) / (nc * lo + nd)
            ch = (na * hi + nb) / (nc * hi + nd)
            if cl <= x <= ch:
                chosen = (j, (na, nb, nc, nd), (cl, ch))
            else:
                gap = cl - x if x < cl else x - ch
                if nearest is None or gap < nearest[0]:
                    nearest = (gap, (j, (na, nb, nc, nd), (cl, ch)))
        # composed endpoints drift by a few ulp at the domain ends;
        # a true gap sits orders of magnitude farther away
        if chosen is None and nearest is not None and nearest[0] <= 1e-12:
            chosen = nearest[1]
        if chosen is None:
            raise DomainError(f"{x!r} is not in the attractor (gap at "
                              f"depth {len(word)})")
        j, (a, b, c, d), child = chosen
        word.append(j)
        ends.append(child)
    return word, ends


def _tail_period(word: list[int], max_period: int = 8) -> int:
    half = len(word) // 2
    for p in range(1, max_period + 1):
        if all(word[i] == word[i + p] for i in range(half, len(word) - p)):
            return p
    return 1


def derivative_limit_probe(F: DistributionFunction, x: float, k: int,
                           scales: Scales | None = None) -> SlopeProbe:
    """Classify the secant quotients (F(y)-F(x))/(y-x)^k along cylinder
    endpoints at x, located in the attractor via its coding.

    Outcomes: tends_to_zero, tends_to_infinity, oscillates, or
    finite_limit.  The trend is measured with log differences strided
    by the coding's eventual period, which cancels the within-cycle
    oscillation of a periodic point exactly; what remains after
    removing the trend decides between oscillation and a limit.  A
    finite positive limit contradicts the non-degenerate theory, so
    the result carries the cohomology flag alongside.
    """
    _require_odd(k)
    ifs = F.system
    n_lo, n_hi = (scales.j_min, scales.j_max) if scales else (1, 25)
    depth = min(n_hi, max_safe_depth(ifs))
    coding, ends = _locate_coding(ifs, x, depth)
    fx = F.cdf(x).value
    records = []
    vals = []
    for n in range(n_lo, depth + 1):
        s, t = ends[n]
        if t - s < WIDTH_FLOOR and n > 0:
            raise PrecisionError(
                f"cylinder width {t - s:.3e} below floor {WIDTH_FLOOR}")
        y = t if t - x >= x - s else s
        v = (F.cdf(y).value - fx) / (y - x) ** k
        records.append(SlopeRecord(n=n, s=s, t=t, slope_k=v))
        vals.append(v)
    pos = [v for v in vals if v > 0.0]
    if len(pos) < len(vals):
        raise PrecisionError("nonpositive secant quotient; depth too large")
    logs = [math.log(v) for v in pos]
    ell = _tail_period(coding)
    tail = logs[max(0, len(logs) - max(8, 3 * ell)):]
    stride = ell if ell < len(tail) else 1
    steps = [(tail[i + stride] - tail[i]) / stride
             for i in range(len(tail) - stride)]
    trend = sum(steps) / len(steps)
    detrended = [tail[i] - trend * i for i in range(len(tail))]
    swing = math.exp(max(detrended) - min(detrended))
    tail_vals = vals[max(0, len(vals) - max(8, 3 * ell)):]
    classification = "finite_limit"
    limit = None
    osc_range = None
    if trend <= -0.02:
        classification = "tends_to_zero"
    elif trend >= 0.02 or max(tail_vals) > 1e6:
        classification = "tends_to_infinity"
    elif swing > 10.0:
        classification = "oscillates"
        osc_range = (min(tail_vals), max(tail_vals))
    else:
        limit = math.exp(sum(tail) / len(tail))
    return SlopeProbe(x=x, omega_prefix=Word(tuple(coding)), k=k,
                      records=tuple(records), classification=classification,
                      limit_value=limit, oscillation_range=osc_range,
                      degenerate_hypothesis=F.cohomology.degenerate)


@dataclass(frozen=True)
class DetrendResult:
    t0: float
    alpha_hat: float
    degree_max: int
    window_radii: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...]
    residual_exponent: float | None
    passed: bool
    skipped: bool
    hypothesis_violation: bool


def detrend_exponent_test(F: DistributionFunction, t0: float,
                          alpha_hat: float | None = None,
                          degree_max: int | None = None,
                          windows: int = 8,
                          samples_per_side: int = 12) -> DetrendResult:
    """Check that no polynomial correction hides behind the exponent.

    For each degree j up to floor(alpha_hat), the coefficient a_j is
    fit by least squares of F(t) - F(t0) against (t - t0)^j over
    geometrically shrinking windows.  When the exponent story is honest
    every |a_j| decays as the window shrinks, and the plain liminf
    exponent of F - F(t0) reproduces alpha_hat.  A flat nonzero a_j is
    exactly how the degenerate (smooth) case fails.

    Exponents below 1 make every polynomial term trivial; the test is
    then skipped (with a small allowance so estimates of exactly 1 are
    still exercised).
    """
    scales = Scales(default_scale_base(F.system), 1, 20)
    # the liminf exponent the verdict compares with alpha_hat; when
    # alpha_hat is not given it is that same estimate
    residual = None
    if alpha_hat is None:
        residual = alpha_hat = holder_exponent_estimate(F, t0, scales).exponent
    if alpha_hat < 0.95:
        return DetrendResult(t0=t0, alpha_hat=alpha_hat, degree_max=0,
                             window_radii=(), coefficients=(),
                             residual_exponent=None, passed=True,
                             skipped=True, hypothesis_violation=False)
    if degree_max is None:
        degree_max = max(1, math.floor(alpha_hat))
    lo, hi = F.system.domain
    f0 = F.cdf(t0).value
    radii = tuple(scales.base ** (-(i + 1)) for i in range(windows))
    coeffs: list[list[float]] = [[] for _ in range(degree_max)]
    for h in radii:
        ts = []
        for u in range(1, samples_per_side + 1):
            for sgn in (1.0, -1.0):
                tt = t0 + sgn * h * u / samples_per_side
                if lo <= tt <= hi and tt != t0:
                    ts.append(tt)
        ys = [F.cdf(tt).value - f0 for tt in ts]
        for j in range(1, degree_max + 1):
            ws = [(tt - t0) ** j for tt in ts]
            den = sum(w * w for w in ws)
            coeffs[j - 1].append(sum(y * w for y, w in zip(ys, ws)) / den)
    decays = []
    for seq in coeffs:
        mags = [abs(a) for a in seq]
        monotone = all(mags[i + 1] <= mags[i] + 1e-12
                       for i in range(len(mags) - 1))
        vanishing = mags[-1] <= 0.5 * mags[0] or mags[-1] < 1e-12
        decays.append(monotone and vanishing)
    if residual is None:
        residual = holder_exponent_estimate(F, t0, scales).exponent
    passed = all(decays) and abs(residual - alpha_hat) <= 0.05
    violation = (not passed) and F.cohomology.degenerate
    return DetrendResult(t0=t0, alpha_hat=alpha_hat, degree_max=degree_max,
                         window_radii=radii,
                         coefficients=tuple(tuple(c) for c in coeffs),
                         residual_exponent=residual, passed=passed,
                         skipped=False, hypothesis_violation=violation)
