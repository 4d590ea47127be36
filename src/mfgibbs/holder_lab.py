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
from typing import NamedTuple

from .errors import (BlockSearchError, DomainError, PrecisionError,
                     ScaleError, SeparatorError)
from .estimators import (DistributionFunction, Scales, _slope, deep_policy,
                         default_scale_base, holder_exponent_estimate)
from .ifs_geometry import (WIDTH_FLOOR, IfsSystem, cylinder_interval,
                           max_safe_depth, node_children, stream_point)
from .symbolic import PeriodicWord, SymbolStream, Word, enumerate_words
from .thermodynamics import Potential

# derivative_limit_probe classifies from the last max(PROBE_MIN_DEPTHS,
# 3 * period) depths, and refuses to run on fewer than this many
PROBE_MIN_DEPTHS = 8
# derivative_limit_probe strides by the coding's tail period, which it
# resolves up to this
PROBE_MAX_PERIOD = 8
# find_tau_block searches blocks of length 2 up to this
TAU_MAX_LENGTH = 6
# detrend_exponent_test samples this many points each side of t0 per window
DETREND_SAMPLES_PER_SIDE = 12


def _require_odd(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd integer")


def _as_stream(omega) -> SymbolStream:
    return omega.stream() if isinstance(omega, PeriodicWord) else omega


def _secant_power(h: float, k: int, where: str) -> float:
    """h**k, the base of a secant quotient; PrecisionError where it
    underflows to 0 and leaves the quotient nothing to divide by."""
    if h ** k == 0.0:
        raise PrecisionError(f"{where}: secant base {h:.3e} to the power "
                             f"k = {k} underflows to 0")
    return h ** k


class SecantSlope(NamedTuple):
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
    if t - s < WIDTH_FLOOR:
        raise PrecisionError("secant base below the precision floor")
    # the shorter part of the base underflows first
    _secant_power(min(t - x, x - s), k, f"secant over [{s!r}, {t!r}]")
    fs, fx, ft = (F.cdf(v).value for v in (s, x, t))
    total = (ft - fs) / (t - s) ** k
    r = (t - x) / (t - s)
    recomposed = (r ** k * (ft - fx) / (t - x) ** k
                  + (1.0 - r) ** k * (fs - fx) / (s - x) ** k)
    return SecantSlope(total=total,
                       decomposition_check=abs(total - recomposed))


class TauBlock(NamedTuple):
    tau: Word
    value: float


def find_tau_block(ifs: IfsSystem, psi: Potential, k: int) -> TauBlock:
    """Shortest block (lex-first on ties) with at least two distinct
    letters and |S(psi - k*phi)| > 1e-6 at its cycle.

    Fails only when psi is cohomologous to k*phi, in which case no
    block at any length separates them.
    """
    _require_odd(k)
    phi = Potential.geometric(ifs)
    for ell in range(2, TAU_MAX_LENGTH + 1):
        for w in enumerate_words(ifs.alphabet_size, ell):
            if len(w.distinct_symbols()) < 2:
                continue
            pw = PeriodicWord(w)
            value = psi.block_sum(pw) - k * phi.block_sum(pw)
            if abs(value) > 1e-6:
                return TauBlock(tau=w, value=value)
    raise BlockSearchError(
        f"no block up to length {TAU_MAX_LENGTH} separates psi from {k}*phi; "
        f"the potentials look cohomologous")


class Separator(NamedTuple):
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


class ScalingRecord(NamedTuple):
    n: int
    N: int
    s: float
    t: float
    r: float
    slope_k: float
    separator: Word


class PerturbationExperiment(NamedTuple):
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
            slope = ((F.cdf(t).value - F.cdf(s).value)
                     / _secant_power(t - s, k, f"n={n}, N={N}"))
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
    fit_slope = _slope(Ns, log_slopes.values())
    fit_r = _slope(Ns, log_rs.values())
    # each depth's residuals from the shared slope and its own intercept
    nbar = sum(Ns) / len(Ns)
    resid = [[y - (sum(ys) / len(ys)) - fit_slope * (N - nbar)
              for N, y in zip(Ns, ys)] for ys in log_slopes.values()]
    pw = PeriodicWord(tau)
    phi = Potential.geometric(ifs)
    exp_slope = psi.block_sum(pw) - k * phi.block_sum(pw)
    exp_r = -phi.block_sum(pw)
    spread = tuple(max(column) - min(column) for column in zip(*resid))
    return PerturbationExperiment(
        tau=tau, ell=len(tau), k=k,
        n_set=tuple(n for n, _ in usable), N_range=tuple(Ns),
        records=tuple(records),
        slope_log_slope=fit_slope, slope_log_r=fit_r,
        expected_log_slope=exp_slope, expected_log_r=exp_r,
        residual_spread_by_N=spread)


class SlopeRecord(NamedTuple):
    n: int
    s: float
    t: float
    slope_k: float


class SlopeProbe(NamedTuple):
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
    at every depth, the base interval first; the children come from
    node_children, with cylinder_interval's float operations."""
    # rightmost child at touching points, matching the CDF convention
    lo, hi = ifs.domain
    if not lo <= x <= hi:
        raise DomainError("x outside the certified interval")
    coeffs = [mp.coefficients() for mp in ifs.maps]
    word: list[int] = []
    ends = [(lo, hi)]
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for _ in range(depth):
        kids, j = node_children(coeffs, a, b, c, d, lo, hi, x)
        if j < 0:
            # composed endpoints drift by a few ulp at the domain ends;
            # a true gap sits orders of magnitude farther away
            gap, j = min((kid[0] - x if x < kid[0] else x - kid[1], i)
                         for i, kid in enumerate(kids))
            if gap > 1e-12:
                raise DomainError(f"{x!r} is not in the attractor (gap at "
                                  f"depth {len(word)})")
        l_j, h_j, a, b, c, d = kids[j]
        word.append(j)
        ends.append((l_j, h_j))
    return word, ends


def _tail_period(word: list[int]) -> int:
    """The shortest period p, up to PROBE_MAX_PERIOD, of the second half
    of word or of its last 2p letters, whichever is longer: a period the
    tail shows twice in full.  ScaleError when the tail shows none."""
    n = len(word)
    for p in range(1, min(PROBE_MAX_PERIOD, n // 2) + 1):
        if all(word[i] == word[i + p]
               for i in range(min(n // 2, n - 2 * p), n - p)):
            return p
    raise ScaleError(f"the coding's {n} letters end in no period up to "
                     f"{PROBE_MAX_PERIOD} that they repeat in full")


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

    The depths run from scales.j_min to scales.j_max (1 to 25 by
    default), and stop at max_safe_depth, where cylinders reach the
    width floor, and one short of F's max_depth: at that depth F cuts
    its descent off at the probed cylinder itself, so the secant there
    would read no mass.  ScaleError when fewer than PROBE_MIN_DEPTHS
    depths are left.
    """
    _require_odd(k)
    ifs = F.system
    n_lo, n_hi = (scales.j_min, scales.j_max) if scales else (1, 25)
    depth = min(n_hi, max_safe_depth(ifs), F.policy.max_depth - 1)
    if depth - n_lo + 1 < PROBE_MIN_DEPTHS:
        raise ScaleError(f"depths {n_lo}..{depth} are fewer than "
                         f"{PROBE_MIN_DEPTHS}")
    coding, ends = _locate_coding(ifs, x, depth)
    ell = _tail_period(coding)
    fx = F.cdf(x).value
    records = []
    for n in range(n_lo, depth + 1):
        s, t = ends[n]
        if t - s < WIDTH_FLOOR and n > 0:
            raise PrecisionError(
                f"cylinder width {t - s:.3e} below floor {WIDTH_FLOOR}")
        y = t if t - x >= x - s else s
        v = (F.cdf(y).value - fx) / _secant_power(y - x, k, f"depth {n}")
        records.append(SlopeRecord(n=n, s=s, t=t, slope_k=v))
    vals = [rec.slope_k for rec in records]
    if not all(v > 0.0 for v in vals):
        raise PrecisionError("nonpositive secant quotient; depth too large")
    logs = [math.log(v) for v in vals]
    window = max(PROBE_MIN_DEPTHS, 3 * ell)
    tail = logs[max(0, len(logs) - window):]
    stride = ell if ell < len(tail) else 1
    steps = [(tail[i + stride] - tail[i]) / stride
             for i in range(len(tail) - stride)]
    trend = sum(steps) / len(steps)
    detrended = [tail[i] - trend * i for i in range(len(tail))]
    swing = math.exp(max(detrended) - min(detrended))
    tail_vals = vals[max(0, len(vals) - window):]
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


class DetrendResult(NamedTuple):
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
                          windows: int = 8) -> DetrendResult:
    """Check that no polynomial correction hides behind the exponent.

    For each degree j up to floor(alpha_hat), the coefficient a_j is
    fit by least squares of F(t) - F(t0) against (t - t0)^j over
    geometrically shrinking windows.  When the exponent story is honest
    every |a_j| decays as the window shrinks, and the plain liminf
    exponent of F - F(t0) reproduces alpha_hat.  A flat nonzero a_j is
    exactly how the degenerate (smooth) case fails.  When alpha_hat is
    not given it is that same liminf estimate, so residual_exponent ==
    alpha_hat and `passed` rests on the coefficient decay alone.

    Exponents below 1 make every polynomial term trivial; the test is
    then skipped (with a small allowance so estimates of exactly 1 are
    still exercised).  Decay compares the first window with the last,
    so there must be at least two.  Each window's radius is formed when
    the fit reaches it; ScaleError names the first window whose samples
    all round onto t0, or whose powers of a degree square to 0, which
    leaves its fit nothing to divide by; a degree's fit starts at the
    first window, so no degree past the first one that fails is tried.
    """
    if windows < 2:
        raise ValueError("need at least 2 windows")
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
    degree_max = max(1, math.floor(alpha_hat))
    lo, hi = F.system.domain
    f0 = F.cdf(t0).value
    radii = []
    # each degree's coefficients, made when the first window fits it, so
    # a huge alpha_hat stops at the first degree no window can fit
    coeffs: dict[int, list[float]] = {}
    for i in range(1, windows + 1):
        h = scales.base ** -i
        radii.append(h)
        ts = []
        for u in range(1, DETREND_SAMPLES_PER_SIDE + 1):
            for sgn in (1.0, -1.0):
                tt = t0 + sgn * h * u / DETREND_SAMPLES_PER_SIDE
                if lo <= tt <= hi and tt != t0:
                    ts.append(tt)
        ys = [F.cdf(tt).value - f0 for tt in ts]
        for j in range(1, degree_max + 1):
            ws = [(tt - t0) ** j for tt in ts]
            den = sum(w * w for w in ws)
            if den == 0.0:
                fault = (f"has (t - t0)**{j} square to 0 at degree {j}" if ts
                         else f"rounds onto t0 = {t0!r}")
                raise ScaleError(f"window {i}: every sample at radius {h:g} "
                                 f"{fault}, leaving nothing to fit")
            coeffs.setdefault(j, []).append(
                sum(y * w for y, w in zip(ys, ws)) / den)
    decays = []
    for seq in coeffs.values():
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
                         window_radii=tuple(radii),
                         coefficients=tuple(map(tuple, coeffs.values())),
                         residual_exponent=residual, passed=passed,
                         skipped=False, hypothesis_violation=violation)
