"""The scaling function beta(q) and the dimension spectra derived from it.

beta(q) is the unique zero in beta of the depth-k pressure of
beta*phi + q*psi, where phi is the geometric potential.  Since phi is
strictly negative the pressure is strictly decreasing in beta, so a
bracketed bisection always lands on the root; three Newton polish steps
sharpen it to machine precision.

The Legendre transform beta*(alpha) = inf_q {beta(q) + alpha*q} of the
sampled curve predicts the Hausdorff spectrum on [alpha_minus,
alpha_plus].  The packing spectrum agrees to the right of alpha_0 (the
alpha at q = 0) and is constant beta*(alpha_0) to the left.

Degenerate systems, where psi and a multiple of phi have identical
periodic sums, short-circuit to the affine curve beta(q) = s - c*q and
a one-point spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, GridEdgeError, NonConvergenceError
from .ifs_geometry import IfsSystem
from .thermodynamics import (Potential, cohomology_diagnostic,
                             effective_range, periodic_sums)

DEFAULT_Q_MIN = -10.0
DEFAULT_Q_MAX = 10.0
DEFAULT_Q_STEPS = 201


@dataclass(frozen=True)
class LevelSums:
    """Periodic sums of phi and psi at one depth, shared across root solves.

    The pressure of beta*phi + q*psi at this depth is a log-sum-exp of
    a linear combination of the two arrays, so every (beta, q)
    evaluation is a cheap vector operation.
    """

    level: int
    geometric: np.ndarray
    potential: np.ndarray

    @classmethod
    def build(cls, ifs: IfsSystem, psi: Potential,
              k: int | None = None) -> "LevelSums":
        """Sums at depth k; None picks the range of psi, or 10 if unbounded.

        The words are composed once, for phi; psi reads phi's sums.
        """
        if k is None:
            r = effective_range(ifs, psi)
            k = r if r is not None else 10
        geometric = periodic_sums(ifs, Potential.geometric(ifs), k)
        return cls(level=k, geometric=geometric,
                   potential=periodic_sums(ifs, psi, k, geometric=geometric))

    def pressure(self, beta: float, q: float) -> float:
        z = beta * self.geometric + q * self.potential
        zmax = float(np.max(z))
        return (zmax + math.log(float(np.sum(np.exp(z - zmax))))) / self.level

    def pressure_and_slope(self, beta: float, q: float) -> tuple[float, float]:
        z = beta * self.geometric + q * self.potential
        zmax = float(np.max(z))
        e = np.exp(z - zmax)
        total = float(e.sum())
        value = (zmax + math.log(total)) / self.level
        slope = float((e * self.geometric).sum()) / total / self.level
        return value, slope


def beta_of_q(ifs: IfsSystem, psi: Potential, q: float, k: int | None = None,
              tol: float = 1e-10, sums: LevelSums | None = None) -> float:
    """Solve the depth-k pressure equation P_k(beta*phi + q*psi) = 0.

    psi should be normalized (P(psi) = 0); then beta(1) = 0 and beta(0)
    is the attractor dimension.  The bracket starts at [-10, 10] and is
    doubled outward up to 60 times before giving up.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if sums is None:
        sums = LevelSums.build(ifs, psi, k)
    lo, hi = -10.0, 10.0
    f_lo, f_hi = sums.pressure(lo, q), sums.pressure(hi, q)
    for _ in range(60):
        if f_lo >= 0.0 >= f_hi:
            break
        width = hi - lo
        if f_lo < 0.0:
            lo -= width
            f_lo = sums.pressure(lo, q)
        if f_hi > 0.0:
            hi += width
            f_hi = sums.pressure(hi, q)
    else:
        raise BracketError(f"no sign change for q={q} after 60 doublings")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if sums.pressure(mid, q) > 0.0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    for _ in range(3):
        value, slope = sums.pressure_and_slope(beta, q)
        if slope == 0.0:
            break
        beta -= value / slope
    if abs(sums.pressure(beta, q)) > tol:
        raise NonConvergenceError(f"residual pressure above {tol} at q={q}")
    return beta


def endpoints(ifs: IfsSystem, psi: Potential,
              ell_max: int = 6) -> tuple[float, float]:
    """Extremes of the periodic ratios S_l psi / S_l phi up to ell_max.

    These bound the support of the multifractal spectrum; the extremes
    are attained at periodic points, so the estimate grows monotonically
    toward the true interval as ell_max increases.
    """
    diag = cohomology_diagnostic(ifs, psi, ell_max=ell_max)
    return diag.ratio_min, diag.ratio_max


@dataclass(frozen=True)
class SpectrumSample:
    q: float
    beta: float
    alpha: float
    beta_star: float


@dataclass(frozen=True)
class SpectrumCurve:
    samples: tuple[SpectrumSample, ...]
    alpha_minus: float
    alpha_plus: float
    degenerate: bool
    dimension: float
    alpha_zero: float

    @property
    def qs(self) -> np.ndarray:
        return np.array([s.q for s in self.samples])

    @property
    def betas(self) -> np.ndarray:
        return np.array([s.beta for s in self.samples])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([s.alpha for s in self.samples])

    @property
    def beta_stars(self) -> np.ndarray:
        return np.array([s.beta_star for s in self.samples])


def spectrum_curve(ifs: IfsSystem, psi: Potential, k: int | None = None,
                   q_min: float = DEFAULT_Q_MIN, q_max: float = DEFAULT_Q_MAX,
                   q_steps: int = DEFAULT_Q_STEPS,
                   ell_max: int = 6) -> SpectrumCurve:
    """Sample beta(q) on a uniform grid and attach alpha and beta* values.

    alpha(q) = -beta'(q) by central differences (one-sided at the grid
    ends); beta*(alpha(q)) = beta(q) + q*alpha(q) by Legendre duality at
    interior points.  One scan of the periodic ratios up to ell_max gives
    both the endpoints and the degeneracy flag.
    """
    if q_steps < 3:
        raise ValueError("need at least 3 grid points")
    if not q_min < q_max:
        raise ValueError("empty q range")
    qs = np.linspace(q_min, q_max, q_steps)
    h = (q_max - q_min) / (q_steps - 1)
    diag = cohomology_diagnostic(ifs, psi, ell_max=ell_max)
    a_lo, a_hi = diag.ratio_min, diag.ratio_max
    if diag.degenerate:
        c = 0.5 * (a_lo + a_hi)
        s = beta_of_q(ifs, psi, 0.0, k=k)
        samples = tuple(SpectrumSample(q=float(q), beta=s - c * float(q),
                                       alpha=c, beta_star=s) for q in qs)
        return SpectrumCurve(samples=samples, alpha_minus=a_lo,
                             alpha_plus=a_hi, degenerate=True,
                             dimension=s, alpha_zero=c)
    sums = LevelSums.build(ifs, psi, k)
    betas = np.array([beta_of_q(ifs, psi, float(q), sums=sums) for q in qs])
    alphas = np.empty_like(betas)
    alphas[1:-1] = -(betas[2:] - betas[:-2]) / (2.0 * h)
    alphas[0] = -(betas[1] - betas[0]) / h
    alphas[-1] = -(betas[-1] - betas[-2]) / h
    stars = betas + qs * alphas
    samples = tuple(SpectrumSample(q=float(q), beta=float(b), alpha=float(a),
                                   beta_star=float(f))
                    for q, b, a, f in zip(qs, betas, alphas, stars))
    izero = int(np.argmin(np.abs(qs)))
    return SpectrumCurve(samples=samples, alpha_minus=a_lo, alpha_plus=a_hi,
                         degenerate=False, dimension=float(betas[izero]),
                         alpha_zero=float(alphas[izero]))


@dataclass(frozen=True)
class LegendreValue:
    value: float
    interior: bool


def legendre(curve: SpectrumCurve, alpha: float) -> LegendreValue:
    """inf over the sampled grid of beta(q) + alpha*q, parabolically refined.

    interior=False flags attainment at a grid edge, where the true
    infimum may lie beyond the sampled q-range.
    """
    qs = curve.qs
    g = curve.betas + alpha * qs
    i = int(np.argmin(g))
    if i == 0 or i == len(g) - 1:
        return LegendreValue(value=float(g[i]), interior=False)
    denom = g[i - 1] - 2.0 * g[i] + g[i + 1]
    value = float(g[i])
    if denom > 0.0:
        value = float(g[i]) - (g[i + 1] - g[i - 1]) ** 2 / (8.0 * denom)
    return LegendreValue(value=value, interior=True)


def alpha_of_q(curve: SpectrumCurve, q: float) -> float:
    """Central-difference -beta'(q) read off the sampled curve."""
    qs = curve.qs
    betas = curve.betas
    h = float(qs[1] - qs[0])
    t = (q - float(qs[0])) / h
    i = int(round(t))
    if abs(t - i) < 1e-9:
        if i < 1 or i > len(qs) - 2:
            raise GridEdgeError(f"q={q} has no interior neighbors on the grid")
        return float(-(betas[i + 1] - betas[i - 1]) / (2.0 * h))
    i0 = int(math.floor(t))
    i1 = i0 + 1
    if i0 < 1 or i1 > len(qs) - 2:
        raise GridEdgeError(f"q={q} has no interior neighbors on the grid")
    d0 = -(betas[i0 + 1] - betas[i0 - 1]) / (2.0 * h)
    d1 = -(betas[i1 + 1] - betas[i1 - 1]) / (2.0 * h)
    w = t - i0
    return float((1.0 - w) * d0 + w * d1)


@dataclass(frozen=True)
class PredictedPoint:
    alpha: float
    dim: float
    empty: bool


def hausdorff_spectrum_prediction(curve: SpectrumCurve,
                                  alpha_grid) -> list[PredictedPoint]:
    """beta*(alpha) on [alpha_minus, alpha_plus]; empty marker outside."""
    out = []
    tol = 1e-9
    for alpha in alpha_grid:
        a = float(alpha)
        if a < curve.alpha_minus - tol or a > curve.alpha_plus + tol:
            out.append(PredictedPoint(alpha=a, dim=math.nan, empty=True))
        else:
            out.append(PredictedPoint(alpha=a, dim=legendre(curve, a).value,
                                      empty=False))
    return out


def packing_spectrum_prediction(curve: SpectrumCurve,
                                alpha_grid) -> list[PredictedPoint]:
    """Constant beta*(alpha_zero) left of alpha_zero, Legendre to the right."""
    out = []
    tol = 1e-9
    plateau = legendre(curve, curve.alpha_zero).value
    for alpha in alpha_grid:
        a = float(alpha)
        if a < curve.alpha_minus - tol or a > curve.alpha_plus + tol:
            out.append(PredictedPoint(alpha=a, dim=math.nan, empty=True))
        elif a <= curve.alpha_zero:
            out.append(PredictedPoint(alpha=a, dim=plateau, empty=False))
        else:
            out.append(PredictedPoint(alpha=a, dim=legendre(curve, a).value,
                                      empty=False))
    return out
