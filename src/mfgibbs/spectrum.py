"""The scaling function beta(q) and the dimension spectra derived from it.

beta(q) is the unique zero in beta of the depth-k pressure
P_k(beta, q) = (1/k) log sum exp(beta*S_k phi + q*S_k psi), where phi is
the geometric potential.  P_k is convex in beta and, since every
S_k phi < 0, strictly decreasing, so Newton's method from any start
lands at or left of the root after one step and then rises to it
monotonically.  Each step is one pass over the level's distinct
(S_k phi, S_k psi) pairs, each weighted by the number of words that
carry it.  The pass also yields the Gibbs averages <phi> and <psi>; at
the root they give the exact alpha(q) = -beta'(q) = <psi>/<phi> and
beta*(alpha(q)) = beta(q) + q*alpha(q).  Along a q grid each root
starts from the tangent of the previous one, which lies below the
convex curve beta(q).

The Legendre transform beta*(alpha) = inf_q {beta(q) + alpha*q} of the
sampled curve predicts the Hausdorff spectrum on [alpha_minus,
alpha_plus].  The packing spectrum agrees to the right of alpha_0 (the
alpha at q = 0) and is constant beta*(alpha_0) = beta(0) to the left.

Degenerate systems, where psi and a multiple of phi have identical
periodic sums, short-circuit to the affine curve beta(q) = s - c*q and
a one-point spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonConvergenceError, PrecisionError
from .ifs_geometry import IfsSystem
from .thermodynamics import (Potential, _level_sums, cohomology_diagnostic,
                             default_level)

DEFAULT_Q_MIN = -10.0
DEFAULT_Q_MAX = 10.0
DEFAULT_Q_STEPS = 201


class LevelSums(NamedTuple):
    """Periodic sums of phi and psi at one depth, shared across root solves.

    The arrays hold each distinct (S_k phi, S_k psi) pair of the level
    once, in the order of the first word that carries it, and `counts`
    how many words carry it.  The words of one cycle share one periodic
    orbit, so on a Moebius level most words share their pair with
    others.  Only pairs equal as floats are merged, so sums over the
    level still run over the multiset of its words' floats.
    The pressure of beta*phi + q*psi at this depth is a weighted
    log-sum-exp of a linear combination of the two arrays, so every
    (beta, q) evaluation is a cheap vector operation.
    """

    level: int
    geometric: np.ndarray
    potential: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, ifs: IfsSystem, psi: Potential,
              k: int | None = None) -> "LevelSums":
        """Sums at depth k; None picks `default_level`, the range of psi
        or 10.  Both come from one `_level_sums` pass, which composes
        the level's words once, or takes the level normalize left on ifs.
        """
        if k is None:
            k = default_level(ifs, psi)
        _, (geometric, potential) = next(_level_sums(
            ifs, (Potential.geometric(ifs), psi), (k,)))
        # lexsort is stable, so each run of equal pairs starts at its
        # first word; the counts sit at those words, which keeps the
        # pairs in word order and a level without repeats unchanged
        order = np.lexsort((potential, geometric))
        g, p = geometric[order], potential[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (g[1:] != g[:-1]) | (p[1:] != p[:-1]))))
        counts = np.zeros(g.size, dtype=np.int64)
        counts[order[starts]] = np.diff(starts, append=g.size)
        first = np.flatnonzero(counts)
        return cls(level=k, geometric=geometric[first],
                   potential=potential[first], counts=counts[first])

    def gibbs_averages(self, beta: float,
                       q: float) -> tuple[float, float, float]:
        """P_k(beta, q) and the per-symbol averages <phi>, <psi>.

        The averages are taken under the weights exp(beta*S_k phi +
        q*S_k psi) and are the partial derivatives of P_k in beta and q.
        """
        z = beta * self.geometric + q * self.potential
        zmax = float(np.max(z))
        e = np.exp(z - zmax) * self.counts
        total = float(e.sum())
        k = self.level
        return ((zmax + math.log(total)) / k,
                float((e * self.geometric).sum()) / total / k,
                float((e * self.potential).sum()) / total / k)


def beta_of_q(ifs: IfsSystem, psi: Potential, q: float, k: int | None = None,
              sums: LevelSums | None = None, start: float = 0.0) -> float:
    """Solve the depth-k pressure equation P_k(beta*phi + q*psi) = 0.

    psi should be normalized (P(psi) = 0); then beta(1) = 0 and beta(0)
    is the attractor dimension.  Newton runs from `start`, or from 0
    where the pressure at `start` is not finite, until a step falls
    below 1e-15*max(1, |beta|), at most 50 steps.
    NonConvergenceError if the pressure at the last point evaluated, one
    such step from the returned root, exceeds max(1e-10, 8 * 2**-52 *
    (|beta*<phi>| + |q*<psi>|)), the averages taken at that point: the
    pressure sums terms of those sizes, so at large |q| its rounding
    alone passes 1e-10.
    """
    if sums is None:
        sums = LevelSums.build(ifs, psi, k)
    beta = start
    # a q whose sums overflow leaves a NaN residual, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(50):
            value, slope, psi_avg = sums.gibbs_averages(beta, q)
            if not (i or math.isfinite(value)):
                # the start's terms leave the float range: start cold
                beta = 0.0
                value, slope, psi_avg = sums.gibbs_averages(beta, q)
            step = value / slope
            beta -= step
            if abs(step) <= 1e-15 * max(1.0, abs(beta)):
                break
        else:
            value, slope, psi_avg = sums.gibbs_averages(beta, q)
    bound = max(1e-10, 8 * 2.0**-52 * (abs(beta * slope) + abs(q * psi_avg)))
    if not abs(value) <= bound:  # a NaN residual fails too
        raise NonConvergenceError(f"residual pressure above {bound:g} "
                                  f"at q={q}")
    return beta


def endpoints(ifs: IfsSystem, psi: Potential,
              ell_max: int | None = None) -> tuple[float, float]:
    """Extremes of the periodic ratios S_l psi / S_l phi up to ell_max,
    by default thermodynamics.scan_depth(m).

    These bound the support of the multifractal spectrum; the extremes
    are attained at periodic points, so the estimate grows monotonically
    toward the true interval as ell_max increases.
    """
    diag = cohomology_diagnostic(ifs, psi, ell_max=ell_max)
    return diag.ratio_min, diag.ratio_max


@dataclass(frozen=True)
class SpectrumCurve:
    """The sampled curve, one read-only array per column: q, beta(q),
    alpha(q) and beta*(alpha(q)) at each grid point."""

    qs: np.ndarray
    betas: np.ndarray
    alphas: np.ndarray
    beta_stars: np.ndarray
    alpha_minus: float
    alpha_plus: float
    degenerate: bool
    dimension: float
    alpha_zero: float

    def __post_init__(self):
        for column in (self.qs, self.betas, self.alphas, self.beta_stars):
            column.flags.writeable = False  # one array serves every caller


def beta_grid(ifs: IfsSystem, psi: Potential, qs, k: int | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays (qs, betas, alphas): beta and alpha = <psi>/<phi> at each q.

    One level of sums serves every root.  Each root after the first
    starts from the tangent beta - alpha*dq of the previous one.
    PrecisionError, before any root, if the q of largest |q| (the last
    of a tie) may put a term of the level's sums past the float range.
    Near the root beta is -q*alpha for a ratio alpha = S_k psi / S_k phi
    of the level, and S_k psi is such a ratio times S_k phi, so no term
    beta*S_k phi or q*S_k psi, at the root or on Newton's way to it from
    0, exceeds |q| * max |alpha| * max |S_k phi|.
    """
    sums = LevelSums.build(ifs, psi, k)
    qs = [float(q) for q in qs]
    q_far = max(reversed(qs), key=abs, default=0.0)
    reach = (float(np.abs(sums.potential / sums.geometric).max())
             * float(np.abs(sums.geometric).max()))
    if abs(q_far) * reach == math.inf:
        raise PrecisionError(f"q={q_far:g} puts the level sums' terms past "
                             f"the float range")
    betas, alphas = [], []
    start = 0.0
    for i, q in enumerate(qs):
        if i:
            start = betas[-1] - alphas[-1] * (q - qs[i - 1])
        beta = beta_of_q(ifs, psi, q, sums=sums, start=start)
        _, phi, psi_avg = sums.gibbs_averages(beta, q)
        betas.append(beta)
        alphas.append(psi_avg / phi)
    return np.array(qs), np.array(betas), np.array(alphas)


def spectrum_curve(ifs: IfsSystem, psi: Potential, k: int | None = None,
                   q_min: float = DEFAULT_Q_MIN, q_max: float = DEFAULT_Q_MAX,
                   q_steps: int = DEFAULT_Q_STEPS) -> SpectrumCurve:
    """Sample beta(q), alpha(q) and beta*(alpha(q)) on a uniform grid.

    The samples come from `beta_grid`, so alpha and beta* are exact at
    the depth-k level, as are the dimension beta(0) and alpha_0 = alpha(0)
    whether or not the grid holds q = 0.  One cohomology_diagnostic scan
    of the periodic ratios gives both the endpoints and the degeneracy
    flag.  PrecisionError, before any root, if a grid end's |q| is so
    large that the rounding of beta + q*alpha passes 1e-9.
    """
    if q_steps < 3:
        raise ValueError("need at least 3 grid points")
    if not q_min < q_max:
        raise ValueError("empty q range")
    qs = np.linspace(q_min, q_max, q_steps)
    diag = cohomology_diagnostic(ifs, psi)
    a_lo, a_hi = diag.ratio_min, diag.ratio_max
    # beta + q*alpha rounds by about 2**-52 * |q * alpha|: past the 1e-9
    # that spectrum_predictions allows, beta* would be rounding noise
    q_far = max(q_max, q_min, key=abs)
    rounding = 2.0**-52 * abs(q_far) * max(abs(a_lo), abs(a_hi))
    if rounding > 1e-9:
        raise PrecisionError(f"q={q_far:g} rounds beta + q*alpha by about "
                             f"{rounding:.1e}, past 1e-9")
    if diag.degenerate:
        c = 0.5 * (a_lo + a_hi)
        s = beta_of_q(ifs, psi, 0.0, k=k)
        return SpectrumCurve(qs=qs, betas=s - c * qs,
                             alphas=np.full(q_steps, c),
                             beta_stars=np.full(q_steps, s), alpha_minus=a_lo,
                             alpha_plus=a_hi, degenerate=True,
                             dimension=s, alpha_zero=c)
    # q = 0 is solved on its own, so a grid without it still reads
    # the dimension and alpha_0 exactly
    qs, betas, alphas = beta_grid(ifs, psi, np.append(qs, 0.0), k)
    return SpectrumCurve(qs=qs[:-1], betas=betas[:-1], alphas=alphas[:-1],
                         beta_stars=betas[:-1] + qs[:-1] * alphas[:-1],
                         alpha_minus=a_lo, alpha_plus=a_hi, degenerate=False,
                         dimension=float(betas[-1]),
                         alpha_zero=float(alphas[-1]))


class LegendreValue(NamedTuple):
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


def spectrum_predictions(curve: SpectrumCurve, alphas
                         ) -> list[tuple[float, float, float, bool]]:
    """The rows (alpha, hausdorff, packing, empty), one per alpha.

    The Hausdorff spectrum is beta*(alpha) on [alpha_minus, alpha_plus]
    (within 1e-9); outside it both spectra are NaN and the row is marked
    empty.  The packing spectrum agrees right of alpha_zero and is the
    constant beta*(alpha_zero) = beta(0), the curve's dimension, to the
    left.
    """
    rows = []
    tol = 1e-9
    for alpha in alphas:
        a = float(alpha)
        if a < curve.alpha_minus - tol or a > curve.alpha_plus + tol:
            rows.append((a, math.nan, math.nan, True))
        else:
            dim = legendre(curve, a).value
            rows.append((a, dim,
                         curve.dimension if a <= curve.alpha_zero else dim,
                         False))
    return rows
