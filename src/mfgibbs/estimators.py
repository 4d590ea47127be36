"""Distribution function of the projected Gibbs measure and estimators on it.

The measure is realized as a cascade: the mass of a cylinder splits
among its children proportionally to exp of the child's periodic-point
sum, which reproduces the product measure exactly in the first-symbol
case and stays within the usual distortion constants of the Gibbs
measure otherwise.

cdf(x) descends the cylinder tree.  At each node x either falls in a
gap between child intervals (the value is then exact: the measure is
atomless and everything to the left has been accumulated) or inside a
child, where lexicographically smaller siblings contribute their full
mass and the descent recurses.  Landing exactly on a child endpoint
also terminates exactly; shared endpoints of touching cylinders resolve
to the right child, keeping F right-continuous.

Each level is one node expansion, ifs_geometry.node_children, the one
place where a descent forms a node's children: m child compositions
from the node's matrix, with the float operations of word_matrix, and
the last child holding x.  The scalar walk here, the node walk of
cdf_many and holder_lab's coding of a point all expand through it.
Non-constant splits add m fixed points per level: a child's split is
the cycle sum of the matrix the expansion has just composed
(Potential.cycle_sum), and no word is recomposed from its first
letter.  The node carries its log determinant as word_matrix
accumulates it, letter by letter, and its word only when the splits
are not constant.

cdf_many walks cylinder nodes instead of points.  The points are sorted
once (not at all when already non-decreasing, as box edges are), and
each node owns a contiguous slice of them.  A node expands once and
splits its slice with searchsorted on the child ends:
points left of a child or in a gap get the sequential prefix sum of the
sibling masses, points on a child end get the exact value, and points
strictly inside a child become that child's slice.  Nodes with few
points, or whose child ends are not in order, finish each point with
the scalar walk from the node's state.  The float operations and their
order are those of the scalar descent, so values and error bounds are
bit-identical to cdf; on PrecisionError the points are replayed through
cdf in input order, so the same error escapes.  Beyond the outputs
(and the sort permutation of unsorted input) the walk keeps O(nodes)
state: slices, never per-point masks or indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError, PrecisionError, ScaleError
from .ifs_geometry import (WIDTH_FLOOR, IfsSystem, max_safe_depth,
                           node_children)
from .symbolic import ENUMERATION_CAP, PeriodicWord
from .thermodynamics import (CohomologyReport, Potential,
                             cohomology_diagnostic, effective_range,
                             range_table, require_normalized)


# a node holding at most this many points finishes each with the scalar walk
_LEAF_POINTS = 16


@dataclass(frozen=True)
class DepthPolicy:
    """Descent cutoffs: stop at max_depth or when cylinder mass < mass_tol."""

    max_depth: int
    mass_tol: float = 1e-8

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.mass_tol < 0:
            raise ValueError("mass_tol must be >= 0")


@dataclass(frozen=True)
class CdfValue:
    value: float
    error_bound: float


class DistributionFunction:
    """F(x) = mu((-inf, x]) for the projected cascade measure of psi.

    psi must be normalized (pressure zero within its own error bound)
    and the system must satisfy the open set condition; both are
    checked at construction.
    """

    def __init__(self, system: IfsSystem, potential: Potential,
                 policy: DepthPolicy | None = None):
        if not system.osc_report.satisfied:
            raise DomainError("distribution function requires the open set condition")
        require_normalized(system, potential)
        self.system = system
        self.potential = potential
        self.policy = policy or default_policy(system)
        self._domain = system.domain
        self._coeffs = [mp.coefficients() for mp in system.maps]
        self._logdets = [mp.log_det for mp in system.maps]
        self._m = system.alphabet_size
        # any potential reading one symbol has constant child splits
        self._const_conds: tuple[float, ...] | None = None
        if effective_range(system, potential) == 1:
            table = range_table(system, potential, 1)
            e = np.exp(table - table.max())
            self._const_conds = tuple(float(v) for v in e / e.sum())

    @cached_property
    def cohomology(self) -> CohomologyReport:
        """cohomology_diagnostic of the system and potential, on first read."""
        return cohomology_diagnostic(self.system, self.potential)

    def _conds(self, word: tuple[int, ...], logdet: float,
               kids) -> tuple[float, ...]:
        """Non-constant splits among the children of the node `word`, whose
        matrix has log determinant `logdet`; kids[j] = (l_j, h_j, a, b,
        c, d) holds the ends and the matrix of the child word + (j,)."""
        cycle_sum = self.potential.cycle_sum
        vals = [cycle_sum(word + (j,), (kids[j][2:], logdet + self._logdets[j]))
                for j in range(self._m)]
        vmax = max(vals)
        es = [math.exp(v - vmax) for v in vals]
        tot = sum(es)
        return tuple(e / tot for e in es)

    def _descend(self, x: float) -> tuple[float, float]:
        lo, hi = self._domain
        if x < lo:
            return 0.0, 0.0
        if x >= hi:
            return 1.0, 0.0
        return self._walk(x, 0.0, 1.0, (), (1.0, 0.0, 0.0, 1.0), 0.0, 0)

    def _walk(self, x: float, acc: float, mass: float, word: tuple[int, ...],
              mat: tuple[float, float, float, float], logdet: float,
              depth: int) -> tuple[float, float]:
        """Scalar descent of x from the node (acc, mass, word, mat, logdet,
        depth); logdet is the log determinant of the node's matrix."""
        coeffs = self._coeffs
        logdets = self._logdets
        const_conds = self._const_conds
        m = self._m
        lo, hi = self._domain
        mass_tol = self.policy.mass_tol
        max_depth = self.policy.max_depth
        a_, b_, c_, d_ = mat
        while True:
            if mass < mass_tol or depth >= max_depth:
                return acc, mass
            kids, chosen = node_children(coeffs, a_, b_, c_, d_, lo, hi, x)
            conds = const_conds or self._conds(word, logdet, kids)
            if chosen < 0:
                # x sits in a gap: everything to the left is exact
                for j in range(m):
                    if kids[j][1] <= x:
                        acc += mass * conds[j]
                return acc, 0.0
            l_j, h_j, a_, b_, c_, d_ = kids[chosen]
            if x == l_j:
                for j in range(chosen):
                    acc += mass * conds[j]
                return acc, 0.0
            if x == h_j:
                for j in range(chosen + 1):
                    acc += mass * conds[j]
                return acc, 0.0
            if h_j - l_j < WIDTH_FLOOR:
                raise PrecisionError(
                    f"cylinder width {h_j - l_j:.3e} under the precision floor "
                    f"at depth {depth + 1}")
            for j in range(chosen):
                acc += mass * conds[j]
            mass *= conds[chosen]
            logdet += logdets[chosen]
            if const_conds is None:
                # only _conds reads the word
                word += (chosen,)
            depth += 1

    def cdf(self, x: float) -> CdfValue:
        value, err = self._descend(float(x))
        return CdfValue(value=value, error_bound=err)

    def cdf_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Values and error bounds of F at every x, bit-identical to cdf(x)."""
        xs = np.asarray(xs, dtype=float)
        try:
            if len(xs) < 2 or (xs[1:] >= xs[:-1]).all():
                return self._cdf_sorted(xs)
            order = np.argsort(xs, kind="stable")
            values = np.empty(len(xs))
            errors = np.empty(len(xs))
            values[order], errors[order] = self._cdf_sorted(xs[order])
            return values, errors
        except PrecisionError:
            # replay in input order, so the error raised is the one the
            # first offending point raises on the scalar path
            for x in xs:
                self._descend(float(x))
            raise

    def _cdf_sorted(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node walk over non-decreasing points (NaN last), see module doc."""
        values = np.empty(len(s))
        errors = np.zeros(len(s))
        lo, hi = self._domain
        start, stop, first_nan = s.searchsorted([lo, hi, math.nan]).tolist()
        values[:start] = 0.0
        values[stop:first_nan] = 1.0
        # NaN sorts last, after hi; it takes the scalar path's value, (0, 0)
        values[first_nan:], errors[first_nan:] = self._descend(math.nan)
        coeffs = self._coeffs
        logdets = self._logdets
        m = self._m
        mass_tol = self.policy.mass_tol
        max_depth = self.policy.max_depth
        stack = [(start, stop, 0.0, 1.0, (), (1.0, 0.0, 0.0, 1.0), 0.0, 0)]
        while stack:
            i0, i1, acc, mass, word, mat, logdet, depth = stack.pop()
            if mass < mass_tol or depth >= max_depth:
                values[i0:i1] = acc
                errors[i0:i1] = mass
                continue
            if i1 - i0 > _LEAF_POINTS:
                kids, _ = node_children(coeffs, *mat, lo, hi, math.nan)
                ends = [e for kid in kids for e in kid[:2]]
                if _monotone_ends(ends):
                    seg = s[i0:i1]
                    left = seg.searchsorted(ends).tolist()
                    right = seg.searchsorted(ends, side="right").tolist()
                    left.append(i1 - i0)  # l_m = +inf
                    conds = self._const_conds or self._conds(word, logdet, kids)
                    pos = 0
                    for j in range(m):
                        # [pos, b): the gap left of child j and x == l_j;
                        # [b, c): inside child j; [c, ...): x == h_j onward
                        end = min(right[2 * j + 1], left[2 * j + 2])
                        b = min(right[2 * j], end)
                        c = max(b, min(left[2 * j + 1], end))
                        values[i0 + pos:i0 + b] = acc
                        if c > b:
                            if ends[2 * j + 1] - ends[2 * j] < WIDTH_FLOOR:
                                # cdf_many replays the scalar path for the message
                                raise PrecisionError("cylinder under the width floor")
                            stack.append((i0 + b, i0 + c, acc, mass * conds[j],
                                          word + (j,), kids[j][2:],
                                          logdet + logdets[j], depth + 1))
                        acc += mass * conds[j]
                        pos = c
                    values[i0 + pos:i1] = acc
                    continue
            walk = self._walk
            for i, x in enumerate(s[i0:i1].tolist(), i0):
                values[i], errors[i] = walk(x, acc, mass, word, mat, logdet, depth)
        return values, errors


def _monotone_ends(ends: list[float]) -> bool:
    """Child ends [l_0, h_0, l_1, h_1, ...] with l_j <= h_j and both sides
    non-decreasing in j, so each child's points form one sorted run."""
    ls, hs = ends[0::2], ends[1::2]
    return (all(l <= h for l, h in zip(ls, hs))
            and all(a <= b for a, b in zip(ls, ls[1:]))
            and all(a <= b for a, b in zip(hs, hs[1:])))


def default_policy(ifs: IfsSystem) -> DepthPolicy:
    """The descent a DistributionFunction takes when given none: depth 60
    or the precision floor's safe depth, whichever is shallower."""
    return DepthPolicy(max_depth=min(60, max_safe_depth(ifs)))


def deep_policy(ifs: IfsSystem) -> DepthPolicy:
    """Descend to the precision floor; for point studies near coded points."""
    return DepthPolicy(max_depth=max_safe_depth(ifs), mass_tol=0.0)


def measure_ball(F: DistributionFunction, t0: float, r: float) -> CdfValue:
    """mu(B(t0, r)) as a difference of two cdf values."""
    if r <= 0:
        raise ValueError("radius must be positive")
    hi = F.cdf(t0 + r)
    lo = F.cdf(t0 - r)
    return CdfValue(value=max(0.0, hi.value - lo.value),
                    error_bound=hi.error_bound + lo.error_bound)


@dataclass(frozen=True)
class Scales:
    """Radii base**(-j) for j = j_min..j_max."""

    base: float
    j_min: int = 1
    j_max: int = 20

    def __post_init__(self):
        if self.base <= 1.0:
            raise ValueError("base must exceed 1")
        if self.j_min >= self.j_max:
            raise ValueError("empty scale range")


def default_scale_base(ifs: IfsSystem) -> float:
    """Match sampling radii to cylinder scales where the geometry allows.

    Affine systems use 1/r_max snapped to the nearest integer base when
    close (3 for the middle-thirds constructions); anything else falls
    back to 2.
    """
    if ifs.is_affine():
        b = 1.0 / ifs.r_max
        rb = round(b)
        if rb > 1 and abs(b - rb) < 0.25:
            return float(rb)
        return b
    return 2.0


@dataclass(frozen=True)
class HolderEstimate:
    t0: float
    exponent: float
    scale_pairs: tuple[tuple[float, float], ...]


# fewer usable scales than this leave the slope to the additive constants
_MIN_SCALES = 5


def _slope(pairs) -> float:
    """Least-squares slope of y on x over the (x, y) pairs."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    xm = sum(xs) / len(xs)
    ym = sum(ys) / len(ys)
    num = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    den = sum((x - xm) ** 2 for x in xs)
    return num / den


def holder_exponent_estimate(F: DistributionFunction, t0: float,
                             scales: Scales | None = None) -> HolderEstimate:
    """Liminf of log mu(B(t0, r)) / log r, estimated over sampled radii.

    Radii where the ball mass is within a factor 10 of its own error
    bound are skipped, and so are radii beyond the distance from t0 to
    the nearer end of the domain, where the ball is cut off.  A t0
    closer to an end than the smallest radius (the end itself, or a
    coded point that rounds next to it) counts as that end, and no
    radius is skipped.  The estimate is one least-squares slope over
    every usable radius, at least 5, which cancels the additive constant
    that biases the raw ratio and follows the average letter frequencies
    of t0's coding, where a minimum over short windows reads low.
    """
    if scales is None:
        scales = Scales(base=default_scale_base(F.system))
    lo, hi = F.system.domain
    reach = min(t0 - lo, hi - t0)
    if reach < scales.base ** (-scales.j_max):
        reach = math.inf
    pairs = []
    for j in range(scales.j_min, scales.j_max + 1):
        r = scales.base ** (-j)
        if r > reach:
            continue
        mb = measure_ball(F, t0, r)
        if mb.value <= 0.0 or mb.value < 10.0 * mb.error_bound:
            continue
        pairs.append((math.log(r), math.log(mb.value)))
    if len(pairs) < _MIN_SCALES:
        raise ScaleError(f"only {len(pairs)} usable scales, "
                         f"need {_MIN_SCALES}")
    return HolderEstimate(t0=t0, exponent=max(0.0, _slope(pairs)),
                          scale_pairs=tuple(pairs))


def exact_exponent_at_coded_point(ifs: IfsSystem, psi: Potential,
                                  w: PeriodicWord) -> float:
    """Cylinder-scale exponent S_l psi / S_l phi at the coded point of w."""
    return psi.block_sum(w) / Potential.geometric(ifs).block_sum(w)


@dataclass(frozen=True)
class CoarseBin:
    alpha_center: float
    count: int
    f_alpha: float


@dataclass(frozen=True)
class CoarseSpectrum:
    delta: float
    bin_width: float
    bins: tuple[CoarseBin, ...]
    kept_mass: float


def coarse_spectrum(F: DistributionFunction, delta_list,
                    alpha_bin_width: float = 0.2) -> list[CoarseSpectrum]:
    """Box-counting spectra: histogram coarse exponents log mu(box)/log delta.

    Boxes whose mass is below 10x its error bound are excluded; each
    occupied bin reports f = log(count)/(-log delta).
    """
    if alpha_bin_width <= 0:
        raise ValueError("alpha_bin_width must be positive")
    lo, hi = F.system.domain
    diam = hi - lo
    out = []
    for delta in delta_list:
        d = float(delta)
        if not 0.0 < d < diam:
            raise DomainError(f"delta {d} outside (0, {diam})")
        n = int(math.ceil(diam / d))
        if n > ENUMERATION_CAP:
            raise CapacityError(f"delta {d:g} needs {n} boxes, over the "
                                f"cap {ENUMERATION_CAP}")
        edges = lo + d * np.arange(n + 1)
        if hi - edges[n - 1] < 1e-9 * d:
            # diam/d rounded up past an integer: drop the rounding-noise box
            n -= 1
            edges = edges[:n + 1]
        edges[-1] = hi
        values, errors = F.cdf_many(edges)
        masses = np.diff(values)
        errs = errors[:-1] + errors[1:]
        keep = (masses > 0.0) & (masses >= 10.0 * errs)
        alphas = np.log(masses[keep]) / math.log(d)
        idx = np.floor(alphas / alpha_bin_width).astype(int)
        bins = []
        for b in sorted(set(int(v) for v in idx)):
            count = int(np.sum(idx == b))
            bins.append(CoarseBin(
                alpha_center=(b + 0.5) * alpha_bin_width,
                count=count,
                f_alpha=math.log(count) / (-math.log(d))))
        kept = float(masses[keep].sum())
        if kept > 1.0 + 1e-9:
            raise PrecisionError(f"kept box masses sum to {kept} > 1")
        out.append(CoarseSpectrum(delta=d, bin_width=alpha_bin_width,
                                  bins=tuple(bins), kept_mass=kept))
    return out
