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

A level the descent does not share with the previous one is one node
expansion: ifs_geometry.node_children for a scalar descent (_descend
and holder_lab's coding of a point), in the form the system's
letters select (two coefficients per node on an affine system),
ifs_geometry.child_matrices for a block of cdf_many's nodes.  Both
follow the float recipe that ifs_geometry states, so the children are
the same floats either way.  Non-constant splits add m fixed points per
expanded level: a child's split is the cycle sum of its depth and of
the matrix the expansion has just composed (Potential.cycle_sum), and
no word is recomposed from its first letter.  A node is its accumulated
value, its mass, its matrix and its log determinant, which it carries as
word_matrix accumulates it, letter by letter; it carries no word.  So F
refuses a potential whose splits the child matrices do not fix: a table
of depth 2 or more, or a table beside a geometric part on a non-affine
system.

The scalar descent, _descend, always starts at the root and resumes
below the deepest node it shares with the previous one.  F keeps the
last descent's path: per level the node's children, splits and state,
and the child it took, O(max_depth * m) in all.  One pass steps down
the path while x enters the same child strictly inside, with
node_children's choice remade from the stored child ends; the node
where x leaves the path, with its stored children and splits, is the
first of one expansion loop, which expands only the nodes below.  The
state it resumes from was computed by the same float operations in the
same order, so values are those of a fresh F.  A descent reads the path
once and, where it expanded a node, replaces it with one assignment,
never changing a path in place, so neither call order nor threads
sharing F change a value; they can at worst miss the path.

cdf_many walks cylinder nodes instead of points, one level at a time.
The points are sorted once (not at all when already non-decreasing, as
box edges are), and each node owns a contiguous slice of them.  A
level's live nodes are arrays in position order, and one numpy pass
expands them all: their children at once (child_matrices), then, where
a node holds several points, one searchsorted per side over every child
end, clipped to each node's slice, which splits every slice.  Points
left of a child or in a gap get the sequential prefix sum of the
sibling masses, points on a child end get the exact value, and points
strictly inside a child become that child's slice at the next level.
A block whose nodes each hold at most one point (the deep levels, where
points near a cylinder end descend alone) searches nothing: clipped to
a one-point slice the search is a comparison, so the point step
compares each node's point with l_j, h_j and l_j+1, writes the values
of the points in a gap in one indexed assignment and hands the others
to the child that holds them.  A node whose child ends are not in order
hands each of its points to _descend, which reaches the same node by
the same float operations and finishes the point there (no committed
config's grid has such a node; systems whose images overlap within the
open set tolerance do).  The float operations and their order are
those of the scalar descent, so values and error bounds are
bit-identical to cdf; on PrecisionError the points are replayed through
cdf in input order, so the same error escapes.  A level of more than
_BLOCK nodes takes one pass per block of _BLOCK nodes, deepest blocks
first, so beyond the outputs (and the sort permutation of unsorted
input) the walk keeps O(nodes) state: the slices and node arrays of at
most max_depth * m blocks.  A run of points that resolves at one value
is written by slice assignment, or, when short, through one index array
of at most _LONG_RUN points per run; there is never a per-point mask.

coarse_spectrum reads a delta-grid in slabs of at most _SLAB boxes,
one cdf_many call per slab, so its own arrays are at most three
slab-sized float arrays (edges, values, errors) whatever the grid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, PrecisionError, ScaleError
from .ifs_geometry import (WIDTH_FLOOR, IfsSystem, child_matrices,
                           max_safe_depth, node_children)
from .symbolic import ENUMERATION_CAP, PeriodicWord
from .thermodynamics import (CohomologyReport, Potential,
                             cohomology_diagnostic, effective_range,
                             range_table, require_normalized)


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


class CdfValue(NamedTuple):
    value: float
    error_bound: float


class DistributionFunction:
    """F(x) = mu((-inf, x]) for the projected cascade measure of psi.

    psi must be normalized (pressure zero within its own error bound)
    and the system must satisfy the open set condition; both are
    checked at construction.  Before any pressure, a ValueError led by
    `depth:` refuses a table whose splits are not constant (see module
    doc).
    """

    def __init__(self, system: IfsSystem, potential: Potential,
                 policy: DepthPolicy | None = None):
        if not system.osc_report.satisfied:
            raise DomainError("distribution function requires the open set condition")
        # any potential reading one symbol has constant child splits;
        # otherwise the splits are read from the child matrices alone
        self._const_conds: tuple[float, ...] | None = None
        if effective_range(system, potential) == 1:
            table = range_table(system, potential, 1)
            e = np.exp(table - table.max())
            self._const_conds = tuple(float(v) for v in e / e.sum())
        elif potential.depth:
            raise ValueError(f"depth: the child matrices do not fix the "
                             f"splits of a table of depth {potential.depth} "
                             f"on this system")
        require_normalized(system, potential)
        self.system = system
        self.potential = potential
        self.policy = policy or default_policy(system)
        self._domain = system.domain
        self._letters = np.array([mp.coefficients() for mp in system.maps]).T
        self._logdets = [mp.log_det for mp in system.maps]
        self._m = system.alphabet_size
        # the last scalar descent's nodes, see _descend
        self._path: list = []

    @cached_property
    def cohomology(self) -> CohomologyReport:
        """cohomology_diagnostic of the system and potential, on first read."""
        return cohomology_diagnostic(self.system, self.potential)

    def _conds(self, depth: int, logdet: float, kids) -> tuple[float, ...]:
        """Non-constant splits among the children of a node at `depth`,
        whose matrix has log determinant `logdet`; kids[j] = (l_j, h_j,
        a, b, c, d) holds the ends and the matrix of child j, which with
        the depth fix each child's cycle sum."""
        cycle_sum = self.potential.cycle_sum
        logdets = self._logdets
        vals = [cycle_sum(depth + 1, (kid[2:], logdet + logdets[j]))
                for j, kid in enumerate(kids)]
        vmax = max(vals)
        es = [math.exp(v - vmax) for v in vals]
        tot = sum(es)
        return tuple(e / tot for e in es)

    def _descend(self, x: float) -> tuple[float, float]:
        """Scalar descent of x from the root: its value and error bound.

        self._path is the last descent's: path[i] = (kids, conds, took,
        acc, mass, logdet) for its node at depth i, with took the child
        that descent entered or stopped at.  One pass steps down the path
        while x enters took strictly inside; the node where x leaves the
        path, or its last node, is the first of the expansion loop, with
        its children and splits read from the path, and only the nodes
        below it are expanded.  The path is read once, and this descent's
        path replaces it in one assignment where the descent expanded a
        node; a path is never changed in place.
        """
        lo, hi = self._domain
        if x < lo:
            return 0.0, 0.0
        if x >= hi:
            return 1.0, 0.0
        letters = self.system.letters
        logdets = self._logdets
        const_conds = self._const_conds
        m = self._m
        mass_tol = self.policy.mass_tol
        max_depth = self.policy.max_depth
        last_first = range(m - 1, -1, -1)
        # step down the path while x enters took strictly inside: on the
        # way the earlier descent passed every check with the numbers x
        # would compute, and it reached node i with the state path[i] holds
        old = self._path
        kids = None
        for i, node in enumerate(old):
            kids = node[0]
            # node_children's choice: the last child holding x
            for chosen in last_first:
                kid = kids[chosen]
                if kid[0] <= x <= kid[1]:
                    break
            else:
                chosen = -1
            if chosen != node[2] or x == kid[0] or x == kid[1]:
                break
        if kids is None:
            # the root: identity matrix, log determinant 0
            acc, mass, logdet, depth, path, read = 0.0, 1.0, 0.0, 0, [], 0
            a_, b_, c_, d_ = 1.0, 0.0, 0.0, 1.0
        else:
            _, conds, _, acc, mass, logdet = node
            depth, path, read = i, old[:i], i + 1
        while True:
            if kids is None:
                # a node read from the path passed these cutoffs before
                if mass < mass_tol or depth >= max_depth:
                    break
                kids, chosen = node_children(letters, a_, b_, c_, d_,
                                             lo, hi, x)
                conds = const_conds or self._conds(depth, logdet, kids)
            path.append((kids, conds, chosen, acc, mass, logdet))
            if chosen < 0:
                # x sits in a gap: everything to the left is exact
                for j in range(m):
                    if kids[j][1] <= x:
                        acc += mass * conds[j]
                mass = 0.0
                break
            l_j, h_j, a_, b_, c_, d_ = kids[chosen]
            if x == l_j or x == h_j:
                # exact on a child end, past the child's mass at h_j
                for j in range(chosen if x == l_j else chosen + 1):
                    acc += mass * conds[j]
                mass = 0.0
                break
            if h_j - l_j < WIDTH_FLOOR:
                raise PrecisionError(
                    f"cylinder width {h_j - l_j:.3e} under the precision floor "
                    f"at depth {depth + 1}")
            for j in range(chosen):
                acc += mass * conds[j]
            mass *= conds[chosen]
            logdet += logdets[chosen]
            depth += 1
            kids = None
        # the old path holds every node a descent that expands none visits
        if len(path) > read:
            self._path = path
        return acc, mass

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
        """Level-synchronous node walk over non-decreasing points (NaN
        last), see module doc."""
        values = np.empty(len(s))
        errors = np.zeros(len(s))
        lo, hi = self._domain
        start, stop, first_nan = s.searchsorted([lo, hi, math.nan]).tolist()
        values[:start] = 0.0
        values[stop:first_nan] = 1.0
        # NaN sorts last, after hi; it takes the scalar path's value, (0, 0)
        values[first_nan:], errors[first_nan:] = self._descend(math.nan)
        # the root: depth 0, all points in the domain, acc 0, mass 1, the
        # identity matrix and log determinant 0
        blocks = [(0, np.array([[start], [stop]]), np.array(
            [[0.0], [1.0], [1.0], [0.0], [0.0], [1.0], [0.0]]))]
        while blocks:
            blocks += self._expand(s, values, errors, *blocks.pop())
        return values, errors

    def _expand(self, s, values, errors, depth, slices, state):
        """One numpy pass over a block of nodes of one level, in position
        order, one column per node: slices holds each node's slice of s,
        and state its (acc, mass, a, b, c, d, logdet).  Writes the values
        the nodes resolve, those of a node whose child ends are not in
        order through _descend, and returns their children as blocks of
        the next level."""
        lo, hi = self._domain
        const = self._const_conds
        m = self._m
        live = ((state[1] >= self.policy.mass_tol)
                & (depth < self.policy.max_depth))
        if not live.all():
            _fill(values, slices[:, ~live], state[0, ~live])
            _fill(errors, slices[:, ~live], state[1, ~live])
            if not live.any():
                return []
            slices, state = slices[:, live], state[:, live]
        # kids[:7, k, j] is child j of node k, laid out as state, and
        # kids[7:] its ends
        acc, mass, *_, logdet = state
        kids = np.empty((9, len(acc), m))
        kids[2:6] = child_matrices(state[2:6], self._letters)
        kids[6] = logdet[:, None] + np.array(self._logdets)
        kids[7] = (kids[2] * lo + kids[3]) / (kids[4] * lo + kids[5])
        kids[8] = (kids[2] * hi + kids[3]) / (kids[4] * hi + kids[5])
        ls, hs = kids[7:]
        # l_j <= h_j and both sides non-decreasing in j: each child's
        # points form one sorted run
        ok = ((ls <= hs).all(1) & (ls[:, :-1] <= ls[:, 1:]).all(1)
              & (hs[:, :-1] <= hs[:, 1:]).all(1))
        for k in np.flatnonzero(~ok).tolist():
            # the scalar descent finishes the node's points; the emptied
            # slice then resolves no run and enters no child
            for i in range(slices[0, k], slices[1, k]):
                values[i], errors[i] = self._descend(float(s[i]))
            slices[1, k] = slices[0, k]
        conds = np.array(const or [
            self._conds(depth, ld, kk) for ld, kk in zip(
                logdet.tolist(),
                np.moveaxis(kids[[7, 8, 2, 3, 4, 5]], 0, -1).tolist())])
        # a run's value is acc plus the sibling masses before it, added in
        # child order as the scalar descent adds them
        kids[1] = mass[:, None] * conds
        accs = np.cumsum(np.hstack([acc[:, None], kids[1]]), axis=1)
        kids[0] = accs[:, :m]
        count = slices[1] - slices[0]
        if count.max() == 1:
            # each node holds one point x = s[i0], or none where the scalar
            # descent emptied its slice (x is NaN there and enters no child).
            # The searches below, clipped to [i0, i0 + 1), are i0 + (x < e)
            # and i0 + (x <= e); so b_j = (x <= l_j) & before_j, and x is
            # inside child j when l_j < x < h_j & before_j, where before_j
            # = (x < l_j+1) and is true for the last child
            held = count == 1
            x = np.full((len(acc), 1), math.nan)
            x[held, 0] = s[slices[0, held]]
            before = np.ones(ls.shape, dtype=bool)
            np.less(x, ls[:, 1:], out=before[:, :-1])
            inside = (ls < x) & (x < hs) & before
            # a resolved x is in the gap run left of the first b_j = 1
            gap = held & ~inside.any(1)
            j = m - ((x[gap] <= ls[gap]) & before[gap]).sum(1)
            values[slices[0, gap]] = accs[gap, j]
            slices = slices[0, np.nonzero(inside)[0]] + np.array([[0], [1]])
        else:
            # one searchsorted per side over the block's child ends, which
            # arrive sorted; clipped to a node's slice it is the node's own
            i0, i1 = slices[:, :, None]
            ends = np.stack([ls, hs], axis=-1).reshape(len(ls), 2 * m)
            left = np.minimum(np.maximum(s.searchsorted(ends), i0), i1)
            right = np.minimum(np.maximum(s.searchsorted(ends, "right"), i0),
                               i1)
            # runs[k] = [i0, b_0, c_0, ..., b_m-1, c_m-1, i1] for node k:
            # [c_j-1, b_j) is the gap left of child j and x == l_j, with
            # c_-1 = i0; [b_j, c_j) is inside child j; x == h_j onward
            # goes to the next run, and [c_m-1, i1) is past the last child
            end = right[:, 1::2]  # min(index past h_j, index of l_j+1)
            np.minimum(end[:, :-1], left[:, 2::2], out=end[:, :-1])
            runs = np.empty((len(ls), 2 * m + 2), dtype=np.intp)
            runs[:, :1], runs[:, -1:] = i0, i1
            b_ = np.minimum(right[:, 0::2], end, out=runs[:, 1:-1:2])
            c_ = np.maximum(b_, np.minimum(left[:, 1::2], end),
                            out=runs[:, 2:-1:2])
            _fill(values, runs.reshape(-1, 2).T, accs.ravel())
            inside = c_ > b_
            slices = runs[:, 1:-1].reshape(-1, m, 2)[inside].T
        if (inside & (hs - ls < WIDTH_FLOOR)).any():
            # cdf_many replays the scalar path for the message
            raise PrecisionError("cylinder under the width floor")
        state = kids[:7, inside]
        return [(depth + 1, slices[:, k:k + _BLOCK], state[:, k:k + _BLOCK])
                for k in range(0, len(state[0]), _BLOCK)]


# a run of more points than this is filled by slice assignment
_LONG_RUN = 64
# cdf_many expands at most this many nodes of a level in one pass
_BLOCK = 4096
# coarse_spectrum reads a delta-grid in slabs of at most this many boxes
_SLAB = 1 << 20


def _fill(out: np.ndarray, runs: np.ndarray, vals: np.ndarray) -> None:
    """out[i:j] = v for every run (i, j) = runs[:, k] and v = vals[k].

    Runs of more than _LONG_RUN points take one slice assignment each,
    at most len(out) / _LONG_RUN in all; the rest share one indexed
    write, whose index array is at most _LONG_RUN points per run.
    """
    lens = runs[1] - runs[0]
    long = lens > _LONG_RUN
    if long.any():
        for i, j, v in zip(*runs[:, long].tolist(), vals[long].tolist()):
            out[i:j] = v
        runs, vals, lens = runs[:, ~long], vals[~long], lens[~long]
    # the points of run k are runs[0, k] + (0 .. lens[k] - 1)
    first = np.repeat(runs[0] - (np.cumsum(lens) - lens), lens)
    out[first + np.arange(len(first))] = np.repeat(vals, lens)


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
    """Radii base**(-j) for j = j_min..j_max, each a positive float.

    ValueError, its message led by the field at fault, unless base
    exceeds 1, j_max exceeds j_min, the largest radius base**-j_min is
    finite and the smallest base**-j_max is not 0.
    """

    base: float
    j_min: int = 1
    j_max: int = 20

    def __post_init__(self):
        base = float(self.base)
        if not base > 1.0:
            raise ValueError(f"base: must exceed 1, got {base:g}")
        if self.j_max <= self.j_min:
            raise ValueError(f"j_max: must exceed j_min, got "
                             f"{self.j_max} <= {self.j_min}")
        try:
            base ** -self.j_min  # the largest radius overflows first
        except OverflowError:
            raise ValueError(f"j_min: radius {base:g}**{-self.j_min} "
                             f"overflows") from None
        if base ** -self.j_max == 0.0:
            raise ValueError(f"j_max: radius {base:g}**{-self.j_max} "
                             f"underflows to 0")


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


class HolderEstimate(NamedTuple):
    t0: float
    exponent: float
    scale_pairs: tuple[tuple[float, float], ...]


# fewer usable scales than this leave the slope to the additive constants
_MIN_SCALES = 5


def _slope(xs, groups) -> float:
    """Least-squares slope of y on x shared by every list of ys in
    `groups`, each list read at the xs and fitted with its own
    intercept."""
    xm = sum(xs) / len(xs)
    den = sum((x - xm) ** 2 for x in xs) * len(groups)
    num = 0.0
    for ys in groups:
        ym = sum(ys) / len(ys)
        num += sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
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
    xs, ys = zip(*pairs)
    return HolderEstimate(t0=t0, exponent=max(0.0, _slope(xs, [ys])),
                          scale_pairs=tuple(pairs))


def exact_exponent_at_coded_point(ifs: IfsSystem, psi: Potential,
                                  w: PeriodicWord) -> float:
    """Cylinder-scale exponent S_l psi / S_l phi at the coded point of w."""
    return psi.block_sum(w) / Potential.geometric(ifs).block_sum(w)


class CoarseBin(NamedTuple):
    alpha_center: float
    count: int
    f_alpha: float


class CoarseSpectrum(NamedTuple):
    delta: float
    bin_width: float
    bins: tuple[CoarseBin, ...]
    kept_mass: float


def coarse_spectrum(F: DistributionFunction, delta_list,
                    alpha_bin_width: float = 0.2) -> list[CoarseSpectrum]:
    """Box-counting spectra: histogram coarse exponents log mu(box)/log delta.

    Boxes whose mass is below 10x its error bound are excluded; each
    occupied bin reports f = log(count)/(-log delta).

    Every box size is checked before the first box is counted: a size
    outside (0, width) of the domain, or of 1, whose log 0 leaves no
    exponent, is a DomainError, and one that needs more than
    ENUMERATION_CAP boxes a CapacityError.

    The grid is read in slabs of at most _SLAB boxes.  A slab's edges
    are the floats lo + delta*i of the whole grid, with the last set to
    hi, and take one cdf_many call; the slab's masses, 10x bounds and
    exponents then overwrite its edge and value buffers, so at most
    three slab-sized float arrays are alive at once.  The edge two slabs
    share is evaluated in both, with the same value, so the bins are
    those of the whole grid; kept_mass adds per-slab sums, and equals
    the whole grid's sum when the grid is one slab.
    """
    if alpha_bin_width <= 0:
        raise ValueError("alpha_bin_width must be positive")
    lo, hi = F.system.domain
    diam = hi - lo
    deltas = [float(delta) for delta in delta_list]
    for d in deltas:
        if not 0.0 < d < diam:
            raise DomainError(f"{d} is outside (0.0, {diam})")
        if d == 1.0:
            raise DomainError("box size 1 has log 0, which leaves no "
                              "exponent")
        if diam / d > ENUMERATION_CAP:  # inf where the quotient overflows
            raise CapacityError(f"box size {d:g} needs over "
                                f"{ENUMERATION_CAP} boxes")
    out = []
    for d in deltas:
        n = math.ceil(diam / d)
        if hi - (lo + d * (n - 1)) < 1e-9 * d:
            # diam/d rounded up past an integer: drop the rounding-noise box
            n -= 1
        counts, kept = Counter(), 0.0
        for k0 in range(0, n, _SLAB):
            k1 = min(k0 + _SLAB, n)
            edges = lo + d * np.arange(k0, k1 + 1)
            if k1 == n:
                edges[-1] = hi
            values, errors = F.cdf_many(edges)
            # the masses overwrite the edges, and 10x their bounds the values
            masses = np.subtract(values[1:], values[:-1], out=edges[:-1])
            errs = np.add(errors[:-1], errors[1:], out=values[:-1])
            errs *= 10.0
            keep = (masses > 0.0) & (masses >= errs)
            del edges, values, errors, errs
            alphas = masses[keep]
            del masses
            kept += float(alphas.sum())
            np.log(alphas, out=alphas)
            alphas /= math.log(d)
            with np.errstate(over="ignore"):  # an infinite index is refused
                alphas /= alpha_bin_width
            np.floor(alphas, out=alphas)  # the bin indices
            if not (np.abs(alphas) < 2.0**63).all():
                raise ValueError(f"bin width {alpha_bin_width:g} puts an "
                                 f"exponent at delta {d:g} in a bin past int64")
            ids, slab_counts = np.unique(alphas.astype(int), return_counts=True)
            del alphas  # before the next slab's edges
            counts.update(dict(zip(ids.tolist(), slab_counts.tolist())))
        bins = [CoarseBin(alpha_center=(b + 0.5) * alpha_bin_width,
                          count=count, f_alpha=math.log(count) / (-math.log(d)))
                for b, count in sorted(counts.items())]
        if kept > 1.0 + 1e-9:
            raise PrecisionError(f"kept box masses sum to {kept} > 1")
        out.append(CoarseSpectrum(delta=d, bin_width=alpha_bin_width,
                                  bins=tuple(bins), kept_mass=kept))
    return out
