"""Iterated function systems of increasing contractions on an interval.

Every map is one 2x2 coefficient matrix, x -> (a*x + b)/(c*x + d), a
`ContractionMap`.  Two constructors build it: `AffineMap` keeps
r*x + b as (r, b, 0, 1), and `MoebiusMap` rescales (a, b, c, d) to
determinant one.  Maps compose as their matrices, which gives exact
chain-rule derivatives and closed-form fixed points for periodic
words; that identity is what the pressure machinery leans on.  Every
point of the attractor handed out here, a coded point or a cylinder
end, is a word matrix applied to a point, formed with the float
operations of the CDF descent.

Words are composed with one float recipe, left to right: the child of
the matrix (a, b, c, d) by a letter (ka, kb, kc, kd) is (a*ka + b*kc,
a*kb + b*kd, c*ka + d*kc, c*kb + d*kd), each product rounded on its
own.  word_matrix applies it letter by letter, node_children to one
node's m children, and child_matrices to the children of a whole block
of nodes at once, for the CDF's level-synchronous descent and the
periodic-level pass alike; so the three give the same floats.

Geometry conventions: the base interval X = [x_lo, x_hi] is explicit,
maps are strictly increasing, map images must stay inside X, and the
first-level images must already be indexed left to right.  The open set
condition is a diagnostic, not a construction-time requirement, so
overlapping systems can still be built and inspected.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, PrecisionError
from .symbolic import MAX_ALPHABET, PeriodicWord, SymbolStream, Word

DOMAIN_TOL = 1e-12
WIDTH_FLOOR = 1e-13


def _check_domain(domain) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError(f"bad base interval [{lo}, {hi}]")
    return lo, hi


@dataclass(frozen=True)
class ContractionMap:
    """x -> (a*x + b)/(c*x + d) with det = ad - bc > 0 and c*x + d > 0
    on `domain`, certified as an increasing contraction of it.

    The derivative det/(c*x + d)^2 is monotone on the pole-free
    interval, and so are its rounded values, so r_min and r_max, its
    values at the two ends, bound it everywhere.  `family` names the
    constructor in the messages of a map that fails the certificate.
    apply and derivative take points of the domain only, within
    DOMAIN_TOL, and raise DomainError for any other: the certificate
    holds there and nowhere else.
    """

    a: float
    b: float
    c: float
    d: float
    det: float
    domain: tuple[float, float]
    family: InitVar[str]
    log_det: float = field(init=False)
    r_min: float = field(init=False)
    r_max: float = field(init=False)

    def __post_init__(self, family):
        lo, hi = self.domain
        object.__setattr__(self, "log_det", math.log(self.det))
        try:
            ends = (self.derivative(lo), self.derivative(hi))
        except ZeroDivisionError:  # (c*x + d)^2 underflows at an end
            ends = (math.inf,)
        object.__setattr__(self, "r_min", min(ends))
        object.__setattr__(self, "r_max", max(ends))
        # r_min also reads 0 where (c*x + d)^2 overflows at an end
        if not self.r_min > 0.0:
            raise ValueError(f"{family} map is not increasing on the interval")
        if self.r_max >= 1.0:
            raise ValueError(f"{family} map is not a contraction (r_max={self.r_max})")
        if not (self.apply(lo) >= lo - DOMAIN_TOL
                and self.apply(hi) <= hi + DOMAIN_TOL):
            raise ValueError(f"{family} map does not send the interval into itself")

    def apply(self, x: float) -> float:
        _require_inside(x, self.domain)
        return (self.a * x + self.b) / (self.c * x + self.d)

    def derivative(self, x: float) -> float:
        _require_inside(x, self.domain)
        q = self.c * x + self.d
        return self.det / (q * q)

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def AffineMap(ratio: float, offset: float, domain) -> ContractionMap:
    """x -> ratio*x + offset, certified as a contraction of `domain`."""
    lo, hi = _check_domain(domain)
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"affine ratio {ratio} not in (0, 1)")
    return ContractionMap(float(ratio), float(offset), 0.0, 1.0, float(ratio),
                          (lo, hi), "affine")


def MoebiusMap(a: float, b: float, c: float, d: float,
               domain) -> ContractionMap:
    """x -> (a*x + b)/(c*x + d) with ad - bc > 0, pole outside the interval.

    Coefficients are rescaled so that ad - bc = 1 and c*x + d > 0 on the
    interval.  The Moebius map itself is unchanged; the normal form
    keeps long coefficient products well conditioned and makes the
    derivative simply 1/(c*x + d)^2.
    """
    lo, hi = _check_domain(domain)
    det = a * d - b * c
    if det <= 0.0:
        raise ValueError("need ad - bc > 0 for an increasing Moebius map")
    s = 1.0 / math.sqrt(det)
    a, b, c, d = a * s, b * s, c * s, d * s
    if not all(map(math.isfinite, (det, a, b, c, d))):
        raise ValueError(f"Moebius coefficients overflow (ad - bc = {det})")
    # the pole -d/c must not fall inside the interval, nor c*x + d
    # change sign across it in rounding
    if c != 0.0 and (lo - DOMAIN_TOL <= -d / c <= hi + DOMAIN_TOL
                     or (c * lo + d > 0.0) != (c * hi + d > 0.0)):
        raise ValueError(f"Moebius pole {-d / c} inside the interval")
    if c * lo + d < 0.0:
        a, b, c, d = -a, -b, -c, -d
    return ContractionMap(a, b, c, d, 1.0, (lo, hi), "Moebius")


def _require_inside(x: float, domain: tuple[float, float]) -> None:
    if x < domain[0] - DOMAIN_TOL or x > domain[1] + DOMAIN_TOL:
        raise DomainError(f"point {x} outside [{domain[0]}, {domain[1]}]")


class OscReport(NamedTuple):
    """Outcome of the open set condition check on first-level images.

    Touching endpoints are allowed; an overlap of width beyond
    DOMAIN_TOL between interiors is a violation (i, j, width), one per
    pair.  Every IfsSystem holds its own, as `osc_report`.
    """

    satisfied: bool
    violations: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class IfsSystem:
    """Finitely many increasing contractions of a common interval.

    Maps must be supplied in left-to-right order of their images; the
    word index then matches the spatial order of cylinders, which the
    distribution-function machinery relies on.
    """

    domain: tuple[float, float]
    maps: tuple[ContractionMap, ...]
    osc_report: OscReport = field(init=False, repr=False)
    # (k, S_k phi) of the one level `thermodynamics.periodic_sums` last
    # composed, held until a pass down the word tree reaches level k
    _phi_handoff: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        lo, hi = _check_domain(self.domain)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "maps", tuple(self.maps))
        m = len(self.maps)
        if m < 2:
            raise ValueError("need at least two maps")
        if m > MAX_ALPHABET:
            raise ValueError(f"alphabet sizes beyond {MAX_ALPHABET} are not supported")
        for k, mp in enumerate(self.maps):
            if mp.domain != self.domain:
                raise ValueError(f"map {k} certified on a different interval")
        images = [(mp.apply(lo), mp.apply(hi)) for mp in self.maps]
        for i in range(m - 1):
            if images[i + 1][0] < images[i][0]:
                raise ValueError("maps must be indexed left to right")
        violations = []
        for i in range(m):
            for j in range(i + 1, m):
                width = (min(images[i][1], images[j][1])
                         - max(images[i][0], images[j][0]))
                if width > DOMAIN_TOL:
                    violations.append((i, j, width))
        object.__setattr__(self, "osc_report",
                           OscReport(not violations, tuple(violations)))

    @classmethod
    def affine(cls, domain, ratios_offsets: Sequence[tuple[float, float]]) -> "IfsSystem":
        lo, hi = _check_domain(domain)
        return cls((lo, hi), tuple(AffineMap(r, b, (lo, hi)) for r, b in ratios_offsets))

    @classmethod
    def moebius(cls, domain, quads: Sequence[tuple[float, float, float, float]]) -> "IfsSystem":
        lo, hi = _check_domain(domain)
        return cls((lo, hi), tuple(MoebiusMap(a, b, c, d, (lo, hi)) for a, b, c, d in quads))

    @property
    def alphabet_size(self) -> int:
        return len(self.maps)

    @property
    def diameter(self) -> float:
        return self.domain[1] - self.domain[0]

    @property
    def r_min(self) -> float:
        return min(mp.r_min for mp in self.maps)

    @property
    def r_max(self) -> float:
        return max(mp.r_max for mp in self.maps)

    def is_affine(self) -> bool:
        # a Moebius map with c = 0 and d = 1 would have slope 1
        return all(mp.c == 0.0 and mp.d == 1.0 for mp in self.maps)


def cylinder_interval(ifs: IfsSystem, word: Word) -> tuple[float, float]:
    """Image of the base interval under the composition the word spells.

    The word's matrix is applied to each domain end, the float
    operations the CDF descent uses for its child ends, so F is exact
    at both ends.  The empty word returns the base interval itself.
    Aborts with PrecisionError once the interval width drops below the
    binary64 resolution floor, rather than returning digits that are
    noise.
    """
    word.validate(ifs.alphabet_size)
    (a, b, c, d), _ = word_matrix(ifs, word)
    lo, hi = ifs.domain
    lo, hi = (a * lo + b) / (c * lo + d), (a * hi + b) / (c * hi + d)
    if hi - lo < WIDTH_FLOOR and len(word) > 0:
        raise PrecisionError(
            f"cylinder width {hi - lo:.3e} below floor {WIDTH_FLOOR}")
    return lo, hi


def stream_point(ifs: IfsSystem, stream: SymbolStream) -> float:
    """Coded point of an eventually periodic sequence: the prefix's
    matrix applied to the closed-form periodic point of the tail."""
    stream.validate(ifs.alphabet_size)
    (a, b, c, d), _ = word_matrix(ifs, stream.prefix)
    x = periodic_point(ifs, stream.tail)
    return (a * x + b) / (c * x + d)


def word_matrix(ifs: IfsSystem, word: Word) -> tuple[tuple[float, float, float, float], float]:
    """Coefficient matrix of the composition plus its log determinant.

    Returns ((a, b, c, d), log_det) so that the composed map is
    x -> (a*x + b)/(c*x + d) with derivative exp(log_det)/(c*x + d)^2.
    The determinant is accumulated in log space from the per-map values
    because forming a*d - b*c of a long product cancels catastrophically.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    logdet = 0.0
    for s in word.symbols:
        ma, mb, mc, md = ifs.maps[s].coefficients()
        a, b, c, d = (a * ma + b * mc, a * mb + b * md,
                      c * ma + d * mc, c * mb + d * md)
        logdet += ifs.maps[s].log_det
    return (a, b, c, d), logdet


def node_children(coeffs, a: float, b: float, c: float, d: float,
                  lo: float, hi: float, x: float
                  ) -> tuple[list[tuple[float, ...]], int]:
    """The children of the cylinder node whose matrix is (a, b, c, d).

    coeffs holds each map's coefficients.  Returns kids, where kids[j] =
    (l_j, h_j, a_j, b_j, c_j, d_j) holds the ends of child j, its matrix
    applied to lo and hi, and that matrix, formed with the float
    operations of word_matrix; and the last j whose closed interval
    [l_j, h_j] holds x, or -1 (always -1 for a NaN x).  Every cylinder
    descent forms its children here, one call per level.
    """
    kids = []
    chosen = -1
    for (ka, kb, kc, kd) in coeffs:
        na = a * ka + b * kc
        nb = a * kb + b * kd
        nc = c * ka + d * kc
        nd = c * kb + d * kd
        l_j = (na * lo + nb) / (nc * lo + nd)
        h_j = (na * hi + nb) / (nc * hi + nd)
        if l_j <= x <= h_j:
            chosen = len(kids)
        kids.append((l_j, h_j, na, nb, nc, nd))
    return kids, chosen


def child_matrices(rows: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The one-letter children of every word matrix in `rows`.

    rows (4 x n) holds the a, b, c, d of n word matrices and letters
    (4 x m) those of the m letters.  Returns an array out (4 x n x m),
    where out[:, p, j] is the matrix of word p followed by letter j, so
    a reshape to 4 x n*m lists the children in lex order.  Each letter's
    column is written in place with node_children's float operations
    (numpy fuses no multiply-add), so every child is the matrix that a
    left-to-right composition of its word's letters forms, as in
    word_matrix.  Every descent or pass that composes a whole block of
    nodes at once forms the children here.
    """
    a, b, c, d = rows
    ma, mb, mc, md = letters
    out = np.empty((4, len(a), len(ma)))
    tmp = np.empty(len(a))
    for j in range(len(ma)):
        for col, p, q, u, v in ((out[0], a, b, ma, mc), (out[1], a, b, mb, md),
                                (out[2], c, d, ma, mc), (out[3], c, d, mb, md)):
            np.multiply(p, u[j], out=col[:, j])
            np.multiply(q, v[j], out=tmp)
            col[:, j] += tmp
    return out


def matrix_fixed_point(coeffs: tuple[float, float, float, float],
                       domain: tuple[float, float]) -> float:
    """Fixed point inside the interval of x -> (a x + b)/(c x + d).

    The fixed point solves c x^2 + (d - a) x - b = 0; a contraction of
    the interval has exactly one root inside it.
    """
    a, b, c, d = coeffs
    lo, hi = domain
    slack = 1e-9 * (hi - lo)
    if abs(c) < 1e-300:
        denom = d - a
        if denom == 0.0:
            raise ValueError("composition has no isolated fixed point")
        return b / denom
    # stable quadratic roots of c x^2 + B x - b with B = d - a
    bb = d - a
    disc = bb * bb + 4.0 * c * b
    if disc < 0.0:
        raise ValueError("composition has no real fixed point")
    root = math.sqrt(disc)
    q = -0.5 * (bb + math.copysign(root, bb if bb != 0.0 else 1.0))
    candidates = [q / c, -b / q] if q != 0.0 else [0.0]
    for x in candidates:
        if lo - slack <= x <= hi + slack:
            return x
    raise ValueError(f"no fixed point inside [{lo}, {hi}] (candidates {candidates})")


def periodic_point(ifs: IfsSystem, w: PeriodicWord) -> float:
    """Closed-form coding point of a periodic word via the block matrix."""
    coeffs, _ = word_matrix(ifs, w.period)
    return matrix_fixed_point(coeffs, ifs.domain)


def max_safe_depth(ifs: IfsSystem) -> int:
    """Deepest cylinder level guaranteed to stay above the width floor."""
    # width at depth n is at least diameter * r_min^n
    n = int(math.floor(math.log(WIDTH_FLOOR / ifs.diameter) / math.log(ifs.r_min)))
    return max(n, 1)
