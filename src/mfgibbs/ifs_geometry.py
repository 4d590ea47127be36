"""Iterated function systems of increasing contractions on an interval.

Two map families are supported: affine maps r*x + b and Moebius maps
(a*x + b)/(c*x + d).  Both are closed under composition via their 2x2
coefficient matrices, which gives exact chain-rule derivatives and
closed-form fixed points for periodic words; that identity is what the
pressure machinery leans on.

Geometry conventions: the base interval X = [x_lo, x_hi] is explicit,
maps are strictly increasing, map images must stay inside X, and the
first-level images must already be indexed left to right.  The open set
condition is a diagnostic, not a construction-time requirement, so
overlapping systems can still be built and inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (DomainError, NonConvergenceError, PrecisionError)
from .symbolic import PeriodicWord, SymbolStream, Word

DOMAIN_TOL = 1e-12
WIDTH_FLOOR = 1e-13


def _check_domain(domain) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError(f"bad base interval [{lo}, {hi}]")
    return lo, hi


@dataclass(frozen=True)
class AffineMap:
    """x -> ratio*x + offset, certified as a contraction of `domain`."""

    ratio: float
    offset: float
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = _check_domain(self.domain)
        object.__setattr__(self, "domain", (lo, hi))
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"affine ratio {self.ratio} not in (0, 1)")
        if self.apply(lo, check=False) < lo - DOMAIN_TOL or \
           self.apply(hi, check=False) > hi + DOMAIN_TOL:
            raise ValueError("affine map does not send the interval into itself")

    @property
    def r_min(self) -> float:
        return self.ratio

    @property
    def r_max(self) -> float:
        return self.ratio

    @property
    def log_det(self) -> float:
        # matrix [[r, b], [0, 1]] has determinant r
        return math.log(self.ratio)

    def apply(self, x: float, check: bool = True) -> float:
        if check:
            _require_inside(x, self.domain)
        return self.ratio * x + self.offset

    def derivative(self, x: float, check: bool = True) -> float:
        if check:
            _require_inside(x, self.domain)
        return self.ratio

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.ratio, self.offset, 0.0, 1.0)


@dataclass(frozen=True)
class MoebiusMap:
    """x -> (a*x + b)/(c*x + d) with ad - bc > 0, pole outside the interval.

    Coefficients are rescaled on construction so that ad - bc = 1 and
    c*x + d > 0 on the interval.  The Moebius map itself is unchanged;
    the normal form keeps long coefficient products well conditioned and
    makes the derivative simply 1/(c*x + d)^2.
    """

    a: float
    b: float
    c: float
    d: float
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = _check_domain(self.domain)
        object.__setattr__(self, "domain", (lo, hi))
        det = self.a * self.d - self.b * self.c
        if det <= 0.0:
            raise ValueError("need ad - bc > 0 for an increasing Moebius map")
        s = 1.0 / math.sqrt(det)
        a, b, c, d = self.a * s, self.b * s, self.c * s, self.d * s
        # the pole -d/c must not fall inside the interval
        if c != 0.0:
            pole = -d / c
            if lo - DOMAIN_TOL <= pole <= hi + DOMAIN_TOL:
                raise ValueError(f"Moebius pole {pole} inside the interval")
        if c * lo + d < 0.0:
            a, b, c, d = -a, -b, -c, -d
        for name, val in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(self, name, val)
        r_lo = self.derivative(lo, check=False)
        r_hi = self.derivative(hi, check=False)
        object.__setattr__(self, "_r_min", min(r_lo, r_hi))
        object.__setattr__(self, "_r_max", max(r_lo, r_hi))
        if self._r_min <= 0.0:
            raise ValueError("Moebius map is not increasing on the interval")
        if self._r_max >= 1.0:
            raise ValueError(f"Moebius map is not a contraction (r_max={self._r_max})")
        if self.apply(lo, check=False) < lo - DOMAIN_TOL or \
           self.apply(hi, check=False) > hi + DOMAIN_TOL:
            raise ValueError("Moebius map does not send the interval into itself")
        # derivative is monotone on a pole-free interval; sample to confirm
        # the endpoint bounds really bracket it
        prev = r_lo
        direction = 0
        for k in range(1, 10):
            x = lo + (hi - lo) * k / 9.0
            dv = self.derivative(x, check=False)
            if not (self._r_min * (1 - 1e-9) <= dv <= self._r_max * (1 + 1e-9)):
                raise ValueError("sampled derivative escapes certified bounds")
            step = dv - prev
            if step > 0 and direction < 0 or step < 0 and direction > 0:
                raise ValueError("derivative is not monotone on the interval")
            if step != 0.0:
                direction = 1 if step > 0 else -1
            prev = dv

    @property
    def r_min(self) -> float:
        return self._r_min

    @property
    def r_max(self) -> float:
        return self._r_max

    @property
    def log_det(self) -> float:
        return 0.0  # normalized to determinant one

    def apply(self, x: float, check: bool = True) -> float:
        if check:
            _require_inside(x, self.domain)
        return (self.a * x + self.b) / (self.c * x + self.d)

    def derivative(self, x: float, check: bool = True) -> float:
        if check:
            _require_inside(x, self.domain)
        q = self.c * x + self.d
        return 1.0 / (q * q)

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


ContractionMap = AffineMap | MoebiusMap


def _require_inside(x: float, domain: tuple[float, float]) -> None:
    if x < domain[0] - DOMAIN_TOL or x > domain[1] + DOMAIN_TOL:
        raise DomainError(f"point {x} outside [{domain[0]}, {domain[1]}]")


@dataclass(frozen=True)
class OscReport:
    """Outcome of the open set condition check on first-level images."""

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
    osc_verified: bool = field(init=False)

    def __post_init__(self):
        lo, hi = _check_domain(self.domain)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "maps", tuple(self.maps))
        m = len(self.maps)
        if m < 2:
            raise ValueError("need at least two maps")
        if m > 64:
            raise ValueError("alphabet sizes beyond 64 are not supported")
        for k, mp in enumerate(self.maps):
            if mp.domain != self.domain:
                raise ValueError(f"map {k} certified on a different interval")
        images = [(mp.apply(lo, check=False), mp.apply(hi, check=False))
                  for mp in self.maps]
        for i in range(m - 1):
            if images[i + 1][0] < images[i][0]:
                raise ValueError("maps must be indexed left to right")
        report = check_osc(self)
        object.__setattr__(self, "osc_report", report)
        object.__setattr__(self, "osc_verified", report.satisfied)

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
        return all(isinstance(mp, AffineMap) for mp in self.maps)


def check_osc(ifs: IfsSystem, tol: float = DOMAIN_TOL) -> OscReport:
    """Pairwise interior-overlap diagnostic of the first-level images.

    Touching endpoints are allowed; an overlap of width beyond `tol`
    between interiors is a violation and is reported per pair.
    """
    lo, hi = ifs.domain
    images = [(mp.apply(lo, check=False), mp.apply(hi, check=False)) for mp in ifs.maps]
    violations = []
    m = len(images)
    for i in range(m):
        for j in range(i + 1, m):
            width = min(images[i][1], images[j][1]) - max(images[i][0], images[j][0])
            if width > tol:
                violations.append((i, j, width))
    return OscReport(satisfied=not violations, violations=tuple(violations))


def cylinder_interval(ifs: IfsSystem, word: Word) -> tuple[float, float]:
    """Image of the base interval under the composition the word spells.

    The empty word returns the base interval itself.  Aborts with
    PrecisionError once the interval width drops below the binary64
    resolution floor, rather than returning digits that are noise.
    """
    word.validate(ifs.alphabet_size)
    lo, hi = ifs.domain
    for s in reversed(word.symbols):
        mp = ifs.maps[s]
        lo = mp.apply(lo, check=False)
        hi = mp.apply(hi, check=False)
    if hi - lo < WIDTH_FLOOR and len(word) > 0:
        raise PrecisionError(
            f"cylinder width {hi - lo:.3e} below floor {WIDTH_FLOOR}")
    return lo, hi


def coding_point(ifs: IfsSystem, w: PeriodicWord, tol: float = 1e-12,
                 max_iter: int = 10**4) -> float:
    """Point of the attractor coded by a periodic word.

    Iterates the period-block composition on the base interval until
    the image has diameter below tol, then returns the midpoint.
    """
    w.period.validate(ifs.alphabet_size)
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = ifs.domain
    syms = tuple(reversed(w.period.symbols))
    for _ in range(max_iter):
        if hi - lo < tol:
            return 0.5 * (lo + hi)
        nlo, nhi = lo, hi
        for s in syms:
            mp = ifs.maps[s]
            nlo = mp.apply(nlo, check=False)
            nhi = mp.apply(nhi, check=False)
        if (nlo, nhi) == (lo, hi):
            break  # interval stalled at float resolution
        lo, hi = nlo, nhi
    if hi - lo < tol:
        return 0.5 * (lo + hi)
    raise NonConvergenceError(
        f"coding point iteration stalled at width {hi - lo:.3e} > tol {tol}")


def stream_point(ifs: IfsSystem, stream: SymbolStream, tol: float = 1e-14) -> float:
    """Coded point of an eventually periodic sequence."""
    stream.validate(ifs.alphabet_size)
    x = coding_point(ifs, stream.tail, tol=tol)
    for s in reversed(stream.prefix.symbols):
        x = ifs.maps[s].apply(x, check=False)
    return x


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


def max_safe_depth(ifs: IfsSystem, floor: float = WIDTH_FLOOR) -> int:
    """Deepest cylinder level guaranteed to stay above the width floor."""
    # width at depth n is at least diameter * r_min^n
    n = int(math.floor(math.log(floor / ifs.diameter) / math.log(ifs.r_min)))
    return max(n, 1)
