"""Topological pressure, normalization, and the potential type.

Pressure is approximated through periodic-point sums at finite depth,
P_k = (1/k) log sum over length-k words of exp(S_k psi at the periodic
point).  Potentials that only read finitely many symbols admit an exact
evaluation: depth-one potentials in closed form, deeper finite-range
ones through the spectral radius of their transfer matrix.  Everything
else converges geometrically in k and is extrapolated from successive
levels.

Every potential is one `Potential`: psi = geom*phi + table[first depth
symbols] + shift, with phi the geometric potential (the log derivative
of the first coded map at the shifted point).  The constructors
`bernoulli`, `from_probabilities`, `finite_range` and `geometric` fill
in the parts a given kind needs; `normalize` sets only the shift.

The geometric potential of an affine system collapses to a depth-one
potential, which is why the classical Cantor benchmarks are exact at
level one.  On any other system its periodic sums need every word's
2x2 matrix.  Every periodic level is formed by one pass, `_level_sums`:
it composes the word matrices down the word tree level after level,
each level's matrices the one-letter children of the level above
(ifs_geometry.child_matrices, which states the float recipe), and
yields, for each level its caller reads and only when it reads it,
S_k phi and the sums of every potential asked for.  `pressure`,
`cohomology_diagnostic` and spectrum's `LevelSums` take all their
levels from one pass, `periodic_sums` its one level.  No piece of that
work spans more than _CHUNK words: the pass holds whole only a level of
at most that many, and composes deeper levels in blocks of at most that
many, one after another, which bounds its memory.  The bytes do not
depend on the block size.  A word's S_k phi is read from its matrix's
leading eigenvalue, the cycle-expansion view of a periodic orbit.

There is one hand-off: the S_k phi that `periodic_sums` composes, for
`normalize` at level k, is left on the system, and the next pass that
reaches level k takes it instead of composing it again.  So normalizing
psi at level k and then computing pressure or beta at level k composes
level k once.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, NormalizationError
from .ifs_geometry import (IfsSystem, child_matrices, matrix_fixed_point,
                           stream_point, word_matrix)
from .symbolic import (ENUMERATION_CAP, PeriodicWord, SymbolStream, Word,
                       distortion_bound)

# words in one block of periodic-point work
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Potential:
    """psi = geom*phi + table[first `depth` symbols] + shift.

    phi is the geometric potential of `system`, which is required when
    geom is nonzero.  The table is indexed lexicographically by the
    leading block, so the block (w1, ..., wr) lives at
    sum(w_i * m**(r-i)); depth 0 means no table term.

    ValueError, its message led by the field at fault, where geom or
    shift is so large that a periodic sum of up to ENUMERATION_CAP's
    bit length terms could leave the float range.
    """

    geom: float = 0.0
    depth: int = 0
    table: tuple[float, ...] = ()
    shift: float = 0.0
    system: IfsSystem | None = None

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(float(v) for v in self.table))
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.depth == 0 and self.table:
            raise ValueError("a table needs depth >= 1")
        if self.depth and (self.alphabet_size < 2 or
                           self.alphabet_size ** self.depth != len(self.table)):
            raise ValueError("table size must be alphabet_size**depth, "
                             "alphabet_size >= 2")
        if self.geom != 0.0 and self.system is None:
            raise ValueError("geometric component needs its system")
        # S_k psi adds k terms geom * phi + shift, |phi| <= -log r_min,
        # and no level past the cap's bit length is composed
        top = sys.float_info.max / (2 * ENUMERATION_CAP.bit_length())
        phi_max = -math.log(self.system.r_min) if self.geom else 0.0
        for name, size in (("geom", self.geom * phi_max),
                           ("shift", self.shift)):
            if abs(size) > top:
                raise ValueError(f"{name}: {getattr(self, name):g} makes "
                                 f"the periodic sums overflow")

    @classmethod
    def bernoulli(cls, log_weights) -> "Potential":
        """psi(omega) = log_weights[omega_1]."""
        log_weights = tuple(log_weights)
        if len(log_weights) < 2:
            raise ValueError("need at least two symbols")
        return cls(depth=1, table=log_weights)

    @classmethod
    def from_probabilities(cls, probs) -> "Potential":
        p = [float(v) for v in probs]
        if any(v <= 0 for v in p):
            raise ValueError("probabilities must be positive")
        return cls.bernoulli(math.log(v) for v in p)

    @classmethod
    def finite_range(cls, depth: int, alphabet_size: int,
                     table) -> "Potential":
        table = tuple(table)
        if depth < 1:
            raise ValueError("depth must be at least 1")
        # m >= 2, so m**depth exceeds the table for a depth past its bit
        # length: the power stops there, not at a depth the user gives
        if len(table) != alphabet_size**min(depth, len(table).bit_length()):
            raise ValueError("table size must be alphabet_size**depth")
        return cls(depth=depth, table=table)

    @classmethod
    def geometric(cls, system: IfsSystem, coeff: float = 1.0,
                  shift: float = 0.0) -> "Potential":
        """coeff*phi + shift; coeff = 1, shift = 0 is phi itself."""
        return cls(geom=float(coeff), shift=float(shift), system=system)

    @property
    def alphabet_size(self) -> int:
        """Alphabet the table is indexed over (tables only)."""
        return round(len(self.table) ** (1.0 / self.depth))

    def _table_at(self, symbol_at, start: int = 0) -> float:
        m = self.alphabet_size
        idx = 0
        for i in range(start, start + self.depth):
            idx = idx * m + symbol_at(i)
        return self.table[idx]

    def value_at(self, stream: SymbolStream) -> float:
        total = self.shift
        if self.geom != 0.0:
            sym = stream.symbol_at(0)
            x = stream_point(self.system, stream.shift(1))
            total += self.geom * math.log(self.system.maps[sym].derivative(x))
        if self.depth:
            total += self._table_at(stream.symbol_at)
        return total

    def block_sum(self, w: PeriodicWord) -> float:
        """S_l psi at the periodic point of w, l its period length."""
        mat = word_matrix(self.system, w.period) if self.geom != 0.0 else None
        return self.cycle_sum(len(w.period), mat, w.period.symbols)

    def cycle_sum(self, ell: int, mat, cycle: tuple[int, ...] = ()) -> float:
        """block_sum of the periodic word whose period has length ell,
        given mat = word_matrix(system, Word(cycle)) of that period.
        Only the geometric term reads mat, so a caller holding the
        composed cycle skips that work, and only the table term reads
        the symbols `cycle`, so a potential without a table needs none."""
        total = self.shift * ell
        if self.geom != 0.0:
            # chain rule: the orbit sum of phi over one period is the log
            # derivative of the composed block at its fixed point
            coeffs, logdet = mat
            x = matrix_fixed_point(coeffs, self.system.domain)
            q = coeffs[2] * x + coeffs[3]
            total += self.geom * (logdet - 2.0 * math.log(abs(q)))
        if self.depth:
            total += math.fsum(self._table_at(lambda i: cycle[i % ell], j)
                               for j in range(ell))
        return total

    def cylinder_spread(self, word: Word) -> float:
        """Upper bound on |S_n psi(w rho) - S_n psi(w tau)| over all
        continuations rho, tau of the word w, n = len(w).

        By the chain rule the geometric term is log det_w - 2 log|c_w x
        + d_w| at the coded point x of the continuation, monotone in x,
        so its spread is read at the two domain ends from the word's
        matrix.  The table term differs only in the depth - 1 windows
        that read past w, evaluated on every continuation they can see.
        """
        spread = 0.0
        if self.geom != 0.0:
            (_, _, c, d), _ = word_matrix(self.system, word)
            lo, hi = self.system.domain
            spread += 2.0 * abs(self.geom) * abs(
                math.log(abs(c * lo + d)) - math.log(abs(c * hi + d)))
        if self.depth > 1:
            n = len(word)
            past = range(max(0, n - self.depth + 1), n)
            sums = []
            for tail in itertools.product(range(self.alphabet_size),
                                          repeat=self.depth - 1):
                seq = word.symbols + tail
                sums.append(math.fsum(self._table_at(seq.__getitem__, j)
                                      for j in past))
            spread += max(sums) - min(sums)
        return spread


def _check_system(ifs: IfsSystem, psi: Potential) -> None:
    if psi.geom != 0.0 and psi.system is not ifs and psi.system != ifs:
        raise ValueError("potential is bound to a different system")


def effective_range(ifs: IfsSystem, psi: Potential) -> int | None:
    """Number of leading symbols psi depends on; None when unbounded."""
    _check_system(ifs, psi)
    if psi.geom != 0.0 and not ifs.is_affine():
        return None
    return max(1, psi.depth)


def default_level(ifs: IfsSystem, psi: Potential) -> int:
    """Periodic-point level to use when none is given: the range of psi,
    or 10 when it is unbounded."""
    r = effective_range(ifs, psi)
    return r if r is not None else 10


def range_table(ifs: IfsSystem, psi: Potential, r: int) -> np.ndarray:
    """Values of psi on all r-blocks, lexicographically ordered.

    Defined only when psi reads at most r symbols.
    """
    eff = effective_range(ifs, psi)
    if eff is None or eff > r:
        raise ValueError(f"potential reads more than {r} symbols")
    m = ifs.alphabet_size
    out = np.full(m**r, psi.shift, dtype=float)
    if psi.geom != 0.0:
        logr = np.array([math.log(mp.r_min) for mp in ifs.maps])
        out += psi.geom * np.repeat(logr, m ** (r - 1))
    if psi.depth:
        out += np.repeat(np.asarray(psi.table), m ** (r - psi.depth))
    return out


def _symbol_columns(m: int, k: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.int64)
    cols = np.empty((hi - lo, k), dtype=np.int64)
    for j in range(k):
        cols[:, j] = (idx // m ** (k - 1 - j)) % m
    return cols


def _phi_sums(a, b, c, d, domain) -> np.ndarray:
    """S_k phi of the cycles whose word matrices (determinant one) are
    the arrays a, b, c, d.

    Every word map is increasing, so c x + d at its attracting fixed
    point x is the matrix's larger eigenvalue lam > 1, the derivative
    there is 1/lam**2 and S_k phi = -2 log lam.  lam comes from the
    trace and the fixed-point discriminant (a - d)**2 + 4 b c, which
    is t**2 - 4 for t = a + d but loses no digits to cancellation when
    t is near 2.  The fixed point itself is only checked to lie in the
    base interval: x = (lam - d)/c, or b/(lam - a) for the words where
    c vanishes or is small enough for that quotient to miss.
    """
    lo, hi = domain
    slack = 1e-9 * (hi - lo)
    disc = a - d
    disc *= disc
    disc += 4.0 * b * c
    if np.any(disc < -1e-12):
        raise ValueError("complex fixed point in a word composition")
    lam = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    lam += a + d
    lam *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lam - d
        x /= c
        out = ~((x >= lo - slack) & (x <= hi + slack))
        if out.any():
            x = b[out] / (lam[out] - a[out])
            if not np.all((x >= lo - slack) & (x <= hi + slack)):
                raise ValueError("fixed point escaped the base interval")
    np.log(lam, out=lam)
    lam *= -2.0
    return lam


def _map_blocks(fn, total: int, size: int) -> np.ndarray:
    """fn(lo, hi) over the blocks [lo, lo + size) of range(total), each
    written in turn into its slice of one array."""
    out = np.empty(total)
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        out[lo:hi] = fn(lo, hi)
    return out


def _check_level(m: int, k: int) -> int:
    """Number of level-k words; CapacityError above the enumeration cap."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    # m >= 2, so a k this long is over the cap before m**k is formed
    if k >= ENUMERATION_CAP.bit_length() or m**k > ENUMERATION_CAP:
        raise CapacityError(f"{m}**{k} periodic points exceed cap "
                            f"{ENUMERATION_CAP}")
    return m**k


def _geometric_levels(ifs: IfsSystem, levels):
    """S_k phi at the periodic points of the level-k words, in lex order,
    for each k of the increasing `levels`, one pass down the word tree.

    The pass holds whole the word matrices of the deepest level it has
    composed with at most _CHUNK words, extending it one letter per
    level.  A requested level of at most _CHUNK words is that held
    level; a deeper one is composed in blocks of at most _CHUNK words,
    one after another, each block extending a run of the held rows
    letter by letter.  Every matrix is the one a left-to-right
    composition of the word forms, so the sums do not depend on the
    block size.  Levels are composed only as the caller asks for them,
    none deeper than the last it takes.  A level whose sums
    periodic_sums left on ifs is taken from there, not composed, and
    cleared from ifs.  Letters are scaled to determinant one, so S_k phi
    is read from each word matrix's eigenvalue (`_phi_sums`).
    """
    m = ifs.alphabet_size
    scale = np.exp([-0.5 * mp.log_det for mp in ifs.maps])
    letters = np.array([mp.coefficients() for mp in ifs.maps]).T * scale
    held, held_level = letters, 1

    def block(lo, hi):
        rows = held[:, lo // span:hi // span]
        for _ in range(k - held_level):
            rows = child_matrices(rows, letters).reshape(4, -1)
        return _phi_sums(*rows, ifs.domain)

    for k in levels:
        handoff = ifs._phi_handoff
        if handoff is not None and handoff[0] == k:
            object.__setattr__(ifs, "_phi_handoff", None)
            yield handoff[1]
            continue
        while held_level < k and m ** (held_level + 1) <= _CHUNK:
            held = child_matrices(held, letters).reshape(4, -1)
            held_level += 1
        span = m ** (k - held_level)
        yield _map_blocks(block, m**k, max(1, _CHUNK // span) * span)


def _sums_chunk(ifs: IfsSystem, psi: Potential, k: int,
                phi: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    m = ifs.alphabet_size
    sym = None
    out = np.full(hi - lo, psi.shift * k, dtype=float)
    if psi.geom != 0.0:
        if phi is not None:
            out += psi.geom * phi[lo:hi]
        else:  # an affine system: phi sums the letters' log ratios
            sym = _symbol_columns(m, k, lo, hi)
            logr = np.array([math.log(mp.r_min) for mp in ifs.maps])
            out += psi.geom * logr[sym].sum(axis=1)
    if psi.depth:
        if sym is None:
            sym = _symbol_columns(m, k, lo, hi)
        # column j indexes the block read at the j-th shift of the cycle
        idx = sym
        for i in range(1, psi.depth):
            idx = idx * m + np.roll(sym, -i, axis=1)
        out += np.asarray(psi.table)[idx].sum(axis=1)
    return out


def _level_sums(ifs: IfsSystem, psis, levels):
    """For each k of the increasing `levels`, S_k phi and the list of
    S_k psi for each psi of `psis`, at the periodic points of the
    length-k words in lex order.

    S_k phi comes from one `_geometric_levels` pass, composed only as
    the levels are asked for, and is None when no psi reads it (no psi
    has a geometric term on a non-affine system).  Each S_k psi is
    computed in blocks of at most _CHUNK words, one after another, each
    written into its slice, so its contents do not depend on the block
    size.  next() leaves no level's sums held while the pass composes
    the next.
    """
    phis = (_geometric_levels(ifs, levels)
            if None in [effective_range(ifs, psi) for psi in psis]
            else itertools.repeat(None))

    def level(phi):
        return phi, [_map_blocks(partial(_sums_chunk, ifs, psi, k, phi),
                                 total, _CHUNK) for psi in psis]

    for k in levels:
        total = _check_level(ifs.alphabet_size, k)
        yield level(next(phis))


def periodic_sums(ifs: IfsSystem, psi: Potential, k: int) -> np.ndarray:
    """S_k psi at the periodic point of every length-k word, in lex order.

    The one level of `_level_sums`.  The S_k phi it composes stays on
    ifs until the next pass that reaches level k takes it, so that
    normalizing psi at level k and then computing pressure or beta
    there composes level k once.
    """
    phi, (sums,) = next(_level_sums(ifs, (psi,), (k,)))
    if phi is not None:
        object.__setattr__(ifs, "_phi_handoff", (k, phi))
    return sums


def _logsumexp(arr: np.ndarray) -> float:
    """log sum exp(arr), computed in arr, which every caller owns: a
    level's sums take no second array of their size."""
    amax = float(np.max(arr))
    arr -= amax
    np.exp(arr, out=arr)
    return amax + math.log(float(np.sum(arr)))


def pressure_at_level(ifs: IfsSystem, psi: Potential, k: int) -> float:
    """Depth-k periodic-point approximation of the pressure."""
    return _logsumexp(periodic_sums(ifs, psi, k)) / k


class PressureResult(NamedTuple):
    value: float
    error_bound: float
    levels: tuple[float, ...] = ()


def _transfer_pressure(ifs: IfsSystem, psi: Potential,
                       r: int) -> tuple[float, float]:
    """Pressure of a potential reading r symbols, and a bound on its
    error.

    For r = 1 the partition sums factor exactly, and the bound covers
    the rounding of their log-sum-exp.  For r >= 2 the pressure is the
    log spectral radius of the transfer matrix on (r-1)-blocks,
    computed with a dense eigenvalue solve, and the bound is 0.
    """
    table = range_table(ifs, psi, r)
    if r == 1:
        top, spread = float(table.max()), float(table.max() - table.min())
        value = _logsumexp(table)
        # in units u = 2^-53: each exp(t - top) is off by (spread + 2) u,
        # their sum by (size - 1) u more, log by 2 u |value - top| and the
        # last add by u |value|; 2^-52 doubles each term
        return value, 2.0**-52 * (spread + table.size + 2
                                  + 2 * abs(value - top) + abs(value))
    m = ifs.alphabet_size
    size = m ** (r - 1)
    if size > 4096:
        raise CapacityError(f"transfer matrix of side {size} is too large")
    tmax = float(table.max())
    A = np.zeros((size, size))
    idx = np.arange(m**r)
    A[idx // m, idx % size] = np.exp(table - tmax)
    lam = float(np.max(np.abs(np.linalg.eigvals(A))))
    return tmax + math.log(lam), 0.0


def pressure(ifs: IfsSystem, psi: Potential, k_max: int = 10,
             tol: float = 1e-12) -> PressureResult:
    """Best available pressure value with an honest error bound.

    Potentials of finite range are evaluated in closed form once k_max
    reaches the range, with the bound `_transfer_pressure` gives.
    Otherwise successive levels are computed up to k_max and the
    geometric tail is removed by Aitken extrapolation; the error bound
    combines the last level difference with the extrapolation step and
    a distortion allowance.  A tol of 0 or below stops at no level short
    of k_max, so a k_max past the enumeration cap is then refused before
    any level is composed.
    """
    r = effective_range(ifs, psi)
    if r is not None and r <= k_max:
        return PressureResult(*_transfer_pressure(ifs, psi, r))
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if not tol > 0.0:
        _check_level(ifs.alphabet_size, k_max)
    levels = []
    ks = range(1, k_max + 1)
    # next() leaves no level's sums held while the pass composes the next
    sums = _level_sums(ifs, (psi,), ks)
    for k in ks:
        levels.append(_logsumexp(next(sums)[1][0]) / k)
        if k >= 3 and abs(levels[-1] - levels[-2]) < tol:
            break
    value = levels[-1]
    extrapolated = False
    if len(levels) >= 3:
        d1 = levels[-2] - levels[-3]
        d2 = levels[-1] - levels[-2]
        if d1 != 0.0:
            theta = d2 / d1
            if 0.0 < theta < 0.95:
                value = levels[-1] + d2 * theta / (1.0 - theta)
                extrapolated = True
    diff = abs(levels[-1] - levels[-2]) if len(levels) >= 2 else math.inf
    # a priori: level sums sit within the distortion constant over k
    apriori = diff + distortion_bound(
        psi, ifs, n=min(4, len(levels))) / len(levels)
    err = apriori
    if extrapolated:
        # under clean geometric decay the extrapolation step bounds the
        # remaining tail up to a modest factor
        err = min(apriori, 4.0 * abs(value - levels[-1]) + diff)
    return PressureResult(value=value, error_bound=err, levels=tuple(levels))


def require_normalized(ifs: IfsSystem, psi: Potential) -> None:
    """Refuse psi unless its pressure, from levels up to 8, is 0 within
    max(1e-8, its bound)."""
    pres = pressure(ifs, psi, k_max=8)
    if abs(pres.value) > max(1e-8, pres.error_bound):
        raise NormalizationError(pres.value, pres.error_bound)


def normalize(ifs: IfsSystem, psi: Potential, k_max: int = 10) -> Potential:
    """psi with its shift set so that its pressure vanishes.

    The shift psi carries is dropped first, and the result's shift is
    -P, with P the pressure of psi without it: a shift large enough to
    swamp the rest of psi in the periodic sums then costs no digit.
    Finite-range potentials take their exact pressure.  For the rest P
    is the depth-k_max level value, which pins the level-k_max pressure
    of the result to zero exactly; root solves run at that same level,
    so downstream identities like beta(1) = 0 hold to solver precision
    rather than to extrapolation error.
    """
    psi = replace(psi, shift=0.0)
    r = effective_range(ifs, psi)
    if r is not None and r <= k_max:
        c = _transfer_pressure(ifs, psi, r)[0]
    else:
        c = pressure_at_level(ifs, psi, k_max)
    return replace(psi, shift=psi.shift - c)


class CohomologyReport(NamedTuple):
    """Range of periodic ratios S_l psi / S_l phi up to a level cap."""

    ratio_min: float
    ratio_max: float
    degenerate: bool


def cohomology_diagnostic(ifs: IfsSystem, psi: Potential,
                          ell_max: int | None = None) -> CohomologyReport:
    """Detect whether psi is a constant multiple of the geometric potential
    up to coboundaries, by scanning periodic ratio spread.

    A spread below 1e-8 flags the degenerate case in which the whole
    multifractal spectrum collapses to a point.  The scan reads every
    level up to ell_max; without one, the deepest level up to 6 whose
    m**level words are within the enumeration cap.
    """
    m = ifs.alphabet_size
    if ell_max is None:
        ell_max = max(ell for ell in range(1, 7) if m**ell <= ENUMERATION_CAP)
    # refuse a level past the cap before composing any level below it
    _check_level(m, ell_max)
    lo, hi = math.inf, -math.inf
    for _, (s_phi, s_psi) in _level_sums(ifs, (Potential.geometric(ifs), psi),
                                         range(1, ell_max + 1)):
        ratios = s_psi / s_phi
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return CohomologyReport(ratio_min=lo, ratio_max=hi,
                            degenerate=(hi - lo) < 1e-8)
