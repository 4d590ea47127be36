"""Topological pressure, Gibbs weights, and the potential type.

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
in the parts a given kind needs; `normalize` moves only the shift.

The geometric potential of an affine system collapses to a depth-one
potential, which is why the classical Cantor benchmarks are exact at
level one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, NormalizationError
from .ifs_geometry import (IfsSystem, matrix_fixed_point, stream_point,
                           word_matrix)
from .symbolic import (ENUMERATION_CAP, PeriodicWord, SymbolStream,
                       distortion_bound)

_CHUNK = 1 << 18
_WORKERS = os.cpu_count() or 1


@dataclass(frozen=True)
class Potential:
    """psi = geom*phi + table[first `depth` symbols] + shift.

    phi is the geometric potential of `system`, which is required when
    geom is nonzero.  The table is indexed lexicographically by the
    leading block, so the block (w1, ..., wr) lives at
    sum(w_i * m**(r-i)); depth 0 means no table term.
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
        if len(table) != alphabet_size**depth:
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
            total += self.geom * math.log(
                self.system.maps[sym].derivative(x, check=False))
        if self.depth:
            total += self._table_at(stream.symbol_at)
        return total

    def block_sum(self, w: PeriodicWord) -> float:
        """S_l psi at the periodic point of w, l its period length."""
        mat = word_matrix(self.system, w.period) if self.geom != 0.0 else None
        return self.cycle_sum(w.period.symbols, mat)

    def cycle_sum(self, cycle: tuple[int, ...], mat) -> float:
        """block_sum of the periodic word with period `cycle`, given
        mat = word_matrix(system, Word(cycle)); only the geometric term
        reads mat, so a caller holding the composed cycle skips that work."""
        ell = len(cycle)
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


def _fixed_points_vec(a, b, c, d, domain) -> np.ndarray:
    lo, hi = domain
    slack = 1e-9 * (hi - lo)
    bb = d - a
    disc = bb * bb + 4.0 * c * b
    if np.any(disc < -1e-12):
        raise ValueError("complex fixed point in a word composition")
    root = np.sqrt(np.maximum(disc, 0.0))
    sgn = np.where(bb >= 0.0, 1.0, -1.0)
    qq = -0.5 * (bb + sgn * root)
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = np.where(c != 0.0, qq / np.where(c != 0.0, c, 1.0), b / bb)
        x2 = np.where(qq != 0.0, -b / np.where(qq != 0.0, qq, 1.0), 0.0)
    in1 = (x1 >= lo - slack) & (x1 <= hi + slack)
    x = np.where(in1, x1, x2)
    if np.any((x < lo - slack) | (x > hi + slack) | ~np.isfinite(x)):
        raise ValueError("fixed point escaped the base interval")
    return x


def _geometric_chunk(ifs: IfsSystem, k: int, lo: int, hi: int) -> np.ndarray:
    """S_k phi at the periodic points of the level-k words lo..hi-1.

    The word matrices grow as a prefix tree: the level-j row of prefix p
    is the row of its parent p // m times the matrix of letter p % m,
    over just the prefixes that [lo, hi) spans.  Each product is the
    one a left-to-right composition of the word would form, so the
    result does not depend on how the level is cut into chunks.
    Letters are scaled to determinant one, so S_k phi = -2 log|c x + d|.
    """
    m = ifs.alphabet_size
    scale = np.exp([-0.5 * mp.log_det for mp in ifs.maps])
    ma, mb, mc, md = np.array([mp.coefficients() for mp in ifs.maps]).T * scale
    first = lo // m ** (k - 1)
    span = slice(first, (hi - 1) // m ** (k - 1) + 1)
    a, b, c, d = ma[span], mb[span], mc[span], md[span]
    for j in range(2, k + 1):
        step = m ** (k - j)
        # prefix p has children p*m .. p*m + m - 1; keep those [lo, hi) spans
        span = slice(lo // step - first * m, (hi - 1) // step - first * m + 1)
        a, b, c, d = (
            (np.outer(a, ma) + np.outer(b, mc)).ravel()[span],
            (np.outer(a, mb) + np.outer(b, md)).ravel()[span],
            (np.outer(c, ma) + np.outer(d, mc)).ravel()[span],
            (np.outer(c, mb) + np.outer(d, md)).ravel()[span])
        first = lo // step
    x = _fixed_points_vec(a, b, c, d, ifs.domain)
    return -2.0 * np.log(np.abs(c * x + d))


def _sums_chunk(ifs: IfsSystem, psi: Potential, k: int, lo: int, hi: int,
                geometric: np.ndarray | None = None) -> np.ndarray:
    m = ifs.alphabet_size
    sym = None
    out = np.full(hi - lo, psi.shift * k, dtype=float)
    if psi.geom != 0.0:
        if geometric is not None:
            out += psi.geom * geometric
        elif ifs.is_affine():
            sym = _symbol_columns(m, k, lo, hi)
            logr = np.array([math.log(mp.r_min) for mp in ifs.maps])
            out += psi.geom * logr[sym].sum(axis=1)
        else:
            out += psi.geom * _geometric_chunk(ifs, k, lo, hi)
    if psi.depth:
        if sym is None:
            sym = _symbol_columns(m, k, lo, hi)
        # column j indexes the block read at the j-th shift of the cycle
        idx = sym
        for i in range(1, psi.depth):
            idx = idx * m + np.roll(sym, -i, axis=1)
        out += np.asarray(psi.table)[idx].sum(axis=1)
    return out


def periodic_sums(ifs: IfsSystem, psi: Potential, k: int,
                  geometric: np.ndarray | None = None) -> np.ndarray:
    """S_k psi at the periodic point of every length-k word, in lex order.

    Chunks run on up to one worker per core and join in index order, so
    the contents do not depend on the core count.  `geometric`, when
    given, holds this level's sums of the geometric potential phi;
    psi's geometric term then reads them instead of composing every
    word again.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    _check_system(ifs, psi)
    m = ifs.alphabet_size
    total = m**k
    if total > ENUMERATION_CAP:
        raise CapacityError(f"{m}**{k} periodic points exceed cap "
                            f"{ENUMERATION_CAP}")
    if geometric is not None and len(geometric) != total:
        raise ValueError(f"geometric sums hold {len(geometric)} words, "
                         f"level {k} has {total}")

    def chunk(lo, hi):
        return _sums_chunk(ifs, psi, k, lo, hi, None if geometric is None
                           else geometric[lo:hi])

    bounds = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    if _WORKERS > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(min(len(bounds), _WORKERS)) as pool:
            parts = list(pool.map(lambda ab: chunk(*ab), bounds))
    else:
        parts = [chunk(lo, hi) for lo, hi in bounds]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _logsumexp(arr: np.ndarray) -> float:
    amax = float(np.max(arr))
    return amax + math.log(float(np.sum(np.exp(arr - amax))))


def pressure_at_level(ifs: IfsSystem, psi: Potential, k: int) -> float:
    """Depth-k periodic-point approximation of the pressure."""
    return _logsumexp(periodic_sums(ifs, psi, k)) / k


@dataclass(frozen=True)
class PressureResult:
    value: float
    error_bound: float
    levels: tuple[float, ...] = ()


def _transfer_pressure(ifs: IfsSystem, psi: Potential, r: int) -> float:
    """Exact pressure of a potential reading r symbols.

    For r = 1 the partition sums factor exactly.  For r >= 2 the
    pressure is the log spectral radius of the transfer matrix on
    (r-1)-blocks, computed with a dense eigenvalue solve.
    """
    table = range_table(ifs, psi, r)
    if r == 1:
        return _logsumexp(table)
    m = ifs.alphabet_size
    size = m ** (r - 1)
    if size > 4096:
        raise CapacityError(f"transfer matrix of side {size} is too large")
    tmax = float(table.max())
    A = np.zeros((size, size))
    idx = np.arange(m**r)
    A[idx // m, idx % size] = np.exp(table - tmax)
    lam = float(np.max(np.abs(np.linalg.eigvals(A))))
    return tmax + math.log(lam)


def pressure(ifs: IfsSystem, psi: Potential, k_max: int = 10,
             tol: float = 1e-12) -> PressureResult:
    """Best available pressure value with an honest error bound.

    Potentials of finite range are evaluated exactly (error 0) once
    k_max reaches the range.  Otherwise successive levels are computed
    up to k_max and the geometric tail is removed by Aitken
    extrapolation; the error bound combines the last level difference
    with the extrapolation step and a distortion allowance.
    """
    r = effective_range(ifs, psi)
    if r is not None and r <= k_max:
        return PressureResult(value=_transfer_pressure(ifs, psi, r),
                              error_bound=0.0)
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    levels = []
    for k in range(1, k_max + 1):
        levels.append(pressure_at_level(ifs, psi, k))
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
    apriori = diff + distortion_bound(psi, ifs, n=min(4, len(levels)),
                                      sample_budget=8) / len(levels)
    err = apriori
    if extrapolated:
        # under clean geometric decay the extrapolation step bounds the
        # remaining tail up to a modest factor
        err = min(apriori, 4.0 * abs(value - levels[-1]) + diff)
    return PressureResult(value=value, error_bound=err, levels=tuple(levels))


def require_normalized(ifs: IfsSystem, psi: Potential, k_max: int = 8) -> None:
    """Refuse psi unless its pressure is 0 within max(1e-8, its bound)."""
    pres = pressure(ifs, psi, k_max=k_max)
    if abs(pres.value) > max(1e-8, pres.error_bound):
        raise NormalizationError(
            f"potential has pressure {pres.value:.3e}, not zero within "
            f"{pres.error_bound:.3e}; normalize it first")


def normalize(ifs: IfsSystem, psi: Potential, k_max: int = 10) -> Potential:
    """Shift psi by a constant so its pressure vanishes.

    Finite-range potentials subtract their exact pressure.  For the
    rest the depth-k_max level value is subtracted, which pins the
    level-k_max pressure of the result to zero exactly; root solves run
    at that same level, so downstream identities like beta(1) = 0 hold
    to solver precision rather than to extrapolation error.
    """
    r = effective_range(ifs, psi)
    if r is not None and r <= k_max:
        c = _transfer_pressure(ifs, psi, r)
    else:
        c = pressure_at_level(ifs, psi, k_max)
    return replace(psi, shift=psi.shift - c)


@dataclass(frozen=True)
class GibbsWeights:
    """Normalized periodic-point weights of one cylinder level."""

    depth: int
    weights: np.ndarray
    gibbs_constant_estimate: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if np.any(w <= 0.0):
            raise ValueError("gibbs weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("gibbs weights must sum to one")


def _softmax(sums: np.ndarray) -> np.ndarray:
    e = np.exp(sums - float(np.max(sums)))
    return e / float(e.sum())


def gibbs_cylinder_weights(ifs: IfsSystem, psi: Potential,
                           n: int) -> GibbsWeights:
    """Depth-n cylinder weights exp(S_n psi)/Z for a zero-pressure psi.

    Raises NormalizationError when the pressure of psi is not zero
    within max(1e-8, its own error bound); the weights formula only
    approximates the Gibbs measure in that regime.
    """
    require_normalized(ifs, psi, k_max=max(2, min(8, n + 1)))
    w_n = _softmax(periodic_sums(ifs, psi, n))
    w_n1 = _softmax(periodic_sums(ifs, psi, n + 1))
    # worst ratio, either way up, between a depth-n weight and the sum of
    # its children: exactly 1 for product measures, the empirical Gibbs
    # constant otherwise
    ratio = w_n / w_n1.reshape(-1, ifs.alphabet_size).sum(axis=1)
    est = float(max(ratio.max(), (1.0 / ratio).max()))
    return GibbsWeights(depth=n, weights=w_n, gibbs_constant_estimate=est)


@dataclass(frozen=True)
class CohomologyReport:
    """Range of periodic ratios S_l psi / S_l phi up to a level cap."""

    ratio_min: float
    ratio_max: float
    degenerate: bool


def cohomology_diagnostic(ifs: IfsSystem, psi: Potential,
                          ell_max: int = 6) -> CohomologyReport:
    """Detect whether psi is a constant multiple of the geometric potential
    up to coboundaries, by scanning periodic ratio spread.

    A spread below 1e-8 flags the degenerate case in which the whole
    multifractal spectrum collapses to a point.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    phi = Potential.geometric(ifs)
    lo, hi = math.inf, -math.inf
    for ell in range(1, ell_max + 1):
        s_phi = periodic_sums(ifs, phi, ell)
        s_psi = periodic_sums(ifs, psi, ell, geometric=s_phi)
        ratios = s_psi / s_phi
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return CohomologyReport(ratio_min=lo, ratio_max=hi,
                            degenerate=(hi - lo) < 1e-8)
