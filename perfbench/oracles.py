"""Reference values computed apart from mfgibbs.

Nothing here imports the package under test.  Configs are read from
their JSON text with exact rational arithmetic, so the oracles answer
the same questions the program answers from the same inputs.

* Bernoulli measures on affine Cantor systems (every map of ratio 1/b
  sitting on the b-adic grid): binomial box counts for the coarse
  spectrum and exact `Fraction` values of the distribution function.
* Closed-form Hoelder exponents at the two fixed points of the
  quarter-three-quarters Cantor measure, and F(x) = x on Lebesgue.
* An mpmath cycle expansion of the dynamical determinant (Jenkinson &
  Pollicott, ETDS 21, 2001) for the dimension of a Moebius system, with
  the first-order size of the depth-k periodic-point bias.

Run as a script to regenerate the committed Moebius reference:

    python3 perfbench/oracles.py configs/moebius_pair.json \
        > perfbench/moebius_reference.json
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction
from math import comb


def rational(value) -> Fraction:
    """A config number (int, float or "p/q" string) as an exact rational."""
    if isinstance(value, bool):
        raise ValueError("boolean where a number was expected")
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(num) / Fraction(den) if den else Fraction(num)
    return Fraction(value)


def read_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def affine_maps(cfg: dict) -> list[tuple[Fraction, Fraction]]:
    return [(rational(m["ratio"]), rational(m["offset"]))
            for m in cfg["system"]["maps"]]


def moebius_maps(cfg: dict) -> list[tuple[Fraction, ...]]:
    return [tuple(rational(m[k]) for k in "abcd")
            for m in cfg["system"]["maps"]]


def probabilities(cfg: dict) -> list[Fraction]:
    return [rational(p) for p in cfg["potential"]["probabilities"]]


def domain(cfg: dict) -> tuple[Fraction, Fraction]:
    lo, hi = cfg["system"]["domain"]
    return rational(lo), rational(hi)


# --- binomial box counts -------------------------------------------------

def coarse_alpha(j: int, ones: int, probs) -> float:
    """Coarse exponent log mu(box) / log delta of a level-j box at delta = 3^-j
    holding `ones` letters of the second map and j - ones of the first."""
    p0, p1 = (float(p) for p in probs)
    return ((j - ones) * math.log(p0) + ones * math.log(p1)) / (-j * math.log(3.0))


def binomial_histogram(j: int, probs, width: float) -> dict[int, int]:
    """Occupied-box histogram of a two-map ratio-1/3 Bernoulli Cantor measure.

    At delta = 3^-j the occupied boxes are exactly the level-j cylinders,
    and a cylinder with `a` letters of the second map has mass
    p0^(j-a) p1^a.  Bin b = floor(alpha / width) therefore holds the sum
    of C(j, a) over the a whose exponent falls in it.
    """
    hist: dict[int, int] = {}
    for a in range(j + 1):
        b = math.floor(coarse_alpha(j, a, probs) / width)
        hist[b] = hist.get(b, 0) + comb(j, a)
    return hist


def bin_edge_margin(j: int, probs, width: float) -> float:
    """Distance from the nearest bin edge over all exponents at level j.

    The program bins exponents computed in binary64; a margin far above
    1e-12 means rounding cannot move a box into another bin.
    """
    margin = math.inf
    for a in range(j + 1):
        t = coarse_alpha(j, a, probs) / width
        margin = min(margin, abs(t - round(t)) * width)
    return margin


def cylinder_boxes(j: int, probs) -> list[tuple[int, Fraction]]:
    """Index (from 0) and exact mass of each box at delta = 3^-j that is a
    level-j cylinder.

    Its base-3 index has only the digits 0 (first map) and 2 (second map),
    and its mass is the product of the letters' probabilities.
    """
    out = []
    for word in itertools.product((0, 1), repeat=j):
        index = sum(2 * s * 3 ** (j - 1 - k) for k, s in enumerate(word))
        ones = sum(word)
        out.append((index, probs[0] ** (j - ones) * probs[1] ** ones))
    return out


# --- exact distribution function of an affine Bernoulli measure ----------

def affine_cdf(maps, probs, dom, x: Fraction, max_depth: int = 400):
    """Bracket (lo, hi) of F(x) for the Bernoulli measure of an affine IFS.

    Exact rational arithmetic: the descent stops in a gap or on a child
    endpoint, where lo == hi, or after max_depth levels with hi - lo the
    mass of the cylinder still holding x.
    """
    a, b = dom
    if x < a:
        return Fraction(0), Fraction(0)
    if x >= b:
        return Fraction(1), Fraction(1)
    scale, shift = Fraction(1), Fraction(0)   # cylinder map y -> scale*y + shift
    acc, mass = Fraction(0), Fraction(1)
    for _ in range(max_depth):
        chosen = None
        left = Fraction(0)
        for (r, o), p in zip(maps, probs):
            lo_j = scale * (r * a + o) + shift
            hi_j = scale * (r * b + o) + shift
            if x < lo_j:
                break
            if x >= hi_j:
                left += p
                continue
            chosen = (r, o, p, lo_j)
            break
        if chosen is None:
            acc += mass * left
            return acc, acc
        r, o, p, lo_j = chosen
        acc += mass * left
        if x == lo_j:
            return acc, acc
        mass *= p
        scale, shift = scale * r, scale * o + shift
    return acc, acc + mass


def cantor_holder_exponents(probs) -> tuple[float, float]:
    """Local exponents at 0 and 1 of the Bernoulli measure on the
    middle-thirds Cantor set: log p0 / log(1/3) and log p1 / log(1/3)."""
    return (math.log(float(probs[0])) / -math.log(3.0),
            math.log(float(probs[1])) / -math.log(3.0))


# --- Moebius systems -----------------------------------------------------

def moebius_apply(quad, x: Fraction) -> Fraction:
    a, b, c, d = quad
    return (a * x + b) / (c * x + d)


def moebius_cylinder(maps, dom, word) -> tuple[Fraction, Fraction]:
    """Exact image of the base interval under the maps the word spells."""
    lo, hi = dom
    for s in reversed(word):
        lo, hi = moebius_apply(maps[s], lo), moebius_apply(maps[s], hi)
    return lo, hi


def moebius_derivative(quad, x: Fraction) -> Fraction:
    a, b, c, d = quad
    return (a * d - b * c) / (c * x + d) ** 2


def _mp():
    import mpmath
    mpmath.mp.dps = 40
    return mpmath


def cycle_multipliers(maps, dom, n_max: int):
    """For each length n <= n_max, the derivative of every length-n word
    composition at its fixed point, as mpmath numbers."""
    mp = _mp()
    lo, hi = (mp.mpf(v.numerator) / v.denominator for v in dom)
    mats = [tuple(mp.mpf(v.numerator) / v.denominator for v in q) for q in maps]
    current = [(mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1))]
    levels = []
    slack = mp.mpf(10) ** -20
    for _ in range(n_max):
        current = [(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
                   for (a, b, c, d) in current for (p, q, r, s) in mats]
        mults = []
        for a, b, c, d in current:
            if c == 0:
                x = b / (d - a)
            else:
                bb = d - a
                root = mp.sqrt(bb * bb + 4 * c * b)
                x = (-bb + root) / (2 * c)
                if not lo - slack <= x <= hi + slack:
                    x = (-bb - root) / (2 * c)
            mults.append((a * d - b * c) / (c * x + d) ** 2)
        levels.append(mults)
    return levels


def cycle_log_multiplier(maps, dom, symbols) -> float:
    """log of the derivative of one cycle's composition at its fixed point."""
    mp = _mp()
    a, b, c, d = (mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1))
    for s in symbols:
        p, q, r, t = (mp.mpf(v.numerator) / v.denominator for v in maps[s])
        a, b, c, d = a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t
    lo, hi = (mp.mpf(v.numerator) / v.denominator for v in dom)
    if c == 0:
        x = b / (d - a)
    else:
        bb = d - a
        root = mp.sqrt(bb * bb + 4 * c * b)
        x = (-bb + root) / (2 * c)
        if not lo - mp.mpf(10) ** -20 <= x <= hi + mp.mpf(10) ** -20:
            x = (-bb - root) / (2 * c)
    return float(mp.log((a * d - b * c) / (c * x + d) ** 2))


def level_pressure(levels, k: int) -> float:
    """Depth-k periodic-point pressure of the geometric potential,
    (1/k) log of the sum of the length-k cycle multipliers."""
    mp = _mp()
    return float(mp.log(mp.fsum(levels[k - 1])) / k)


def _determinant_coefficients(levels, t):
    """Taylor coefficients of det(1 - z L_t) from the cycle traces.

    tr L_t^n = sum over length-n cycles of lambda^t / (1 - lambda);
    Newton's identities turn the traces into coefficients.
    """
    mp = _mp()
    traces = [mp.fsum(lam ** t / (1 - lam) for lam in mults) for mults in levels]
    coeffs = [mp.mpf(1)]
    for n in range(1, len(levels) + 1):
        coeffs.append(-mp.fsum(traces[k - 1] * coeffs[n - k]
                               for k in range(1, n + 1)) / n)
    return coeffs


def _eigenvalues(levels, t, count: int = 6) -> list[float]:
    """Leading eigenvalues of L_t: inverses of the zeros of det(1 - z L_t).

    The first is exp(P(t * log|f'|)).  For the systems here the leading
    zeros are real; a complex one is refused rather than dropped.
    """
    mp = _mp()
    coeffs = _determinant_coefficients(levels, t)
    roots = sorted(mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200),
                   key=abs)[:count]
    if any(abs(mp.im(z)) > 1e-20 for z in roots):
        raise ArithmeticError("complex leading zero of the determinant")
    return [float(1 / mp.re(z)) for z in roots]


def dimension(levels, guess: float = 0.6):
    """Zero of t -> det(1 - L_t) at z = 1: the attractor's dimension."""
    mp = _mp()
    return mp.findroot(lambda t: mp.fsum(_determinant_coefficients(levels, t)),
                       mp.mpf(guess))


def moebius_reference(cfg: dict, n_max: int = 12) -> dict:
    """Dimension of the attractor and what the depth-k bias should be.

    Since lambda^t = lambda^t/(1 - lambda) - lambda^(t+1)/(1 - lambda),
    the depth-k periodic sum is Z_k(t) = tr L_t^k - tr L_(t+1)^k, the
    power sums of the two spectra.  The depth-k root of P_k(t phi) = 0
    therefore sits log Z_k(dim) / (k * lyapunov) above dim to first
    order, with lyapunov = -dP/dt at dim.
    """
    mp = _mp()
    maps, dom = moebius_maps(cfg), domain(cfg)
    levels = cycle_multipliers(maps, dom, n_max)
    dim = dimension(levels)
    dim_short = dimension(levels[:-2])
    h = mp.mpf(10) ** -10
    lyap = -(mp.log(_eigenvalues(levels, dim + h, 1)[0])
             - mp.log(_eigenvalues(levels, dim - h, 1)[0])) / (2 * h)
    return {
        "dimension": float(dim),
        "dimension_digits": mp.nstr(dim, 20),
        "cycle_length_max": n_max,
        "dimension_change_from_two_shorter_cycles": float(abs(dim - dim_short)),
        "lyapunov": float(lyap),
        "eigenvalues_at_dimension": _eigenvalues(levels, dim),
        "eigenvalues_at_dimension_plus_one": _eigenvalues(levels, dim + 1),
    }


def depth_bias(reference: dict, k: int) -> float:
    """First-order beta_k(0) - dim from the two spectra in the reference."""
    z = (sum(r ** k for r in reference["eigenvalues_at_dimension"])
         - sum(r ** k for r in reference["eigenvalues_at_dimension_plus_one"]))
    return math.log(z) / (k * reference["lyapunov"])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: oracles.py CONFIG.json", file=sys.stderr)
        return 2
    ref = moebius_reference(read_config(argv[0]))
    ref["config"] = argv[0]
    ref["command"] = ("python3 perfbench/oracles.py " + argv[0]
                      + " > perfbench/moebius_reference.json")
    json.dump(ref, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
