"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from mfgibbs.ifs_geometry import AffineMap, IfsSystem, MoebiusMap
from mfgibbs.thermodynamics import Potential, normalize

DOMAIN = (0.0, 1.0)


@st.composite
def systems(draw, moebius=None, mixed=False):
    """A random valid 2- or 3-map affine or Moebius system on [0, 1];
    `moebius` fixes the family instead of drawing it, and `mixed` draws
    each map's family on its own, so affine and Moebius maps can share
    one system."""
    return IfsSystem(DOMAIN, tuple(mp for _, mp in draw(maps(moebius, mixed))))


@st.composite
def maps(draw, moebius=None, mixed=False):
    """The maps of a `systems` draw, each as (raw, map): raw holds the
    coefficients (a, b, c, d) the map was built from, (ratio, offset,
    0, 1) for an affine map."""
    m = draw(st.sampled_from([2, 3]))
    widths = [draw(st.floats(0.08, 0.9 / m)) for _ in range(m)]
    # gap weights; a zero weight makes neighbouring images touch
    gaps = [draw(st.integers(0, 4)) for _ in range(m + 1)]
    gaps[0] = gaps[0] or 1
    scale = (1.0 - sum(widths)) / sum(gaps)
    if moebius is None:
        moebius = draw(st.booleans())
    built = []
    u = gaps[0] * scale
    for k, w in enumerate(widths):
        if mixed:
            moebius = draw(st.booleans())
        if moebius:
            # x -> u + w (1+t) x / (1 + t x): increasing, images [u, u+w]
            t = draw(st.integers(-5, 10)) / 10
            raw = (u * t + w * (1 + t), u, t, 1.0)
            built.append((raw, MoebiusMap(*raw, DOMAIN)))
        else:
            built.append(((w, u, 0.0, 1.0), AffineMap(w, u, DOMAIN)))
        u += w + gaps[k + 1] * scale
        if gaps[k + 1] == 0:
            # touching images may also overlap within the OSC tolerance
            u -= draw(st.sampled_from([0.0, 1e-13]))
    return built


# normalize's level for the geometric potentials drawn below; the other
# kinds are normalized by their exact pressure
GEOMETRIC_LEVEL = 8


@st.composite
def potentials(draw, ifs, kinds=("bernoulli", "finite_range", "geometric")):
    """A normalized Bernoulli, depth-2 finite-range or geometric potential
    on `ifs`, whose cascade splits are constant or not; `kinds` limits
    the kinds drawn from."""
    m = ifs.alphabet_size
    kind = draw(st.sampled_from(kinds))
    if kind == "bernoulli":
        weights = [draw(st.floats(0.05, 1.0)) for _ in range(m)]
        return Potential.from_probabilities([w / sum(weights) for w in weights])
    if kind == "finite_range":
        return normalize(ifs, Potential.finite_range(
            2, m, [draw(st.floats(-2.0, 2.0)) for _ in range(m * m)]))
    coeff = draw(st.floats(0.5, 2.0))
    return normalize(ifs, Potential.geometric(ifs, coeff),
                     k_max=GEOMETRIC_LEVEL)
