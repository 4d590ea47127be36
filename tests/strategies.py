"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from mfgibbs.ifs_geometry import IfsSystem


@st.composite
def systems(draw, moebius=None):
    """A random valid 2- or 3-map affine or Moebius system on [0, 1];
    `moebius` fixes the family instead of drawing it."""
    m = draw(st.sampled_from([2, 3]))
    widths = [draw(st.floats(0.08, 0.9 / m)) for _ in range(m)]
    # gap weights; a zero weight makes neighbouring images touch
    gaps = [draw(st.integers(0, 4)) for _ in range(m + 1)]
    gaps[0] = gaps[0] or 1
    scale = (1.0 - sum(widths)) / sum(gaps)
    if moebius is None:
        moebius = draw(st.booleans())
    maps = []
    u = gaps[0] * scale
    for k, w in enumerate(widths):
        if moebius:
            # x -> u + w (1+t) x / (1 + t x): increasing, images [u, u+w]
            t = draw(st.integers(-5, 10)) / 10
            maps.append((u * t + w * (1 + t), u, t, 1.0))
        else:
            maps.append((w, u))
        u += w + gaps[k + 1] * scale
        if gaps[k + 1] == 0:
            # touching images may also overlap within the OSC tolerance
            u -= draw(st.sampled_from([0.0, 1e-13]))
    return (IfsSystem.moebius if moebius else IfsSystem.affine)((0.0, 1.0), maps)
