import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mfgibbs.ifs_geometry import (AffineMap, IfsSystem, MoebiusMap,
                                  cylinder_interval, matrix_fixed_point,
                                  max_safe_depth, node_children,
                                  periodic_point, stream_point, word_matrix)
from mfgibbs.cli import DEFAULT_BATTERY, build_system, load_config
from mfgibbs.errors import ConfigError, DomainError, PrecisionError
from mfgibbs.symbolic import PeriodicWord, SymbolStream, Word
from mfgibbs.thermodynamics import Potential
from strategies import maps, systems

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_affine_map_basics():
    mp = AffineMap(0.5, 0.0, (0.0, 1.0))
    assert mp.apply(1.0) == 0.5
    assert mp.log_det == pytest.approx(math.log(0.5))


def test_moebius_map_normalization_and_derivative():
    a = MoebiusMap(1, 0, 1, 2, (0.0, 1.0))
    b = MoebiusMap(5, 0, 5, 10, (0.0, 1.0))
    for x in (0.0, 0.3, 1.0):
        assert a.apply(x) == pytest.approx(b.apply(x), abs=1e-15)
    assert a.log_det == pytest.approx(0.0, abs=1e-15)
    # derivative (ad-bc)/(cx+d)^2 at 0 with det normalized to 1
    assert a.derivative(0.0) == pytest.approx(0.5, abs=1e-15)


def test_negated_moebius_coefficients_give_the_same_map():
    # (-a x - b)/(-c x - d) is the same map; the normal form flips the
    # signs back so that c*x + d > 0 on the interval
    for quad in ((1, 0, 1, 2), (2, 2, 1, 3)):
        mp = MoebiusMap(*quad, (0.0, 1.0))
        negated = MoebiusMap(*(-v for v in quad), (0.0, 1.0))
        assert negated.coefficients() == mp.coefficients()
        assert negated == mp


def test_maps_must_be_ordered():
    with pytest.raises(ValueError):
        IfsSystem.affine((0.0, 1.0), [(1 / 3, 2 / 3), (1 / 3, 0.0)])


HALF = AffineMap(0.5, 0.0, (0.0, 1.0))


@pytest.mark.parametrize("call,error,match", [
    # a map certifies its points: the domain within DOMAIN_TOL
    pytest.param(lambda ifs: HALF.apply(1.5), DomainError, "outside",
                 id="apply-outside"),
    pytest.param(lambda ifs: HALF.derivative(-0.5), DomainError, "outside",
                 id="derivative-outside"),
    pytest.param(lambda ifs: IfsSystem((0.0, 1.0), (HALF,)), ValueError,
                 "at least two maps", id="one-map"),
    pytest.param(lambda ifs: IfsSystem(
        (0.0, 1.0), (HALF, AffineMap(0.5, 0.5, (0.0, 2.0)))), ValueError,
        "map 1 certified on a different interval", id="foreign-map"),
    pytest.param(lambda ifs: cylinder_interval(ifs, Word((0,) * 30)),
                 PrecisionError, "below floor", id="cylinder-past-floor"),
    pytest.param(lambda ifs: matrix_fixed_point((1.0, 0.5, 0.0, 1.0),
                                                (0.0, 1.0)),
                 ValueError, "no isolated fixed point", id="translation"),
    pytest.param(lambda ifs: matrix_fixed_point((1.0, -1.0, 1.0, 1.0),
                                                (0.0, 1.0)),
                 ValueError, "no real fixed point", id="rotation"),
    # x -> (x + 5)/(x + 1) fixes +-sqrt(5), both outside [0, 1]
    pytest.param(lambda ifs: matrix_fixed_point((1.0, 5.0, 1.0, 1.0),
                                                (0.0, 1.0)),
                 ValueError, "no fixed point inside", id="fixed-point-outside"),
])
def test_geometry_refusals(cantor, call, error, match):
    with pytest.raises(error, match=match):
        call(cantor)


def test_cylinder_intervals(cantor):
    assert cylinder_interval(cantor, Word.parse("0")) == \
        pytest.approx((0.0, 1 / 3), abs=1e-15)
    lo, hi = cylinder_interval(cantor, Word.parse("01"))
    assert (lo, hi) == pytest.approx((2 / 9, 1 / 3), abs=1e-15)
    lo, hi = cylinder_interval(cantor, Word.parse("110"))
    assert hi - lo == pytest.approx(3.0 ** -3, rel=1e-12)


def test_moebius_children_cover_edges(moebius):
    assert cylinder_interval(moebius, Word((0,))) == \
        pytest.approx((0.0, 1 / 3), abs=1e-12)
    assert cylinder_interval(moebius, Word((1,))) == \
        pytest.approx((2 / 3, 1.0), abs=1e-12)


def test_periodic_points(cantor):
    assert periodic_point(cantor, PeriodicWord.parse("0")) == 0.0
    assert periodic_point(cantor, PeriodicWord.parse("1")) == pytest.approx(
        1.0, abs=1e-14)
    assert periodic_point(cantor, PeriodicWord.parse("01")) == pytest.approx(
        0.25, abs=1e-14)


def test_stream_point_maps_the_fixed_point(cantor, moebius):
    for system in (cantor, moebius):
        for text in ("01", "011", "0"):
            pw = PeriodicWord.parse(text)
            x = periodic_point(system, pw)
            assert stream_point(system, pw.stream()) == x
            # a prefix letter is one more map applied to the tail's point
            s = SymbolStream(Word((1,)), pw)
            assert stream_point(system, s) == pytest.approx(
                system.maps[1].apply(x), abs=1e-15)


def test_stream_point_eventually_periodic(cantor):
    s = SymbolStream(Word((0,)), PeriodicWord.parse("1"))
    assert stream_point(cantor, s) == pytest.approx(1 / 3, abs=1e-12)


def test_word_matrix_logdet_sums_ratios(cantor):
    _, logdet = word_matrix(cantor, Word.parse("010"))
    assert logdet == pytest.approx(3 * math.log(1 / 3), abs=1e-13)


def test_matrix_fixed_point_affine(cantor):
    coeffs, _ = word_matrix(cantor, Word.parse("01"))
    assert matrix_fixed_point(coeffs, cantor.domain) == pytest.approx(
        0.25, abs=1e-14)


def test_geometric_ergodic_sum_period_scaling(cantor):
    # pointwise log derivatives along the orbit of the 01 cycle
    geo = Potential.geometric(cantor)
    stream = PeriodicWord.parse("01").stream()
    sums = [math.fsum(geo.value_at(stream.shift(j)) for j in range(n))
            for n in (2, 4)]
    assert sums[0] == pytest.approx(-2 * math.log(3), abs=1e-13)
    assert sums[1] == pytest.approx(-4 * math.log(3), abs=1e-12)


def test_max_safe_depth_is_the_width_floor(cantor, lebesgue, moebius):
    # the narrowest cylinder shrinks at r_min per level, so that rate
    # governs how deep every branch can safely go
    for system in (cantor, lebesgue, moebius):
        d = max_safe_depth(system)
        assert system.r_min ** d * system.diameter >= 1e-13
        assert system.r_min ** (d + 1) * system.diameter < 1e-13


def test_osc_reports(cantor, lebesgue):
    assert cantor.osc_report.satisfied
    # touching interiors are allowed
    assert lebesgue.osc_report.satisfied
    overlap = IfsSystem.affine((0.0, 1.0), [(0.6, 0.0), (0.6, 0.4)])
    assert not overlap.osc_report.satisfied


def _mp_fixed_point(ifs, word):
    # the period's matrix from the maps' float coefficients, in 50 digits
    with mpmath.workdps(50):
        mat = mpmath.eye(2)
        for s in word.symbols:
            ma, mb, mc, md = ifs.maps[s].coefficients()
            mat = mat * mpmath.matrix([[ma, mb], [mc, md]])
        a, b, c, d = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]
        if c == 0:
            return b / (d - a)
        lo, hi = ifs.domain
        disc = mpmath.sqrt((d - a) ** 2 + 4 * c * b)
        roots = [(a - d + sign * disc) / (2 * c) for sign in (1, -1)]
        return next(x for x in roots if lo - 1e-9 <= x <= hi + 1e-9)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_coded_points_match_mpmath_fixed_points(config):
    ifs = build_system(load_config(str(CONFIGS / config)))
    for text in DEFAULT_BATTERY:
        pw = PeriodicWord.parse(text)
        x = stream_point(ifs, pw.stream())
        assert abs(x - _mp_fixed_point(ifs, pw.period)) <= 1e-15, text


@st.composite
def _child_systems(draw):
    """A `systems` draw, or an affine one moved onto an interval with
    lo < 0, where the two-coefficient children meet negative offsets."""
    if draw(st.booleans()):
        return draw(systems(mixed=draw(st.booleans())))
    lo = draw(st.floats(-4.0, -0.1))
    width = draw(st.floats(0.5, 4.0))
    # x -> r x + t on [0, 1] conjugated by x -> lo + width * x
    return IfsSystem.affine((lo, lo + width), [
        (r, lo * (1.0 - r) + width * t)
        for (r, t, _, _), _ in draw(maps(moebius=False))])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_node_children_are_the_child_words(data):
    # one expansion of the node w, with the letters its system selects,
    # gives the ends and the matrix of every w + j exactly, and picks the
    # last child whose closed interval holds x
    ifs = data.draw(_child_systems())
    m = ifs.alphabet_size
    lo, hi = ifs.domain
    # the two-coefficient letters exactly where every map is affine
    assert ifs.letters == tuple(
        mp.coefficients()[:2] if ifs.is_affine() else mp.coefficients()
        for mp in ifs.maps)
    w = Word(tuple(data.draw(st.lists(st.integers(0, m - 1), max_size=8))))
    (a, b, c, d), _ = word_matrix(ifs, w)
    kids, chosen = node_children(ifs.letters, a, b, c, d, lo, hi, math.nan)
    assert len(kids) == m and chosen == -1
    for j, kid in enumerate(kids):
        child = w + Word((j,))
        assert kid[:2] == cylinder_interval(ifs, child)
        assert kid[2:] == word_matrix(ifs, child)[0]
    ends = [e for kid in kids for e in kid[:2]]
    x = data.draw(st.sampled_from(ends) | st.floats(ends[0], ends[-1])
                  | st.floats(lo, hi))
    holding = [j for j, kid in enumerate(kids) if kid[0] <= x <= kid[1]]
    assert node_children(ifs.letters, a, b, c, d, lo, hi, x) == (
        kids, holding[-1] if holding else -1)


@settings(max_examples=60, deadline=None)
@given(maps(mixed=True))
def test_maps_match_their_raw_coefficients(built):
    # what the constructors normalize away must not move a value: apply
    # and derivative against (a x + b)/(c x + d) and (ad - bc)/(c x + d)^2
    # of the coefficients the map was built from, and the end slopes
    # bound the slope everywhere on a grid
    for (a, b, c, d), mp in built:
        for x in [k / 16 for k in range(17)]:
            with mpmath.workdps(40):
                q = mpmath.mpf(c) * x + d
                value = float((mpmath.mpf(a) * x + b) / q)
                slope = float((mpmath.mpf(a) * d - mpmath.mpf(b) * c) / q**2)
            assert mp.apply(x) == pytest.approx(value, rel=1e-14, abs=1e-16)
            assert mp.derivative(x) == pytest.approx(slope, rel=1e-14)
            assert mp.r_min <= mp.derivative(x) <= mp.r_max


# coefficients and domain ends from 1e-300 to 1e300 in size, either
# sign, zero, and a few small values that make valid maps likely
_MAGNITUDES = st.builds(lambda sign, mant, exp: sign * mant * 10.0**exp,
                        st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99),
                        st.integers(-300, 299))
_COEFFS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]) | _MAGNITUDES


@st.composite
def _system_sections(draw):
    """A `system` section: a valid system's, with any of its domain,
    map count or coefficients replaced."""
    moebius = draw(st.booleans())
    keys = ("a", "b", "c", "d") if moebius else ("ratio", "offset")
    entries = [dict(zip(keys, raw)) for raw, _ in draw(maps(moebius))]
    for entry in entries:
        for key in keys:
            if draw(st.booleans()):
                entry[key] = draw(_COEFFS)
    lo, hi = sorted([draw(_COEFFS), draw(_COEFFS)])
    domain = draw(st.sampled_from([[0, 1], [lo, hi], [hi, lo], [lo, lo]]))
    return {"family": "moebius" if moebius else "affine", "domain": domain,
            "maps": entries[:draw(st.sampled_from([3, 2, 1]))]}


@settings(max_examples=300, deadline=None)
@example({"family": "moebius", "domain": [0, 1], "maps": [
    {"a": 1e200, "b": 0, "c": 1e200, "d": 2e200},
    {"a": 2, "b": 2, "c": 1, "d": 3}]})
@example({"family": "moebius", "domain": [0, 1], "maps": [
    {"a": 1e200, "b": 1e200, "c": 1e200, "d": 2e200},
    {"a": 2, "b": 2, "c": 1, "d": 3}]})
@example({"family": "moebius", "domain": [0, 1], "maps": [
    {"a": 1e200, "b": 0, "c": 0, "d": 1e-200},
    {"a": 2, "b": 2, "c": 1, "d": 3}]})
@given(_system_sections())
def test_any_system_section_builds_a_certified_system_or_names_it(section):
    try:
        ifs = build_system({"system": section})
    except ConfigError as exc:
        assert str(exc).startswith("system"), exc
        return
    for mp in ifs.maps:
        assert all(math.isfinite(v) for v in mp.coefficients())
        assert 0.0 < mp.r_min <= mp.r_max < 1.0
