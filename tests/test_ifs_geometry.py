import math

import pytest

from mfgibbs.ifs_geometry import (AffineMap, IfsSystem, MoebiusMap, check_osc,
                                  coding_point, cylinder_interval,
                                  matrix_fixed_point, max_safe_depth,
                                  periodic_point, stream_point, word_matrix)
from mfgibbs.symbolic import PeriodicWord, SymbolStream, Word, ergodic_sum
from mfgibbs.thermodynamics import Potential


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


def test_maps_must_be_ordered():
    with pytest.raises(ValueError):
        IfsSystem.affine((0.0, 1.0), [(1 / 3, 2 / 3), (1 / 3, 0.0)])


def test_cylinder_intervals(cantor):
    assert cylinder_interval(cantor, Word.parse("0")) == \
        pytest.approx((0.0, 1 / 3), abs=1e-15)
    lo, hi = cylinder_interval(cantor, Word.parse("01"))
    assert (lo, hi) == pytest.approx((2 / 9, 1 / 3), abs=1e-15)
    lo, hi = cylinder_interval(cantor, Word.parse("110"))
    assert hi - lo == pytest.approx(3.0 ** -3, rel=1e-12)


def test_moebius_children_cover_edges(moebius):
    assert cylinder_interval(moebius, Word.of(0)) == \
        pytest.approx((0.0, 1 / 3), abs=1e-12)
    assert cylinder_interval(moebius, Word.of(1)) == \
        pytest.approx((2 / 3, 1.0), abs=1e-12)


def test_periodic_points(cantor):
    assert periodic_point(cantor, PeriodicWord.parse("0")) == 0.0
    assert periodic_point(cantor, PeriodicWord.parse("1")) == pytest.approx(
        1.0, abs=1e-14)
    assert periodic_point(cantor, PeriodicWord.parse("01")) == pytest.approx(
        0.25, abs=1e-14)


def test_coding_point_matches_fixed_point(cantor, moebius):
    for system in (cantor, moebius):
        for text in ("01", "011", "0"):
            pw = PeriodicWord.parse(text)
            assert coding_point(system, pw) == pytest.approx(
                periodic_point(system, pw), abs=1e-11)


def test_stream_point_eventually_periodic(cantor):
    s = SymbolStream(Word.of(0), PeriodicWord.parse("1"))
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
    assert ergodic_sum(geo, stream, 2) == pytest.approx(
        -2 * math.log(3), abs=1e-13)
    assert ergodic_sum(geo, stream, 4) == pytest.approx(
        -4 * math.log(3), abs=1e-12)


def test_max_safe_depth_is_the_width_floor(cantor, lebesgue, moebius):
    # the narrowest cylinder shrinks at r_min per level, so that rate
    # governs how deep every branch can safely go
    for system in (cantor, lebesgue, moebius):
        d = max_safe_depth(system)
        assert system.r_min ** d * system.diameter >= 1e-13
        assert system.r_min ** (d + 1) * system.diameter < 1e-13


def test_osc_reports(cantor, lebesgue):
    assert check_osc(cantor).satisfied
    assert cantor.osc_verified
    # touching interiors are allowed
    assert check_osc(lebesgue).satisfied
    overlap = IfsSystem.affine((0.0, 1.0), [(0.6, 0.0), (0.6, 0.4)])
    assert not overlap.osc_verified
