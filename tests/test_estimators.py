import functools
import math
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, given, settings,
                        strategies as st)

from mfgibbs.errors import (CapacityError, DomainError, NormalizationError,
                            PrecisionError, ScaleError)
from mfgibbs.estimators import (CoarseBin, CoarseSpectrum, DepthPolicy,
                                DistributionFunction, Scales, coarse_spectrum,
                                deep_policy, default_policy, default_scale_base,
                                exact_exponent_at_coded_point,
                                holder_exponent_estimate, measure_ball)
from mfgibbs import estimators, ifs_geometry, thermodynamics
from mfgibbs.cli import build_potential, build_system, load_config
from mfgibbs.ifs_geometry import (AffineMap, IfsSystem, MoebiusMap,
                                  cylinder_interval, periodic_point,
                                  stream_point, word_matrix)
from mfgibbs.spectrum import legendre
from mfgibbs.symbolic import PeriodicWord, SymbolStream, Word, enumerate_words
from mfgibbs.thermodynamics import Potential, normalize
from periodic_weights import periodic_weights
from strategies import potentials, systems

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_uniform_cdf_exact_values(F_uniform):
    v = F_uniform.cdf(1 / 3)
    assert v.value == 0.5 and v.error_bound == 0.0
    v = F_uniform.cdf(1 / 9)
    assert v.value == 0.25 and v.error_bound == 0.0
    # gap points are exact too
    v = F_uniform.cdf(0.5)
    assert v.value == 0.5 and v.error_bound == 0.0


def test_cdf_outside_domain_clamps(F_uniform):
    assert F_uniform.cdf(-1.0).value == 0.0
    assert F_uniform.cdf(2.0).value == 1.0


def test_lebesgue_cdf_is_identity(F_lebesgue):
    assert F_lebesgue.cdf(0.375).value == 0.375
    rng = random.Random(11)
    for _ in range(100):
        x = rng.random()
        v = F_lebesgue.cdf(x)
        assert abs(v.value - x) <= max(v.error_bound, 1e-8)


def test_cdf_monotone_on_sorted_points(F_cantor):
    rng = random.Random(5)
    xs = sorted(rng.random() for _ in range(2000))
    vals = [F_cantor.cdf(x).value for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cdf_matches_gibbs_weights_on_cylinders(cantor, cantor_psi, F_cantor):
    weights = periodic_weights(cantor, cantor_psi, 3)
    for idx, w in enumerate(enumerate_words(2, 3)):
        lo, hi = cylinder_interval(cantor, w)
        mass = F_cantor.cdf(hi).value - F_cantor.cdf(lo).value
        assert mass == pytest.approx(weights[idx], abs=1e-12)


def test_cdf_at_cylinder_endpoint(F_uniform):
    assert F_uniform.cdf(1 / 3).value == 0.5


def test_unnormalized_potential_rejected(cantor):
    psi = Potential.bernoulli((math.log(0.3), math.log(0.5)))
    with pytest.raises(NormalizationError):
        DistributionFunction(cantor, psi)


def test_overlapping_system_rejected(uniform_psi):
    overlap = IfsSystem.affine((0.0, 1.0), [(0.6, 0.0), (0.6, 0.4)])
    with pytest.raises(DomainError):
        DistributionFunction(overlap, uniform_psi)


def test_tables_whose_splits_the_matrices_do_not_fix_are_refused(
        cantor, moebius, monkeypatch):
    # a depth-2 table, and a depth-1 table beside a geometric part on a
    # Moebius system: the descent carries no word, so neither has splits
    # it can take from the child matrices.  The refusal comes before any
    # pressure, so the second, left unnormalized, is refused by its table
    depth_2 = normalize(cantor, Potential.finite_range(2, 2, (0, 1, 1, 0)))
    beside = Potential(geom=1.0, depth=1, table=(0.0, 0.5), system=moebius)

    def refuse(*args):
        raise AssertionError("the pressure was checked before the refusal")

    monkeypatch.setattr(estimators, "require_normalized", refuse)
    for ifs, psi in ((cantor, depth_2), (moebius, beside)):
        with pytest.raises(ValueError, match=rf"^depth: .* a table of depth "
                                             rf"{psi.depth} on this system$"):
            DistributionFunction(ifs, psi)


def test_splits_the_matrices_fix_are_kept(cantor, cantor_psi):
    # a Bernoulli potential, the geometric one and a depth-1 table beside
    # it, on an affine system: each reads one symbol, so its splits are
    # constant and F(1/3) is the first one
    geometric = normalize(cantor, Potential.geometric(cantor))
    beside = normalize(cantor, Potential(geom=1.0, depth=1,
                                         table=(0.0, 0.5), system=cantor))
    for psi, first in ((cantor_psi, 0.25), (geometric, 0.5),
                       (beside, 1.0 / (1.0 + math.exp(0.5)))):
        F = DistributionFunction(cantor, psi)
        assert F.cdf(1 / 3).value == pytest.approx(first, abs=1e-15)
        assert F.cdf(1 / 3).error_bound == 0.0


def test_precision_floor_is_reachable(cantor, cantor_psi):
    # force descent past the representable cylinder width
    F = DistributionFunction(cantor, cantor_psi, DepthPolicy(60, 0.0))
    with pytest.raises(PrecisionError):
        F.cdf(0.25)


def test_default_policy_stays_above_floor(cantor, cantor_psi):
    F = DistributionFunction(cantor, cantor_psi)
    v = F.cdf(0.25)
    assert 0.0 < v.value < 1.0
    assert v.error_bound <= 1e-8


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda F: DepthPolicy(max_depth=0), ValueError,
                 "max_depth must be >= 1", id="depth-0"),
    pytest.param(lambda F: DepthPolicy(5, mass_tol=-1.0), ValueError,
                 "mass_tol must be >= 0", id="negative-mass-tol"),
    pytest.param(lambda F: measure_ball(F, 0.5, 0.0), ValueError,
                 "radius must be positive", id="radius-0"),
    pytest.param(lambda F: Scales(1.0), ValueError, "base: must exceed 1",
                 id="base-1"),
    pytest.param(lambda F: Scales(2.0, 5, 5), ValueError,
                 "j_max: must exceed j_min", id="one-scale"),
    pytest.param(lambda F: coarse_spectrum(F, [0.1], alpha_bin_width=0.0),
                 ValueError, "must be positive", id="bin-width-0"),
    pytest.param(lambda F: coarse_spectrum(F, [2.0]), DomainError,
                 "outside", id="box-wider-than-the-domain"),
])
def test_estimator_refusals(F_cantor, call, error, match):
    with pytest.raises(error, match=match):
        call(F_cantor)


@pytest.mark.parametrize("j_min,j_max,message", [
    # 3**-700 is below the smallest subnormal float: a radius of 0
    (1, 700, "j_max: radius 3**-700 underflows to 0"),
    # 3**2000 is above the largest float
    (-2000, 5, "j_min: radius 3**2000 overflows"),
])
def test_scales_refuse_radii_outside_the_float_range(F_cantor, j_min, j_max,
                                                     message):
    # refused at construction, not deep inside the estimate
    with pytest.raises(ValueError, match=re.escape(message)):
        Scales(3, j_min, j_max)
    with pytest.raises(ValueError, match=re.escape(message)):
        holder_exponent_estimate(F_cantor, 0.25, Scales(3, j_min, j_max))


def test_coarse_spectrum_checks_every_box_size_before_counting(F_cantor,
                                                              monkeypatch):
    calls = []
    count = F_cantor.cdf_many
    monkeypatch.setattr(F_cantor, "cdf_many",
                        lambda xs: calls.append(len(xs)) or count(xs))
    with pytest.raises(CapacityError, match="box size 4.94066e-324"):
        coarse_spectrum(F_cantor, [1 / 81, 5e-324])
    assert calls == []
    coarse_spectrum(F_cantor, [1 / 81])
    assert calls == [82]


def test_measure_ball_oracles(F_uniform, F_lebesgue):
    assert measure_ball(F_uniform, 0.0, 1 / 3).value == pytest.approx(
        0.5, abs=1e-12)
    assert measure_ball(F_uniform, 0.5, 1 / 12).value == 0.0
    assert measure_ball(F_lebesgue, 0.5, 0.1).value == pytest.approx(
        0.2, abs=1e-12)


def test_default_scale_base(cantor, lebesgue, moebius):
    assert default_scale_base(cantor) == 3.0
    assert default_scale_base(lebesgue) == 2.0
    assert default_scale_base(moebius) == 2.0
    # 1/0.4 = 2.5 is no integer base, so the radii follow the ratio itself
    wide = IfsSystem.affine((0.0, 1.0), [(0.4, 0.0), (0.4, 0.6)])
    assert default_scale_base(wide) == 2.5


def test_holder_at_coded_endpoints(F_cantor):
    left = holder_exponent_estimate(F_cantor, 0.0)
    right = holder_exponent_estimate(F_cantor, 1.0)
    assert left.exponent == pytest.approx(math.log(4) / math.log(3),
                                          abs=0.05)
    assert right.exponent == pytest.approx(math.log(4 / 3) / math.log(3),
                                           abs=0.05)
    assert len(left.scale_pairs) >= 5


def test_holder_methods_agree_at_clean_points(F_cantor):
    # the regression slope against the raw ratio log mu / log r
    est = holder_exponent_estimate(F_cantor, 0.0)
    raw = min(y / x for x, y in est.scale_pairs)
    assert abs(est.exponent - raw) < 0.05


def test_holder_tracks_exact_exponent(cantor, cantor_psi, F_cantor):
    pw = PeriodicWord.parse("01")
    exact = exact_exponent_at_coded_point(cantor, cantor_psi, pw)
    assert exact == pytest.approx(0.7618595071429146, abs=1e-12)
    est = holder_exponent_estimate(F_cantor, periodic_point(cantor, pw))
    assert est.exponent == pytest.approx(exact, abs=0.05)


def test_holder_exponents_stay_in_band(F_cantor, F_lebesgue, cantor,
                                      cantor_psi):
    from mfgibbs.spectrum import endpoints
    lo, hi = endpoints(cantor, cantor_psi)
    rng = random.Random(3)
    # seeded coded points: in the attractor, mostly inside the domain
    coded = [periodic_point(cantor, PeriodicWord(Word(tuple(
        rng.randrange(2) for _ in range(rng.randint(1, 5))))))
        for _ in range(10)]
    for x in [0.0, 1.0, 0.25, 1 / 3, 2 / 3] + coded:
        est = holder_exponent_estimate(F_cantor, x)
        assert lo - 0.1 <= est.exponent <= hi + 0.1
    # F(t) = t has exponent 1 at every interior t0, also near an end,
    # where balls wider than the distance to it would be cut off
    for t0 in [0.6932, 0.02] + [rng.random() for _ in range(10)]:
        est = holder_exponent_estimate(F_lebesgue, t0)
        assert est.exponent == pytest.approx(1.0, abs=0.02)


def test_holder_needs_enough_scales(cantor, cantor_psi):
    shallow = DistributionFunction(cantor, cantor_psi, DepthPolicy(6, 0.0))
    with pytest.raises(ScaleError):
        holder_exponent_estimate(shallow, 0.25, Scales(3.0, 8, 20))


def test_coarse_spectrum_uniform_single_bin(F_uniform):
    result = coarse_spectrum(F_uniform, [3.0 ** -8])[0]
    assert len(result.bins) == 1
    b = result.bins[0]
    assert b.count == 256
    assert b.alpha_center == pytest.approx(0.7, abs=1e-12)
    assert b.f_alpha == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert result.kept_mass == pytest.approx(1.0, abs=1e-12)


def test_coarse_spectrum_tracks_prediction(F_cantor, cantor_curve):
    result = coarse_spectrum(F_cantor, [3.0 ** -8])[0]
    assert result.kept_mass <= 1.0 + 1e-9
    for b in result.bins:
        if b.count < 5:
            continue
        pred = legendre(cantor_curve, b.alpha_center)
        if pred.interior:
            assert abs(b.f_alpha - pred.value) < 0.25


def test_coarse_spectrum_drops_rounding_sliver(cantor, cantor_psi):
    # 1/3^-10 rounds to 59049.00000000001, so ceil gives one box too many
    d = 3.0 ** -10
    assert math.ceil(1.0 / d) == 3 ** 10 + 1
    result = coarse_spectrum(DistributionFunction(cantor, cantor_psi), [d])[0]
    expected = Counter()
    for k in range(11):
        alpha = (k * math.log(0.25) + (10 - k) * math.log(0.75)) / math.log(d)
        expected[math.floor(alpha / 0.2)] += math.comb(10, k)
    got = {round(b.alpha_center / 0.2 - 0.5): b.count for b in result.bins}
    assert sum(got.values()) == 1024
    assert got == dict(expected)


def _whole_grid_spectrum(F, d, width=0.2):
    """coarse_spectrum's result from one cdf_many call over all edges."""
    lo, hi = F.system.domain
    n = math.ceil((hi - lo) / d)
    edges = lo + d * np.arange(n + 1)
    if hi - edges[n - 1] < 1e-9 * d:
        n -= 1
        edges = edges[:n + 1]
    edges[-1] = hi
    values, errors = F.cdf_many(edges)
    masses = np.diff(values)
    keep = (masses > 0.0) & (masses >= 10.0 * (errors[:-1] + errors[1:]))
    idx = np.floor(np.log(masses[keep]) / math.log(d) / width).astype(int)
    ids, counts = np.unique(idx, return_counts=True)
    bins = tuple(CoarseBin((b + 0.5) * width, c, math.log(c) / -math.log(d))
                 for b, c in zip(ids.tolist(), counts.tolist()))
    return CoarseSpectrum(d, width, bins, float(masses[keep].sum()))


@pytest.mark.parametrize("config,d,slab", [
    ("cantor_14_34", 3.0 ** -9, 1000),
    ("moebius_pair", 2.0 ** -12, 1000),
    ("lebesgue", 2.0 ** -12, 1024),  # four slabs of exactly 1024 boxes
    ("cantor_14_34", 3.0 ** -7, 729),  # three slabs of exactly 729 boxes
    ("cantor_14_34", 3.0 ** -10, 1000),  # the sliver test's grid
])
def test_coarse_spectrum_slabs_change_nothing(monkeypatch, config, d, slab):
    F = DistributionFunction(*_config_cascade(config))
    whole = _whole_grid_spectrum(F, d)
    # the default slab holds every grid here: the result is the reference
    assert coarse_spectrum(F, [d]) == [whole]
    monkeypatch.setattr(estimators, "_SLAB", slab)
    (slabbed,) = coarse_spectrum(F, [d])
    assert slabbed._replace(kept_mass=whole.kept_mass) == whole
    assert abs(slabbed.kept_mass - whole.kept_mass) <= 1e-12


@pytest.mark.parametrize("j,limit_mb", [(12, 16), (14, 64)])
def test_coarse_spectrum_memory_stays_within_a_few_slabs(j, limit_mb):
    # the whole grid at once peaked at 26.6 MB (3^-12) and 239 MB (3^-14)
    F = DistributionFunction(*_config_cascade("cantor_14_34"))
    tracemalloc.start()
    try:
        coarse_spectrum(F, [3.0 ** -j])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


def test_coarse_spectrum_refuses_boxes_past_the_cap(F_cantor):
    # 3**17 boxes: over the enumeration cap, refused before any edge array
    with pytest.raises(CapacityError,
                       match=r"box size 7\.74352e-09 needs over 100000000 "
                             r"boxes"):
        coarse_spectrum(F_cantor, [3.0 ** -17])


def test_coarse_spectrum_refuses_what_leaves_the_float_range(F_cantor):
    # 1/5e-324 boxes overflow to inf, refused like any count over the cap
    with pytest.raises(CapacityError, match=r"box size 4\.94066e-324 needs "
                                            r"over 100000000 boxes"):
        coarse_spectrum(F_cantor, [5e-324])
    # exponents near 1 over a width of 1e-300 are bin indices near 1e300
    with pytest.raises(ValueError, match="bin width 1e-300 puts an exponent "
                                         "at delta 0.00137174 in a bin past "
                                         "int64"):
        coarse_spectrum(F_cantor, [3.0 ** -6], alpha_bin_width=1e-300)
    # a box of size 1, inside a domain of width 2, has log 0
    wide = IfsSystem.affine((0.0, 2.0), [(0.5, 0.0), (0.5, 1.0)])
    F_wide = DistributionFunction(wide, Potential.from_probabilities(
        (0.5, 0.5)))
    with pytest.raises(DomainError, match="box size 1 has log 0"):
        coarse_spectrum(F_wide, [1.0])


def _cylinder_ends(F, word):
    """Ends of a cylinder composed in the descent's own operation order."""
    a_, b_, c_, d_ = 1.0, 0.0, 0.0, 1.0
    for s in word:
        ka, kb, kc, kd = F.system.maps[s].coefficients()
        a_, b_, c_, d_ = (a_ * ka + b_ * kc, a_ * kb + b_ * kd,
                          c_ * ka + d_ * kc, c_ * kb + d_ * kd)
    lo, hi = F.system.domain
    return (a_ * lo + b_) / (c_ * lo + d_), (a_ * hi + b_) / (c_ * hi + d_)


def _scalar_cdf(F, xs):
    try:
        vals = [F.cdf(x) for x in xs]
    except PrecisionError as exc:
        return str(exc)
    return (np.array([v.value for v in vals]),
            np.array([v.error_bound for v in vals]))


def _batched_cdf(F, xs):
    try:
        return F.cdf_many(xs)
    except PrecisionError as exc:
        return str(exc)


@st.composite
def _cascades(draw):
    """A random valid 2- or 3-map affine or Moebius system on [0, 1] with
    a normalized potential whose splits are constant or not."""
    ifs = draw(systems())
    psi = draw(potentials(ifs, kinds=("bernoulli", "geometric")))
    if draw(st.booleans()):
        policy = None
    else:
        policy = DepthPolicy(draw(st.integers(1, 60)),
                             draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])))
    return DistributionFunction(ifs, psi, policy)


@st.composite
def _points(draw, F):
    """Grid, uniform, cylinder-end, coded, clustered and special points,
    with duplicates, sorted or shuffled."""
    m = F.system.alphabet_size
    words = st.lists(st.integers(0, m - 1), min_size=1, max_size=8)
    xs = list(np.linspace(0.0, 1.0, draw(st.integers(0, 120))))
    xs += draw(st.lists(st.floats(-0.05, 1.05), max_size=40))
    for _ in range(draw(st.integers(0, 12))):
        xs += _cylinder_ends(F, draw(words))
    for _ in range(draw(st.integers(0, 3))):
        # coded points lie in the attractor, so deep policies meet the floor
        xs.append(periodic_point(F.system, PeriodicWord(Word(draw(words)))))
    for _ in range(draw(st.integers(0, 3))):
        # a cluster puts more than a leaf's worth of points deep in the tree
        x0 = draw(st.sampled_from(xs)) if xs else 0.5
        step = draw(st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]))
        k = draw(st.integers(1, 20))
        xs += [x0 + i * step for i in range(-k, k)]
    xs += draw(st.lists(st.sampled_from(
        [-math.inf, math.inf, math.nan, -1.0, 2.0, 0.0, 1.0, -0.0]),
        max_size=6))
    if xs:
        xs += draw(st.lists(st.sampled_from(xs), max_size=20))
    xs = np.array(xs, dtype=float)
    if draw(st.booleans()):
        return np.sort(xs)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(xs)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cdf_many_matches_scalar_cdf(data):
    F = data.draw(_cascades())
    xs = data.draw(_points(F))
    ref = _scalar_cdf(F, xs)
    got = _batched_cdf(F, xs)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


def test_cdf_many_raises_the_scalar_precision_error(moebius, moebius_psi):
    F = DistributionFunction(moebius, moebius_psi, DepthPolicy(60, 0.0))
    # coded points meet the width floor, each at its own depth and width
    coded = [periodic_point(moebius, PeriodicWord.parse(w))
             for w in ("001", "01", "10")]
    xs = np.sort(np.concatenate([np.linspace(0.0, 1.0, 100), coded]))
    messages = set()
    for pts in (xs, xs[::-1]):
        ref = _scalar_cdf(F, pts)
        assert isinstance(ref, str) and "precision floor" in ref
        assert _batched_cdf(F, pts) == ref
        messages.add(ref)
    # the two orders meet the floor at different points first
    assert len(messages) == 2


@pytest.mark.parametrize("to_the_floor", [False, True])
@pytest.mark.parametrize("config, base, j", [("cantor_14_34", 3, 9),
                                             ("uniform_cantor", 3, 9),
                                             ("moebius_pair", 2, 12),
                                             ("lebesgue", 2, 12)])
def test_cdf_many_matches_scalar_cdf_on_a_box_edge_grid(config, base, j,
                                                        to_the_floor):
    # every box edge at once keeps thousands of nodes live per level
    ifs, psi = _config_cascade(config)
    delta = float(base) ** -j
    F = DistributionFunction(ifs, psi,
                             DepthPolicy(30, 0.0) if to_the_floor else None)
    lo, hi = ifs.domain
    xs = lo + delta * np.arange(round((hi - lo) / delta) + 1)
    xs[-1] = hi
    ref = _scalar_cdf(F, xs)
    got = _batched_cdf(F, xs)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("config", ["cantor_14_34", "moebius_pair"])
def test_cdf_many_in_blocks_matches_scalar_cdf(config, monkeypatch):
    # levels wider than a block take one pass per block, deepest first
    monkeypatch.setattr(estimators, "_BLOCK", 3)
    ifs, psi = _config_cascade(config)
    F = DistributionFunction(ifs, psi)
    rng = np.random.default_rng(5)
    xs = np.sort(np.concatenate([rng.random(200), np.linspace(0, 1, 730)]))
    ref = _scalar_cdf(F, xs)
    got = F.cdf_many(xs)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("constant_splits", [True, False])
def test_cdf_many_finishes_out_of_order_nodes_with_the_scalar_walk(
        constant_splits, monkeypatch):
    # image 1, 1e-13 wide, starts inside image 0 (the overlap is within
    # DOMAIN_TOL) and ends 450 ulps past it: from depth 9 on, the two
    # right child ends round out of order.  A Moebius third map on the
    # same image gives the geometric potential non-constant splits, and
    # its nodes' ends round out of order from depth 7 on
    dom = (0.0, 1.0)
    if constant_splits:
        third = AffineMap(0.4, 0.6, dom)
    else:
        third = MoebiusMap(0.5, 0.6, 0.1, 1.0, dom)
    ifs = IfsSystem(dom, (AffineMap(0.5 + 0.5e-13, 0.0, dom),
                          AffineMap(1e-13, 0.5, dom), third))
    if constant_splits:
        psi = Potential.from_probabilities([0.3, 0.2, 0.5])
    else:
        psi = normalize(ifs, Potential.geometric(ifs), k_max=8)
    F = DistributionFunction(ifs, psi, DepthPolicy(30, 1e-12))
    assert (F._const_conds is None) != constant_splits
    rng = np.random.default_rng(1)
    xs = np.sort(np.concatenate([rng.random(300), np.linspace(0, 1, 257)]))
    ref = _scalar_cdf(F, xs)
    walked = []
    walk = DistributionFunction._walk

    def recorded(self, x, acc, mass, mat, logdet, depth, path):
        walked.append(depth)
        return walk(self, x, acc, mass, mat, logdet, depth, path)

    monkeypatch.setattr(DistributionFunction, "_walk", recorded)
    got = F.cdf_many(xs)
    assert min(d for d in walked if d > 0) == (9 if constant_splits else 7)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@st.composite
def _near_word_ends(draw, F):
    """Float ends of words up to length 12 and points 1 to 4 ulps either
    side of them, each of which descends alone once its node holds no
    other point, sorted or shuffled."""
    m = F.system.alphabet_size
    xs = []
    for word in draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                       max_size=12), min_size=1, max_size=40)):
        for end in _cylinder_ends(F, word):
            xs.append(end)
            for toward in (-math.inf, math.inf):
                x = end
                for _ in range(draw(st.integers(1, 4))):
                    x = math.nextafter(x, toward)
                xs.append(x)
    xs = np.array(xs)
    if draw(st.booleans()):
        return np.sort(xs)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(xs)


@pytest.mark.parametrize("block", [None, 7])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.sampled_from(["cantor_14_34", "uniform_cantor", "lebesgue",
                               "moebius_pair"]), data=st.data())
def test_cdf_many_matches_scalar_cdf_near_word_ends(block, config, data):
    # a node that holds one point compares it with its child ends; a
    # block of 7 nodes mixes such blocks with searched ones on one level,
    # and moebius_pair's splits are not constant
    F = DistributionFunction(*_config_cascade(config))
    xs = data.draw(_near_word_ends(F))
    ref = _scalar_cdf(F, xs)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(estimators, "_BLOCK", block)
        got = F.cdf_many(xs)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


def test_point_blocks_finish_out_of_order_nodes_with_the_scalar_walk(
        monkeypatch):
    # the system of the test above: 0.2 and 0.6796875 part at the root,
    # and below it each node of a block holds one of them; the node of
    # the second at depth 9 has its child ends out of order, and the
    # first descends to the depth cap
    dom = (0.0, 1.0)
    ifs = IfsSystem(dom, (AffineMap(0.5 + 0.5e-13, 0.0, dom),
                          AffineMap(1e-13, 0.5, dom),
                          AffineMap(0.4, 0.6, dom)))
    F = DistributionFunction(ifs, Potential.from_probabilities(
        [0.3, 0.2, 0.5]), DepthPolicy(30, 1e-12))
    outside = [-1.0, 2.0, -math.inf, math.inf, math.nan]
    xs = np.array([0.2, 0.6796875] + outside)
    ref = _scalar_cdf(F, xs)
    blocks, walked = [], []
    expand, walk = DistributionFunction._expand, DistributionFunction._walk

    def recorded_expand(self, s, values, errors, depth, slices, *rest):
        blocks.append((depth, (slices[1] - slices[0]).tolist()))
        return expand(self, s, values, errors, depth, slices, *rest)

    def recorded_walk(self, x, acc, mass, mat, logdet, depth, path):
        if depth:  # NaN takes the scalar path from the root
            walked.append((x, depth, blocks[-1]))
        return walk(self, x, acc, mass, mat, logdet, depth, path)

    monkeypatch.setattr(DistributionFunction, "_expand", recorded_expand)
    monkeypatch.setattr(DistributionFunction, "_walk", recorded_walk)
    got = F.cdf_many(xs)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert walked == [(0.6796875, 9, (9, [1, 1]))]
    # empty input, input with no point in the domain, and 0.5 alone: the
    # left end of child 1 lies inside child 0, and resolves at child 1
    assert [a.tolist() for a in F.cdf_many([])] == [[], []]
    for pts in (outside, outside[::-1], [math.nan], [0.6796875], [0.5]):
        got = F.cdf_many(pts)
        ref = _scalar_cdf(F, pts)
        assert np.array_equal(got[0], ref[0], equal_nan=True)
        assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("words", [[(0, 1, 1, 0, 1)],
                                   [(0, 1, 0), (1, 1, 0, 0)],
                                   [(0,), (1, 0, 1, 1, 1, 1, 0, 1, 0)]])
def test_point_blocks_take_no_search_and_no_run_fill(words, monkeypatch):
    # the middle of a cantor_14_34 cylinder sits in the gap between its
    # children, so each point below resolves in a gap: only a block of
    # a node with several points (the root, here) searches and fills runs
    F = _config_F("cantor_14_34")
    xs = [sum(_cylinder_ends(F, w)) / 2 for w in words]
    ref = _scalar_cdf(F, xs)
    fills = []
    fill = estimators._fill

    def counted(out, runs, vals):
        fills.append(runs.shape[1])
        fill(out, runs, vals)

    monkeypatch.setattr(estimators, "_fill", counted)
    got = F.cdf_many(xs)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    # one run fill of the root's 3 runs when it holds two points
    assert fills == ([] if len(xs) == 1 else [3])


@pytest.mark.parametrize("config", ["cantor_14_34", "moebius_pair"])
def test_cdf_exact_at_every_cylinder_end(config):
    # cylinder_interval and stream_point form their points with the float
    # operations of the descent's child ends, so the descent lands on them
    cfg = load_config(str(CONFIGS / f"{config}.json"))
    ifs = build_system(cfg)
    F = DistributionFunction(ifs, build_potential(cfg, ifs), deep_policy(ifs))
    zeros = PeriodicWord.parse("0")
    for n in range(1, 9):
        for w in enumerate_words(ifs.alphabet_size, n):
            lo, hi = cylinder_interval(ifs, w)
            assert F.cdf(lo).error_bound == 0.0, (w, lo)
            assert F.cdf(hi).error_bound == 0.0, (w, hi)
            assert stream_point(ifs, SymbolStream(w, zeros)) == lo, w


def _softmax_of_block_sums(psi, word, m):
    """Child splits by the definition: softmax of each child's cycle sum."""
    vals = [psi.block_sum(PeriodicWord(Word(word + (j,)))) for j in range(m)]
    vmax = max(vals)
    es = [math.exp(v - vmax) for v in vals]
    tot = sum(es)
    return tuple(e / tot for e in es)


@st.composite
def _split_cases(draw):
    """A strategies.py system and potential, or a mixed affine+Moebius
    system, whose affine letter has log_det != 0, with a geometric one."""
    if draw(st.booleans()):
        ifs = draw(systems())
        return ifs, draw(potentials(ifs, kinds=("bernoulli", "geometric")))
    dom = (0.0, 1.0)
    ifs = IfsSystem(dom, (AffineMap(1 / 3, 0.0, dom),
                          MoebiusMap(2.0, 2.0, 1.0, 3.0, dom)))
    coeff = draw(st.floats(0.5, 2.0))
    return ifs, normalize(ifs, Potential.geometric(ifs, coeff), k_max=8)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_child_splits_match_block_sums(data):
    # the descent takes each non-constant split from the child matrices
    # it has just composed; they must be the word matrices, and the
    # splits the block-sum softmax, bit for bit.  A fresh F expands every
    # node it visits, so the node of the i-th split is the word of the
    # children node_children chose before it
    ifs, psi = data.draw(_split_cases())
    F = DistributionFunction(ifs, psi, deep_policy(ifs))
    m = ifs.alphabet_size
    nodes, taken = [], []
    conds = F._conds
    expand = estimators.node_children

    def recorded(depth, logdet, kids):
        got = conds(depth, logdet, kids)
        nodes.append((depth, logdet, kids, got))
        return got

    def recording(*args):
        kids, chosen = expand(*args)
        taken.append(chosen)
        return kids, chosen

    F._conds = recorded
    # a point coded by a random word walks that word's nodes
    symbols = st.lists(st.integers(0, m - 1), min_size=1, max_size=40)
    x = stream_point(ifs, SymbolStream(
        Word(tuple(data.draw(symbols))),
        PeriodicWord(Word(tuple(data.draw(symbols)[:4])))))
    assume(x < ifs.domain[1])  # F(hi) = 1 takes no descent
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "node_children", recording)
        F.cdf(x)
    if F._const_conds is not None:
        assert nodes == []  # constant splits take no per-node work
        return
    assert nodes and len(nodes) == len(taken)
    for depth, logdet, kids, got in nodes:
        node = tuple(taken[:depth])
        assert logdet == word_matrix(ifs, Word(node))[1]
        for j, kid in enumerate(kids):
            assert kid[2:] == word_matrix(ifs, Word(node + (j,)))[0]
        assert got == _softmax_of_block_sums(psi, node, m), node


@pytest.fixture
def compositions(monkeypatch):
    """Calls into the word composition, the block sum and the fixed point
    solve, and the levels at which the descent takes child splits."""
    calls = Counter()

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(ifs_geometry, "word_matrix", "word_matrix")
    counted(thermodynamics, "word_matrix", "word_matrix")
    counted(thermodynamics, "matrix_fixed_point", "matrix_fixed_point")
    counted(Potential, "block_sum", "block_sum")
    counted(DistributionFunction, "_conds", "levels")
    counted(estimators, "node_children", "node_children")
    return calls


def test_descent_composes_no_word(compositions):
    # a non-Bernoulli split costs m child products and m fixed points per
    # level: nothing recomposes a word from its first letter
    cfg = load_config(str(CONFIGS / "moebius_pair.json"))
    ifs = build_system(cfg)
    F = DistributionFunction(ifs, build_potential(cfg, ifs), deep_policy(ifs))
    m = ifs.alphabet_size
    coded = [periodic_point(ifs, PeriodicWord.parse(w))
             for w in ("01", "001", "110")]
    xs = np.sort(np.concatenate([np.linspace(0.0, 1.0, 200), coded]))
    compositions.clear()
    # the coded point of 01 is in the attractor: the descent meets the cap
    assert F.cdf(coded[0]).error_bound > 0.0
    assert compositions["levels"] == F.policy.max_depth
    assert compositions["word_matrix"] == compositions["block_sum"] == 0
    assert compositions["matrix_fixed_point"] <= m * compositions["levels"]
    compositions.clear()
    F.cdf_many(xs)
    assert 0 < compositions["levels"] <= len(xs) * F.policy.max_depth
    assert compositions["word_matrix"] == compositions["block_sum"] == 0
    assert compositions["matrix_fixed_point"] <= m * compositions["levels"]


@functools.cache
def _config_cascade(config):
    cfg = load_config(str(CONFIGS / f"{config}.json"))
    ifs = build_system(cfg)
    return ifs, build_potential(cfg, ifs)


def _config_F(config, policy=deep_policy):
    ifs, psi = _config_cascade(config)
    return DistributionFunction(ifs, psi, policy(ifs))


@pytest.mark.parametrize("config", ["cantor_14_34", "moebius_pair"])
def test_repeated_point_expands_no_node(compositions, config):
    F = _config_F(config)
    ifs = F.system
    # the counter sees a fresh descent's expansions, in the form the
    # system selects
    F.cdf(0.3)
    assert compositions["node_children"] > 0
    for x in (0.3, 1 / 3, periodic_point(ifs, PeriodicWord.parse("011")),
              cylinder_interval(ifs, Word.parse("0110"))[1], math.nan):
        first = F.cdf(x)
        compositions.clear()
        assert F.cdf(x) == first
        assert compositions["node_children"] == compositions["levels"] == 0


@pytest.mark.parametrize("config", ["cantor_14_34", "moebius_pair"])
def test_ends_on_the_path_keep_the_path(compositions, config):
    # the probe's order: x, then the ends of x's cylinders one depth
    # after another.  Each end stops at a node of x's path, and a walk
    # that expands no node keeps the whole path for the next end
    F = _config_F(config)
    coding = "011" * F.policy.max_depth
    F.cdf(periodic_point(F.system, PeriodicWord.parse("011")))
    compositions.clear()
    # an end of depth n stops at a node of depth n - 1, under the cap
    for n in range(1, F.policy.max_depth + 1):
        for end in cylinder_interval(F.system, Word.parse(coding[:n])):
            assert F.cdf(end).error_bound == 0.0
    assert compositions["node_children"] == 0


def _taken(F, x, monkeypatch):
    """The child a fresh descent of x takes at each node it expands."""
    taken = []
    expand = estimators.node_children

    def recording(*args):
        kids, chosen = expand(*args)
        taken.append(chosen)
        return kids, chosen
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "node_children", recording)
        DistributionFunction(F.system, F.potential, F.policy).cdf(x)
    return taken


def test_nearby_point_expands_below_the_parting_depth(compositions,
                                                       monkeypatch):
    F = _config_F("moebius_pair")
    ifs = F.system
    pairs = []
    for w in ("011", "01", "0010"):
        x = periodic_point(ifs, PeriodicWord.parse(w))
        # x + r lands in a gap at some depth; y shares x's first 2|w|
        # letters and goes down to the depth cap
        pairs += [(x, x + r) for r in (1e-3, 1e-5, 1e-6)]
        y = stream_point(ifs, SymbolStream(Word.parse(w * 2 + "1"),
                                           PeriodicWord.parse("01")))
        pairs.append((x, y))
    expanded = []
    for x, y in pairs:
        taken_x, taken_y = _taken(F, x, monkeypatch), _taken(F, y, monkeypatch)
        part = next(i for i, (a, b) in enumerate(zip(taken_x, taken_y))
                    if a != b)
        F.cdf(x)
        compositions.clear()
        F.cdf(y)
        # the node where the codings part is read from x's descent, the
        # nodes below it are expanded, and each expansion takes its splits
        assert compositions["node_children"] == len(taken_y) - part - 1
        assert compositions["levels"] == compositions["node_children"]
        expanded.append(compositions["node_children"])
    # each y parts from x at depth 2|w| and is expanded below it
    assert expanded[3::4] == [F.policy.max_depth - 2 * len(w) - 1
                              for w in ("011", "01", "0010")]


def _bits(F, x):
    """F(x) on F as its exact float bits, or the PrecisionError message."""
    try:
        v = F.cdf(x)
    except PrecisionError as exc:
        return str(exc)
    return v.value.hex(), v.error_bound.hex()


def _to_the_floor(ifs):
    # deep enough that descents near the attractor meet the width floor
    return DepthPolicy(60, mass_tol=0.0)


@st.composite
def _point_sequences(draw, ifs):
    """Points in the order a study asks for them: domain ends, NaN, 1/3,
    cylinder_interval ends and uniform points, with repeats and
    neighbours from one ulp to 1e-6 away."""
    lo, hi = ifs.domain
    m = ifs.alphabet_size
    pool = [lo, hi, math.nan, 1 / 3]
    pool += draw(st.lists(st.floats(lo, hi), max_size=8))
    for w in draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                    max_size=12), max_size=6)):
        pool += cylinder_interval(ifs, Word(tuple(w)))
    xs = []
    for _ in range(draw(st.integers(20, 60))):
        x = draw(st.sampled_from(xs + pool))
        step = draw(st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-6]))
        if step is None:
            x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
        else:
            x += draw(st.sampled_from([-1, 1])) * step
        xs.append(x)
    return xs


@pytest.mark.parametrize("policy", [default_policy, deep_policy,
                                    _to_the_floor])
@pytest.mark.parametrize("config", ["lebesgue", "uniform_cantor",
                                    "cantor_14_34", "moebius_pair"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_warm_distribution_function_is_a_fresh_one(config, policy, data):
    F = _config_F(config, policy)
    xs = data.draw(_point_sequences(F.system))
    ref = [_bits(_config_F(config, policy), x) for x in xs]
    assert [_bits(F, x) for x in xs] == ref
    # a batch after any scalar calls is still the scalar path
    errors = [r for r in ref if isinstance(r, str)]
    if errors:
        with pytest.raises(PrecisionError) as exc:
            F.cdf_many(xs)
        assert str(exc.value) == errors[0]
    else:
        values, bounds = F.cdf_many(xs)
        assert [(v.hex(), e.hex()) for v, e in
                zip(values.tolist(), bounds.tolist())] == ref


@pytest.mark.parametrize("config", ["moebius_pair", "lebesgue"])
def test_threads_sharing_a_distribution_function(config):
    F = _config_F(config)
    ifs = F.system
    # 200 points: sorted uniform ones, ball ends t0 +- 2**-j around coded
    # points, a cylinder end, the domain ends and NaN
    rng = random.Random(17)
    xs = sorted(rng.random() for _ in range(100))
    for w in ("01", "011", "0010", "1101"):
        t0 = periodic_point(ifs, PeriodicWord.parse(w))
        xs += [t0 + s * 2.0 ** -j for j in range(1, 13) for s in (1, -1)]
    xs += [cylinder_interval(ifs, Word.parse("0110"))[0], 0.0, 1.0, math.nan]
    ref = [_bits(_config_F(config), x) for x in xs]
    got = {}

    def study(k):
        # each thread asks for every point in five orders of its own
        shuffle = random.Random(k).shuffle
        order = list(range(len(xs)))
        got[k] = []
        for _ in range(5):
            shuffle(order)
            got[k].append({i: _bits(F, xs[i]) for i in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=study, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4
    for passes in got.values():
        for values in passes:
            assert [values[i] for i in range(len(xs))] == ref


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_distribution_function_properties(data):
    ifs = data.draw(systems())
    F = DistributionFunction(ifs, data.draw(potentials(
        ifs, kinds=("bernoulli", "geometric"))))
    m = ifs.alphabet_size
    lo, hi = ifs.domain
    assert F.cdf(lo).value == 0.0 and F.cdf(hi).value == 1.0
    # the float sums behind two values may round apart by a few ulp
    slack = 1e-12
    xs = sorted(data.draw(st.lists(st.floats(lo, hi), min_size=2,
                                   max_size=30)))
    vals = [F.cdf(x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert b.value + b.error_bound >= a.value - a.error_bound - slack
    words = data.draw(st.lists(
        st.lists(st.integers(0, m - 1), max_size=4), min_size=1, max_size=4))
    for w in words:
        ends = [cylinder_interval(ifs, Word(tuple(w)))]
        ends += [cylinder_interval(ifs, Word(tuple(w) + (j,)))
                 for j in range(m)]
        cdfs = [(F.cdf(s), F.cdf(t)) for s, t in ends]
        masses = [t.value - s.value for s, t in cdfs]
        bound = sum(s.error_bound + t.error_bound for s, t in cdfs)
        assert abs(masses[0] - sum(masses[1:])) <= bound + slack, w
        xs += [x for end in ends for x in end]
    values, errors = F.cdf_many(xs)
    ref = [F.cdf(x) for x in xs]
    assert np.array_equal(values, [v.value for v in ref])
    assert np.array_equal(errors, [v.error_bound for v in ref])
