import math
import random

import numpy as np
import pytest

from mfgibbs.errors import (DomainError, NormalizationError, PrecisionError,
                            ScaleError)
from mfgibbs.estimators import (DepthPolicy, DistributionFunction, Scales,
                                coarse_spectrum, deep_policy,
                                default_scale_base,
                                exact_exponent_at_coded_point,
                                holder_exponent_estimate, measure_ball)
from mfgibbs.ifs_geometry import IfsSystem, cylinder_interval
from mfgibbs.spectrum import legendre
from mfgibbs.symbolic import Word, enumerate_words
from mfgibbs.thermodynamics import Potential, gibbs_cylinder_weights


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
    weights = gibbs_cylinder_weights(cantor, cantor_psi, 3).weights
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


def test_holder_at_coded_endpoints(F_cantor):
    left = holder_exponent_estimate(F_cantor, 0.0)
    right = holder_exponent_estimate(F_cantor, 1.0)
    assert left.exponent == pytest.approx(math.log(4) / math.log(3),
                                          abs=0.05)
    assert right.exponent == pytest.approx(math.log(4 / 3) / math.log(3),
                                           abs=0.05)
    assert len(left.scale_pairs) >= 5


def test_holder_methods_agree_at_clean_points(F_cantor):
    reg = holder_exponent_estimate(F_cantor, 0.0, method="regression_min")
    raw = holder_exponent_estimate(F_cantor, 0.0, method="running_min")
    assert abs(reg.exponent - raw.exponent) < 0.05


def test_holder_tracks_exact_exponent(cantor, cantor_psi, F_cantor):
    from mfgibbs.ifs_geometry import periodic_point
    from mfgibbs.symbolic import PeriodicWord
    pw = PeriodicWord.parse("01")
    exact = exact_exponent_at_coded_point(cantor, cantor_psi, pw)
    assert exact == pytest.approx(0.7618595071429146, abs=1e-12)
    est = holder_exponent_estimate(F_cantor, periodic_point(cantor, pw))
    assert est.exponent == pytest.approx(exact, abs=0.05)


def test_holder_exponents_stay_in_band(F_cantor, cantor, cantor_psi):
    from mfgibbs.spectrum import endpoints
    lo, hi = endpoints(cantor, cantor_psi)
    rng = random.Random(3)
    pts = [F_cantor.cdf(rng.random()) for _ in range(50)]
    xs = [0.0, 1.0, 0.25, 1 / 3, 2 / 3]
    for x in xs:
        est = holder_exponent_estimate(F_cantor, x)
        assert lo - 0.1 <= est.exponent <= hi + 0.1


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
