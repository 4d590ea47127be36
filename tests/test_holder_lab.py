import math
import random
import time

import pytest

from mfgibbs.errors import (BlockSearchError, DomainError, PrecisionError,
                            ScaleError, SeparatorError)
from mfgibbs import estimators, holder_lab, ifs_geometry
from mfgibbs.estimators import DistributionFunction, Scales, deep_policy
from mfgibbs.holder_lab import (derivative_limit_probe, detrend_exponent_test,
                                find_separator, find_tau_block,
                                ratio_scaling_experiment, secant_slope)
from mfgibbs.ifs_geometry import cylinder_interval, stream_point
from mfgibbs.symbolic import PeriodicWord, Word
from mfgibbs.thermodynamics import Potential


def test_secant_identity_random(F_cantor, F_uniform, F_lebesgue):
    rng = random.Random(17)
    for F in (F_cantor, F_uniform, F_lebesgue):
        for _ in range(100):
            s = rng.uniform(0.0, 0.5)
            t = rng.uniform(s + 1e-3, 1.0)
            x = rng.uniform(s + 1e-4, t - 1e-4)
            k = rng.choice((1, 3, 5, 7))
            res = secant_slope(F, s, x, t, k)
            assert res.decomposition_check <= 1e-12 * max(1.0, abs(res.total))


def test_secant_identity_on_identity_function(F_lebesgue):
    res = secant_slope(F_lebesgue, 0.1, 0.4, 0.9, 1)
    assert res.total == pytest.approx(1.0, abs=1e-12)


def test_secant_over_cylinder(F_cantor):
    # mass of the left child over its width, pinned at the 01-cycle point
    res = secant_slope(F_cantor, 0.0, 0.25, 1 / 3, 1)
    assert res.total == pytest.approx(0.75, abs=1e-10)


def test_secant_guards(F_cantor):
    with pytest.raises(ValueError):
        secant_slope(F_cantor, 0.4, 0.2, 0.6, 1)
    with pytest.raises(ValueError):
        secant_slope(F_cantor, 0.1, 0.2, 0.6, 2)
    with pytest.raises(PrecisionError):
        secant_slope(F_cantor, 0.3, 0.3 + 1e-15, 0.3 + 3e-15, 1)


def test_split_weight_range_identity():
    # r^k + (1-r)^k stays within [2^(1-k), 1] on the unit interval
    rng = random.Random(2)
    for _ in range(200):
        r = rng.random()
        for k in (1, 3, 5, 7):
            v = r ** k + (1 - r) ** k
            assert 2.0 ** (1 - k) - 1e-12 <= v <= 1.0 + 1e-12


def test_find_tau_block_values(cantor, cantor_psi, uniform_psi):
    tb = find_tau_block(cantor, cantor_psi, 1)
    assert tb.tau.symbols == (0, 1)
    assert tb.value == pytest.approx(math.log(27 / 16), abs=1e-12)
    tb3 = find_tau_block(cantor, cantor_psi, 3)
    assert tb3.tau.symbols == (0, 1)
    assert tb3.value == pytest.approx(math.log(2187 / 16), abs=1e-12)
    # proportionality to a non-integer multiple of the geometry does not
    # block the search: only cohomology to k*phi itself does
    tbu = find_tau_block(cantor, uniform_psi, 1)
    assert tbu.value == pytest.approx(2 * math.log(1.5), abs=1e-12)


def test_find_tau_block_fails_on_exact_multiple(cantor):
    psi = Potential.geometric(cantor)
    with pytest.raises(BlockSearchError):
        find_tau_block(cantor, psi, 1)


def test_perturbed_cylinder_widths(cantor):
    # the perturbed cylinder [prefix tau^N]
    tau = Word.parse("01")
    prefix = Word.parse("00")
    lo1, hi1 = cylinder_interval(cantor, prefix + tau.repeat(1))
    assert hi1 - lo1 == pytest.approx(3.0 ** -4, rel=1e-12)
    lo2, hi2 = cylinder_interval(cantor, prefix + tau.repeat(2))
    assert (hi2 - lo2) / (hi1 - lo1) == pytest.approx(1 / 9, rel=1e-10)
    lo0, hi0 = cylinder_interval(cantor, prefix + tau.repeat(0))
    assert (lo0, hi0) == cylinder_interval(cantor, prefix)


def test_admissible_depths_dichotomy(cantor):
    # a depth is admissible when omega continues with the block's first
    # letter forever (case 1) or leaves it at once (case 2)
    tau = Word.parse("01")
    omega = PeriodicWord.parse("0")
    assert [find_separator(cantor, omega, n, tau).case
            for n in range(1, 6)] == [1] * 5
    # at multiples of 3, 011011... continues with tau_1 = 0 but not forever
    mixed = PeriodicWord.parse("011")
    for n in range(6):
        if n % 3 == 0:
            with pytest.raises(SeparatorError, match="not admissible"):
                find_separator(cantor, mixed, n, tau)
        else:
            assert find_separator(cantor, mixed, n, tau).case == 2


def test_separator_betweenness_both_sides(cantor):
    tau = Word.parse("01")
    for text, n in (("0", 2), ("0", 4), ("1", 2), ("011", 4)):
        omega = PeriodicWord.parse(text)
        sep = find_separator(cantor, omega, n, tau)
        x = stream_point(cantor, omega.stream())
        s_lo, s_hi = sep.interval
        for N in (2, 3, 4):
            p_lo, p_hi = cylinder_interval(
                cantor, omega.stream().head(n) + tau.repeat(N))
            assert (x < s_lo and s_hi < p_lo) or (p_hi < s_lo and s_hi < x)
        assert len(sep.word) <= n + len(tau) + 1


def test_separator_width_bound(cantor):
    tau = Word.parse("01")
    omega = PeriodicWord.parse("0")
    for n in (2, 3, 5):
        sep = find_separator(cantor, omega, n, tau)
        s_lo, s_hi = sep.interval
        c_lo, c_hi = cylinder_interval(cantor, omega.stream().head(n))
        bound = (c_hi - c_lo) * cantor.r_min ** (len(tau) + 1)
        assert s_hi - s_lo >= bound * (1 - 1e-12)


def test_separator_rejects_inadmissible_depth(cantor):
    tau = Word.parse("01")
    mixed = PeriodicWord.parse("011")  # depth 3: next letter 0, then 1s
    with pytest.raises(SeparatorError):
        find_separator(cantor, mixed, 3, tau)


def test_ratio_scaling_fits(cantor, cantor_psi):
    omega = PeriodicWord.parse("0")
    tau = Word.parse("01")
    ex = ratio_scaling_experiment(cantor, cantor_psi, omega, tau, 1,
                                  n_set=(2, 3, 4, 5), N_range=range(1, 7))
    assert ex.expected_log_slope == pytest.approx(math.log(27 / 16),
                                                  abs=1e-12)
    assert ex.expected_log_r == pytest.approx(2 * math.log(3), abs=1e-12)
    assert abs(ex.slope_log_slope - ex.expected_log_slope) \
        <= 0.1 * abs(ex.expected_log_slope)
    assert abs(ex.slope_log_r - ex.expected_log_r) \
        <= 0.1 * abs(ex.expected_log_r)
    # comparability constants do not depend on n
    assert max(ex.residual_spread_by_N) < 0.5
    for rec in ex.records:
        assert rec.r > 1.0  # x sits outside every perturbed cylinder
        assert rec.slope_k > 0.0


def test_ratio_scaling_needs_two_depths(cantor, cantor_psi):
    omega = PeriodicWord.parse("011")
    tau = Word.parse("01")
    with pytest.raises(SeparatorError):
        ratio_scaling_experiment(cantor, cantor_psi, omega, tau, 1,
                                 n_set=(3,), N_range=range(1, 4))


def test_probe_classifications(F_cantor):
    zero = derivative_limit_probe(F_cantor, 0.0, 1)
    assert zero.classification == "tends_to_zero"
    assert not zero.degenerate_hypothesis
    one = derivative_limit_probe(F_cantor, 1.0, 1)
    assert one.classification == "tends_to_infinity"
    deep = derivative_limit_probe(F_cantor, 0.0, 3)
    assert deep.classification == "tends_to_infinity"


def test_cohomology_diagnostic_once_per_distribution_function(
        lebesgue, uniform_psi, monkeypatch):
    calls = []
    diagnose = estimators.cohomology_diagnostic

    def counted(ifs, psi):
        calls.append((ifs, psi))
        return diagnose(ifs, psi)

    monkeypatch.setattr(estimators, "cohomology_diagnostic", counted)
    F = DistributionFunction(lebesgue, uniform_psi, deep_policy(lebesgue))
    assert calls == []  # nothing reads it yet
    probes = [derivative_limit_probe(F, x, 1) for x in (0.5, 0.25)]
    smooth = detrend_exponent_test(F, 0.5, 1.0)
    assert calls == [(lebesgue, uniform_psi)]
    assert all(p.degenerate_hypothesis for p in probes)
    assert not smooth.passed and smooth.hypothesis_violation


def test_probe_reads_its_cylinders_from_the_coding(moebius, moebius_psi,
                                                   monkeypatch):
    # the cylinder ends come from the matrices that located the coding,
    # with cylinder_interval's float operations: no word is recomposed
    F = DistributionFunction(moebius, moebius_psi, deep_policy(moebius))
    x = stream_point(moebius, PeriodicWord.parse("1").stream())
    calls = []
    compose = ifs_geometry.word_matrix
    monkeypatch.setattr(ifs_geometry, "word_matrix",
                        lambda *a: calls.append(a) or compose(*a))
    probe = derivative_limit_probe(F, x, 1, Scales(2.0, 1, 25))
    assert calls == []
    monkeypatch.undo()
    for rec in probe.records:
        word = Word(probe.omega_prefix.symbols[:rec.n])
        assert (rec.s, rec.t) == cylinder_interval(moebius, word)


def test_probe_keeps_the_width_floor(F_cantor, monkeypatch):
    monkeypatch.setattr(holder_lab, "WIDTH_FLOOR", 1e-3)
    with pytest.raises(PrecisionError, match="below floor"):
        derivative_limit_probe(F_cantor, 0.0, 1)


def test_probe_records_bracket_x(F_cantor):
    probe = derivative_limit_probe(F_cantor, 0.25, 1)
    for rec in probe.records:
        assert rec.s - 1e-9 <= probe.x <= rec.t + 1e-9
    r = [(rec.t - probe.x) / (rec.t - rec.s) for rec in probe.records]
    assert all(-1e-9 <= v <= 1 + 1e-9 for v in r)


def test_probe_flags_smooth_degenerate_case(F_lebesgue):
    probe = derivative_limit_probe(F_lebesgue, 0.5, 1)
    assert probe.classification == "finite_limit"
    assert probe.limit_value == pytest.approx(1.0, abs=1e-6)
    assert probe.degenerate_hypothesis


def test_probe_needs_its_tail_window(F_cantor):
    n = holder_lab.PROBE_MIN_DEPTHS
    with pytest.raises(ScaleError, match=f"fewer than {n}"):
        derivative_limit_probe(F_cantor, 0.0, 1, Scales(2.0, 1, n - 1))
    with pytest.raises(ScaleError):
        derivative_limit_probe(F_cantor, 0.0, 1, Scales(2.0, 5, n + 3))
    probe = derivative_limit_probe(F_cantor, 0.0, 1, Scales(2.0, 1, n))
    assert len(probe.records) == n


def test_detrend_needs_two_windows(F_lebesgue):
    with pytest.raises(ValueError, match="at least 2 windows"):
        detrend_exponent_test(F_lebesgue, 0.5, 1.0, windows=1)


def test_detrend_names_the_window_whose_samples_round_onto_t0(F_lebesgue):
    # at radius 2^-55 every sample 1/2 + h*u/12 rounds to 1/2 itself
    result = detrend_exponent_test(F_lebesgue, 0.5, 1.0, windows=54)
    assert result.window_radii[-1] == 2.0**-54
    with pytest.raises(ScaleError, match=r"^window 55: every sample at "
                                         r"radius 2\.77556e-17 rounds onto "
                                         r"t0 = 0\.5"):
        detrend_exponent_test(F_lebesgue, 0.5, 1.0, windows=55)


def test_secant_bases_that_underflow_raise_precision_error(F_cantor):
    # (y - x)**27 underflows to 0 on the depth-25 cylinders of 0.25, and
    # (1e-9)**41 at once; either would leave the quotient a division by 0
    with pytest.raises(PrecisionError, match=r"^depth 25: secant base .* "
                                             r"to the power k = 27 "
                                             r"underflows to 0"):
        derivative_limit_probe(F_cantor, 0.25, 27, Scales(2.0, 1, 25))
    with pytest.raises(PrecisionError, match="k = 41 underflows to 0"):
        secant_slope(F_cantor, 0.25 - 1e-9, 0.25, 0.25 + 1e-9, 41)


def test_detrend_stops_at_the_first_degree_no_window_fits(F_cantor):
    # the squares of (t - t0)**340 underflow at the widest window, so the
    # fit stops there instead of making 10**308 coefficient lists
    start = time.perf_counter()
    with pytest.raises(ScaleError, match=r"^window 1: .* at degree 340"):
        detrend_exponent_test(F_cantor, 0.3, 1e308)
    assert time.perf_counter() - start < 1.0


def test_probe_refuses_a_coding_without_a_repeated_period(F_cantor, cantor):
    # 25 letters of a period-14 coding show no period of at most 8 twice
    x = stream_point(cantor, PeriodicWord.parse("00110100101100").stream())
    with pytest.raises(ScaleError, match="no period up to 8"):
        derivative_limit_probe(F_cantor, x, 1)
    assert holder_lab._tail_period([0, 1] * 6 + [0]) == 2
    # a pre-period of up to half the coding is skipped
    assert holder_lab._tail_period([1, 1, 0, 1] + [0] * 4) == 1


@pytest.mark.xfail(strict=True, reason="FOUND: the last 12 of the 25 "
                   "letters of this period-13 coding repeat 0001, so the "
                   "probe strides by 4 and reads the wrong trend")
def test_probe_on_a_long_period_classifies_or_refuses(F_cantor, cantor,
                                                      cantor_psi):
    pw = PeriodicWord.parse("0001000100011")
    x = stream_point(cantor, pw.stream())
    phi = Potential.geometric(cantor)
    trend = (cantor_psi.block_sum(pw) - phi.block_sum(pw)) / 13
    assert trend > 0.05
    try:
        probe = derivative_limit_probe(F_cantor, x, 1)
    except ScaleError:
        return
    assert probe.classification == "tends_to_infinity"


def test_probe_rejects_gap_points(F_cantor):
    with pytest.raises(DomainError):
        derivative_limit_probe(F_cantor, 0.5, 1)
    with pytest.raises(DomainError, match="outside the certified interval"):
        derivative_limit_probe(F_cantor, 1.5, 1)


def test_lab_refuses_blocks_of_one_letter_and_one_n(cantor, cantor_psi):
    omega = PeriodicWord.parse("0")
    with pytest.raises(ValueError, match="two distinct letters"):
        find_separator(cantor, omega, 2, Word.parse("00"))
    with pytest.raises(ValueError, match="two N values"):
        ratio_scaling_experiment(cantor, cantor_psi, omega, Word.parse("01"),
                                 1, n_set=(2, 3), N_range=(1,))


def test_detrend_passes_on_singular_measure(F_cantor):
    result = detrend_exponent_test(F_cantor, 0.0)
    assert not result.skipped
    assert result.passed
    assert not result.hypothesis_violation
    a1 = [abs(a) for a in result.coefficients[0]]
    assert all(b < a for a, b in zip(a1, a1[1:]))
    # affine self-similarity contracts the slope by exactly 3/4 per window
    for a, b in zip(a1, a1[1:]):
        assert b / a == pytest.approx(0.75, abs=1e-6)
    assert result.residual_exponent == pytest.approx(result.alpha_hat,
                                                     abs=0.05)


def test_detrend_estimates_the_exponent_once(F_cantor, monkeypatch):
    # with alpha_hat unset, the estimate that gives alpha_hat is also
    # the residual exponent the verdict compares it with
    calls = []
    estimate = holder_lab.holder_exponent_estimate
    monkeypatch.setattr(holder_lab, "holder_exponent_estimate",
                        lambda *a: calls.append(a) or estimate(*a))
    result = detrend_exponent_test(F_cantor, 0.0)
    assert not result.skipped
    assert len(calls) == 1
    assert result.residual_exponent == result.alpha_hat


def test_detrend_fails_on_smooth_staircase(F_lebesgue):
    result = detrend_exponent_test(F_lebesgue, 0.5, 1.0)
    assert not result.skipped
    assert not result.passed
    assert result.hypothesis_violation
    assert result.coefficients[0][-1] == pytest.approx(1.0, abs=1e-9)


def test_detrend_skips_small_exponents(F_cantor):
    result = detrend_exponent_test(F_cantor, 1.0, 0.2618595071429148)
    assert result.skipped
    assert result.passed
    assert not result.hypothesis_violation
