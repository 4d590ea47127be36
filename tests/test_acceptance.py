"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line and enforces
the stated tolerance and runtime budget.
"""

import math
import random
import time
from pathlib import Path

import pytest

from mfgibbs import thermodynamics
from mfgibbs.cli import main as cli_main
from mfgibbs.errors import ToolkitError
from mfgibbs.estimators import (DistributionFunction, Scales, coarse_spectrum,
                                deep_policy, exact_exponent_at_coded_point,
                                holder_exponent_estimate)
from mfgibbs.holder_lab import (derivative_limit_probe, detrend_exponent_test,
                                ratio_scaling_experiment, secant_slope)
from mfgibbs.ifs_geometry import stream_point
from mfgibbs.spectrum import (beta_grid, beta_of_q, endpoints, legendre,
                              spectrum_curve)
from mfgibbs.symbolic import PeriodicWord, Word
from mfgibbs.thermodynamics import (Potential, cohomology_diagnostic,
                                    pressure)

ROOT = Path(__file__).resolve().parent.parent
LOG3 = math.log(3.0)

BATTERY = ("0", "1", "01", "10", "001", "010", "100", "011", "110", "101",
           "0111", "1110", "1101", "1011", "00111", "01110", "11100",
           "11001", "10011", "01111")


class _Criterion:
    def __init__(self, number: int):
        self.number = number

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {verdict}")
        return False


def test_criterion_01_closed_form_beta(cantor, cantor_psi):
    with _Criterion(1) as c:
        for q in range(-5, 6):
            expected = math.log(0.25 ** q + 0.75 ** q) / LOG3
            assert beta_of_q(cantor, cantor_psi, float(q)) == pytest.approx(
                expected, abs=1e-9)
        assert c.elapsed < 2.0


def test_criterion_02_normalization_identities(cantor, cantor_psi):
    with _Criterion(2):
        assert abs(beta_of_q(cantor, cantor_psi, 1.0)) < 1e-10
        assert beta_of_q(cantor, cantor_psi, 0.0) == pytest.approx(
            math.log(2) / LOG3, abs=1e-9)


def test_criterion_03_endpoints(cantor, cantor_psi):
    with _Criterion(3):
        lo, hi = endpoints(cantor, cantor_psi, ell_max=6)
        assert lo == pytest.approx(math.log(4 / 3) / LOG3, abs=1e-12)
        assert hi == pytest.approx(math.log(4) / LOG3, abs=1e-12)


def test_criterion_04_legendre_duality(cantor_curve):
    with _Criterion(4):
        worst = 0.0
        for q, beta, alpha in zip(cantor_curve.qs[1:-1],
                                  cantor_curve.betas[1:-1],
                                  cantor_curve.alphas[1:-1]):
            dual = legendre(cantor_curve, alpha).value
            worst = max(worst, abs(dual - (beta + q * alpha)))
        assert worst < 1e-6


def test_criterion_05_moebius_pressure(moebius, moebius_psi):
    with _Criterion(5) as c:
        result = pressure(moebius, Potential.geometric(moebius), k_max=10)
        levels = result.levels
        assert len(levels) == 10
        diffs = [abs(b - a) for a, b in zip(levels[1:], levels[2:])]
        # |P_k - P_{k-1}| for k = 3..10 shrinks geometrically
        for earlier, later in zip(diffs, diffs[1:]):
            assert later <= 0.75 * earlier
        assert beta_of_q(moebius, moebius_psi, 1.0, k=10) == pytest.approx(
            0.0, abs=1e-6)
        assert c.elapsed < 30.0


def test_criterion_06_distribution_oracles(F_uniform, F_lebesgue):
    with _Criterion(6):
        v = F_uniform.cdf(1 / 3)
        assert v.value == 0.5 and v.error_bound == 0.0
        rng = random.Random(101)
        for _ in range(100):
            x = rng.random()
            assert abs(F_lebesgue.cdf(x).value - x) <= 1e-8
        xs = sorted(rng.random() for _ in range(10_000))
        vals = [F_lebesgue.cdf(x).value for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_criterion_07_secant_identity(F_cantor, F_uniform, F_lebesgue):
    with _Criterion(7):
        rng = random.Random(73)
        for F in (F_cantor, F_uniform, F_lebesgue):
            for _ in range(1000):
                s = rng.uniform(0.0, 0.3)
                t = rng.uniform(0.7, 1.0)
                x = rng.uniform(s + 0.05, t - 0.05)
                k = rng.choice((1, 3, 5, 7))
                res = secant_slope(F, s, x, t, k)
                assert res.decomposition_check < 1e-12


def test_criterion_08_scaling_law(cantor, cantor_psi):
    with _Criterion(8) as c:
        ex = ratio_scaling_experiment(cantor, cantor_psi,
                                      PeriodicWord.parse("0"),
                                      Word.parse("01"), 1,
                                      n_set=(2, 3, 4, 5),
                                      N_range=range(1, 7))
        target_slope = math.log(27 / 16)
        assert abs(ex.slope_log_slope - target_slope) <= 0.1 * target_slope
        target_r = 2 * LOG3  # = |S_2 phi| on the 01 cycle
        assert abs(ex.slope_log_r - target_r) <= 0.1 * target_r
        assert max(ex.residual_spread_by_N) < 0.5
        assert c.elapsed < 10.0


def test_criterion_09_holder_exponents(F_cantor, F_lebesgue):
    with _Criterion(9):
        left = holder_exponent_estimate(F_cantor, 0.0, Scales(3.0, 1, 20))
        right = holder_exponent_estimate(F_cantor, 1.0, Scales(3.0, 1, 20))
        assert left.exponent == pytest.approx(1.261860, abs=0.05)
        assert right.exponent == pytest.approx(0.261860, abs=0.05)
        rng = random.Random(29)
        scales = Scales(2.0, 2, 20)
        for _ in range(10):
            t0 = rng.uniform(0.26, 0.74)
            est = holder_exponent_estimate(F_lebesgue, t0, scales)
            assert est.exponent == pytest.approx(1.0, abs=0.02)


def test_criterion_10_coarse_spectrum(F_cantor, cantor_curve):
    with _Criterion(10) as c:
        result = coarse_spectrum(F_cantor, [3.0 ** -12])[0]
        alpha_zero = cantor_curve.alpha_zero
        checked = 0
        saw_peak_bin = False
        for b in result.bins:
            if b.count < 5:
                continue
            pred = legendre(cantor_curve, b.alpha_center)
            if not pred.interior:
                continue
            assert abs(b.f_alpha - pred.value) < 0.1
            checked += 1
            if abs(b.alpha_center - alpha_zero) <= result.bin_width / 2:
                saw_peak_bin = True
        assert checked >= 5
        assert saw_peak_bin
        assert c.elapsed < 60.0


def test_criterion_11_degeneracy_detection(cantor, lebesgue, uniform_psi,
                                           cantor_psi):
    with _Criterion(11):
        uni = cohomology_diagnostic(cantor, uniform_psi)
        assert uni.degenerate
        assert uni.ratio_max - uni.ratio_min < 1e-8
        assert cohomology_diagnostic(lebesgue, uniform_psi).degenerate
        assert not cohomology_diagnostic(cantor, cantor_psi).degenerate


def test_criterion_12_detrend(F_cantor, F_lebesgue):
    with _Criterion(12):
        alpha_hat = holder_exponent_estimate(F_cantor, 0.0).exponent
        result = detrend_exponent_test(F_cantor, 0.0, alpha_hat)
        a1 = [abs(a) for a in result.coefficients[0]]
        assert len(a1) == 8
        assert all(b < a for a, b in zip(a1, a1[1:]))
        assert result.passed
        assert result.residual_exponent == pytest.approx(alpha_hat, abs=0.05)
        smooth = detrend_exponent_test(F_lebesgue, 0.5, 1.0)
        assert not smooth.passed
        assert smooth.hypothesis_violation


def test_criterion_13_derivative_limit_probe(cantor, F_cantor, F_lebesgue):
    with _Criterion(13):
        for text in BATTERY:
            x = stream_point(cantor, PeriodicWord.parse(text).stream())
            for k in (1, 3):
                probe = derivative_limit_probe(F_cantor, x, k)
                assert probe.classification != "finite_limit"
        smooth = derivative_limit_probe(F_lebesgue, 0.5, 1)
        assert smooth.classification == "finite_limit"
        assert smooth.limit_value == pytest.approx(1.0, abs=1e-6)
        assert smooth.degenerate_hypothesis


def test_criterion_14_csv_determinism(tmp_path, capsys, monkeypatch):
    with _Criterion(14):
        config = str(ROOT / "configs" / "cantor_14_34.json")
        # the level of 4,096 words runs as 16 chunks of 256, then as one
        chunked = tmp_path / "chunk256.csv"
        whole = tmp_path / "default.csv"
        for out, chunk in ((chunked, 256), (whole, thermodynamics._CHUNK)):
            monkeypatch.setattr(thermodynamics, "_CHUNK", chunk)
            code = cli_main(["spectrum", "--config", config, "--depth", "12",
                             "--out", str(out)])
            assert code == 0
        capsys.readouterr()
        assert chunked.read_bytes() == whole.read_bytes()
        assert len(chunked.read_bytes()) > 0


def test_criterion_15_holder_exponent_at_mu_q_typical_points(
        cantor, cantor_psi, F_cantor):
    # the multifractal formalism pointwise: where the letter 1 has the
    # frequency w_1 of the equilibrium state mu_q, F has exponent alpha(q)
    with _Criterion(15):
        qs = [-1.0, 0.0, 0.5, 1.0, 2.0]
        _, betas, alphas = beta_grid(cantor, cantor_psi, qs)
        for q, beta, alpha in zip(qs, betas.tolist(), alphas.tolist()):
            w1 = 0.75 ** q * (1 / 3) ** beta
            n1 = round(8 * w1)
            # the Christoffel word of length 8 with n1 letters 1
            word = PeriodicWord(Word(tuple(
                (i + 1) * n1 // 8 - i * n1 // 8 for i in range(8))))
            x = stream_point(cantor, word.stream())
            h = holder_exponent_estimate(F_cantor, x,
                                         Scales(3.0, 1, 20)).exponent
            exact = exact_exponent_at_coded_point(cantor, cantor_psi, word)
            assert abs(h - exact) <= 0.01
            # the exponent moves one for one with the frequency of 1
            assert abs(h - alpha) <= abs(n1 / 8 - w1) + 0.01
