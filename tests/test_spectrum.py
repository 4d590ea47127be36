import math
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfgibbs import spectrum
from mfgibbs.cli import main
from mfgibbs.spectrum import (LevelSums, beta_grid, beta_of_q, endpoints,
                              legendre, spectrum_curve, spectrum_predictions)
from mfgibbs.thermodynamics import Potential, normalize, periodic_sums
from strategies import GEOMETRIC_LEVEL, potentials, systems

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LOG3 = math.log(3.0)


def closed_form_beta(q: float, p=(0.25, 0.75)) -> float:
    return math.log(sum(v ** q for v in p)) / LOG3


def closed_form_alpha(q: float, p=(0.25, 0.75)) -> float:
    """-beta'(q) for a Bernoulli measure on the middle-thirds Cantor set."""
    return -sum(v ** q * math.log(v) for v in p) / (
        sum(v ** q for v in p) * LOG3)


def test_beta_matches_closed_form(cantor, cantor_psi):
    for q in range(-5, 6):
        # Newton reaches the root of the convex pressure from any start
        for start in (0.0, -1e6, 1e6):
            got = beta_of_q(cantor, cantor_psi, float(q), start=start)
            assert got == pytest.approx(closed_form_beta(q), abs=1e-11)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_beta_at_zero_is_the_moran_dimension(data):
    # beta(0) is the root s of sum r_i^s = 1 on any affine system
    ifs = data.draw(systems(moebius=False))
    psi = data.draw(potentials(ifs, kinds=("bernoulli",)))
    ratios = [mpmath.mpf(mp.r_min) for mp in ifs.maps]
    with mpmath.workdps(40):
        dim = float(mpmath.findroot(
            lambda s: mpmath.fsum(r**s for r in ratios) - 1, (0.01, 1.0),
            solver="anderson"))
    assert abs(beta_of_q(ifs, psi, 0.0) - dim) <= 1e-14
    assert abs(beta_of_q(ifs, psi, 1.0)) <= 1e-14


def test_beta_normalization_identities(cantor, cantor_psi):
    assert beta_of_q(cantor, cantor_psi, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert beta_of_q(cantor, cantor_psi, 0.0) == pytest.approx(
        math.log(2) / LOG3, abs=1e-12)


def test_endpoints_single_letter_extremes(cantor, cantor_psi):
    lo, hi = endpoints(cantor, cantor_psi)
    assert lo == pytest.approx(math.log(4 / 3) / LOG3, abs=1e-12)
    assert hi == pytest.approx(math.log(4) / LOG3, abs=1e-12)


def test_endpoints_collapse_when_degenerate(cantor, uniform_psi):
    lo, hi = endpoints(cantor, uniform_psi)
    assert lo == pytest.approx(hi, abs=1e-10)


def test_curve_shape(cantor_curve):
    assert len(cantor_curve.qs) == 201
    assert not cantor_curve.degenerate
    betas = cantor_curve.betas
    second = betas[:-2] - 2 * betas[1:-1] + betas[2:]
    assert second.min() >= -1e-9  # convex in q
    alphas = cantor_curve.alphas
    assert (np.diff(alphas) <= 1e-12).all()  # alpha decreasing in q
    assert alphas.min() >= cantor_curve.alpha_minus - 1e-6
    assert alphas.max() <= cantor_curve.alpha_plus + 1e-6


@pytest.mark.parametrize("grid,match", [
    ({"q_steps": 2}, "at least 3 grid points"),
    ({"q_min": 1.0, "q_max": 1.0}, "empty q range"),
])
def test_curve_refuses_a_grid_without_points(cantor, cantor_psi, grid,
                                             match):
    with pytest.raises(ValueError, match=match):
        spectrum_curve(cantor, cantor_psi, **grid)


def test_legendre_duality(cantor_curve):
    worst = 0.0
    for alpha, beta_star in zip(cantor_curve.alphas[1:-1],
                                cantor_curve.beta_stars[1:-1]):
        dual = legendre(cantor_curve, alpha)
        worst = max(worst, abs(dual.value - beta_star))
    assert worst < 1e-6


def test_curve_columns_are_built_once(cantor_curve):
    # legendre reads qs and betas at every alpha of a predict-packing
    # grid, so the curve holds them as arrays that no caller may change
    for column in ("qs", "betas", "alphas", "beta_stars"):
        arr = getattr(cantor_curve, column)
        assert isinstance(arr, np.ndarray) and arr.shape == (201,)
        assert not arr.flags.writeable
    assert cantor_curve.qs.tolist() == np.linspace(-10.0, 10.0, 201).tolist()
    assert (cantor_curve.beta_stars == cantor_curve.betas
            + cantor_curve.qs * cantor_curve.alphas).all()


def test_legendre_at_dimension_peak(cantor_curve):
    peak = legendre(cantor_curve, cantor_curve.alpha_zero)
    assert peak.interior
    assert peak.value == pytest.approx(math.log(2) / LOG3, abs=1e-6)


def test_legendre_edge_flag(cantor_curve):
    edge = legendre(cantor_curve, cantor_curve.alpha_plus)
    assert not edge.interior
    assert edge.value == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("p", [(0.25, 0.75), (0.5, 0.5)],
                         ids=["cantor_14_34", "uniform_cantor"])
def test_alpha_and_beta_star_match_closed_form(cantor, p):
    curve = spectrum_curve(cantor, Potential.from_probabilities(p))
    assert curve.degenerate == (p[0] == p[1])
    for q, beta, alpha, beta_star in zip(curve.qs, curve.betas, curve.alphas,
                                         curve.beta_stars):
        exact = closed_form_alpha(q, p)
        assert beta == pytest.approx(closed_form_beta(q, p), abs=1e-12)
        assert alpha == pytest.approx(exact, abs=1e-12)
        assert beta_star == pytest.approx(
            closed_form_beta(q, p) + q * exact, abs=1e-12)


def test_beta_at_large_q_allows_for_the_rounding_of_its_terms(cantor,
                                                              cantor_psi):
    # at |q| of 1e8 the pressure's terms q*S psi carry rounding far past
    # 1e-10; closed form as log(p0**q + p1**q)/log 3 without overflow
    qs = np.linspace(-1e8, 1e8, 402)
    _, betas, _ = beta_grid(cantor, cantor_psi, qs)
    for q, beta in zip(qs.tolist(), betas.tolist()):
        a, b = sorted((q * math.log(0.25), q * math.log(0.75)))
        exact = (b + math.log1p(math.exp(a - b))) / LOG3
        assert beta == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_dimension_and_alpha_zero_off_the_grid(cantor, cantor_psi):
    # 100 steps on [-5, 5] miss q = 0 by 0.05
    curve = spectrum_curve(cantor, cantor_psi, q_min=-5.0, q_max=5.0,
                           q_steps=100)
    assert 0.0 not in curve.qs
    assert curve.dimension == pytest.approx(closed_form_beta(0.0), abs=1e-12)
    assert curve.alpha_zero == pytest.approx(closed_form_alpha(0.0),
                                             abs=1e-12)


def test_degenerate_curve_short_circuits(cantor, uniform_psi):
    curve = spectrum_curve(cantor, uniform_psi)
    assert curve.degenerate
    s = math.log(2) / LOG3
    assert curve.alpha_zero == pytest.approx(s, abs=1e-9)
    for q, beta, alpha, beta_star in zip(curve.qs[::50], curve.betas[::50],
                                         curve.alphas[::50],
                                         curve.beta_stars[::50]):
        assert beta == pytest.approx(s * (1 - q), abs=1e-9)
        assert alpha == pytest.approx(s, abs=1e-9)
        assert beta_star == pytest.approx(s, abs=1e-9)


def test_moebius_normalized_beta_one(moebius, moebius_psi):
    assert beta_of_q(moebius, moebius_psi, 1.0, k=10) == pytest.approx(
        0.0, abs=1e-6)


def test_predictions_plateau_and_support(cantor_curve):
    az = cantor_curve.alpha_zero
    grid = np.linspace(cantor_curve.alpha_minus - 0.1,
                       cantor_curve.alpha_plus + 0.1, 41)
    for alpha, haus, pack, empty in spectrum_predictions(cantor_curve, grid):
        if empty:
            assert math.isnan(haus) and math.isnan(pack)
            continue
        assert haus == legendre(cantor_curve, alpha).value
        if alpha <= az:
            # the plateau is beta*(alpha_0) = beta(0) itself
            assert pack == cantor_curve.dimension
            assert pack >= haus - 1e-9  # packing dominates on the left
        else:
            assert pack == haus


def test_one_legendre_step_per_alpha(monkeypatch, capsys):
    calls = []
    solve = spectrum.legendre

    def counted(curve, alpha):
        calls.append(alpha)
        return solve(curve, alpha)

    monkeypatch.setattr(spectrum, "legendre", counted)
    assert main(["predict-packing", "--config",
                 str(CONFIGS / "cantor_14_34.json")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # the default grid of 101 alphas, every one inside the support
    assert len(rows) == len(calls) == 101


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_warm_started_roots(data):
    ifs = data.draw(systems())
    psi = data.draw(potentials(ifs))
    qs = np.linspace(-6.0, 6.0, 25)
    qs, betas, alphas = beta_grid(ifs, psi, qs)
    sums = LevelSums.build(ifs, psi)
    for q, beta in zip(qs, betas):
        cold = beta_of_q(ifs, psi, q, sums=sums)
        assert beta == pytest.approx(cold, abs=1e-13)
    assert (np.diff(betas) < 0.0).all()
    assert (betas[:-2] - 2.0 * betas[1:-1] + betas[2:] >= -1e-12).all()
    lo, hi = endpoints(ifs, psi)
    assert ((lo - 1e-9 <= alphas) & (alphas <= hi + 1e-9)).all()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_beta_of_one_vanishes_at_the_normalization_level(data):
    # a range-1 potential has its exact pressure at every level; the
    # geometric ones on Moebius systems were normalized at GEOMETRIC_LEVEL
    ifs = data.draw(systems())
    psi = data.draw(potentials(ifs, kinds=("bernoulli", "geometric")))
    assert abs(beta_of_q(ifs, psi, 1.0, k=GEOMETRIC_LEVEL)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="a depth-2 potential is normalized "
                   "by its transfer-matrix pressure, which no periodic "
                   "level reproduces, so beta(1) is off at the level beta "
                   "solves at")
def test_beta_of_one_vanishes_for_a_normalized_finite_range_potential(
        cantor):
    psi = normalize(cantor, Potential.finite_range(2, 2, (0.0, 1.0, 1.0, 0.0)))
    assert abs(beta_of_q(cantor, psi, 1.0)) <= 1e-12


def test_newton_steps_per_warm_root(moebius, monkeypatch):
    psi = normalize(moebius, Potential.geometric(moebius), k_max=15)
    evaluations = []
    averages = LevelSums.gibbs_averages
    solve = spectrum.beta_of_q

    def counted_averages(self, beta, q):
        evaluations[-1] += 1
        return averages(self, beta, q)

    def counted_solve(*args, **kwargs):
        evaluations.append(0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(LevelSums, "gibbs_averages", counted_averages)
    monkeypatch.setattr(spectrum, "beta_of_q", counted_solve)
    qs, _, _ = beta_grid(moebius, psi, np.linspace(-5.0, 5.0, 101), k=15)
    # beyond one evaluation per step, the grid reads alpha at each root
    steps = [n - 1 for n in evaluations]
    assert len(steps) == len(qs) == 101
    assert max(steps) <= 8


def word_sums(ifs, psi, k):
    """S_k phi and S_k psi of every length-k word, one entry per word."""
    geometric = periodic_sums(ifs, Potential.geometric(ifs), k)
    return geometric, periodic_sums(ifs, psi, k)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_grouped_sums_match_the_per_word_evaluation(data):
    ifs = data.draw(systems())
    psi = data.draw(potentials(ifs))
    k = data.draw(st.sampled_from([1, 2, 4, 7]))
    beta = data.draw(st.floats(-5.0, 5.0))
    q = data.draw(st.floats(-5.0, 5.0))
    sums = LevelSums.build(ifs, psi, k)
    assert sums.counts.sum() == ifs.alphabet_size ** k
    g, p = word_sums(ifs, psi, k)
    z = beta * g + q * p
    zmax = float(np.max(z))
    e = np.exp(z - zmax)
    total = float(e.sum())
    plain = ((zmax + math.log(total)) / k,
             float((e * g).sum()) / total / k,
             float((e * p).sum()) / total / k)
    got = sums.gibbs_averages(beta, q)
    for a, b in zip(got, plain):
        assert a == pytest.approx(b, rel=1e-13, abs=1e-13)
    if sums.counts.max() == 1:
        assert got == plain


def test_moebius_level_groups_its_words(moebius, moebius_psi):
    # the words of one cycle share their sums, mostly to the last bit
    sums = LevelSums.build(moebius, moebius_psi, 15)
    assert sums.counts.sum() == 2 ** 15
    assert sums.counts.size <= 2 ** 15 // 10


def mp_root(g, p, q):
    """The root in beta of sum exp(beta*g + q*p) = 1 over the given
    float sums, by Newton's method at 40 digits, and each float pair
    counted as often as words carry it."""
    with mpmath.workdps(40):
        pairs = Counter(zip(g.tolist(), p.tolist()))
        terms = [(mpmath.mpf(a), mpmath.mpf(q) * b, n)
                 for (a, b), n in pairs.items()]
        beta = mpmath.mpf(0)
        for _ in range(100):
            w = [n * mpmath.exp(beta * a + b) for a, b, n in terms]
            total = mpmath.fsum(w)
            step = mpmath.log(total) * total / mpmath.fsum(
                x * a for x, (a, _, _) in zip(w, terms))
            beta -= step
            if abs(step) < mpmath.mpf(10) ** -35:
                return beta
    raise AssertionError("the mpmath Newton iteration did not settle")


@pytest.mark.parametrize("k", [10, 15])
def test_moebius_beta_matches_the_mpmath_root(moebius, k):
    psi = normalize(moebius, Potential.geometric(moebius), k_max=k)
    g, p = word_sums(moebius, psi, k)
    qs = [-5.0, 0.0, 1.0, 5.0]
    for q, beta in zip(*beta_grid(moebius, psi, qs, k=k)[:2]):
        exact = mp_root(g, p, q)
        assert abs(beta - exact) <= 1e-15 * max(1.0, abs(beta))
