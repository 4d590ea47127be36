import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfgibbs import spectrum, thermodynamics
from mfgibbs.cli import main
from mfgibbs.errors import NormalizationError
from mfgibbs.ifs_geometry import (AffineMap, IfsSystem, MoebiusMap,
                                  word_matrix)
from mfgibbs.spectrum import LevelSums
from mfgibbs.symbolic import PeriodicWord, Word, enumerate_words, ergodic_sum
from mfgibbs.thermodynamics import (Potential, cohomology_diagnostic,
                                    effective_range, gibbs_cylinder_weights,
                                    normalize, periodic_sums, pressure,
                                    pressure_at_level, range_table)
from strategies import systems

LOG3 = math.log(3.0)


def test_block_sums_on_the_01_cycle(cantor, cantor_psi):
    pw = PeriodicWord.parse("01")
    assert cantor_psi.block_sum(pw) == pytest.approx(
        math.log(3 / 16), abs=1e-15)
    geo = Potential.geometric(cantor)
    assert geo.block_sum(pw) == pytest.approx(-2 * LOG3, abs=1e-13)


def test_moebius_geometric_value(moebius):
    geo = Potential.geometric(moebius)
    v = geo.value_at(PeriodicWord.parse("0").stream())
    assert v == pytest.approx(math.log(0.5), abs=1e-12)


def test_moebius_chain_rule_consistency(moebius):
    geo = Potential.geometric(moebius)
    for text in ("01", "011", "0010"):
        pw = PeriodicWord.parse(text)
        ell = pw.period_length
        # orbit sum of pointwise values against the block-matrix formula
        orbit = math.fsum(geo.value_at(pw.stream().shift(j))
                          for j in range(ell))
        assert geo.block_sum(pw) == pytest.approx(orbit, abs=1e-10)
        assert ergodic_sum(geo, pw, ell) == pytest.approx(
            geo.block_sum(pw), abs=1e-10)


def test_effective_range(cantor, moebius, cantor_psi):
    assert effective_range(cantor, cantor_psi) == 1
    assert effective_range(cantor, Potential.geometric(cantor)) == 1
    fr = Potential.finite_range(2, 2, (0.0, 1.0, 2.0, 3.0))
    assert effective_range(cantor, fr) == 2
    assert effective_range(moebius, Potential.geometric(moebius)) is None
    combo = dataclasses.replace(cantor_psi, geom=1.0, shift=0.1,
                                system=cantor)
    assert effective_range(cantor, combo) == 1


def test_range_table_matches_log_weights(cantor, cantor_psi):
    table = range_table(cantor, cantor_psi, 1)
    assert np.allclose(table, cantor_psi.table, atol=0)


def test_periodic_sums_exact_level_two(cantor, cantor_psi):
    sums = periodic_sums(cantor, cantor_psi, 2)
    lw = cantor_psi.table
    expected = [2 * lw[0], lw[0] + lw[1], lw[1] + lw[0], 2 * lw[1]]
    assert np.allclose(sums, expected, atol=1e-15)


def test_probability_weights_have_zero_pressure(cantor, cantor_psi):
    result = pressure(cantor, cantor_psi)
    assert result.value == pytest.approx(0.0, abs=1e-14)
    assert result.error_bound == 0.0


def test_unnormalized_bernoulli_pressure(cantor):
    psi = Potential.bernoulli((math.log(0.3), math.log(0.5)))
    result = pressure(cantor, psi)
    assert result.value == pytest.approx(math.log(0.8), abs=1e-14)
    assert result.error_bound == 0.0


def test_finite_range_transfer_matrix(cantor):
    # reads two symbols but depends only on the first: same pressure
    tab = (math.log(0.25), math.log(0.25), math.log(0.75), math.log(0.75))
    fr = Potential.finite_range(2, 2, tab)
    result = pressure(cantor, fr)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    assert result.error_bound == 0.0


def test_moebius_pressure_levels_contract(moebius):
    result = pressure(moebius, Potential.geometric(moebius), k_max=10)
    diffs = [abs(b - a) for a, b in zip(result.levels, result.levels[1:])]
    for earlier, later in zip(diffs[1:], diffs[2:]):
        assert later < 0.6 * earlier
    assert result.error_bound > 0.0


def test_normalize_pins_the_level_pressure(moebius, moebius_psi):
    assert pressure_at_level(moebius, moebius_psi, 10) == pytest.approx(
        0.0, abs=1e-14)


def test_normalize_exact_shift(cantor):
    psi = Potential.bernoulli((math.log(0.3), math.log(0.5)))
    shifted = normalize(cantor, psi)
    assert shifted.shift == pytest.approx(-math.log(0.8), abs=1e-14)
    assert pressure(cantor, shifted).value == pytest.approx(0.0, abs=1e-14)


def test_gibbs_weights_uniform(cantor, uniform_psi):
    gw = gibbs_cylinder_weights(cantor, uniform_psi, 3)
    assert np.allclose(gw.weights, 0.125, atol=0)


def test_gibbs_weights_are_products(cantor, cantor_psi):
    gw = gibbs_cylinder_weights(cantor, cantor_psi, 2)
    assert np.allclose(gw.weights, [1 / 16, 3 / 16, 3 / 16, 9 / 16],
                       atol=1e-15)
    assert gw.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_gibbs_consistency_across_levels(cantor, cantor_psi):
    # a product measure splits each cylinder exactly among its children
    for n in (2, 3):
        gw = gibbs_cylinder_weights(cantor, cantor_psi, n)
        assert gw.gibbs_constant_estimate == pytest.approx(1.0, abs=1e-12)


def test_gibbs_requires_zero_pressure(cantor):
    psi = Potential.bernoulli((math.log(0.3), math.log(0.5)))
    with pytest.raises(NormalizationError):
        gibbs_cylinder_weights(cantor, psi, 2)


def test_degeneracy_detection(cantor, lebesgue, uniform_psi, cantor_psi):
    uni = cohomology_diagnostic(cantor, uniform_psi)
    assert uni.degenerate
    assert uni.ratio_min == pytest.approx(math.log(2) / LOG3, abs=1e-12)
    assert uni.ratio_max - uni.ratio_min < 1e-8
    leb = cohomology_diagnostic(lebesgue, uniform_psi)
    assert leb.degenerate
    assert not cohomology_diagnostic(cantor, cantor_psi).degenerate


def test_ratio_extremes_over_short_cycles(cantor, cantor_psi):
    geo = Potential.geometric(cantor)
    ratios = []
    for ell in range(1, 5):
        for w in enumerate_words(2, ell):
            pw = PeriodicWord(w)
            ratios.append(cantor_psi.block_sum(pw) / geo.block_sum(pw))
    diag = cohomology_diagnostic(cantor, cantor_psi, ell_max=4)
    assert diag.ratio_min == pytest.approx(min(ratios), abs=1e-12)
    assert diag.ratio_max == pytest.approx(max(ratios), abs=1e-12)


@pytest.mark.parametrize("depth", [2, 3])
def test_finite_range_periodic_sums_match_block_sums(cantor, depth):
    table = [math.sin(1.0 + i) for i in range(2**depth)]
    psi = Potential.finite_range(depth, 2, table)
    for k in (1, 2, 5):
        sums = periodic_sums(cantor, psi, k)
        for idx, w in enumerate(enumerate_words(2, k)):
            assert sums[idx] == pytest.approx(
                psi.block_sum(PeriodicWord(w)), abs=1e-13)


def test_potential_parts_add_up(moebius):
    # geom*phi + table + shift, term by term, along a periodic orbit
    lw = (math.log(0.3), math.log(0.7))
    psi = Potential(geom=0.5, depth=1, table=lw, shift=0.25, system=moebius)
    geo = Potential.geometric(moebius)
    pw = PeriodicWord.parse("0110")
    expected = (0.5 * geo.block_sum(pw) + 2 * lw[0] + 2 * lw[1] + 4 * 0.25)
    assert psi.block_sum(pw) == pytest.approx(expected, abs=1e-13)
    assert ergodic_sum(psi, pw.stream(), 4) == pytest.approx(expected,
                                                              abs=1e-10)
    level = periodic_sums(moebius, psi, 4)
    assert level[0b0110] == pytest.approx(expected, abs=1e-12)


def test_potential_validation(cantor, moebius):
    with pytest.raises(ValueError):
        Potential.bernoulli((0.0,))
    with pytest.raises(ValueError):
        Potential.from_probabilities((0.5, 0.0))
    with pytest.raises(ValueError):
        Potential.finite_range(2, 2, (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Potential(geom=1.0)
    with pytest.raises(ValueError, match="different system"):
        periodic_sums(moebius, Potential.geometric(cantor), 2)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_moebius_periodic_sums_chunks_threads_and_block_sums(data):
    ifs = data.draw(systems(moebius=True))
    m = ifs.alphabet_size
    k = data.draw(st.integers(1, 7 if m == 2 else 5))
    total = m**k
    depth = data.draw(st.integers(0, 2))
    psi = Potential(geom=data.draw(st.floats(0.5, 2.0)), depth=depth,
                    table=[data.draw(st.floats(-2.0, 2.0))
                           for _ in range(m**depth if depth else 0)],
                    shift=data.draw(st.floats(-2.0, 2.0)), system=ifs)
    whole = thermodynamics._sums_chunk(ifs, psi, k, 0, total)
    lo = data.draw(st.integers(0, total - 1))
    hi = data.draw(st.integers(lo + 1, total))
    assert np.array_equal(thermodynamics._sums_chunk(ifs, psi, k, lo, hi),
                          whole[lo:hi])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermodynamics, "_CHUNK", data.draw(st.integers(1, total)))
        # one worker maps the chunks in turn, four map them over a pool
        for workers in (1, 4):
            mp.setattr(thermodynamics, "_WORKERS", workers)
            phi = periodic_sums(ifs, Potential.geometric(ifs), k)
            assert np.array_equal(periodic_sums(ifs, psi, k), whole)
            assert np.array_equal(periodic_sums(ifs, psi, k, geometric=phi),
                                  whole)
    # the prefix tree forms each word's products in word_matrix's order
    words = list(enumerate_words(m, k))
    coeffs, logdet = zip(*(word_matrix(ifs, w) for w in words))
    a, b, c, d = np.array(coeffs).T
    x = thermodynamics._fixed_points_vec(a, b, c, d, ifs.domain)
    assert np.array_equal(phi, np.array(logdet)
                          - 2.0 * np.log(np.abs(c * x + d)))
    for idx, w in enumerate(words):
        assert whole[idx] == pytest.approx(psi.block_sum(PeriodicWord(w)),
                                           rel=1e-12, abs=1e-12)


def test_mixed_system_geometric_sums_match_block_sums():
    # an affine letter has log_det != 0, so the prefix tree must scale
    # it to determinant one before composing it with a Moebius letter
    dom = (0.0, 1.0)
    ifs = IfsSystem(dom, (AffineMap(1 / 3, 0.0, dom),
                          MoebiusMap(2.0, 2.0, 1.0, 3.0, dom)))
    phi = Potential.geometric(ifs)
    for k in (1, 3, 6):
        expected = [phi.block_sum(PeriodicWord(w))
                    for w in enumerate_words(2, k)]
        assert np.max(np.abs(periodic_sums(ifs, phi, k) - expected)) <= 1e-12


@pytest.fixture
def compositions(monkeypatch):
    """Levels at which the Moebius word matrices get composed."""
    levels = []
    compose = thermodynamics._geometric_chunk

    def counted(ifs, k, lo, hi):
        levels.append(k)
        return compose(ifs, k, lo, hi)

    monkeypatch.setattr(thermodynamics, "_geometric_chunk", counted)
    return levels


def test_level_sums_and_diagnostic_compose_phi_once(moebius, moebius_psi,
                                                    compositions):
    LevelSums.build(moebius, moebius_psi, 6)
    assert compositions == [6]
    compositions.clear()
    cohomology_diagnostic(moebius, moebius_psi, ell_max=5)
    assert compositions == [1, 2, 3, 4, 5]


def test_beta_command_builds_one_level(monkeypatch, capsys, compositions):
    builds = []
    build = LevelSums.build.__func__

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(spectrum.LevelSums, "build", classmethod(counted))
    config = (Path(__file__).resolve().parent.parent / "configs" /
              "moebius_pair.json")
    code = main(["beta", "--config", str(config), "--q-steps", "21",
                 "--depth", "8", "--threads", "1"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 22
    assert len(builds) == 1
    # normalizing the potential composes level 8 once, the shared build once
    assert compositions == [8, 8]
