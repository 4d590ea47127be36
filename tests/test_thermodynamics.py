import dataclasses
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfgibbs import spectrum, thermodynamics
from mfgibbs.cli import main
from mfgibbs.errors import CapacityError, NormalizationError
from mfgibbs.ifs_geometry import (AffineMap, IfsSystem, MoebiusMap,
                                  word_matrix)
from mfgibbs.spectrum import LevelSums
from mfgibbs.symbolic import (ENUMERATION_CAP, PeriodicWord, Word,
                              enumerate_words)
from mfgibbs.thermodynamics import (Potential, cohomology_diagnostic,
                                    effective_range, normalize,
                                    periodic_sums, pressure,
                                    pressure_at_level, range_table,
                                    require_normalized)
from periodic_weights import periodic_weights
from strategies import systems

LOG3 = math.log(3.0)
MOEBIUS_PAIR = (Path(__file__).resolve().parent.parent / "configs" /
                "moebius_pair.json")


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
        ell = len(pw.period)
        # orbit sum of pointwise values against the block-matrix formula
        orbit = math.fsum(geo.value_at(pw.stream().shift(j))
                          for j in range(ell))
        assert geo.block_sum(pw) == pytest.approx(orbit, abs=1e-10)


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
    # the log-sum-exp rounds, and its bound holds the true 0
    result = pressure(cantor, cantor_psi)
    assert abs(result.value) <= result.error_bound < 1e-14


def test_unnormalized_bernoulli_pressure(cantor):
    psi = Potential.bernoulli((math.log(0.3), math.log(0.5)))
    result = pressure(cantor, psi)
    assert result.value == pytest.approx(math.log(0.8), abs=1e-14)
    assert 0.0 < result.error_bound < 1e-14


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_form_pressure_bound_holds_the_log_sum_exp(data):
    # the truth is the log-sum-exp of the same float table in 60 digits
    m = data.draw(st.integers(2, 64))
    ifs = IfsSystem.affine((0.0, 1.0), [(1 / (m + 1), k / m) for k in range(m)])
    values = st.floats(-1e3, 1e3) | st.floats(-1.0, 1.0)
    psi = Potential(geom=data.draw(values), depth=1,
                    table=[data.draw(values) for _ in range(m)],
                    shift=data.draw(values), system=ifs)
    table = range_table(ifs, psi, 1)
    result = pressure(ifs, psi)
    with mpmath.workdps(60):
        truth = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(t)))
                                       for t in table))
        assert abs(result.value - truth) <= result.error_bound < 1e-11


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


@pytest.mark.parametrize("make", [
    pytest.param(lambda m: Potential.geometric(m), id="geometric"),
    pytest.param(lambda m: Potential.finite_range(
        2, 2, (0.1, -0.4, 0.3, -0.2)), id="finite-range-2"),
    pytest.param(lambda m: Potential.bernoulli((math.log(0.3),
                                                math.log(0.5))),
                 id="bernoulli"),
])
@pytest.mark.parametrize("shift", [1.5, -1e3, 1e306])
def test_normalize_sets_the_shift(moebius, make, shift):
    psi = make(moebius)
    plain = normalize(moebius, psi)
    shifted = normalize(moebius, dataclasses.replace(psi, shift=shift))
    assert shifted == plain
    assert math.copysign(1.0, shifted.shift) == math.copysign(1.0,
                                                              plain.shift)


def test_potential_refuses_periodic_sums_past_the_float_range(moebius):
    # S_k psi adds up to ENUMERATION_CAP's bit length terms geom * phi +
    # shift; a part that could leave the float range, where pressure
    # would read NaN, is refused by name
    with pytest.raises(ValueError, match=r"^geom: 1e\+308 makes the "
                                         r"periodic sums overflow$"):
        Potential.geometric(moebius, 1e308)
    with pytest.raises(ValueError, match=r"^shift: -1e\+308 makes the "
                                         r"periodic sums overflow$"):
        Potential.geometric(moebius, 1.0, -1e308)
    # the rule holds wherever the shift is set, as normalize sets it
    with pytest.raises(ValueError, match=r"^shift: 1e\+308 "):
        dataclasses.replace(Potential.bernoulli((0.0, 0.0)), shift=1e308)
    # the largest coefficient the rule allows keeps every sum finite
    top = sys.float_info.max / (2 * ENUMERATION_CAP.bit_length())
    psi = Potential.geometric(moebius, top / -math.log(moebius.r_min))
    assert all(map(math.isfinite, pressure(moebius, psi, k_max=6).levels))


def test_gibbs_weights_uniform(cantor, uniform_psi):
    weights = periodic_weights(cantor, uniform_psi, 3)
    assert np.allclose(weights, 0.125, atol=0)


def test_gibbs_weights_are_products(cantor, cantor_psi):
    weights = periodic_weights(cantor, cantor_psi, 2)
    assert np.allclose(weights, [1 / 16, 3 / 16, 3 / 16, 9 / 16],
                       atol=1e-15)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_gibbs_consistency_across_levels(cantor, cantor_psi):
    # a product measure splits each cylinder exactly among its children
    for n in (2, 3):
        parents = periodic_weights(cantor, cantor_psi, n)
        children = periodic_weights(cantor, cantor_psi, n + 1)
        ratio = parents / children.reshape(-1, 2).sum(axis=1)
        assert np.allclose(ratio, 1.0, rtol=0, atol=1e-12)


def test_gibbs_requires_zero_pressure(cantor):
    # cylinder weights exp(S_n psi)/Z are Gibbs masses only at zero pressure
    psi = Potential.bernoulli((math.log(0.3), math.log(0.5)))
    with pytest.raises(NormalizationError):
        require_normalized(cantor, psi)


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
    orbit = math.fsum(psi.value_at(pw.stream().shift(j)) for j in range(4))
    assert orbit == pytest.approx(expected, abs=1e-10)
    level = periodic_sums(moebius, psi, 4)
    assert level[0b0110] == pytest.approx(expected, abs=1e-12)


def test_cap_checks_do_not_form_the_power():
    # 2**10**7 alone is a 1.25 MB integer; both refusals are decided
    # before any power of a level or depth the caller gives
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^2\*\*10000000 periodic "
                                                r"points exceed cap"):
            thermodynamics._check_level(2, 10**7)
        with pytest.raises(ValueError, match=r"alphabet_size\*\*depth"):
            Potential.finite_range(10**7, 2, [0.0] * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


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


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda c, m: Potential(depth=-1), ValueError,
                 "depth must be >= 0", id="negative-depth"),
    pytest.param(lambda c, m: Potential(table=(0.0, 1.0)), ValueError,
                 "a table needs depth >= 1", id="table-without-depth"),
    pytest.param(lambda c, m: Potential(depth=2, table=(0.0,) * 3),
                 ValueError, r"alphabet_size\*\*depth", id="table-size"),
    pytest.param(lambda c, m: Potential.finite_range(0, 2, ()), ValueError,
                 "at least 1", id="finite-range-depth-0"),
    pytest.param(lambda c, m: range_table(m, Potential.geometric(m), 3),
                 ValueError, "reads more than 3 symbols", id="range-table"),
    pytest.param(lambda c, m: periodic_sums(c, Potential.geometric(c), 0),
                 ValueError, "level k must be >= 1", id="level-0"),
    # the transfer matrix on 13-blocks has side 2**13
    pytest.param(lambda c, m: pressure(c, Potential.finite_range(
        14, 2, (0.0,) * 2**14), k_max=14), CapacityError,
        "side 8192 is too large", id="transfer-matrix-too-large"),
    pytest.param(lambda c, m: pressure(m, Potential.geometric(m), k_max=1),
                 ValueError, "k_max must be >= 2", id="one-level"),
])
def test_thermodynamics_refusals(cantor, moebius, call, error, match):
    with pytest.raises(error, match=match):
        call(cantor, moebius)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_moebius_periodic_sums_chunks_and_block_sums(data):
    ifs = data.draw(systems(moebius=True))
    m = ifs.alphabet_size
    k = data.draw(st.integers(1, 7 if m == 2 else 5))
    total = m**k
    depth = data.draw(st.integers(0, 2))
    psi = Potential(geom=data.draw(st.floats(0.5, 2.0)), depth=depth,
                    table=[data.draw(st.floats(-2.0, 2.0))
                           for _ in range(m**depth if depth else 0)],
                    shift=data.draw(st.floats(-2.0, 2.0)), system=ifs)
    geometric = Potential.geometric(ifs)
    # one block of the whole level is the reference
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermodynamics, "_CHUNK", total)
        whole = periodic_sums(ifs, psi, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermodynamics, "_CHUNK", data.draw(st.integers(1, total)))
        phi = periodic_sums(ifs, geometric, k)
        assert np.array_equal(periodic_sums(ifs, psi, k), whole)
        # one pass yields every level as periodic_sums composes it alone,
        # S_k phi included
        passed = list(thermodynamics._level_sums(ifs, (geometric, psi),
                                                 range(1, k + 1)))
        for j, (s_phi, (_, sums)) in enumerate(passed, start=1):
            assert np.array_equal(s_phi, periodic_sums(ifs, geometric, j))
            assert np.array_equal(sums, periodic_sums(ifs, psi, j))
    # the pass forms each word's products in word_matrix's order
    words = list(enumerate_words(m, k))
    coeffs, logdet = zip(*(word_matrix(ifs, w) for w in words))
    a, b, c, d = np.array(coeffs).T
    assert np.array_equal(phi, np.array(logdet) + thermodynamics._phi_sums(
        a, b, c, d, ifs.domain))
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


def fresh(ifs: IfsSystem) -> IfsSystem:
    """An equal system that holds no level's sums handed off."""
    return dataclasses.replace(ifs)


@pytest.fixture
def compositions(monkeypatch):
    """The words of each block whose S_k phi the kernel computes, in call
    order; a level taken from the hand-off calls no kernel."""
    blocks = []
    kernel = thermodynamics._phi_sums

    def counted(a, *rest):
        blocks.append(len(a))
        return kernel(a, *rest)

    monkeypatch.setattr(thermodynamics, "_phi_sums", counted)
    return blocks


def test_level_sums_and_diagnostic_compose_phi_once(moebius, moebius_psi,
                                                    compositions):
    ifs = fresh(moebius)
    LevelSums.build(ifs, moebius_psi, 6)
    assert compositions == [64]
    compositions.clear()
    cohomology_diagnostic(ifs, moebius_psi, ell_max=5)
    assert compositions == [2, 4, 8, 16, 32]


def test_pressure_reads_every_level_from_one_pass(moebius, moebius_psi,
                                                  compositions):
    result = pressure(fresh(moebius), moebius_psi, k_max=10)
    assert len(result.levels) == 10
    assert compositions == [2**k for k in range(1, 11)]


def test_pressure_takes_the_level_normalize_composed(moebius, compositions):
    # normalize composes level 10 and leaves its sums on the system;
    # pressure's pass composes levels 1..9 and takes level 10 from there
    ifs = fresh(moebius)
    psi = normalize(ifs, Potential.geometric(ifs), k_max=10)
    assert compositions == [1024]
    result = pressure(ifs, psi, k_max=10)
    assert len(result.levels) == 10
    assert compositions == [1024] + [2**k for k in range(1, 10)]
    assert ifs._phi_handoff is None
    # the sums taken are those a pass composes afresh, to the byte
    compositions.clear()
    assert pressure(fresh(moebius), psi, k_max=10) == result
    assert compositions == [2**k for k in range(1, 11)]


def test_beta_command_builds_one_level(monkeypatch, capsys, compositions):
    builds = []
    build = LevelSums.build.__func__

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(spectrum.LevelSums, "build", classmethod(counted))
    code = main(["beta", "--config", str(MOEBIUS_PAIR), "--q-steps", "21",
                 "--depth", "8", "--threads", "1"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 22
    assert len(builds) == 1
    # normalizing the potential composes level 8, the shared build takes it
    assert compositions == [256]


@pytest.mark.parametrize("argv,levels", [
    (["pressure", "--depth", "12"], [12, *range(1, 12)]),
    (["spectrum", "--depth", "15"], [15, *range(1, 7)]),
    (["predict-packing", "--depth", "15"], [15, *range(1, 7)]),
])
def test_commands_compose_each_level_once(capsys, compositions, argv,
                                          levels):
    # normalize composes the command's level first; the cohomology scan
    # composes levels 1..6, and the level is read from the hand-off
    assert main([*argv, "--config", str(MOEBIUS_PAIR)]) == 0
    assert compositions == [2**k for k in levels]


def test_pressure_composes_only_the_levels_it_reads(moebius):
    # tol stops the loop at level 9; a pass that composed up to k_max
    # first would hit the enumeration cap near level 27.  Against mpmath
    # on the same float letters, level 9 is off by 1.32e-16; read from
    # the fixed point instead of the eigenvalue it was ...237p-2, off by
    # 1.88e-16.  Levels 1-8 are the same either way.
    result = pressure(moebius, Potential.geometric(moebius), k_max=40,
                      tol=1e-4)
    assert result.levels == tuple(float.fromhex(h) for h in (
        "-0x1.269621134db90p-2", "-0x1.5e1088683d85fp-2",
        "-0x1.6f52472f7b1afp-2", "-0x1.75eb50f9dc9cbp-2",
        "-0x1.78a1142717ce0p-2", "-0x1.79c6de15cb4a0p-2",
        "-0x1.7a4518e3891e0p-2", "-0x1.7a7bbeb201912p-2",
        "-0x1.7a938195d8238p-2"))


@pytest.mark.parametrize("split", [2, 4])
def test_level_19_stays_in_bounded_memory(monkeypatch, moebius, split):
    # 20 MiB is five times the 4 MiB of one level-19 array of sums; the
    # level's word matrices held whole take 16 MiB before any temporary.
    # The bound holds at the default block size and at one `split` times
    # smaller, where the pass holds a shallower level and runs more blocks.
    # Each run starts from a system holding no hand-off, so pressure
    # composes level 19 itself.
    phi = Potential.geometric(moebius)
    psi = normalize(fresh(moebius), phi, k_max=19)
    for chunk in (thermodynamics._CHUNK, thermodynamics._CHUNK // split):
        monkeypatch.setattr(thermodynamics, "_CHUNK", chunk)
        for run in (lambda ifs: pressure(ifs, psi, k_max=19),
                    lambda ifs: periodic_sums(ifs, phi, 19)):
            ifs = fresh(moebius)
            tracemalloc.start()
            try:
                run(ifs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20 * 2**20


def test_deep_pressure_command_stays_in_bounded_memory(capsys):
    # normalize leaves level 19's 4 MiB of sums on the system for
    # pressure to take, so they stay alive through normalize's
    # log-sum-exp; computed in place, it takes no further array that size
    tracemalloc.start()
    try:
        code = main(["pressure", "--config", str(MOEBIUS_PAIR),
                     "--depth", "19"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 20
    assert peak <= 13.5 * 2**20


def test_library_starts_no_thread(monkeypatch, moebius, moebius_psi):
    # level 19 is composed in 8 blocks of _CHUNK words
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    pressure(fresh(moebius), moebius_psi, k_max=19)
    assert main(["pressure", "--config", str(MOEBIUS_PAIR),
                 "--depth", "19"]) == 0


@pytest.mark.parametrize("ifs", ["cantor", "moebius"])
def test_diagnostic_refuses_a_level_past_the_cap_first(monkeypatch, request,
                                                       ifs):
    # 2**27 words exceed the cap; no level below it is composed first
    ifs = request.getfixturevalue(ifs)

    def refuse(*args, **kwargs):
        raise AssertionError("a level was composed before the cap check")

    monkeypatch.setattr(thermodynamics, "periodic_sums", refuse)
    with pytest.raises(CapacityError, match=r"2\*\*27"):
        cohomology_diagnostic(ifs, Potential.geometric(ifs), ell_max=27)


def test_pressure_refuses_a_level_past_the_cap_first(monkeypatch, moebius):
    # tol 0 stops at no level short of k_max, so 2**27 words are refused
    # before level 1 is composed

    def refuse(*args, **kwargs):
        raise AssertionError("a level was composed before the cap check")

    monkeypatch.setattr(thermodynamics, "_sums_chunk", refuse)
    with pytest.raises(CapacityError, match=r"2\*\*27"):
        pressure(moebius, Potential.geometric(moebius), k_max=27, tol=0.0)


@pytest.mark.parametrize("m,deepest", [(2, 6), (21, 6), (22, 5), (64, 4)])
def test_default_cohomology_scan_stops_under_the_cap(monkeypatch, m,
                                                     deepest):
    # 21**6 words are within the cap of 10**8, 22**6 and 64**5 are not
    ifs = IfsSystem.affine((0.0, 1.0), [(1 / (4 * m), i / m)
                                        for i in range(m)])
    psi = Potential.from_probabilities([1 / m] * m)
    scanned = []

    def recorded(ifs, psis, levels):
        scanned.extend(levels)
        return iter(())

    monkeypatch.setattr(thermodynamics, "_level_sums", recorded)
    cohomology_diagnostic(ifs, psi)
    assert scanned == list(range(1, deepest + 1))
    if deepest < 6:
        # a level asked for is refused past the cap, as before
        with pytest.raises(CapacityError, match=rf"{m}\*\*6 periodic"):
            cohomology_diagnostic(ifs, psi, ell_max=6)


def _mp_phi_sum(ifs, word):
    """S_k phi of the cycle of `word` from the exact product of the
    maps' float matrices, in 50 digits: log det - 2 log of the larger
    eigenvalue."""
    with mpmath.workdps(50):
        mat = mpmath.eye(2)
        for s in word.symbols:
            ma, mb, mc, md = ifs.maps[s].coefficients()
            mat = mat * mpmath.matrix([[ma, mb], [mc, md]])
        t = mat[0, 0] + mat[1, 1]
        det = mpmath.det(mat)
        lam = (t + mpmath.sqrt(t * t - 4 * det)) / 2
        return mpmath.log(det) - 2 * mpmath.log(lam)


def test_phi_sums_match_mpmath(moebius):
    # 12 seeded words of every level 1..16 of moebius_pair's maps
    rng = np.random.default_rng(16)
    phi = Potential.geometric(moebius)
    for k in range(1, 17):
        sums = periodic_sums(fresh(moebius), phi, k)
        for idx in rng.choice(2**k, size=min(12, 2**k), replace=False):
            word = Word(tuple(int(v) for v in np.binary_repr(idx, k)))
            exact = _mp_phi_sum(moebius, word)
            assert abs((sums[idx] - exact) / exact) <= 1e-15, word


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_phi_sums_match_block_sums(data):
    # the trace route against the scalar one, the fixed point from
    # matrix_fixed_point, on Moebius systems and on mixed ones, whose
    # affine letters enter the kernel scaled to determinant one
    ifs = data.draw(systems(moebius=True) | systems(mixed=True))
    m = ifs.alphabet_size
    phi = Potential.geometric(ifs)
    for k in range(1, 7 if m == 2 else 5):
        expected = [phi.block_sum(PeriodicWord(w))
                    for w in enumerate_words(m, k)]
        assert np.max(np.abs(periodic_sums(ifs, phi, k) - expected)) <= 1e-13


def test_phi_sums_refuse_words_without_an_attracting_fixed_point():
    # trace 1.8 < 2 at determinant one: an elliptic matrix, no real
    # fixed point
    rot = [np.array([v]) for v in (0.9, -0.19, 1.0, 0.9)]
    with pytest.raises(ValueError, match="complex fixed point"):
        thermodynamics._phi_sums(*rot, (0.0, 1.0))
    # x -> x/2 + 2 scaled to determinant one attracts to 4, off [0, 1]
    s = math.sqrt(2.0)
    off = [np.array([v]) for v in (1 / s, 2 * s, 0.0, s)]
    with pytest.raises(ValueError, match="fixed point escaped the base"):
        thermodynamics._phi_sums(*off, (0.0, 1.0))
