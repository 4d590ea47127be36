import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfgibbs.errors import CapacityError
from mfgibbs.symbolic import (PeriodicWord, SymbolStream, Word,
                              distortion_bound, enumerate_words)
from mfgibbs.thermodynamics import Potential
from strategies import systems


def test_word_parse_text_roundtrip():
    w = Word.parse("0120")
    assert w.symbols == (0, 1, 2, 0)
    assert len(w) == 4
    # past one digit a symbol needs the dash-separated form
    long = Word.parse("0-1-12")
    assert long.symbols == (0, 1, 12)


def test_word_concat_repeat_slice():
    w = Word((0, 1)) + Word((1,))
    assert w.symbols == (0, 1, 1)
    assert Word((0, 1)).repeat(3).symbols == (0, 1) * 3
    assert Word((0, 1)).repeat(0).symbols == ()
    assert w[1:].symbols == (1, 1)
    assert w[0] == 0


def test_word_validate_and_distinct():
    Word((0, 1)).validate(2)
    with pytest.raises(ValueError):
        Word((0, 2)).validate(2)
    assert Word.parse("0110").distinct_symbols() == frozenset((0, 1))


def test_enumerate_words_lex_order():
    words = list(enumerate_words(2, 2))
    assert [w.symbols for w in words] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(enumerate_words(3, 3))) == 27
    prev = None
    for w in enumerate_words(2, 3):
        if prev is not None:
            assert prev.symbols < w.symbols
        prev = w


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        list(enumerate_words(2, 40))


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda ifs: Word((0, -1)), "nonnegative ints",
                 id="negative-symbol"),
    pytest.param(lambda ifs: Word((0,)).repeat(-1), "repeat count",
                 id="negative-repeat"),
    pytest.param(lambda ifs: PeriodicWord(Word()), "nonempty",
                 id="empty-period"),
    pytest.param(lambda ifs: PeriodicWord.parse("0").stream().shift(-1),
                 "shift must be nonnegative", id="negative-shift"),
    pytest.param(lambda ifs: list(enumerate_words(1, 2)), "two symbols",
                 id="one-letter-alphabet"),
    pytest.param(lambda ifs: list(enumerate_words(65, 1)), "exceeds cap",
                 id="alphabet-past-the-cap"),
    pytest.param(lambda ifs: list(enumerate_words(2, -1)), "nonnegative",
                 id="negative-length"),
    pytest.param(lambda ifs: distortion_bound(
        Potential.geometric(ifs), ifs, 0), "n >= 1", id="distortion-depth-0"),
])
def test_symbolic_refusals(cantor, call, match):
    with pytest.raises(ValueError, match=match):
        call(cantor)


def test_periodic_word_cycle():
    pw = PeriodicWord.parse("011")
    assert len(pw.period) == 3
    assert [pw.symbol_at(i) for i in range(7)] == [0, 1, 1, 0, 1, 1, 0]
    assert pw.rotate(1).period.symbols == (1, 1, 0)
    assert pw.stream().head(5).symbols == (0, 1, 1, 0, 1)


def test_stream_shift_and_constant_tail():
    s = SymbolStream(Word((0, 1)), PeriodicWord.parse("1"))
    assert s.head(5).symbols == (0, 1, 1, 1, 1)
    assert s.shift(2).head(3).symbols == (1, 1, 1)
    assert s.is_constant_from(1, 1)
    assert not s.is_constant_from(0, 1)


def _ergodic_sum(psi, stream, n):
    # S_n psi by per-shift evaluation, the reference for block sums
    return math.fsum(psi.value_at(stream.shift(j)) for j in range(n))


def test_ergodic_sum_block_fast_path():
    psi = Potential.from_probabilities((0.25, 0.75))
    pw = PeriodicWord.parse("01")
    two = psi.block_sum(pw)
    assert two == pytest.approx(math.log(3 / 16), abs=1e-15)
    assert _ergodic_sum(psi, pw.stream(), 2) == two
    assert psi.block_sum(PeriodicWord.parse("010101")) == pytest.approx(
        3 * two, abs=1e-14)
    assert _ergodic_sum(psi, pw.stream(), 3) == pytest.approx(
        two + math.log(0.25), abs=1e-14)


def test_ergodic_sum_on_stream():
    psi = Potential.from_probabilities((0.25, 0.75))
    s = SymbolStream(Word((1,)), PeriodicWord.parse("0"))
    assert _ergodic_sum(psi, s, 3) == pytest.approx(
        math.log(0.75) + 2 * math.log(0.25), abs=1e-14)


def test_distortion_vanishes_for_one_symbol_potentials(cantor, moebius):
    psi = Potential.from_probabilities((0.25, 0.75))
    assert distortion_bound(psi, cantor, 4) == 0.0
    geo = Potential.geometric(cantor)
    assert distortion_bound(geo, cantor, 4) == 0.0
    # a genuinely nonlinear system has positive distortion
    assert distortion_bound(Potential.geometric(moebius), moebius, 4) > 0.0


def test_distortion_bound_matches_the_sampled_spread_on_moebius_pair(moebius):
    # the domain ends are the coded points of 0^inf and 1^inf here, so
    # the closed form is attained by the constant tails
    psi = Potential.geometric(moebius)
    ends = [PeriodicWord.parse(t) for t in "01"]
    for n in range(1, 5):
        spreads = []
        for w in enumerate_words(2, n):
            at0, at1 = (_ergodic_sum(psi, SymbolStream(w, t), n) for t in ends)
            spreads.append(abs(at0 - at1))
        assert distortion_bound(psi, moebius, n) == pytest.approx(
            max(spreads), abs=1e-15)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cylinder_spread_bounds_every_continuation(data):
    ifs = data.draw(systems())
    m = ifs.alphabet_size
    depth = data.draw(st.integers(0, 2))
    geom = data.draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    psi = Potential(geom=geom, depth=depth,
                    table=[data.draw(st.floats(-2.0, 2.0))
                           for _ in range(m**depth if depth else 0)],
                    shift=data.draw(st.floats(-2.0, 2.0)), system=ifs)
    tails = [PeriodicWord(Word(p)) for ell in (1, 2)
             for p in itertools.product(range(m), repeat=ell)]
    for n in range(1, 4):
        for w in enumerate_words(m, n):
            sums = [_ergodic_sum(psi, SymbolStream(w, t), n) for t in tails]
            spread = psi.cylinder_spread(w)
            assert spread >= max(sums) - min(sums) - 1e-12
            if depth <= 1 and (geom == 0.0 or ifs.is_affine()):
                # Bernoulli and affine-geometric potentials do not distort
                assert spread == 0.0
