import math

import pytest

from mfgibbs.errors import CapacityError
from mfgibbs.symbolic import (PeriodicWord, SymbolStream, Word,
                              distortion_bound, enumerate_words, ergodic_sum)
from mfgibbs.thermodynamics import Potential


def test_word_parse_text_roundtrip():
    w = Word.parse("0120")
    assert w.symbols == (0, 1, 2, 0)
    assert w.text() == "0120"
    assert len(w) == 4


def test_word_concat_repeat_slice():
    w = Word.of(0, 1) + Word.of(1)
    assert w.symbols == (0, 1, 1)
    assert Word.of(0, 1).repeat(3).symbols == (0, 1) * 3
    assert Word.of(0, 1).repeat(0).symbols == ()
    assert w[1:].symbols == (1, 1)
    assert w[0] == 0


def test_word_validate_and_distinct():
    Word.of(0, 1).validate(2)
    with pytest.raises(ValueError):
        Word.of(0, 2).validate(2)
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


def test_periodic_word_cycle():
    pw = PeriodicWord.parse("011")
    assert pw.period_length == 3
    assert [pw.symbol_at(i) for i in range(7)] == [0, 1, 1, 0, 1, 1, 0]
    assert pw.rotate(1).period.symbols == (1, 1, 0)
    assert pw.head(5).symbols == (0, 1, 1, 0, 1)


def test_stream_shift_and_constant_tail():
    s = SymbolStream(Word.of(0, 1), PeriodicWord.parse("1"))
    assert s.head(5).symbols == (0, 1, 1, 1, 1)
    assert s.shift(2).head(3).symbols == (1, 1, 1)
    assert s.is_constant_from(1, 1)
    assert not s.is_constant_from(0, 1)


def test_ergodic_sum_block_fast_path():
    psi = Potential.from_probabilities((0.25, 0.75))
    pw = PeriodicWord.parse("01")
    two = ergodic_sum(psi, pw, 2)
    assert two == pytest.approx(math.log(3 / 16), abs=1e-15)
    assert ergodic_sum(psi, pw, 6) == pytest.approx(3 * two, abs=1e-14)
    # partial periods fall back to per-shift evaluation
    assert ergodic_sum(psi, pw, 3) == pytest.approx(
        two + math.log(0.25), abs=1e-14)


def test_ergodic_sum_on_stream():
    psi = Potential.from_probabilities((0.25, 0.75))
    s = SymbolStream(Word.of(1), PeriodicWord.parse("0"))
    assert ergodic_sum(psi, s, 3) == pytest.approx(
        math.log(0.75) + 2 * math.log(0.25), abs=1e-14)


def test_distortion_vanishes_for_one_symbol_potentials(cantor, moebius):
    psi = Potential.from_probabilities((0.25, 0.75))
    assert distortion_bound(psi, cantor, 4) == 0.0
    geo = Potential.geometric(cantor)
    assert distortion_bound(geo, cantor, 4) == 0.0
    # a genuinely nonlinear system has positive distortion
    assert distortion_bound(Potential.geometric(moebius), moebius, 4) > 0.0
