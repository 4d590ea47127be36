"""Finite words, periodic symbol sequences, and cylinder distortion.

Symbols are small integers 0..m-1 over an alphabet of size m.  Finite
words address cylinder sets of the full one-sided shift; periodic words
stand for the periodic points that drive every pressure and Gibbs
computation in this package.  Ordering of words of equal length is
plain lexicographic order on the symbol tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError

MAX_ALPHABET = 64
ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class Word:
    """Finite symbol sequence.  The empty word addresses the whole space."""

    symbols: tuple[int, ...] = ()

    def __post_init__(self):
        for s in self.symbols:
            if not isinstance(s, int) or s < 0:
                raise ValueError(f"symbols must be nonnegative ints, got {s!r}")

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse "011" (single-digit symbols) or "0-1-12" (dash separated)."""
        if text == "":
            return cls(())
        if "-" in text:
            return cls(tuple(int(t) for t in text.split("-")))
        return cls(tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.symbols[i])
        return self.symbols[i]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols)

    def repeat(self, n: int) -> "Word":
        if n < 0:
            raise ValueError("repeat count must be nonnegative")
        return Word(self.symbols * n)

    def validate(self, alphabet_size: int) -> None:
        for s in self.symbols:
            if s >= alphabet_size:
                raise ValueError(
                    f"symbol {s} outside alphabet of size {alphabet_size}")

    def distinct_symbols(self) -> frozenset[int]:
        return frozenset(self.symbols)


@dataclass(frozen=True)
class PeriodicWord:
    """Infinite periodic sequence given by a nonempty period block."""

    period: Word

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("period block must be nonempty")

    @classmethod
    def parse(cls, text: str) -> "PeriodicWord":
        return cls(Word.parse(text))

    def symbol_at(self, i: int) -> int:
        return self.period.symbols[i % len(self.period)]

    def rotate(self, k: int) -> "PeriodicWord":
        ell = len(self.period)
        k %= ell
        return PeriodicWord(self.period[k:] + self.period[:k])

    def stream(self) -> "SymbolStream":
        return SymbolStream(Word(()), self)


@dataclass(frozen=True)
class SymbolStream:
    """Eventually periodic sequence: a finite prefix followed by a cycle.

    Every sequence this package ever evaluates a potential on is of this
    shape, which keeps coding points exactly computable.
    """

    prefix: Word
    tail: PeriodicWord

    def symbol_at(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix.symbols[i]
        return self.tail.symbol_at(i - len(self.prefix))

    def shift(self, k: int = 1) -> "SymbolStream":
        if k < 0:
            raise ValueError("shift must be nonnegative")
        p = len(self.prefix)
        if k <= p:
            return SymbolStream(self.prefix[k:], self.tail)
        return SymbolStream(Word(()), self.tail.rotate(k - p))

    def head(self, n: int) -> Word:
        return Word(tuple(self.symbol_at(i) for i in range(n)))

    def is_constant_from(self, n: int, symbol: int) -> bool:
        """True when every entry at positions >= n equals `symbol`."""
        for i in range(n, len(self.prefix)):
            if self.prefix.symbols[i] != symbol:
                return False
        return all(s == symbol for s in self.tail.period.symbols)

    def validate(self, alphabet_size: int) -> None:
        self.prefix.validate(alphabet_size)
        self.tail.period.validate(alphabet_size)


def _check_alphabet(m: int) -> None:
    if m < 2:
        raise ValueError("alphabet needs at least two symbols")
    if m > MAX_ALPHABET:
        raise ValueError(f"alphabet size {m} exceeds cap {MAX_ALPHABET}")


def enumerate_words(m: int, n: int) -> Iterator[Word]:
    """Yield all length-n words over 0..m-1 in lexicographic order.

    Raises CapacityError when m**n would exceed ENUMERATION_CAP; callers
    that need deeper levels must restructure rather than silently thrash.
    """
    _check_alphabet(m)
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if m**n > ENUMERATION_CAP:
        raise CapacityError(f"{m}**{n} words exceed cap {ENUMERATION_CAP}")
    for tup in itertools.product(range(m), repeat=n):
        yield Word(tup)


def distortion_bound(psi, ifs, n: int) -> float:
    """Distortion of S_n(psi) over cylinders of depth n.

    The largest Potential.cylinder_spread, an upper bound on the spread
    of S_n psi over one cylinder, among the length-n words: all of them
    up to 4,096 words, else every (m**n // 4096)-th in lexicographic
    order, which bounds the sampled cylinders only.  Exactly zero for
    potentials that only read the first symbol and for the geometric
    potential of an affine system.
    """
    if n < 1:
        raise ValueError("distortion needs depth n >= 1")
    m = ifs.alphabet_size
    stride = max(1, m**n // 4096)
    return max(psi.cylinder_spread(w)
               for k, w in enumerate(enumerate_words(m, n))
               if k % stride == 0)
