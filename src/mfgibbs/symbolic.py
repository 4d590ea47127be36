"""Finite words, periodic symbol sequences, and ergodic sums.

Symbols are small integers 0..m-1 over an alphabet of size m.  Finite
words address cylinder sets of the full one-sided shift; periodic words
stand for the periodic points that drive every pressure and Gibbs
computation in this package.  Ordering of words of equal length is
plain lexicographic order on the symbol tuples.
"""

from __future__ import annotations

import itertools
import math
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
    def of(cls, *symbols: int) -> "Word":
        return cls(tuple(symbols))

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

    def text(self) -> str:
        """Inverse of parse; dash-separated once symbols exceed one digit."""
        if any(s > 9 for s in self.symbols):
            return "-".join(str(s) for s in self.symbols)
        return "".join(str(s) for s in self.symbols)


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

    @property
    def period_length(self) -> int:
        return len(self.period)

    def symbol_at(self, i: int) -> int:
        return self.period.symbols[i % len(self.period)]

    def rotate(self, k: int) -> "PeriodicWord":
        ell = len(self.period)
        k %= ell
        return PeriodicWord(self.period[k:] + self.period[:k])

    def head(self, n: int) -> Word:
        return Word(tuple(self.symbol_at(i) for i in range(n)))

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


def ergodic_sum(psi, w, n: int) -> float:
    """Birkhoff sum of the potential along the first n shifts of w.

    w may be a PeriodicWord or a SymbolStream.  For periodic words the
    values cycle, so only one period of evaluations is ever needed; when
    n is a whole number of periods the potential's block sum is used.
    """
    if n < 1:
        raise ValueError("ergodic sums need n >= 1")
    if isinstance(w, PeriodicWord):
        ell = w.period_length
        if n % ell == 0:
            return psi.block_sum(w) * (n // ell)
        stream = w.stream()
        vals = [psi.value_at(stream.shift(j)) for j in range(min(ell, n))]
        full, rem = divmod(n, ell)
        total = full * math.fsum(vals) if full else 0.0
        return total + math.fsum(vals[:rem])
    return math.fsum(psi.value_at(w.shift(j)) for j in range(n))


def _continuation_pool(m: int, sample_budget: int, seed: int = 2718):
    """Deterministic pool of tail sequences used by distortion_bound.

    Always includes the constant tails; tops up with seeded periodic
    tails until the pool supports roughly sample_budget pairs.
    """
    import numpy as np

    pool = [PeriodicWord(Word((i,))) for i in range(m)]
    rng = np.random.default_rng(seed)
    while len(pool) * (len(pool) - 1) // 2 < sample_budget and len(pool) < 64:
        ell = int(rng.integers(2, 5))
        block = tuple(int(s) for s in rng.integers(0, m, size=ell))
        cand = PeriodicWord(Word(block))
        if cand not in pool:
            pool.append(cand)
    return pool


def distortion_bound(psi, ifs, n: int, sample_budget: int = 64) -> float:
    """Empirical distortion of S_n(psi) over cylinders of depth n.

    Returns an estimate of sup over length-n words w and continuation
    pairs (rho, tau) of |S_n psi(w rho) - S_n psi(w tau)|.  Exactly zero
    for potentials that only read the first symbol.  The continuations
    are a fixed deterministic family, so repeated calls agree bit for
    bit.  This is a lower bound on the true supremum; no Hoelder
    constant is certified.
    """
    if n < 1:
        raise ValueError("distortion needs depth n >= 1")
    m = ifs.alphabet_size
    _check_alphabet(m)
    pool = _continuation_pool(m, sample_budget)
    pairs = []
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            pairs.append((pool[i], pool[j]))
            if len(pairs) >= sample_budget:
                break
        if len(pairs) >= sample_budget:
            break

    words = list(enumerate_words(m, n)) if m**n <= 4096 else None
    if words is None:
        # deterministic stride subsample of the lexicographic enumeration
        stride = max(1, m**n // 4096)
        words = [w for k, w in enumerate(enumerate_words(m, n)) if k % stride == 0]

    worst = 0.0
    for w in words:
        for rho, tau in pairs:
            a = ergodic_sum(psi, SymbolStream(w, rho), n)
            b = ergodic_sum(psi, SymbolStream(w, tau), n)
            worst = max(worst, abs(a - b))
    return worst
