"""Finite and infinite words over small alphabets.

Infinite words come in two finitely-describable flavours: ultimately
periodic words (lassos, u.v^omega) and block words A.B1.A.B2.A..., the
codings of grids (see ratrel.grid), whose n-th block has length n.
Positions are 1-based everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from os.path import commonprefix
from typing import Callable, Union


class AlphabetMismatch(ValueError):
    """A word uses letters outside the declared alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of single-character symbols."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if any(len(ch) != 1 for ch in self.letters):
            raise ValueError("alphabet letters must be single characters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet has duplicate letters")

    @classmethod
    def of(cls, letters: str) -> "Alphabet":
        return cls(tuple(letters))

    def __contains__(self, ch: object) -> bool:
        return ch in self.letters

    def __str__(self) -> str:
        return "".join(self.letters)

    def check_word(self, word: str, what: str = "word") -> None:
        for ch in word:
            if ch not in self.letters:
                raise AlphabetMismatch(
                    f"{what} {word!r} uses letter {ch!r} not in alphabet {{{self}}}"
                )


BINARY = Alphabet.of("01")
GAMMA = Alphabet.of("01A")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its key-value pairs (a ``json.loads``
    ``object_pairs_hook``); raise ValueError naming a key that repeats,
    which ``json.loads`` alone would settle silently for the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"JSON object repeats key {key!r}")
        doc[key] = value
    return doc


def _primitive_root(s: str) -> str:
    """Shortest word whose repetition yields s: s recurs inside s + s first
    at the length of that word (at len(s) when s is primitive)."""
    return s[:(s + s).find(s, 1)]


@lru_cache(maxsize=4096)
def _normal_parts(prefix: str, period: str) -> tuple[str, str]:
    period = _primitive_root(period)
    # The k trailing prefix letters that repeat the period backwards, the
    # common suffix of the prefix and enough period copies, fold at once
    # into the period rotated right by k.  This reaches the minimal
    # preperiod, so equal words get equal parts.
    p = len(period)
    k = len(commonprefix([prefix[::-1], period[::-1] * (len(prefix) // p + 1)]))
    r = k % p
    return prefix[:len(prefix) - k], period[p - r:] + period[:p - r]


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word prefix.period^omega, text form "prefix|period"."""

    prefix: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("lasso period must be nonempty")

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet | None = None) -> "LassoWord":
        if text.count("|") != 1:
            raise ValueError(f"lasso text needs exactly one '|': {text!r}")
        prefix, period = text.split("|")
        if not period:
            raise ValueError(f"lasso period must be nonempty: {text!r}")
        if alphabet is not None:
            alphabet.check_word(prefix + period, "lasso")
        return cls(prefix, period)

    def __str__(self) -> str:
        return f"{self.prefix}|{self.period}"

    def normal(self) -> "LassoWord":
        """Canonical form: minimal period, then minimal prefix."""
        p, q = _normal_parts(self.prefix, self.period)
        if p == self.prefix and q == self.period:
            return self
        return LassoWord(p, q)

    def letter_at(self, n: int) -> str:
        if n < 1:
            raise ValueError("positions are 1-based")
        lp = len(self.prefix)
        if n <= lp:
            return self.prefix[n - 1]
        return self.period[(n - lp - 1) % len(self.period)]

    def prefix_of(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n <= len(self.prefix):
            return self.prefix[:n]
        rest = n - len(self.prefix)
        reps = rest // len(self.period) + 1
        return self.prefix + (self.period * reps)[:rest]

    def letters(self) -> str:
        """All letters occurring in the word (prefix may include dead letters)."""
        return self.prefix + self.period


@dataclass(frozen=True, eq=False)
class BlockWord:
    """The coding A.B1.A.B2.A... of the grid ``h_source`` (see
    ratrel.grid), with block Bn = block_fn(n), its antidiagonal n+1,
    computed on demand.

    Letters are read from one cached prefix text "A"+B1+"A"+B2+... kept
    together with the index of the next block.  A read past the text
    builds a text at least twice as long and swaps the new pair in whole,
    so the pair is never changed in place and every pair a reader sees is
    a prefix of the same word: concurrent readers need no lock.
    """

    block_fn: Callable[[int], str]
    h_source: object

    def _text(self, n: int) -> str:
        """The cached prefix text, first grown to at least n letters."""
        text, b = getattr(self, "_text_cache", ("", 1))
        if len(text) < n:
            parts = [text]
            size, goal = len(text), max(n, 2 * len(text))
            while size < goal:
                block = self.block_fn(b)
                parts += ("A", block)
                size += 1 + len(block)
                b += 1
            text = "".join(parts)
            object.__setattr__(self, "_text_cache", (text, b))
        return text

    def letter_at(self, n: int) -> str:
        if n < 1:
            raise ValueError("positions are 1-based")
        return self._text(n)[n - 1]

    def prefix_of(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return self._text(n)[:n]

    def letters(self) -> str:
        """All letters occurring in the word, sorted: A and the letters of
        its grid's column descriptions."""
        return "".join(sorted({"A"}.union(*(col.letters() for col in self.h_source.columns()))))


OmegaWord = Union[LassoWord, BlockWord]


def lasso_equal(a: LassoWord, b: LassoWord) -> bool:
    """Whether two lassos denote the same infinite word."""
    return a.normal() == b.normal()


def lasso_first_difference(a: LassoWord, b: LassoWord) -> int | None:
    """First position where two lassos differ, or None if they are equal.

    Past both prefixes the two words have periods p and q, and by Fine and
    Wilf (1965) two words with periods p and q that agree on
    p + q - gcd(p, q) letters agree forever.  So comparing the first
    max(prefix lengths) + p + q - gcd(p, q) letters decides the pair.
    """
    p, q = len(a.period), len(b.period)
    n = max(len(a.prefix), len(b.prefix)) + p + q - math.gcd(p, q)
    s, t = a.prefix_of(n), b.prefix_of(n)
    return None if s == t else len(commonprefix([s, t])) + 1
