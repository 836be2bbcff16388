"""Free monoid combinatorics: words over a finite alphabet.

A word is a finite sequence of 1-based generator indices; the empty word is
the unit for concatenation.  The canonical enumeration used by every other
module is length-lexicographic: shorter words first, lexicographic by letters
within each length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Alphabet:
    """The generator set {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"alphabet needs at least one generator, got n={self.n}")

    @property
    def letters(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Word:
    """An element of the free monoid, stored as a tuple of 1-based letters."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        if any(a < 1 for a in self.letters):
            raise ValueError(f"letters must be 1-based positive integers, got {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"Word{self.letters!r}"

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def reverse(self) -> "Word":
        return Word(self.letters[::-1])

    def text(self, n: int) -> str:
        """Render for reports: empty word is "e"; digits run together while
        all letters fit a single digit, dot-separated otherwise."""
        if not self.letters:
            return "e"
        if n <= 9:
            return "".join(str(a) for a in self.letters)
        return ".".join(str(a) for a in self.letters)


def word(*letters: int) -> Word:
    return Word(tuple(letters))


def count_words(alphabet: Alphabet, depth: int) -> int:
    """Number of words of length <= depth: (n^(depth+1)-1)/(n-1), or depth+1 when n=1."""
    if depth < 0:
        return 0
    n = alphabet.n
    if n == 1:
        return depth + 1
    return (n ** (depth + 1) - 1) // (n - 1)


def enumerate_words(alphabet: Alphabet, depth: int) -> list[Word]:
    """All words of length <= depth in length-lexicographic order."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    out: list[Word] = []
    for k in range(depth + 1):
        out.extend(Word(tup) for tup in itertools.product(alphabet.letters, repeat=k))
    return out
