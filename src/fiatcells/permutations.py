"""
Permutations in one-line notation, with Coxeter combinatorics for S_n.

A permutation of {1..n} is a tuple ``w`` with ``w[i-1] = w(i)``.  The
simple reflections are the adjacent transpositions s_1 .. s_{n-1};
``s_i * w`` swaps the *values* i, i+1 and ``w * s_i`` swaps the entries
in positions i, i+1.  Length is the inversion count, and Bruhat order
is decided by the tableau criterion (Bjorner-Brenti, *Combinatorics of
Coxeter Groups*, Thm 2.6.3).

>>> w = Permutation((3, 1, 2))
>>> w.length()
2
>>> w.inverse()
Permutation((2, 3, 1))
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _itertools_permutations

__all__ = ["Permutation", "all_permutations", "bruhat_leq"]


@dataclass(frozen=True)
class Permutation:
    one_line: tuple[int, ...]

    def __post_init__(self):
        n = len(self.one_line)
        if sorted(self.one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.one_line}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, i: int, n: int) -> "Permutation":
        if not 1 <= i <= n - 1:
            raise ValueError(f"s_{i} does not exist in S_{n}")
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        return cls(tuple(w))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.one_line[j - 1] for j in other.one_line))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def length(self) -> int:
        w = self.one_line
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    def is_identity(self) -> bool:
        return self.one_line == tuple(range(1, self.n + 1))

    def left_descents(self) -> list[int]:
        """Generators i with length(s_i * w) < length(w): i left of i+1 undone.

        s_i w < w iff w^{-1}(i) > w^{-1}(i+1).
        """
        inv = self.inverse().one_line
        return [i for i in range(1, self.n) if inv[i - 1] > inv[i]]

    def right_descents(self) -> list[int]:
        return [i for i in range(1, self.n) if self.one_line[i - 1] > self.one_line[i]]

    def left_mul_simple(self, i: int) -> "Permutation":
        """s_i * w: swap the values i and i+1."""
        swap = {i: i + 1, i + 1: i}
        return Permutation(tuple(swap.get(v, v) for v in self.one_line))

    def right_mul_simple(self, i: int) -> "Permutation":
        """w * s_i: swap positions i and i+1."""
        w = list(self.one_line)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    def reduced_word(self) -> tuple[int, ...]:
        """One reduced word, peeling right descents greedily."""
        word: list[int] = []
        w = self
        while not w.is_identity():
            i = w.right_descents()[0]
            word.append(i)
            w = w.right_mul_simple(i)
        return tuple(reversed(word))

    def __repr__(self) -> str:
        return f"Permutation({self.one_line!r})"


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n sorted by (length, one-line notation); identity first."""
    perms = [Permutation(p) for p in _itertools_permutations(range(1, n + 1))]
    perms.sort(key=lambda w: (w.length(), w.one_line))
    return perms


def bruhat_leq(x: Permutation, w: Permutation) -> bool:
    """Bruhat order: x <= w iff every sorted prefix of x is entrywise <= that of w."""
    if x.n != w.n:
        raise ValueError("Bruhat order compares permutations of equal size")
    a, b = x.one_line, w.one_line
    return all(
        i <= j for k in range(1, len(a)) for i, j in zip(sorted(a[:k]), sorted(b[:k]))
    )
