"""
Permutations in one-line notation and their rank matrices.

Conventions used throughout the package:

- A permutation ``w`` of ``{1..n}`` is stored as the word ``(w(1), ..., w(n))``.
  All indices at the API boundary are 1-based.
- The rank matrix of ``w`` is the n x n grid whose ``(p, q)`` entry counts the
  ``k <= q`` with ``w(k) >= p``.  Row ``p`` is counted from the top, column
  ``q`` from the left, exactly as the matrix is printed.
- Words serialize as ``"4213"`` for n < 10 and comma-separated (``"10,3,1,..."``)
  for n >= 10.

Everything here is immutable and safe to share across workers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((2, 3, 1, 4))(1)
    2
    >>> str(Permutation((2, 3, 1, 4)))
    '2314'
    """

    word: tuple[int, ...]
    # computed once: every cache keyed on a permutation hashes it on each
    # lookup (the dataclass hash, hash((word,))), and every sweep record
    # prints it
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.word)
        if n < 1:
            raise ValueError("permutation must have size >= 1")
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.word!r}")
        object.__setattr__(self, "_hash", hash((self.word,)))
        object.__setattr__(self, "_text", ("" if n < 10 else ",").join(map(str, self.word)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """The image w(i), 1-based."""
        return self.word[i - 1]

    def __str__(self) -> str:
        return self._text

    @staticmethod
    def parse(text: str) -> "Permutation":
        """Parse one-line notation, either ``"4213"`` or ``"10,3,1,..."``."""
        text = text.strip()
        if "," in text:
            word = tuple(int(part) for part in text.split(","))
        else:
            word = tuple(int(ch) for ch in text)
        return Permutation(word)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The order-reversing word n n-1 ... 1."""
        return Permutation(tuple(range(n, 0, -1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic word order."""
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


@dataclass(frozen=True)
class RankMatrix:
    """The n x n rank grid of a permutation, rows printed top first.

    ``rows[p-1][q-1]`` is the (p, q) entry; both indices are 1-based at the
    accessor level.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, p: int, q: int) -> int:
        return self.rows[p - 1][q - 1]

    def column(self, q: int) -> tuple[int, ...]:
        """Column q, top to bottom."""
        return tuple(row[q - 1] for row in self.rows)

    def __str__(self) -> str:
        width = max(len(str(x)) for row in self.rows for x in row)
        return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in self.rows)


@lru_cache(maxsize=None)
def rank_matrix(w: Permutation) -> RankMatrix:
    """Rank matrix of w: entry (p, q) counts the k <= q with w(k) >= p.

    >>> rank_matrix(Permutation.parse("12")).rows
    ((1, 2), (0, 1))
    """
    n = w.n
    rows = []
    for p in range(1, n + 1):
        row = []
        count = 0
        for q in range(1, n + 1):
            if w(q) >= p:
                count += 1
            row.append(count)
        rows.append(tuple(row))
    return RankMatrix(tuple(rows))


def rank_matrix_via_minima(w: Permutation) -> RankMatrix:
    """Rank matrix computed column by column from iterated prefix minima.

    For column q, let a_q be the minimum of {w(1..q)} and let each subsequent
    a_i be the minimum after the previous minima have been removed, so that
    a_q < a_{q-1} < ... < a_1.  The column is the step function that equals q
    on rows 1..a_q, equals i-1 on rows a_i+1..a_{i-1}, and is 0 below a_1.

    Kept alongside :func:`rank_matrix` so the two can cross-validate.
    """
    n = w.n
    cols = []
    for q in range(1, n + 1):
        remaining = sorted(w(i) for i in range(1, q + 1))
        # remaining[0] = a_q, remaining[1] = a_{q-1}, ..., remaining[q-1] = a_1
        col = [0] * n
        for p in range(1, n + 1):
            if p <= remaining[0]:
                col[p - 1] = q
                continue
            value = 0
            for idx in range(1, q):
                # interval (a_{q-idx+1}, a_{q-idx}] carries value q-idx
                if remaining[idx - 1] < p <= remaining[idx]:
                    value = q - idx
                    break
            col[p - 1] = value
        cols.append(col)
    rows = tuple(tuple(cols[q][p] for q in range(n)) for p in range(n))
    return RankMatrix(rows)


def dominates(a: RankMatrix, b: RankMatrix) -> bool:
    """Entrywise comparison: True iff every entry of a is <= the entry of b."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return all(x <= y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


PATTERN_321 = Permutation((3, 2, 1))
PATTERN_132 = Permutation((1, 3, 2))
SUPPORTED_PATTERNS = (PATTERN_321, PATTERN_132)


def avoids_pattern(p: Permutation, pattern: Permutation) -> bool:
    """True iff no index triple i < j < k realizes the pattern's relative order.

    Only the two patterns used by the classifier are supported: 321 and 132.
    """
    if pattern not in SUPPORTED_PATTERNS:
        raise ValueError(f"unsupported pattern: {pattern}")
    word = p.word
    n = p.n
    if pattern.word == (3, 2, 1):
        # contains 321 iff some strictly decreasing subsequence has length 3
        for j in range(n):
            if any(word[i] > word[j] for i in range(j)) and any(
                word[k] < word[j] for k in range(j + 1, n)
            ):
                return False
        return True
    # 132: some i < j < k with word[i] < word[k] < word[j]
    min_left = word[0]
    for j in range(1, n):
        for k in range(j + 1, n):
            if min_left < word[k] < word[j]:
                return False
        min_left = min(min_left, word[j])
    return True


def is_longest_element(w: Permutation) -> bool:
    """True iff w(i) = n - i + 1 for all i."""
    n = w.n
    return all(w(i) == n - i + 1 for i in range(1, n + 1))
