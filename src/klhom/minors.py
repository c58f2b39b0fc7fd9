"""
Defining generators of the ideal attached to a pair (v, w).

The generators are the size-p minors of southwest windows of the variable
matrix of v, where the window (s, t) keeps rows 1..n-s+1 (bottom-indexed) and
columns 1..t, and p is one more than the (s, t) rank entry of w.  A window
only contributes when p fits, i.e. p <= min(n-s+1, t).

Window bookkeeping uses two equivalent coordinates and this module is the
single place where both appear:

- ``(s, t)`` with s the top row of the window, the convention every other
  function in the package uses;
- the window *height* h = n - s + 1, which is what the column-scanning
  pruning algorithm naturally produces (``si_sequence_raw``).

``relevant_rows_for_column`` converts heights back to s values, so callers
never see heights except in the raw sequence report.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .permutations import Permutation, rank_matrix


@dataclass(frozen=True)
class MinorSpec:
    """A square sub-minor: bottom-indexed row set and column set.

    Equality and hashing ignore window provenance, so the same index pair
    arising from two windows deduplicates to a single generator.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    windows: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.cols) or not self.rows:
            raise ValueError(f"minor must be square and nonempty: {self.rows} x {self.cols}")
        for seq in (self.rows, self.cols):
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"indices must be strictly increasing: {seq}")

    @property
    def p(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return f"rows{{{','.join(map(str, self.rows))}}} x cols{{{','.join(map(str, self.cols))}}}"

    def to_record(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols), "p": self.p,
                "windows": [list(wt) for wt in self.windows]}


@dataclass(frozen=True)
class GeneratorSet:
    v: Permutation
    w: Permutation
    minors: tuple[MinorSpec, ...]

    def __len__(self) -> int:
        return len(self.minors)


def required_minor_size(w: Permutation, s: int, t: int) -> int | None:
    """Minor size for window (s, t): rank entry plus one, if it fits.

    Returns None when the required size exceeds min(n-s+1, t), in which case
    the window contributes no generators.
    """
    n = w.n
    if not (1 <= s <= n and 1 <= t <= n):
        raise ValueError(f"window ({s},{t}) out of range for n={n}")
    p = rank_matrix(w).entry(s, t) + 1
    return p if p <= min(n - s + 1, t) else None


def _colex(iterable, size: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(iterable, size), key=lambda c: tuple(reversed(c)))


def _window_minors(s: int, t: int, height: int, p: int):
    for rows in _colex(range(1, height + 1), p):
        for cols in _colex(range(1, t + 1), p):
            yield rows, cols


def _collect(v: Permutation, w: Permutation, windows: list[tuple[int, int]]) -> GeneratorSet:
    n = w.n
    # a dict keeps first-insertion order, and reassigning a key keeps its place
    seen: dict[tuple, MinorSpec] = {}
    for s, t in windows:
        p = required_minor_size(w, s, t)
        if p is None:
            continue
        for rows, cols in _window_minors(s, t, n - s + 1, p):
            key = (rows, cols)
            if key in seen:
                seen[key] = MinorSpec(rows, cols, seen[key].windows + ((s, t),))
            else:
                seen[key] = MinorSpec(rows, cols, ((s, t),))
    return GeneratorSet(v, w, tuple(seen.values()))


def enumerate_defining_minors(v: Permutation, w: Permutation) -> GeneratorSet:
    """Every defining minor from every admissible window, deduplicated."""
    if v.n != w.n:
        raise ValueError(f"size mismatch: {v.n} vs {w.n}")
    n = w.n
    windows = [(s, t) for t in range(1, n + 1) for s in range(1, n + 1)]
    return _collect(v, w, windows)


@lru_cache(maxsize=None)
def defining_minor_count(w: Permutation) -> int:
    """``len(enumerate_defining_minors(v, w))`` for any v, without building them.

    The minors depend on w alone.  Write r for the rank matrix of w.  A p x p
    minor with largest row a and largest column b is defining exactly when
    some window (s, t) with s <= n-a+1 and t >= b has r(s, t) = p-1 (such a
    window also fits the minor).  Over that block of windows r falls from
    r(1, n) = n to r(n-a+1, b), and neighbouring entries differ by 0 or 1, so
    it takes every value in between.  The sizes are therefore the p from
    r(n-a+1, b)+1 up to min(a, b), each with comb(a-1, p-1) row sets and
    comb(b-1, p-1) column sets.
    """
    n = w.n
    r = rank_matrix(w)
    return sum(comb(a - 1, p - 1) * comb(b - 1, p - 1)
               for a in range(1, n + 1) for b in range(1, n + 1)
               for p in range(r.entry(n - a + 1, b) + 1, min(a, b) + 1))


def si_sequence_raw(w: Permutation, t: int) -> list[int]:
    """The window heights the column-t scan visits, bottom run first.

    Scanning the rank column bottom-up, the sequence records the top row of
    the bottom constant run and then of every higher constant run of length
    at least two; singleton runs in the middle are skipped because a single
    cofactor expansion rewrites their minors over the window just below.
    Each run top a is reported as the height n - a + 1 of its window.
    """
    n = w.n
    col = (None,) + rank_matrix(w).column(t)  # 1-based
    # bottom run: largest s with col[n-s+1..n] constant
    s = 1
    while s < n and col[n - s] == col[n - s + 1]:
        s += 1
    seq = [s]
    while True:
        value = col[n - seq[-1] + 1]
        candidates = [b for b in range(2, n + 1) if col[b] > value and col[b] == col[b - 1]]
        if not candidates:
            return seq
        b = max(candidates)
        alpha = min(a for a in range(1, n + 1) if col[a] == col[b])
        seq.append(n - alpha + 1)


def relevant_rows_for_column(w: Permutation, t: int) -> list[int]:
    """The window rows s (ascending) that survive pruning for column t.

    A height h from :func:`si_sequence_raw` names the window with top row
    s = n - h + 1; heights whose windows cannot hold a minor of the required
    size are dropped.
    """
    n = w.n
    kept = [n - h + 1 for h in si_sequence_raw(w, t)
            if required_minor_size(w, n - h + 1, t) is not None]
    return sorted(kept)


def pruned_defining_minors(v: Permutation, w: Permutation) -> GeneratorSet:
    """Defining minors restricted to the windows kept per column."""
    if v.n != w.n:
        raise ValueError(f"size mismatch: {v.n} vs {w.n}")
    # the column scan visits windows bottom first (top rows descending); that
    # order fixes the generator order and the window provenance
    windows = [(s, t) for t in range(1, w.n + 1)
               for s in reversed(relevant_rows_for_column(w, t))]
    return _collect(v, w, windows)
