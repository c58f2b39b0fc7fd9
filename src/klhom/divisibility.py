"""
Term divisibility across minors, decided without expanding the divisor.

Terms of a determinant are squarefree products of variable cells, so one term
divides another exactly when its variable set is contained in the other's.
Whether *some* term of det(A) divides a given term of det(B) reduces to a
path search inside A: each column of A must pick either a forced 1 of A or a
variable cell that the dividend term already contains, with all rows
distinct.  When A shares no full containment with B, rows and columns of A
outside B can only ever contribute their forced 1, which gives a cheap
necessary filter before the search.
"""
from __future__ import annotations

from .minors import MinorSpec
from .paths import _nonzero, _pivots
from .permutations import Permutation
from .polynomials import Monomial
from .zmatrix import Cell


def term_divides(a: Monomial, b: Monomial) -> bool:
    """Setwise containment of the variable cells (cells never repeat)."""
    return a.vars_ <= b.vars_


def is_subminor(a: MinorSpec, b: MinorSpec) -> bool:
    return set(a.rows) <= set(b.rows) and set(a.cols) <= set(b.cols)


def _exists_allowed_path(prow, pcol, m: MinorSpec, allowed: frozenset) -> bool:
    """A nonzero path of m whose variable picks all lie in ``allowed``."""
    cols = m.cols
    rows = m.rows
    used: set[int] = set()

    def rec(k: int) -> bool:
        if k == len(cols):
            return True
        j = cols[k]
        for i in rows:
            if i in used or not _nonzero(prow, pcol, i, j):
                continue
            if prow[j] != i and Cell(i, j) not in allowed:
                continue
            used.add(i)
            if rec(k + 1):
                used.remove(i)
                return True
            used.remove(i)
        return False

    return rec(0)


def exists_dividing_term_structural(a: MinorSpec, m_b: Monomial, v: Permutation,
                                    b: MinorSpec | None = None) -> bool:
    """True iff some term of det(a) divides the given term of det(b).

    Decided structurally (no expansion of det(a)).  When the source minor b
    is supplied and a is not contained in it, every row or column of a
    outside b must carry its forced 1 inside a, which screens most negatives
    before the path search runs.
    """
    prow, pcol = _pivots(v)
    if b is not None and not is_subminor(a, b):
        for i in set(a.rows) - set(b.rows):
            if pcol[i] not in a.cols:
                return False
        for j in set(a.cols) - set(b.cols):
            if prow[j] not in a.rows:
                return False
    return _exists_allowed_path(prow, pcol, a, m_b.vars_)
