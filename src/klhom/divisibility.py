"""
Term divisibility across minors, decided without expanding the divisor.

Terms of a determinant are squarefree products of variable cells, so one term
divides another exactly when its variable set is contained in the other's.
Whether *some* term of det(A) divides a given term of det(B) reduces to the
path search of ``paths._complete`` inside A, over the pivot maps of v's
``ZMatrix``, with the dividend term's cells as the allowed variables: each
column of A must pick either a forced 1 of A or a variable cell that the
dividend term already contains, with all rows distinct.  When A shares no
full containment with B, rows and columns of A outside B can only ever
contribute their forced 1, which gives a cheap necessary filter before the
search.
"""
from __future__ import annotations

from .minors import MinorSpec
from .paths import _complete
from .polynomials import Mono
from .zmatrix import ZMatrix


def is_subminor(a: MinorSpec, b: MinorSpec) -> bool:
    return set(a.rows) <= set(b.rows) and set(a.cols) <= set(b.cols)


def exists_dividing_term_structural(a: MinorSpec, m_b: Mono, z: ZMatrix,
                                    b: MinorSpec) -> bool:
    """True iff some term of det(a) divides the squarefree term m_b of det(b).

    Decided structurally (no expansion of det(a)): the variable cells of m_b
    are the only variable picks a dividing path may make.  When a is not
    contained in the source minor b, every row or column of a outside b must
    carry its forced 1 inside a, which screens most negatives before the path
    search runs.
    """
    prow, pcol = z.prow, z.pcol
    if not is_subminor(a, b):
        for i in set(a.rows) - set(b.rows):
            if pcol[i] not in a.cols:
                return False
        for j in set(a.cols) - set(b.cols):
            if prow[j] not in a.rows:
                return False
    return _complete(prow, pcol, a.rows, a.cols, set(), frozenset(c for c, _ in m_b))
