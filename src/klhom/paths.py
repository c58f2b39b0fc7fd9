"""
Path expansion of minors: determinants, singularity, inhomogeneity, and term
divisibility across minors.

A path of a p x p minor picks one entry per column, all rows distinct; a
nonzero path avoids forced zeros.  The determinant is the signed sum over
nonzero paths, and distinct nonzero paths never share a variable set, so no
cancellation can occur (checked during assembly).

All structural tests below work from the pivot pattern alone, read from the
``ZMatrix`` they are given: ``zmatrix.nonzero`` is the zero rule, and
``zmatrix.build_z`` places the 1s (rows bottom-indexed).  A path holds only
nonzero cells, so a path cell is a variable exactly when it is not its
column's 1.

Each existence question (is the minor singular, does some nonzero path pick a
given cell, does some nonzero path use only allowed variables) runs the one
search ``_complete``.  A path through a variable below an in-minor 1 needs no
special handling: the 1's row is nonzero only up to the 1's column, which the
variable already takes, so any completion picks from that row further left.

Terms of a determinant are squarefree products of variable cells, so one term
divides another exactly when its variable set is contained in the other's.
Whether *some* term of det(A) divides a given term of det(B) is the third
question: each column of A must pick either a forced 1 of A or a variable cell
that the dividend term already contains, with all rows distinct.  When A is
not contained in B, rows and columns of A outside B can only ever contribute
their forced 1, which gives a cheap necessary filter before the search.
"""
from __future__ import annotations

from typing import Iterable

from .errors import ConsistencyError
from .minors import MinorSpec
from .polynomials import Mono, Polynomial, mono_from_vars
from .zmatrix import Cell, ZMatrix, nonzero


Path = tuple[Cell, ...]


def enumerate_nonzero_paths(m: MinorSpec, z: ZMatrix) -> list[Path]:
    """All nonzero paths, columns left-to-right, rows tried in ascending order."""
    prow, pcol = z.prow, z.pcol
    cols = m.cols
    rows = m.rows
    out: list[Path] = []
    picks: list[int] = []

    def rec(k: int) -> None:
        if k == len(cols):
            out.append(tuple(Cell(i, j) for i, j in zip(picks, cols)))
            return
        j = cols[k]
        for i in rows:
            if i not in picks and nonzero(prow, pcol, i, j):
                picks.append(i)
                rec(k + 1)
                picks.pop()

    rec(0)
    return out


def path_sign(m: MinorSpec, path: Path) -> int:
    """Parity of the picked row order against the sorted row list."""
    order = [m.rows.index(cell.row) for cell in path]
    inversions = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
                     if order[a] > order[b])
    return -1 if inversions % 2 else 1


def path_monomial(z: ZMatrix, path: Path) -> Mono:
    """The squarefree product of the path's variable cells (1 picks drop out)."""
    prow = z.prow
    return mono_from_vars(c for c in path if prow[c.col] != c.row)


def determinant(m: MinorSpec, z: ZMatrix) -> Polynomial:
    """Signed sum over nonzero paths; equals the cofactor-expansion oracle.

    The sign convention is det of the matrix whose rows are listed in
    ascending bottom index.
    """
    paths = enumerate_nonzero_paths(m, z)
    terms = {}
    for path in paths:
        mono = path_monomial(z, path)
        # distinct nonzero paths always carry distinct variable sets
        if mono in terms:
            raise ConsistencyError(f"cancelling paths in {m}: {path}")
        terms[mono] = path_sign(m, path)
    return Polynomial(terms)


def _complete(prow, pcol, rows: tuple[int, ...], cols: Iterable[int],
              used: set[int], allowed: frozenset | None = None) -> bool:
    """Can the remaining columns pick nonzero entries in distinct unused rows?

    With ``allowed`` given, every variable pick must be one of its cells; a
    forced 1 is always admissible.
    """
    cols = list(cols)

    def rec(k: int) -> bool:
        if k == len(cols):
            return True
        j = cols[k]
        for i in rows:
            if i not in used and nonzero(prow, pcol, i, j):
                if allowed is not None and prow[j] != i and (i, j) not in allowed:
                    continue
                used.add(i)
                if rec(k + 1):
                    used.remove(i)
                    return True
                used.remove(i)
        return False

    return rec(0)


def is_singular(m: MinorSpec, z: ZMatrix) -> bool:
    """True iff the minor has no nonzero path (equivalently, determinant 0).

    One ``_complete`` search over all the minor's columns answers it; a zero
    row or column needs no screen of its own, since the search fails on it.
    """
    return not _complete(z.prow, z.pcol, m.rows, m.cols, set())


def exists_nonzero_path_through(m: MinorSpec, z: ZMatrix, cell: Cell) -> bool:
    """True iff some nonzero path of the minor picks the given variable cell."""
    prow, pcol = z.prow, z.pcol
    if cell.row not in m.rows or cell.col not in m.cols:
        raise ValueError(f"{cell} is not a cell of {m}")
    if not nonzero(prow, pcol, cell.row, cell.col) or prow[cell.col] == cell.row:
        raise ValueError(f"{cell} is not a variable entry")
    return _complete(prow, pcol, m.rows, (j for j in m.cols if j != cell.col), {cell.row})


def is_unit_determinant(m: MinorSpec, z: ZMatrix) -> bool:
    """True iff the determinant is exactly +1 or -1.

    That happens precisely when every column's 1 falls inside the minor: the
    all-ones path then exists and forces out every other path.
    """
    return all(z.prow[j] in m.rows for j in m.cols)


def is_inhomogeneous_det(m: MinorSpec, z: ZMatrix) -> bool:
    """True iff the determinant mixes degrees.

    This happens exactly when some column carries its 1 inside the minor with
    a variable below it that a nonzero path can reach: swapping that path's
    two crossing picks for the 1 and the complementary variable drops the
    degree by one, and no cancellation can hide either term.
    """
    if m.p == 1:
        return False
    prow, pcol = z.prow, z.pcol
    for j in m.cols:
        pj = prow[j]
        if pj not in m.rows:
            continue
        for i in m.rows:
            if i >= pj:
                break
            if nonzero(prow, pcol, i, j) and exists_nonzero_path_through(m, z, Cell(i, j)):
                return True
    return False


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


def homogeneous_components(f: Polynomial) -> list[Polynomial]:
    """Degree slices, highest degree first; their sum reproduces f."""
    if f.is_zero:
        raise ValueError("zero polynomial has no homogeneous components")
    return [f.degree_slice(d) for d in sorted(f.degrees(), reverse=True)]
