"""
The structured variable matrix attached to a permutation v.

The matrix has one 1 per row and per column: column j carries its 1 in row
``n - v(j) + 1``, where rows are counted **from the bottom** (row 1 is the
bottom row) and columns from the left.  Every entry strictly to the right of
a 1 in its row is 0, every entry strictly above a 1 in its column is 0, and
all remaining entries are free variables ``z_{i,j}``.

This module is the one place that decides the pattern: ``build_z`` places the
1s in the pivot maps ``prow``/``pcol`` and ``nonzero`` is the zero rule.  A
nonzero cell is a variable exactly when it is not its column's 1.  Every
structural routine in ``paths`` and the printer below read the pattern that
way; only the brute-force ``oracle`` re-derives it, from v's word alone.

Rows are bottom-indexed everywhere in this package; the pretty-printer is the
only place that re-orders rows (it prints the top row first, the way the
matrix is usually drawn).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .permutations import Permutation


class Cell(NamedTuple):
    """A matrix position: row counted from the bottom, column from the left."""

    row: int
    col: int


def cell_name(cell: Cell) -> str:
    return f"z_{{{cell.row},{cell.col}}}"


def nonzero(prow, pcol, i: int, j: int) -> bool:
    """The zero rule: cell (i, j) is not above the 1 of column j and not right
    of the 1 of row i.  ``prow`` and ``pcol`` are the pivot maps of a ZMatrix."""
    return i <= prow[j] and j <= pcol[i]


@dataclass(frozen=True)
class ZMatrix:
    """The pivot pattern of v.

    Both pivot maps are 1-based tuples whose index 0 is unused: ``prow[j]`` is
    the bottom-indexed row of column j's 1, and ``pcol[i]`` the column of row
    i's 1.
    """

    v: Permutation
    prow: tuple[int, ...]
    pcol: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.v.n


@lru_cache(maxsize=None)
def build_z(v: Permutation) -> ZMatrix:
    """The matrix pattern for v (column j pivots in row n - v(j) + 1), built
    once per v.

    >>> z = build_z(Permutation.parse("2314"))
    >>> z.prow
    (0, 3, 2, 4, 1)
    >>> z.pcol
    (0, 4, 2, 1, 3)
    """
    n = v.n
    prow = [0] * (n + 1)
    pcol = [0] * (n + 1)
    for j in range(1, n + 1):
        i = n - v(j) + 1
        prow[j] = i
        pcol[i] = j
    return ZMatrix(v, tuple(prow), tuple(pcol))


def format_grid(z: ZMatrix, rows: tuple[int, ...] | None = None,
                cols: tuple[int, ...] | None = None) -> list[list[str]]:
    """Entry tokens (``"1"``, ``"0"`` or the variable's name) for the selected
    rows/cols, top row first."""
    rows = rows if rows is not None else tuple(range(1, z.n + 1))
    cols = cols if cols is not None else tuple(range(1, z.n + 1))
    prow, pcol = z.prow, z.pcol

    def token(i: int, j: int) -> str:
        if i == prow[j]:
            return "1"
        return cell_name(Cell(i, j)) if nonzero(prow, pcol, i, j) else "0"

    return [[token(i, j) for j in cols] for i in sorted(rows, reverse=True)]


def format_matrix(z: ZMatrix, rows: tuple[int, ...] | None = None,
                  cols: tuple[int, ...] | None = None) -> str:
    """Aligned text rendering, top row first."""
    grid = format_grid(z, rows, cols)
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    return "\n".join("  ".join(tok.ljust(w) for tok, w in zip(row, widths)).rstrip()
                     for row in grid)
