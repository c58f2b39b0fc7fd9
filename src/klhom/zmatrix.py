"""
The structured variable matrix attached to a permutation v.

The matrix has one 1 per row and per column: column j carries its 1 in row
``n - v(j) + 1``, where rows are counted **from the bottom** (row 1 is the
bottom row) and columns from the left.  Every entry strictly to the right of
a 1 in its row is 0, every entry strictly above a 1 in its column is 0, and
all remaining entries are free variables ``z_{i,j}``.

Rows are bottom-indexed everywhere in this package; the pretty-printer is the
only place that re-orders rows (it prints the top row first, the way the
matrix is usually drawn).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .permutations import Permutation


class Cell(NamedTuple):
    """A matrix position: row counted from the bottom, column from the left."""

    row: int
    col: int


def cell_name(cell: Cell) -> str:
    return f"z_{{{cell.row},{cell.col}}}"


@dataclass(frozen=True)
class ZEntry:
    """One entry of the matrix: a forced 1, a forced 0, or a free variable."""

    kind: str  # "one" | "zero" | "variable"
    cell: Cell | None = None

    @property
    def is_one(self) -> bool:
        return self.kind == "one"

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_variable(self) -> bool:
        return self.kind == "variable"

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        if self.is_zero:
            return "0"
        assert self.cell is not None
        return cell_name(self.cell)


ONE = ZEntry("one")
ZERO = ZEntry("zero")


@dataclass(frozen=True)
class ZMatrix:
    """The pivot pattern of v plus lazy entry classification."""

    v: Permutation
    # pivot_row_of_col[j-1] = bottom-indexed row of the 1 in column j
    pivot_row_of_col: tuple[int, ...]
    # pivot_col_of_row[i-1] = column of the 1 in bottom-indexed row i
    pivot_col_of_row: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.v.n

    def entry(self, cell: Cell) -> ZEntry:
        """Classify a cell as One / Zero / Variable.

        Zero iff the cell sits above the 1 of its column or to the right of
        the 1 of its row; One iff it is the 1 itself; Variable otherwise.
        """
        i, j = cell
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"cell out of range: {cell}")
        pivot_row = self.pivot_row_of_col[j - 1]
        if i == pivot_row:
            return ONE
        if i > pivot_row or j > self.pivot_col_of_row[i - 1]:
            return ZERO
        return ZEntry("variable", cell)


def build_z(v: Permutation) -> ZMatrix:
    """Construct the matrix pattern for v (column j pivots in row n - v(j) + 1).

    >>> z = build_z(Permutation.parse("2314"))
    >>> z.pivot_row_of_col
    (3, 2, 4, 1)
    """
    n = v.n
    pivot_row_of_col = tuple(n - v(j) + 1 for j in range(1, n + 1))
    pivot_col_of_row = [0] * n
    for j, i in enumerate(pivot_row_of_col, start=1):
        pivot_col_of_row[i - 1] = j
    return ZMatrix(v, pivot_row_of_col, tuple(pivot_col_of_row))


def format_grid(z: ZMatrix, rows: tuple[int, ...] | None = None,
                cols: tuple[int, ...] | None = None) -> list[list[str]]:
    """Entry tokens for the selected rows/cols, top row first."""
    rows = rows if rows is not None else tuple(range(1, z.n + 1))
    cols = cols if cols is not None else tuple(range(1, z.n + 1))
    return [[str(z.entry(Cell(i, j))) for j in cols] for i in sorted(rows, reverse=True)]


def format_matrix(z: ZMatrix, rows: tuple[int, ...] | None = None,
                  cols: tuple[int, ...] | None = None) -> str:
    """Aligned text rendering, top row first."""
    grid = format_grid(z, rows, cols)
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    return "\n".join("  ".join(tok.ljust(w) for tok, w in zip(row, widths)).rstrip()
                     for row in grid)
