import pytest

from klhom.permutations import Permutation, all_permutations
from klhom.zmatrix import Cell, build_z, format_grid, format_matrix

P = Permutation.parse


def brute_entry(v, cell):
    """Entry classification straight from the defining rule."""
    n = v.n
    i, j = cell
    if i == n - v(j) + 1:
        return "one"
    if i > n - v(j) + 1:
        return "zero"
    if any(i == n - v(jj) + 1 for jj in range(1, j)):
        return "zero"
    return "variable"


class TestBuildZ:
    def test_golden_2314(self):
        # bottom-left entry is forced to z_{1,1} by the construction rule
        assert format_grid(build_z(P("2314"))) == [
            ["0", "0", "1", "0"],
            ["1", "0", "0", "0"],
            ["z_{2,1}", "1", "0", "0"],
            ["z_{1,1}", "z_{1,2}", "z_{1,3}", "1"],
        ]

    def test_golden_23451(self):
        assert format_grid(build_z(P("23451"))) == [
            ["0", "0", "0", "0", "1"],
            ["1", "0", "0", "0", "0"],
            ["z_{3,1}", "1", "0", "0", "0"],
            ["z_{2,1}", "z_{2,2}", "1", "0", "0"],
            ["z_{1,1}", "z_{1,2}", "z_{1,3}", "1", "0"],
        ]

    def test_identity_pivots(self):
        for n in (1, 3, 5):
            z = build_z(Permutation.identity(n))
            assert z.pivot_row_of_col == tuple(n - j for j in range(n))

    def test_render_string(self):
        text = format_matrix(build_z(P("2314")))
        assert text.splitlines()[0].split() == ["0", "0", "1", "0"]


class TestEntry:
    def test_golden_cells(self):
        z = build_z(P("2314"))
        assert z.entry(Cell(3, 1)).is_one
        assert z.entry(Cell(3, 2)).is_zero
        e = z.entry(Cell(1, 3))
        assert e.is_variable and e.cell == Cell(1, 3)

    def test_out_of_range(self):
        z = build_z(P("2314"))
        with pytest.raises(ValueError):
            z.entry(Cell(0, 1))
        with pytest.raises(ValueError):
            z.entry(Cell(1, 5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_defining_rule(self, n):
        for v in all_permutations(n):
            z = build_z(v)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert z.entry(Cell(i, j)).kind == brute_entry(v, Cell(i, j))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pivot_uniqueness(self, n):
        for v in all_permutations(n):
            z = build_z(v)
            ones = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                    if z.entry(Cell(i, j)).is_one]
            assert sorted(i for i, _ in ones) == list(range(1, n + 1))
            assert sorted(j for _, j in ones) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_variable_count_is_colength(self, n):
        for v in all_permutations(n):
            z = build_z(v)
            count = sum(z.entry(Cell(i, j)).is_variable
                        for i in range(1, n + 1) for j in range(1, n + 1))
            inversions = sum(1 for a in range(1, n + 1) for b in range(a + 1, n + 1)
                             if v(a) > v(b))
            assert count == n * (n - 1) // 2 - inversions


class TestSouthwest:
    def test_golden_33_window(self):
        z = build_z(P("23451"))
        assert format_grid(z, (1, 2, 3), (1, 2, 3)) == [
            ["z_{3,1}", "1", "0"],
            ["z_{2,1}", "z_{2,2}", "1"],
            ["z_{1,1}", "z_{1,2}", "z_{1,3}"],
        ]
