import itertools
import random

import pytest

import klhom.paths
from klhom.errors import ConsistencyError
from klhom.minors import MinorSpec
from klhom.oracle import brute_paths, laplace_determinant
from klhom.paths import (determinant, enumerate_nonzero_paths, exists_nonzero_path_through,
                         homogeneous_components, is_inhomogeneous_det, is_singular,
                         is_unit_determinant)
from klhom.permutations import Permutation, all_permutations
from klhom.polynomials import Polynomial, mono_from_vars
from klhom.zmatrix import Cell, build_z, nonzero

P = Permutation.parse

# the 3x3 with a variable in place of the (2,3) entry: rows/cols 1..3 of this v
V_PRINTED = P("23154")
M33 = MinorSpec((1, 2, 3), (1, 2, 3))


def all_square_minors(n):
    indices = range(1, n + 1)
    for p in range(1, n + 1):
        for rows in itertools.combinations(indices, p):
            for cols in itertools.combinations(indices, p):
                yield MinorSpec(rows, cols)


def s4_population():
    for v in all_permutations(4):
        z = build_z(v)
        for m in all_square_minors(4):
            yield v, z, m


class TestPaths:
    def test_single_variable_cell(self):
        z = build_z(P("2314"))
        m = MinorSpec((1,), (1,))
        assert enumerate_nonzero_paths(m, z) == [(Cell(1, 1),)]

    def test_zero_column_kills_all_paths(self):
        # column 4 of v=2314 is zero below row 1
        z = build_z(P("2314"))
        m = MinorSpec((2, 3), (1, 4))
        assert enumerate_nonzero_paths(m, z) == []

    def test_golden_path_through_z13(self):
        z = build_z(P("23451"))
        paths = enumerate_nonzero_paths(M33, z)
        assert any(Cell(1, 3) in path for path in paths)

    def test_matches_brute_enumeration_s4(self):
        for v, z, m in s4_population():
            assert sorted(enumerate_nonzero_paths(m, z)) == brute_paths(m, z)


class TestDeterminant:
    def test_printed_3x3_term_set(self):
        z = build_z(V_PRINTED)
        det = determinant(M33, z)
        expected = {
            frozenset({Cell(3, 1), Cell(2, 2), Cell(1, 3)}),
            frozenset({Cell(3, 1), Cell(1, 2), Cell(2, 3)}),
            frozenset({Cell(1, 1), Cell(2, 3)}),
            frozenset({Cell(1, 3), Cell(2, 1)}),
        }
        got = {frozenset(v for v, _ in mono) for mono, _ in det.terms()}
        assert got == expected
        assert det == laplace_determinant(M33, z)

    def test_generic_2x2(self):
        # all four entries free: two terms, both of degree 2
        z = build_z(P("2143"))
        det = determinant(MinorSpec((1, 2), (1, 2)), z)
        assert len(det) == 2
        assert det.degrees() == {2}

    def test_equals_cofactor_oracle_s4(self):
        for v, z, m in s4_population():
            assert determinant(m, z) == laplace_determinant(m, z)


class TestSingularity:
    def test_zero_row_minor_is_singular(self):
        z = build_z(P("2314"))
        assert is_singular(MinorSpec((2, 3), (1, 4)), z)

    def test_golden_33_window_nonsingular(self):
        z = build_z(P("23451"))
        assert not is_singular(M33, z)

    def test_p1_by_entry(self):
        z = build_z(P("2314"))
        assert not is_singular(MinorSpec((1,), (1,)), z)   # variable
        assert not is_singular(MinorSpec((3,), (1,)), z)   # forced 1
        assert is_singular(MinorSpec((4,), (1,)), z)       # forced 0

    def test_matches_determinant_s4(self):
        for v, z, m in s4_population():
            assert is_singular(m, z) == determinant(m, z).is_zero


class TestFirstColumnScan:
    """The search tries column 1's rows in turn and revises a pick that
    starves a later column."""

    def test_blocked_second_column(self):
        # column 4 pivots in row 1, so its only nonzero entry is row 1;
        # picking row 1 from the first column starves it, and the search must
        # back up to row 2
        z = build_z(P("23451"))
        m = MinorSpec((1, 2), (1, 4))
        assert not nonzero(z.prow, z.pcol, 2, 4) and z.prow[4] == 1
        assert nonzero(z.prow, z.pcol, 1, 1) and nonzero(z.prow, z.pcol, 2, 1)
        assert not is_singular(m, z)
        assert enumerate_nonzero_paths(m, z) == [(Cell(2, 1), Cell(1, 4))]

    def test_random_s5_match_enumeration(self):
        rng = random.Random(991)
        perms = list(all_permutations(5))
        for _ in range(200):
            v = rng.choice(perms)
            z = build_z(v)
            p = rng.randint(1, 5)
            rows = tuple(sorted(rng.sample(range(1, 6), p)))
            cols = tuple(sorted(rng.sample(range(1, 6), p)))
            m = MinorSpec(rows, cols)
            paths = enumerate_nonzero_paths(m, z)
            assert is_singular(m, z) == (not paths)
            for i in rows:
                for j in cols:
                    if nonzero(z.prow, z.pcol, i, j) and z.prow[j] != i:
                        hit = any(Cell(i, j) in p for p in paths)
                        assert exists_nonzero_path_through(m, z, Cell(i, j)) == hit


class TestPathThrough:
    def test_golden_z13(self):
        assert exists_nonzero_path_through(M33, build_z(P("23451")), Cell(1, 3))

    def test_rejects_non_variable_cells(self):
        z = build_z(P("23451"))
        with pytest.raises(ValueError):
            exists_nonzero_path_through(M33, z, Cell(3, 2))  # the forced 1
        with pytest.raises(ValueError):
            exists_nonzero_path_through(M33, z, Cell(3, 3))  # a forced 0
        with pytest.raises(ValueError):
            exists_nonzero_path_through(M33, z, Cell(4, 4))  # outside the minor

    def test_matches_filtered_enumeration_s4(self):
        for v, z, m in s4_population():
            paths = enumerate_nonzero_paths(m, z)
            for i in m.rows:
                for j in m.cols:
                    if nonzero(z.prow, z.pcol, i, j) and z.prow[j] != i:
                        hit = any(Cell(i, j) in p for p in paths)
                        assert exists_nonzero_path_through(m, z, Cell(i, j)) == hit


class TestInhomogeneity:
    def test_printed_3x3_is_inhomogeneous(self):
        z = build_z(V_PRINTED)
        assert is_inhomogeneous_det(M33, z)
        assert determinant(M33, z).degrees() == {2, 3}

    def test_no_ones_minor_is_homogeneous(self):
        # all-variable block: plain degree-p homogeneous determinant
        assert not is_inhomogeneous_det(MinorSpec((1, 2), (1, 2)), build_z(P("2143")))

    def test_p1_is_homogeneous(self):
        assert not is_inhomogeneous_det(MinorSpec((1,), (1,)), build_z(P("2314")))

    def test_matches_degree_spread_s4(self):
        for v, z, m in s4_population():
            spread = determinant(m, z).degrees()
            assert is_inhomogeneous_det(m, z) == (len(spread) >= 2)

    def test_matches_degree_spread_sampled_s5_s6(self):
        rng = random.Random(424242)
        for n in (5, 6):
            perms = list(itertools.islice(all_permutations(n), 0, None))
            for _ in range(120):
                v = rng.choice(perms)
                z = build_z(v)
                p = rng.randint(2, n - 1)
                m = MinorSpec(tuple(sorted(rng.sample(range(1, n + 1), p))),
                              tuple(sorted(rng.sample(range(1, n + 1), p))))
                spread = determinant(m, z).degrees()
                assert is_inhomogeneous_det(m, z) == (len(spread) >= 2)


class TestStructuralObservations:
    def test_unit_or_all_terms_nonconstant_s4(self):
        for v, z, m in s4_population():
            det = determinant(m, z)
            if det.is_zero:
                continue
            if 0 in det.degrees():
                assert det.is_unit_constant
            assert is_unit_determinant(m, z) == det.is_unit_constant

    def test_no_intra_determinant_division_s4(self):
        for v, z, m in s4_population():
            det = determinant(m, z)
            terms = [frozenset(var for var, _ in mono) for mono, _ in det.terms()]
            for a in range(len(terms)):
                for b in range(len(terms)):
                    if a != b:
                        assert not terms[a] <= terms[b]


class TestHomogeneousComponents:
    def test_printed_3x3_splits_into_two(self):
        det = determinant(M33, build_z(V_PRINTED))
        comps = homogeneous_components(det)
        assert [next(iter(c.degrees())) for c in comps] == [3, 2]
        total = Polynomial.zero()
        for c in comps:
            total = total + c
        assert total == det

    def test_homogeneous_single_component(self):
        f = Polynomial({mono_from_vars(["x1", "x2"]): 1, mono_from_vars(["x2", "x3"]): -1})
        assert homogeneous_components(f) == [f]

    def test_distinct_degrees_split_into_singletons(self):
        f = Polynomial({mono_from_vars(["x1"]): 1,
                        mono_from_vars(["x1", "x2"]): 2,
                        mono_from_vars(["x1", "x2", "x3"]): -1})
        comps = homogeneous_components(f)
        assert len(comps) == 3 and all(len(c) == 1 for c in comps)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_components(Polynomial.zero())


def test_cancelling_paths_raise_consistency_error(monkeypatch):
    # the lone minor of (123, 312) has two nonzero paths; forcing both onto
    # one monomial must trip the guard, which python -O does not strip
    v = P("123")
    z = build_z(v)
    minor = MinorSpec((1, 2), (1, 2))
    assert len(enumerate_nonzero_paths(minor, z)) == 2
    monkeypatch.setattr(klhom.paths, "path_monomial",
                        lambda z, path: mono_from_vars([Cell(1, 1)]))
    with pytest.raises(ConsistencyError):
        determinant(minor, z)
