import itertools
import random

import pytest

from klhom.minors import (MinorSpec, defining_minor_count, enumerate_defining_minors,
                          pruned_defining_minors, relevant_rows_for_column,
                          required_minor_size, si_sequence_raw)
from klhom.oracle import brute_si, laplace_determinant, reduce_over_generators
from klhom.permutations import Permutation, all_permutations, is_longest_element, rank_matrix
from klhom.polynomials import Polynomial
from klhom.zmatrix import build_z

P = Permutation.parse


class TestMinorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinorSpec((2, 1), (1, 2))
        with pytest.raises(ValueError):
            MinorSpec((1, 2), (1,))
        with pytest.raises(ValueError):
            MinorSpec((), ())

    def test_equality_ignores_provenance(self):
        a = MinorSpec((1, 2), (1, 3), windows=((3, 3),))
        b = MinorSpec((1, 2), (1, 3), windows=((2, 3), (3, 3)))
        assert a == b and hash(a) == hash(b)


class TestRequiredMinorSize:
    def test_admissible_2x2(self):
        # w=4213 window with rank entry 1 and a 2x2 block
        assert required_minor_size(P("4213"), 3, 2) == 2

    def test_single_column_never_fits_rank_one(self):
        for w in all_permutations(4):
            for s in range(1, 5):
                if rank_matrix(w).entry(s, 1) == 1:
                    assert required_minor_size(w, s, 1) is None

    def test_longest_element_has_none(self):
        w0 = Permutation.longest(4)
        for s in range(1, 5):
            for t in range(1, 5):
                assert required_minor_size(w0, s, t) is None


class TestEnumerate:
    def test_golden_2314_4213(self):
        gens = enumerate_defining_minors(P("2314"), P("4213"))
        keys = {(m.rows, m.cols) for m in gens.minors}
        assert keys == {
            ((1, 2), (1, 2)),
            ((1, 2), (1, 3)),
            ((1, 2), (2, 3)),
            ((1, 2, 3), (1, 2, 3)),
        }
        sizes = sorted(m.p for m in gens.minors)
        assert sizes == [2, 2, 2, 3]

    def test_dedup_keeps_all_windows(self):
        gens = enumerate_defining_minors(P("2314"), P("4213"))
        shared = next(m for m in gens.minors if (m.rows, m.cols) == ((1, 2), (1, 2)))
        assert set(shared.windows) == {(3, 2), (3, 3)}

    def test_longest_element_empty(self):
        for v in all_permutations(3):
            assert len(enumerate_defining_minors(v, Permutation.longest(3))) == 0

    def test_identity_pair_n2_matches_window_scan(self):
        v = w = Permutation.identity(2)
        gens = enumerate_defining_minors(v, w)
        expected = set()
        for s in range(1, 3):
            for t in range(1, 3):
                p = required_minor_size(w, s, t)
                if p is None:
                    continue
                for rows in itertools.combinations(range(1, 2 - s + 2), p):
                    for cols in itertools.combinations(range(1, t + 1), p):
                        expected.add((rows, cols))
        assert {(m.rows, m.cols) for m in gens.minors} == expected

    def test_admissibility_invariant(self):
        for v, w in [(P("2314"), P("4213")), (P("23451"), P("42531"))]:
            n = v.n
            for m in enumerate_defining_minors(v, w).minors:
                for s, t in m.windows:
                    assert m.p == rank_matrix(w).entry(s, t) + 1
                    assert m.p <= min(n - s + 1, t)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_defining_minors(P("12"), P("123"))


class TestDefiningMinorCount:
    def test_enumeration_does_not_depend_on_v(self, s4_perms):
        for w in s4_perms:
            assert len({len(enumerate_defining_minors(v, w)) for v in s4_perms}) == 1

    @pytest.mark.parametrize("n", [5, 6])
    def test_closed_form_matches_enumeration(self, n):
        v = Permutation.identity(n)
        for w in all_permutations(n):
            assert defining_minor_count(w) == len(enumerate_defining_minors(v, w)), f"w={w}"
            # the classifier's empty-ideal gate reads the count
            assert (defining_minor_count(w) == 0) == is_longest_element(w), f"w={w}"


class TestColumnPruning:
    def test_golden_42531_raw_and_filtered(self):
        w = P("42531")
        assert si_sequence_raw(w, 3) == [1, 3, 5]
        assert relevant_rows_for_column(w, 3) == [3]

    def test_longest_element_all_columns_empty(self):
        w0 = Permutation.longest(4)
        for t in range(1, 5):
            assert relevant_rows_for_column(w0, t) == []

    def test_strictly_increasing_and_admissible(self):
        for w in all_permutations(4):
            for t in range(1, 5):
                kept = relevant_rows_for_column(w, t)
                assert kept == sorted(set(kept))
                for s in kept:
                    assert required_minor_size(w, s, t) is not None

    def test_matches_domination_oracle_s4(self):
        for w in all_permutations(4):
            for t in range(1, 5):
                assert relevant_rows_for_column(w, t) == brute_si(w, t)

    def test_mixed_convention_regression(self):
        # column (3,2,2,1): the surviving window starts at row 2 and holds a
        # 3x3 minor; reading the raw heights as window rows would discard it
        w = P("4312")
        assert relevant_rows_for_column(w, 3) == [2]
        assert required_minor_size(w, 2, 3) == 3


class TestPrunedMinors:
    def test_golden_42531_column3_keeps_only_the_3x3_window(self):
        gens = pruned_defining_minors(P("23451"), P("42531"))
        col3_windows = {wt for m in gens.minors for wt in m.windows if wt[1] == 3}
        assert col3_windows == {(3, 3)}
        assert any((m.rows, m.cols) == ((1, 2, 3), (1, 2, 3)) for m in gens.minors)

    def test_2314_4213_keeps_the_three_2x2(self):
        gens = pruned_defining_minors(P("2314"), P("4213"))
        keys = {(m.rows, m.cols) for m in gens.minors}
        assert keys == {((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 3))}

    def test_longest_element_empty(self):
        assert len(pruned_defining_minors(P("1234"), Permutation.longest(4))) == 0

    def test_pruned_subset_of_enumerated(self):
        for w in all_permutations(3):
            for v in all_permutations(3):
                full = {(m.rows, m.cols) for m in enumerate_defining_minors(v, w).minors}
                kept = {(m.rows, m.cols) for m in pruned_defining_minors(v, w).minors}
                assert kept <= full


def assert_reduces_exactly(v, w):
    """Every discarded determinant equals its rewrite over the kept set."""
    z = build_z(v)
    full = enumerate_defining_minors(v, w)
    kept = pruned_defining_minors(v, w)
    kept_keys = {(m.rows, m.cols): m for m in kept.minors}
    for m in full.minors:
        if (m.rows, m.cols) in kept_keys:
            continue
        combo = reduce_over_generators(m, kept, z)
        total = Polynomial.zero()
        for key, coeff in combo.items():
            total = total + coeff * laplace_determinant(kept_keys[key], z)
        assert total == laplace_determinant(m, z), f"v={v} w={w} {m}"


class TestPruningSoundness:
    def test_exhaustive_s3(self):
        for v in all_permutations(3):
            for w in all_permutations(3):
                assert_reduces_exactly(v, w)

    def test_random_s4_pairs(self):
        rng = random.Random(20240817)
        perms = list(all_permutations(4))
        for _ in range(50):
            assert_reduces_exactly(rng.choice(perms), rng.choice(perms))
