import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klhom.permutations import (Permutation, all_permutations, avoids_pattern,
                                dominates, is_longest_element, rank_matrix,
                                rank_matrix_via_minima)

P = Permutation.parse


def brute_avoids(p, pattern):
    """Exhaustive triple scan with relative-order matching."""
    for tri in itertools.combinations(range(p.n), 3):
        vals = [p.word[i] for i in tri]
        order = sorted(vals)
        if tuple(order.index(x) + 1 for x in vals) == pattern.word:
            return False
    return True


perms5 = st.permutations(list(range(1, 6))).map(lambda w: Permutation(tuple(w)))


class TestPermutation:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((2, 3))
        with pytest.raises(ValueError):
            Permutation(())

    def test_serialization_round_trip(self):
        assert str(P("4213")) == "4213"
        big = Permutation(tuple([10] + list(range(1, 10))))
        assert str(big) == "10,1,2,3,4,5,6,7,8,9"
        assert Permutation.parse(str(big)) == big
        eleven = Permutation((11, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10))
        assert str(eleven) == "11,3,1,2,4,5,6,7,8,9,10"
        assert Permutation.parse(str(eleven)) == eleven


class TestRankMatrix:
    def test_golden_4213(self):
        assert rank_matrix(P("4213")).rows == (
            (1, 2, 3, 4), (1, 2, 2, 3), (1, 1, 1, 2), (1, 1, 1, 1))

    def test_golden_42531(self):
        assert rank_matrix(P("42531")).rows == (
            (1, 2, 3, 4, 5), (1, 2, 3, 4, 4), (1, 1, 2, 3, 3),
            (1, 1, 2, 2, 2), (0, 0, 1, 1, 1))

    def test_golden_n2(self):
        assert rank_matrix(P("12")).rows == ((1, 2), (0, 1))

    def test_minima_formula_column_golden(self):
        # column 3 of the 42531 matrix from the prefix-minima step function
        assert rank_matrix_via_minima(P("42531")).column(3) == (3, 3, 2, 2, 1)

    def test_minima_column_t1(self):
        for w in all_permutations(4):
            col = rank_matrix_via_minima(w).column(1)
            assert col == tuple(1 if p <= w(1) else 0 for p in range(1, 5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_formulas_agree_exhaustively(self, n):
        for w in all_permutations(n):
            assert rank_matrix(w) == rank_matrix_via_minima(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shape_invariants(self, n):
        for w in all_permutations(n):
            r = rank_matrix(w)
            assert r.rows[0] == tuple(range(1, n + 1))
            assert r.entry(1, n) == n
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    assert r.entry(p, q) <= min(q, n - p + 1)
                    if q > 1:
                        assert r.entry(p, q) - r.entry(p, q - 1) in (0, 1)
                    if p > 1:
                        assert r.entry(p - 1, q) - r.entry(p, q) in (0, 1)


class TestDominates:
    def test_reflexive(self):
        a = rank_matrix(P("4213"))
        assert dominates(a, a)

    def test_entrywise_golden(self):
        a, b = rank_matrix(P("2314")), rank_matrix(P("4213"))
        expected = all(x <= y for ra, rb in zip(a.rows, b.rows)
                       for x, y in zip(ra, rb))
        assert dominates(a, b) == expected

    def test_single_entry_violation(self):
        a, b = rank_matrix(P("21")), rank_matrix(P("12"))
        # a(2,1)=1 > b(2,1)=0
        assert not dominates(a, b)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominates(rank_matrix(P("12")), rank_matrix(P("123")))

    @given(perms5, perms5, perms5)
    def test_partial_order(self, u, v, w):
        a, b, c = rank_matrix(u), rank_matrix(v), rank_matrix(w)
        if dominates(a, b) and dominates(b, a):
            assert a == b
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestPatterns:
    def test_identity_avoids_321(self):
        assert avoids_pattern(Permutation.identity(6), P("321"))

    def test_321_contains_itself(self):
        assert not avoids_pattern(P("321"), P("321"))

    def test_2314_vs_132(self):
        p = P("2314")
        assert avoids_pattern(p, P("132")) == brute_avoids(p, P("132"))

    def test_unsupported_pattern(self):
        with pytest.raises(ValueError):
            avoids_pattern(P("123"), P("213"))

    @pytest.mark.parametrize("pattern", ["321", "132"])
    def test_matches_triple_scan_s5(self, pattern):
        pat = P(pattern)
        for p in all_permutations(5):
            assert avoids_pattern(p, pat) == brute_avoids(p, pat)


class TestLongestElement:
    def test_golden(self):
        assert is_longest_element(P("4321"))
        assert not is_longest_element(Permutation.identity(4))
        assert not is_longest_element(P("4213"))

    def test_unique_in_s4(self):
        hits = [w for w in all_permutations(4) if is_longest_element(w)]
        assert hits == [Permutation.longest(4)]
