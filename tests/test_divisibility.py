import random

from klhom.minors import MinorSpec, pruned_defining_minors
from klhom.oracle import brute_divisor_exists, check_divisibility, laplace_determinant
from klhom.paths import (determinant, enumerate_nonzero_paths, exists_dividing_term_structural,
                         is_subminor)
from klhom.permutations import Permutation, all_permutations
from klhom.polynomials import mono_divides, mono_from_vars
from klhom.zmatrix import Cell, build_z

P = Permutation.parse


def mono(*cells):
    return mono_from_vars(Cell(*c) for c in cells)


class TestTermDivides:
    def test_distinct_terms_of_one_determinant_never_divide(self):
        z = build_z(P("23451"))
        det = determinant(MinorSpec((1, 2, 3), (1, 2, 3)), z)
        terms = [m for m, _ in det.terms()]
        assert len(terms) > 1
        for a in terms:
            for b in terms:
                if a != b:
                    assert not mono_divides(a, b)


class TestStructuralCriterion:
    def test_subminor_with_contained_path(self):
        # the 2x2 lower-left corner inside the 3x3 window of v=23451
        z = build_z(P("23451"))
        big = MinorSpec((1, 2, 3), (1, 2, 3))
        small = MinorSpec((1, 2), (1, 2))
        assert is_subminor(small, big)
        for m_b, _ in determinant(big, z).terms():
            expected = brute_divisor_exists(small, m_b, z)
            assert exists_dividing_term_structural(small, m_b, z, b=big) == expected

    def test_disjoint_minor_without_forced_ones_fails(self):
        # rows {1,2} x cols {1,2} of v=2143 is all-variable, so against a
        # dividend sharing nothing with it no term can divide
        z = build_z(P("2143"))
        a = MinorSpec((1, 2), (1, 2))
        b = MinorSpec((3, 4), (3, 4))
        m_b = mono((3, 3), (4, 4))
        assert not exists_dividing_term_structural(a, m_b, z, b=b)

    def test_exhaustive_s3(self):
        for v in all_permutations(3):
            z = build_z(v)
            for w in all_permutations(3):
                gens = pruned_defining_minors(v, w).minors
                for b in gens:
                    det_b = laplace_determinant(b, z)
                    if det_b.is_zero:
                        continue
                    for a in gens:
                        if a == b:
                            continue
                        for m_b, _ in det_b.terms():
                            assert exists_dividing_term_structural(a, m_b, z, b=b) == \
                                brute_divisor_exists(a, m_b, z)

    def test_exhaustive_s4_via_oracle_suite(self):
        assert check_divisibility(4).passed

    def test_random_s5_pairs(self):
        rng = random.Random(515151)
        perms = list(all_permutations(5))
        checked = 0
        while checked < 200:
            v, w = rng.choice(perms), rng.choice(perms)
            z = build_z(v)
            gens = pruned_defining_minors(v, w).minors
            if len(gens) < 2:
                continue
            b, a = rng.sample(gens, 2)
            det_b = laplace_determinant(b, z)
            if det_b.is_zero:
                continue
            for m_b, _ in det_b.terms():
                checked += 1
                assert exists_dividing_term_structural(a, m_b, z, b=b) == \
                    brute_divisor_exists(a, m_b, z)


class TestQuotientDisjointness:
    def test_full_path_quotients_avoid_the_divisor_grid_s3(self):
        """When a dividing term's full path sits inside the dividend's path,
        the leftover cells share no row and no column with the divisor minor."""
        for v in all_permutations(3):
            z = build_z(v)
            for w in all_permutations(3):
                gens = pruned_defining_minors(v, w).minors
                for b in gens:
                    paths_b = enumerate_nonzero_paths(b, z)
                    for a in gens:
                        if a == b:
                            continue
                        paths_a = enumerate_nonzero_paths(a, z)
                        for pb in paths_b:
                            for pa in paths_a:
                                if not set(pa) <= set(pb):
                                    continue
                                left = set(pb) - set(pa)
                                assert not {c.row for c in left} & set(a.rows)
                                assert not {c.col for c in left} & set(a.cols)
