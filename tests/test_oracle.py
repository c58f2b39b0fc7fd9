import random

import pytest

from klhom.classifier import ClassifierConfig, InhomogeneityWitness, classify
from klhom.minors import GeneratorSet, MinorSpec, pruned_defining_minors
from klhom.oracle import (OracleReport, ReductionError, brute_homogeneity, brute_paths,
                          brute_si, brute_witness_holds, laplace_determinant,
                          reduce_over_generators, run_verification)
from klhom.paths import determinant
from klhom.permutations import Permutation, all_permutations
from klhom.polynomials import mono_from_vars
from klhom.zmatrix import Cell, build_z

P = Permutation.parse


class TestLaplace:
    def test_printed_3x3_has_four_terms(self):
        z = build_z(P("23154"))
        det = laplace_determinant(MinorSpec((1, 2, 3), (1, 2, 3)), z)
        assert len(det) == 4
        assert sorted(det.degrees()) == [2, 3]

    def test_1x1_variable(self):
        z = build_z(P("2314"))
        det = laplace_determinant(MinorSpec((1,), (1,)), z)
        assert str(det) == "z_{1,1}"

    def test_random_s5_matches_path_engine(self):
        rng = random.Random(77)
        perms = list(all_permutations(5))
        for _ in range(60):
            v = rng.choice(perms)
            z = build_z(v)
            p = rng.randint(1, 4)
            m = MinorSpec(tuple(sorted(rng.sample(range(1, 6), p))),
                          tuple(sorted(rng.sample(range(1, 6), p))))
            assert laplace_determinant(m, z) == determinant(m, z)

    def test_size_guard(self):
        v = Permutation.identity(9)
        z = build_z(v)
        m = MinorSpec(tuple(range(1, 10)), tuple(range(1, 10)))
        with pytest.raises(ValueError):
            laplace_determinant(m, z)


class TestBruteSi:
    def test_golden_42531(self):
        assert brute_si(P("42531"), 3) == [3]

    def test_longest_element_empty(self):
        w0 = Permutation.longest(4)
        for t in range(1, 5):
            assert brute_si(w0, t) == []

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_si(Permutation.identity(7), 1)


class TestBruteHomogeneity:
    def test_golden_2314_4213(self):
        table = brute_homogeneity(P("2314"), P("4213"))
        pruned = pruned_defining_minors(P("2314"), P("4213"))
        assert set(table) == {(m.rows, m.cols) for m in pruned.minors}
        # the corner 2x2 mixes degrees 1 and 2; the other two are homogeneous
        assert table[((1, 2), (1, 2))] == (1, 2)
        assert table[((1, 2), (1, 3))] == (2,)
        assert table[((1, 2), (2, 3))] == (1,)

    def test_longest_element_empty_table(self):
        assert brute_homogeneity(P("1234"), Permutation.longest(4)) == {}

    def test_all_homogeneous_pair(self):
        table = brute_homogeneity(P("132"), P("132"))
        assert table and all(len(degrees) == 1 for degrees in table.values())

    def test_size_guard(self):
        v = Permutation.identity(7)
        with pytest.raises(ValueError):
            brute_homogeneity(v, v)


class TestBrutePaths:
    def test_sorted_and_complete(self):
        z = build_z(P("23451"))
        m = MinorSpec((1, 2, 3), (1, 2, 3))
        paths = brute_paths(m, z)
        assert paths == sorted(paths)
        assert len(paths) == len(determinant(m, z))


class TestReduction:
    def test_bottoms_out_without_generators(self):
        v = w = Permutation.identity(2)
        z = build_z(v)
        kept = GeneratorSet(v, w, ())
        with pytest.raises(ReductionError):
            reduce_over_generators(MinorSpec((1,), (1,)), kept, z)


class TestReport:
    def test_pass_iff_no_mismatches(self):
        rep = OracleReport(checked=3)
        assert rep.passed and "PASS" in rep.summary()
        rep.add("x", "detail")
        assert not rep.passed and "FAIL" in rep.summary()

    @pytest.mark.parametrize("n, comparisons", [(3, 196), (4, 3894)], ids=["3", "4"])
    def test_full_suite(self, n, comparisons):
        rep = run_verification(n)
        assert rep.passed, rep.summary()
        assert rep.checked == comparisons


class TestBruteWitness:
    def test_every_s4_witness_holds(self, s4_reports_no_shortcut):
        witnesses = [(v, w, r.verdict.witness) for (v, w), r in s4_reports_no_shortcut.items()
                     if r.verdict.witness is not None]
        assert len(witnesses) == 31
        assert all(brute_witness_holds(*vww) for vww in witnesses)

    def test_forged_witness_fails(self):
        # the forgery of test_witness_tampering_detected: a first component
        # term that the witness generator's determinant does not hold
        v, w = P("123"), P("312")
        witness = classify(v, w, ClassifierConfig(pattern_shortcut=False)).verdict.witness
        forged = InhomogeneityWitness(
            witness.generator, (mono_from_vars([Cell(2, 1)]),) + witness.per_component[1:])
        assert brute_witness_holds(v, w, witness)
        assert not brute_witness_holds(v, w, forged)

    def test_witness_with_a_divided_term_fails(self):
        # the witness generator of (1234, 1423) is also a generator of the
        # certified homogeneous pair (1234, 2143), whose other generators
        # divide its listed terms
        v = P("1234")
        witness = classify(v, P("1423"), ClassifierConfig(pattern_shortcut=False)).verdict.witness
        assert witness.generator in pruned_defining_minors(v, P("2143")).minors
        assert not brute_witness_holds(v, P("2143"), witness)
