"""
Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 9 takes the pattern protection quoted from the literature (v
avoiding 321 or w avoiding 132 forces a homogeneous ideal) exactly as stated
and asserts that, in this package's indexing, it is refuted: every S4
counterexample carries a witness that re-verifies, and the smallest one,
v=123, w=312, is proved from first principles, since its ideal is the
principal ideal <z11 - z12*z21>.  A sympy Groebner basis confirms every S4
counterexample independently of the classifier.  The value-complemented
protection (v avoiding 123 or w avoiding 312) does hold exhaustively and is
asserted as a companion test.  See "Expected acceptance status" in the README.
"""
import itertools
import time

import pytest

from klhom.classifier import (VerdictKind, classify, verify_inhomogeneity_witness,
                              working_generators)
from klhom.minors import (GeneratorSet, enumerate_defining_minors, pruned_defining_minors,
                          relevant_rows_for_column, si_sequence_raw)
from klhom.mutation import run_mutation
from klhom.oracle import brute_paths, check_divisibility, laplace_determinant
from klhom.paths import (determinant, enumerate_nonzero_paths, exists_nonzero_path_through,
                         homogeneous_components, is_inhomogeneous_det, is_singular)
from klhom.permutations import (Permutation, all_permutations, avoids_pattern, dominates,
                                rank_matrix, rank_matrix_via_minima)
from klhom.polynomials import Polynomial, mono_from_vars
from klhom.zmatrix import Cell, build_z, format_grid

P = Permutation.parse


def report_line(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}{': ' + detail if detail else ''}")


def timed(budget_s):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"budget exceeded: {elapsed:.1f}s >= {budget_s}s"
        return elapsed

    return check


class TestCriterion01:
    def test_example_rank_matrix_and_minors(self):
        done = timed(1.0)
        v, w = P("2314"), P("4213")
        ok = rank_matrix(w).rows == ((1, 2, 3, 4), (1, 2, 2, 3),
                                     (1, 1, 1, 2), (1, 1, 1, 1))
        ok &= str(rank_matrix(w)) == "1 2 3 4\n1 2 2 3\n1 1 1 2\n1 1 1 1"
        # the construction rule forces the bottom-left entry to z_{1,1},
        # not a repeated z_{1,2}
        ok &= format_grid(build_z(v))[3] == ["z_{1,1}", "z_{1,2}", "z_{1,3}", "1"]
        keys = {(m.rows, m.cols) for m in enumerate_defining_minors(v, w).minors}
        ok &= keys == {((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 3)),
                       ((1, 2, 3), (1, 2, 3))}
        elapsed = done()
        report_line(1, ok, f"{elapsed * 1000:.0f}ms")
        assert ok


class TestCriterion02:
    def test_column_scan_and_minima_formula(self):
        done = timed(1.0)
        w = P("42531")
        ok = si_sequence_raw(w, 3) == [1, 3, 5]
        ok &= relevant_rows_for_column(w, 3) == [3]
        ok &= rank_matrix_via_minima(w).column(3) == (3, 3, 2, 2, 1)
        elapsed = done()
        report_line(2, ok, f"{elapsed * 1000:.0f}ms")
        assert ok


class TestCriterion03:
    def test_printed_3x3_determinant(self):
        done = timed(1.0)
        from klhom.minors import MinorSpec
        v = P("23154")  # rows/cols 1..3 of this matrix reproduce the printed 3x3
        z = build_z(v)
        m = MinorSpec((1, 2, 3), (1, 2, 3))
        det = determinant(m, z)
        expected_terms = {
            frozenset({Cell(3, 1), Cell(2, 2), Cell(1, 3)}),
            frozenset({Cell(3, 1), Cell(1, 2), Cell(2, 3)}),
            frozenset({Cell(1, 1), Cell(2, 3)}),
            frozenset({Cell(1, 3), Cell(2, 1)}),
        }
        got = {frozenset(var for var, _ in mono) for mono, _ in det.terms()}
        ok = got == expected_terms
        # signs are pinned by exact agreement with the cofactor oracle
        ok &= det == laplace_determinant(m, z)
        ok &= is_inhomogeneous_det(m, z)
        ok &= {next(iter(c.degrees())) for c in homogeneous_components(det)} == {3, 2}
        elapsed = done()
        report_line(3, ok, f"{elapsed * 1000:.0f}ms")
        assert ok


class TestCriterion04:
    def test_inhomogeneity_criterion_exhaustive_s4(self, s4_distinct_minors):
        # the distinct (v, minor) population covers every pruned defining
        # minor of every S4 x S4 pair; the verdict depends only on (v, minor)
        done = timed(120.0)
        mismatches = []
        for v, z, m in s4_distinct_minors:
            spread = laplace_determinant(m, z).degrees()
            if is_inhomogeneous_det(m, z) != (len(spread) >= 2):
                mismatches.append((str(v), m))
        elapsed = done()
        report_line(4, not mismatches,
                    f"{len(s4_distinct_minors)} minors, {elapsed:.1f}s")
        assert not mismatches


class TestCriterion05:
    def test_path_criteria_exhaustive_s4(self, s4_distinct_minors):
        done = timed(120.0)
        mismatches = []
        for v, z, m in s4_distinct_minors:
            paths = enumerate_nonzero_paths(m, z)
            if sorted(paths) != brute_paths(m, z):
                mismatches.append(("enumeration", str(v), m))
            if is_singular(m, z) != (not paths):
                mismatches.append(("nonzero-path-criterion", str(v), m))
            for i in m.rows:
                for j in m.cols:
                    if z.entry(Cell(i, j)).is_variable:
                        hit = any(Cell(i, j) in p for p in paths)
                        if exists_nonzero_path_through(m, z, Cell(i, j)) != hit:
                            mismatches.append(("path-through", str(v), m, (i, j)))
        elapsed = done()
        report_line(5, not mismatches, f"{elapsed:.1f}s")
        assert not mismatches


class TestCriterion06:
    def test_unit_ideal_three_way_equivalence(self, s4_reports_no_shortcut):
        done = timed(120.0)
        mismatches = []
        for (v, w), report in s4_reports_no_shortcut.items():
            nondom = not dominates(rank_matrix(v), rank_matrix(w))
            verdict_unit = report.verdict.kind is VerdictKind.UNIT_IDEAL
            z = build_z(v)
            unit_det = any(laplace_determinant(m, z).is_unit_constant
                           for m in pruned_defining_minors(v, w).minors)
            if not (nondom == verdict_unit == unit_det):
                mismatches.append((str(v), str(w), nondom, verdict_unit, unit_det))
        elapsed = done()
        report_line(6, not mismatches, f"576 pairs, {elapsed:.1f}s")
        assert not mismatches


class TestCriterion07:
    def test_empty_generator_set_iff_longest_s5(self):
        done = timed(60.0)
        v = Permutation.identity(5)
        w0 = Permutation.longest(5)
        mismatches = [str(w) for w in all_permutations(5)
                      if (len(enumerate_defining_minors(v, w)) == 0) != (w == w0)]
        elapsed = done()
        report_line(7, not mismatches, f"120 words, {elapsed:.1f}s")
        assert not mismatches


class TestCriterion08:
    def test_determinant_observations(self, s4_distinct_minors):
        done = timed(120.0)
        violations = []
        for v, z, m in s4_distinct_minors:
            det = laplace_determinant(m, z)
            if det.is_zero:
                continue
            if 0 in det.degrees() and not det.is_unit_constant:
                violations.append(("constant-term", str(v), m))
            terms = [frozenset(var for var, _ in mono) for mono, _ in det.terms()]
            for a in range(len(terms)):
                for b in range(len(terms)):
                    if a != b and terms[a] <= terms[b]:
                        violations.append(("intra-division", str(v), m))
        elapsed = done()
        report_line(8, not violations, f"{elapsed:.1f}s")
        assert not violations


def quoted_protection_violations(reports):
    """The (v, w, report) triples with an INHOMOGENEOUS verdict that the quoted
    protection (v avoiding 321 or w avoiding 132) claims are homogeneous."""
    p321, p132 = Permutation((3, 2, 1)), Permutation((1, 3, 2))
    return [(v, w, report) for (v, w), report in reports.items()
            if report.verdict.kind is VerdictKind.INHOMOGENEOUS
            and (avoids_pattern(v, p321) or avoids_pattern(w, p132))]


def witness_reverifies(v, w, report):
    z, _, keep = working_generators(v, w)
    return verify_inhomogeneity_witness(report.verdict.witness,
                                        GeneratorSet(v, w, tuple(keep)), z)


def grevlex_basis_is_inhomogeneous(sympy, v, w):
    """Whether the reduced grevlex Groebner basis of I_{v,w} has an
    inhomogeneous element.

    The basis is built by sympy from the oracle's cofactor expansion of every
    defining minor, so it shares no logic with the classifier.  For a
    degree-compatible order an ideal is homogeneous iff its reduced Groebner
    basis is (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, ch. 8).
    """
    z = build_z(v)
    symbols = {}
    exprs = []
    for m in enumerate_defining_minors(v, w).minors:
        expr = sympy.Integer(0)
        for mono, coeff in laplace_determinant(m, z).terms():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for cell, exp in mono:
                sym = symbols.setdefault(cell, sympy.Symbol(f"z_{cell.row}_{cell.col}"))
                term *= sym ** exp
            expr += term
        exprs.append(expr)
    gens = [symbols[c] for c in sorted(symbols)]
    basis = sympy.groebner(exprs, *gens, order="grevlex")
    return any(not sympy.Poly(g, *gens).is_homogeneous for g in basis.exprs)


class TestCriterion09:
    # the S4 pairs with a verified witness, all of them covered by the quoted
    # protection; a pair dropping out of this count is a lost witness
    S4_WITNESSED = 31

    def test_quoted_pattern_protection_as_stated(self, s4_reports_no_shortcut):
        """The quoted protection, taken as stated, is refuted in this indexing.

        Every S4 pair it covers that has a verified witness is a
        counterexample, e.g. (1234, 4213), where 1234 avoids 321 and 4213
        avoids 132.  The smallest counterexample over all sizes, (123, 312),
        is proved here from the oracle expansion alone.  The protection that
        does hold, v avoiding 123 or w avoiding 312, is asserted in the
        companion test below; see "Expected acceptance status" in the README.
        """
        failures = []
        violations = quoted_protection_violations(s4_reports_no_shortcut)
        names = [(str(v), str(w)) for v, w, _ in violations]
        if len(violations) < self.S4_WITNESSED or ("1234", "4213") not in names:
            failures.append(f"protected pairs with witnesses lost: {names}")
        failures += [f"witness for {(str(v), str(w))} does not re-verify"
                     for v, w, report in violations if not witness_reverifies(v, w, report)]

        # (123, 312) from first principles: every defining minor expands to
        # f = z11 - z12*z21, so the ideal is the principal ideal (f).  Were it
        # homogeneous, f's degree-1 component z11 would be g*f for some g; but
        # a nonzero g*f has the nonzero top-degree part g_top * (-z12*z21) of
        # degree >= 2, so z11 is not in (f) and (f) is not homogeneous.
        v, w = P("123"), P("312")
        z = build_z(v)
        f = Polynomial({mono_from_vars([Cell(1, 1)]): 1,
                        mono_from_vars([Cell(1, 2), Cell(2, 1)]): -1})
        expansions = {laplace_determinant(m, z) for m in enumerate_defining_minors(v, w).minors}
        if not (expansions == {f} and f.degrees() == {1, 2}
                and not f.degree_slice(1).is_zero and not f.degree_slice(2).is_zero):
            failures.append(f"(123, 312) is not the principal ideal of z11 - z12*z21: {expansions}")
        report = classify(v, w)
        if not (report.verdict.kind is VerdictKind.INHOMOGENEOUS
                and report.verdict.reason.endswith("pattern-claim-contradicted:v-avoids-321")
                and witness_reverifies(v, w, report)):
            failures.append(f"(123, 312) classified {report.verdict.kind.value}: "
                            f"{report.verdict.reason}")

        report_line(9, not failures,
                    f"quoted protection refuted by {len(violations)} S4 counterexamples "
                    "with verified witnesses, and by (123, 312)")
        assert not failures, failures

    def test_counterexamples_confirmed_by_groebner_basis(self, s4_reports_no_shortcut):
        sympy = pytest.importorskip("sympy")
        done = timed(60.0)
        pairs = [(P("123"), P("312"))] + [
            (v, w) for v, w, _ in quoted_protection_violations(s4_reports_no_shortcut)]
        homogeneous = [(str(v), str(w)) for v, w in pairs
                       if not grevlex_basis_is_inhomogeneous(sympy, v, w)]
        elapsed = done()
        report_line(9, len(pairs) > 1 and not homogeneous,
                    f"{len(pairs)} counterexamples inhomogeneous by a grevlex Groebner "
                    f"basis, {elapsed:.1f}s")
        assert len(pairs) > 1 and not homogeneous, homogeneous

    def test_translated_pattern_protection_holds(self, s4_reports_no_shortcut):
        def contains(p, pattern):
            for tri in itertools.combinations(range(p.n), 3):
                vals = [p.word[i] for i in tri]
                order = sorted(vals)
                if tuple(order.index(x) + 1 for x in vals) == pattern:
                    return True
            return False

        violations = [
            (str(v), str(w)) for (v, w), report in s4_reports_no_shortcut.items()
            if report.verdict.kind is VerdictKind.INHOMOGENEOUS
            and (not contains(v, (1, 2, 3)) or not contains(w, (3, 1, 2)))
        ]
        report_line(9, not violations, "value-complemented protection (companion)")
        assert not violations


class TestCriterion10:
    def test_mutation_soundness(self, s3_reports_no_shortcut):
        done = timed(60.0)
        ok = True
        certified = 0
        for (v, w), report in s3_reports_no_shortcut.items():
            if report.verdict.kind is not VerdictKind.MUTATION_CERTIFIED_HOMOGENEOUS:
                continue
            z, _, keep = working_generators(v, w)
            gen_polys = [laplace_determinant(m, z) for m in keep]
            for cert in report.verdict.certificates:
                certified += 1
                target = gen_polys[keep.index(cert.generator)].degree_slice(cert.degree)
                total = Polynomial.zero()
                for mult, gen in zip(cert.multipliers, gen_polys):
                    total = total + mult * gen
                ok &= (total == target and target.is_homogeneous)
        # the three-generator harness instance terminates at stage 0
        gens = (Polynomial({mono_from_vars(["x1", "x2"]): 1}),
                Polynomial({mono_from_vars(["x2", "x3"]): 1}),
                Polynomial({mono_from_vars(["x1", "x3"]): 1,
                            mono_from_vars(["x2", "x3", "x4"]): 1}))
        target = Polynomial({mono_from_vars(["x2", "x3", "x4"]): 1})
        outcome = run_mutation(target, gens, target_gen_index=2)
        ok &= outcome.terminated and outcome.stage == 0
        elapsed = done()
        report_line(10, ok, f"{certified} certificates re-verified, {elapsed:.1f}s")
        assert ok


class TestCriterion11:
    def test_divisibility_criteria_exhaustive_s4(self):
        done = timed(180.0)
        rep = check_divisibility(4)
        elapsed = done()
        report_line(11, rep.passed, f"{rep.checked} comparisons, {elapsed:.1f}s")
        assert rep.passed, rep.summary()
