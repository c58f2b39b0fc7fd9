from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from klhom.classifier import VerdictKind, working_generators
from klhom.mutation import (ABRUPT_STOP, DEPTH_EXHAUSTED, TERMINATED, MutationConfig,
                            MutationOutcome, MutationState, StageTerm, cancel_outstanding,
                            mutation_step, run_mutation, stage0_setup, verify_certificate)
from klhom.oracle import laplace_determinant
from klhom.paths import homogeneous_components
from klhom.permutations import Permutation
from klhom.polynomials import Polynomial, mono_from_vars, mono_sort_key


def poly(*terms):
    """poly((coeff, 'x1', 'x2'), ...) builds an exact polynomial."""
    return Polynomial.from_terms(
        (coeff, mono_from_vars(vars_)) for coeff, *vars_ in terms)


# the three-generator harness: f1 = x1x2, f2 = x2x3, f3 = x1x3 + x2x3x4
F1 = poly((1, "x1", "x2"))
F2 = poly((1, "x2", "x3"))
F3 = poly((1, "x1", "x3"), (1, "x2", "x3", "x4"))
HARNESS = (F1, F2, F3)
TARGET = poly((1, "x2", "x3", "x4"))


class TestStage0:
    def test_harness_setup_terminates_immediately(self):
        state = stage0_setup(TARGET, HARNESS, target_gen_index=2)
        assert isinstance(state, MutationState)
        assert state.outstanding == ()          # x2x3 is a single-term generator
        assert state.multiplier_polys()[1] == poly((1, "x4"))
        out = mutation_step(state)
        assert isinstance(out, MutationOutcome) and out.terminated
        assert out.stage == 0
        assert out.certificate == (Polynomial.zero(), poly((1, "x4")), Polynomial.zero())

    def test_no_external_divisor_aborts(self):
        # nothing outside f3 divides x1x3
        out = stage0_setup(poly((1, "x1", "x3")), HARNESS, target_gen_index=2)
        assert isinstance(out, MutationOutcome)
        assert out.status == ABRUPT_STOP and out.stage == 0

    def test_invariant_on_kl_instance(self):
        # generators of the pair (123, 132); the quadratic component of the
        # 2x2 determinant rewrites over the 1x1 generators
        v, w = Permutation.parse("123"), Permutation.parse("132")
        z, _, keep = working_generators(v, w)
        gen_polys = [laplace_determinant(m, z) for m in keep]
        inhom = [g for g in gen_polys if len(g.degrees()) > 1]
        assert inhom
        comp = homogeneous_components(inhom[0])[0]
        state = stage0_setup(comp, gen_polys, target_gen_index=gen_polys.index(inhom[0]))
        assert isinstance(state, MutationState)
        state.check_invariant()

    def test_multiplier_cancellation_aborts(self):
        # both target terms pull opposite quotients onto the same generator
        target = poly((1, "x3", "x1"), (-1, "x3", "x2"))
        out = stage0_setup(target, (poly((1, "x1"), (1, "x2")),))
        assert isinstance(out, MutationOutcome)
        assert out.status == ABRUPT_STOP and "cancel" in out.reason


class TestStep:
    def test_outstanding_pair_cancels_to_termination(self):
        # choices pick x1 from g1 and -x3 from g2, whose cross terms cancel
        target = poly((1, "x1", "x4"), (1, "x2", "x3"))
        gens = (poly((1, "x1"), (1, "x2")), poly((1, "x4"), (-1, "x3")))
        state = stage0_setup(target, gens, choices=(0, 1))
        assert isinstance(state, MutationState)
        assert len(state.outstanding) == 2
        assert cancel_outstanding(state.outstanding) == ()
        out = mutation_step(state)
        assert isinstance(out, MutationOutcome) and out.terminated
        assert verify_certificate(out, target, gens)

    def test_tail_only_divisor_aborts(self):
        # the lone generated term's only divisor is its own tail
        target = poly((1, "x1", "x9"))
        gens = (poly((1, "x1"), (1, "x2", "x5")),)
        state = stage0_setup(target, gens)
        assert isinstance(state, MutationState)
        out = mutation_step(state)
        assert isinstance(out, MutationOutcome)
        assert out.status == ABRUPT_STOP
        assert "divisor" in out.reason


class TestConfig:
    @pytest.mark.parametrize("kwargs", [{"depth_limit": -1}, {"branch_budget": 0}])
    def test_rejects_out_of_range_bounds(self, kwargs):
        with pytest.raises(ValueError):
            MutationConfig(**kwargs)


class TestRunMutation:
    def test_harness_terminates_stage0(self):
        out = run_mutation(TARGET, HARNESS, target_gen_index=2)
        assert out.terminated and out.stage == 0
        assert out.certificate == (Polynomial.zero(), poly((1, "x4")), Polynomial.zero())

    def test_homogeneous_target_in_gens_gets_unit_multiplier(self):
        out = run_mutation(F1, HARNESS)
        assert out.terminated and out.stage == 0
        assert out.certificate[0] == Polynomial.constant(1)

    def test_scaled_target(self):
        out = run_mutation(F1.scaled(-3), HARNESS)
        assert out.terminated
        assert verify_certificate(out, F1.scaled(-3), HARNESS)

    def test_branching_recovers_cancellation(self):
        # the greedy divisor choice stalls; another branch terminates
        target = poly((1, "x1", "x4"), (1, "x2", "x3"))
        gens = (poly((1, "x1"), (1, "x2")), poly((1, "x4"), (-1, "x3")))
        out = run_mutation(target, gens)
        assert out.terminated
        assert verify_certificate(out, target, gens)

    def test_unreachable_target_exhausts_depth(self):
        # x1 is not in <x1-x2, x2-x3, x3-x1>; rewriting cycles forever
        gens = (poly((1, "x1"), (-1, "x2")),
                poly((1, "x2"), (-1, "x3")),
                poly((1, "x3"), (-1, "x1")))
        out = run_mutation(poly((1, "x1")), gens,
                           MutationConfig(depth_limit=5, branch_budget=64))
        assert not out.terminated
        assert out.status in (DEPTH_EXHAUSTED, ABRUPT_STOP)

    def test_zero_target_is_trivially_terminated(self):
        out = run_mutation(Polynomial.zero(), HARNESS)
        assert out.terminated
        assert verify_certificate(out, Polynomial.zero(), HARNESS)


class TestCertificates:
    def test_verify_rejects_tampering(self):
        out = run_mutation(TARGET, HARNESS, target_gen_index=2)
        bad = MutationOutcome(TERMINATED, out.stage,
                              certificate=(poly((1, "x4")),) + out.certificate[1:])
        assert not verify_certificate(bad, TARGET, HARNESS)

    def test_non_terminated_never_verifies(self):
        out = MutationOutcome(ABRUPT_STOP, 0)
        assert not verify_certificate(out, TARGET, HARNESS)

    def test_s3_sweep_certificates_reverify(self, s3_reports_no_shortcut):
        seen = 0
        for (v, w), report in s3_reports_no_shortcut.items():
            if report.verdict.kind is not VerdictKind.MUTATION_CERTIFIED_HOMOGENEOUS:
                continue
            z, _, keep = working_generators(v, w)
            gen_polys = [laplace_determinant(m, z) for m in keep]
            for cert in report.verdict.certificates:
                seen += 1
                idx = keep.index(cert.generator)
                target = gen_polys[idx].degree_slice(cert.degree)
                total = Polynomial.zero()
                for mult, gen in zip(cert.multipliers, gen_polys):
                    total = total + mult * gen
                assert total == target
        assert seen > 0


class TestStageTerm:
    def test_rejects_non_exact_history(self):
        with pytest.raises(ValueError):
            StageTerm(coeff=1, mono=mono_from_vars(["x1"]),
                      numerator=(mono_from_vars(["x1"]),),
                      denominator=(mono_from_vars(["x2"]),),
                      tail=(0, mono_from_vars(["x2"])), stage=0)


def cancel_by_scan(outstanding):
    """Reference for cancel_outstanding: the quadratic scan it replaced."""
    remaining = sorted(outstanding, key=lambda t: (mono_sort_key(t.mono), str(t.coeff)))
    alive = []
    for term in remaining:
        for idx, other in enumerate(alive):
            if other.mono == term.mono and other.coeff == -term.coeff:
                del alive[idx]
                break
        else:
            alive.append(term)
    return tuple(alive)


CANCEL_MONOS = [mono_from_vars(vs) for vs in (["x1"], ["x1", "x2"], ["x2"])]
# Fraction(2) == 2 and str(Fraction(2)) == "2": the two tie in the sort
CANCEL_COEFFS = [1, -1, 2, -2, Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]
term_specs = st.lists(st.tuples(st.integers(0, len(CANCEL_MONOS) - 1),
                                st.sampled_from(CANCEL_COEFFS)), max_size=16)


class TestCancelOutstanding:
    @given(term_specs)
    @example([(0, 2), (0, Fraction(2)), (0, -2), (1, 1), (0, Fraction(-2)), (0, -2),
              (1, -1), (1, 1), (0, 2)])
    def test_matches_the_quadratic_scan(self, spec):
        # each term's stage is its input position, so the comparison sees
        # which of several equal terms survived, not just their values
        terms = tuple(StageTerm(coeff=c, mono=CANCEL_MONOS[i], numerator=(CANCEL_MONOS[i],),
                                denominator=(), tail=(0, CANCEL_MONOS[i]), stage=pos)
                      for pos, (i, c) in enumerate(spec))
        got = cancel_outstanding(terms)
        assert [t.stage for t in got] == [t.stage for t in cancel_by_scan(terms)]
