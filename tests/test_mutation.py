import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from klhom import mutation
from klhom.classifier import ClassifierConfig, VerdictKind, classify, working_generators
from klhom.mutation import (ABRUPT_STOP, DEPTH_EXHAUSTED, TERMINATED, MutationConfig,
                            MutationOutcome, MutationState, StageTerm, cancel_outstanding,
                            mutation_step, run_mutation, stage0_setup, verify_certificate)
from klhom.oracle import laplace_determinant
from klhom.paths import determinant, homogeneous_components, is_inhomogeneous_det
from klhom.permutations import Permutation
from klhom.polynomials import Polynomial, mono_divides, mono_from_vars, mono_sort_key


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


def assert_ledger(state):
    """The bookkeeping identity every state keeps by construction:
    sum multipliers * gens == target + sum outstanding, exactly."""
    total = Polynomial.zero()
    for mult, gen in zip(state.multiplier_polys(), state.gens):
        total = total + mult * gen
    rhs = state.target + Polynomial.from_terms((t.coeff, t.mono) for t in state.outstanding)
    assert total == rhs, "bookkeeping identity violated"


@pytest.fixture
def ledger_checks(monkeypatch):
    """Apply assert_ledger to every state that stage0_setup and mutation_step
    return while the test runs; the list counts the states checked."""
    checked = [0]

    def checking(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, MutationState):
                assert_ledger(out)
                checked[0] += 1
            return out
        return wrapper

    for name in ("stage0_setup", "mutation_step"):
        monkeypatch.setattr(mutation, name, checking(getattr(mutation, name)))
    return checked


def component_runs(v, w):
    """``(target, gens, target_gen_index)`` for every homogeneous component
    of every inhomogeneous generator of (v, w), in the classifier's order."""
    z, _, keep = working_generators(v, w)
    gen_polys = [determinant(m, z) for m in keep]
    return [(comp, gen_polys, idx) for idx, m in enumerate(keep) if is_inhomogeneous_det(m, z)
            for comp in homogeneous_components(gen_polys[idx])]


def rewrite_components(v, w):
    """run_mutation on the component runs of (v, w) up to the first one that
    does not terminate: the runs of the classifier's last stage."""
    for target, gens, idx in component_runs(v, w):
        if not run_mutation(target, gens, target_gen_index=idx).terminated:
            return


REWRITTEN = {VerdictKind.MUTATION_CERTIFIED_HOMOGENEOUS.value, VerdictKind.UNDETERMINED.value}


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
        assert_ledger(state)

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

    @pytest.mark.parametrize("entry", [run_mutation, stage0_setup])
    def test_non_unit_generator_coefficient_rejected(self, entry):
        # dividing by a generator coefficient is multiplying by it only for ±1
        gens = (F1, F2, poly((2, "x1", "x3"), (1, "x2", "x3", "x4")))
        with pytest.raises(ValueError, match="not ±1"):
            entry(TARGET, gens)


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

    def test_s4_multiplier_coefficients_are_ints(self, s4_reports_no_shortcut):
        coeffs = [c for report in s4_reports_no_shortcut.values()
                  for cert in report.verdict.certificates or ()
                  for mult in cert.multipliers for _, c in mult.terms()]
        assert coeffs and all(type(c) is int for c in coeffs)


class TestLedger:
    def test_every_s4_rewriting_state(self, ledger_checks, s4_reports_no_shortcut):
        pairs = [pair for pair, report in s4_reports_no_shortcut.items()
                 if report.verdict.kind.value in REWRITTEN]
        assert len(pairs) == 35
        for v, w in pairs:
            rewrite_components(v, w)
        assert ledger_checks[0] > 0

    def test_every_s5_middle_stratum_state(self, ledger_checks, s5_middle_stratum):
        rows = [r for r in s5_middle_stratum if r["verdict"] in REWRITTEN]
        assert rows
        for row in rows:
            rewrite_components(Permutation.parse(row["v"]), Permutation.parse(row["w"]))
        assert ledger_checks[0] > 0


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
        # each term's tail carries its input position (cancellation ignores
        # tails), so the comparison sees which of several equal terms
        # survived, not just their values
        terms = tuple(StageTerm(coeff=c, mono=CANCEL_MONOS[i], tail=(pos, CANCEL_MONOS[i]))
                      for pos, (i, c) in enumerate(spec))
        got = cancel_outstanding(terms)
        assert [t.tail for t in got] == [t.tail for t in cancel_by_scan(terms)]


def brute_divisors(mono, gens, exclude_gen, exclude_term):
    """Reference for _divisors_for: every generator term, tested one by one."""
    return [(gi, gm, gc) for gi, g in enumerate(gens) if gi != exclude_gen
            for gm, gc in g.terms() if (gi, gm) != exclude_term and mono_divides(gm, mono)]


HARNESS_VARS = ("x1", "x2", "x3", "x4")
HARNESS_TERMS = [(gi, gm) for gi, g in enumerate(HARNESS) for gm, _ in g.terms()]
harness_monos = st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
    lambda exps: tuple((v, e) for v, e in zip(HARNESS_VARS, exps) if e))


class TestGeneratorTable:
    """The divisor and cross-term table of a generator tuple is shared by
    every node and run over that tuple; it must answer as a fresh scan does."""

    @given(st.permutations(range(len(HARNESS))), harness_monos,
           st.sampled_from([None, 0, 1, 2]), st.sampled_from([None] + HARNESS_TERMS))
    def test_divisors_match_a_brute_scan(self, order, mono, exclude_gen, exclude_term):
        gens = tuple(HARNESS[i] for i in order)
        if exclude_term is not None:
            exclude_term = (order.index(exclude_term[0]), exclude_term[1])
        assert mutation._divisors_for(mono, gens, exclude_gen, exclude_term) \
            == brute_divisors(mono, gens, exclude_gen, exclude_term)

    def test_table_never_goes_stale(self):
        # runs over two generator tuples, alternating, then the first tuple
        # reversed right after a run over it in its own order
        certified = component_runs(Permutation.parse("23145"), Permutation.parse("45132"))
        stalled = component_runs(Permutation.parse("1324"), Permutation.parse("4132"))
        target, gens, idx = certified[0]
        reversed_run = (target, gens[::-1], len(gens) - 1 - idx)
        runs = [certified[0], stalled[0], certified[-1], stalled[-1], certified[0], reversed_run]
        fresh = []
        for target, gens, idx in runs:
            mutation._gen_table.cache_clear()
            fresh.append(run_mutation(target, gens, target_gen_index=idx))
        shared = [run_mutation(target, gens, target_gen_index=idx) for target, gens, idx in runs]
        assert shared == fresh
        assert {out.status for out in fresh} == {TERMINATED, DEPTH_EXHAUSTED}


def search_nodes(target, gens, idx, limit):
    """Up to ``limit`` states of the search tree, breadth first, each with
    the multipliers it held before its children were spawned and its child
    states."""
    gens = tuple(gens)
    options = mutation._target_options(target, gens, idx)
    queue = [stage0_setup(target, gens, idx, choices=vector)
             for vector in itertools.product(*(range(len(divs)) for divs in options))]
    nodes = []
    while queue and len(nodes) < limit:
        state = queue.pop(0)
        if not isinstance(state, MutationState):
            continue
        before = [dict(m) for m in state.multipliers]
        frontier = state._frontier
        children = [] if isinstance(frontier, MutationOutcome) else [
            mutation_step(state, choices=vector)
            for vector in itertools.product(*(range(len(divs)) for _, divs in frontier))]
        children = [c for c in children if isinstance(c, MutationState)]
        nodes.append((state, before, children))
        queue.extend(children)
    return nodes


@pytest.fixture(scope="module")
def certified_tree():
    """The first 150 nodes of the search over the first component of
    (23145, 45132), whose nodes mostly have several children."""
    runs = component_runs(Permutation.parse("23145"), Permutation.parse("45132"))
    return search_nodes(*runs[0], limit=150)


class TestDictMultipliers:
    """Each multiplier is a dict that a step copies before extending it, so
    a node and its children may share the dicts that the step left alone."""

    def test_children_never_change_their_node(self, certified_tree):
        assert sum(len(children) for _, _, children in certified_tree) > len(certified_tree)
        for state, before, _ in certified_tree:
            assert list(state.multipliers) == before

    def test_siblings_extend_independent_dicts(self, certified_tree):
        extended_by_both = 0
        for state, _, children in certified_tree:
            for a, b in itertools.combinations(children, 2):
                for gi, mult in enumerate(state.multipliers):
                    if a.multipliers[gi] is not mult and b.multipliers[gi] is not mult:
                        extended_by_both += 1
                        assert a.multipliers[gi] is not b.multipliers[gi]
        assert extended_by_both > 0


# (v, w, calls to stage0_setup plus mutation_step, verdict, reason, digest) at
# depth 8 without the pattern shortcut.  The counts pin the search tree: a
# faster search must visit exactly these nodes.  (1234, 3412) opens no node
# (its first component has a term with no external divisor); (23145, 53142)
# spends the whole branch budget.
SEARCH_TREES = [
    ("1234", "3412", 0, "undetermined",
     "abrupt_stop@stage0:no external divisor for a target term", "4bc247256cd4"),
    ("1234", "1342", 4, "mutation_certified_homogeneous", "all-components-certified",
     "46f363802495"),
    ("23145", "45132", 142, "mutation_certified_homogeneous", "all-components-certified",
     "491f991ce0d4"),
    ("23145", "53142", 256, "undetermined", "depth_exhausted@stage8:", "a95259d9d16f"),
]


@pytest.mark.parametrize("v, w, nodes, verdict, reason, digest", SEARCH_TREES)
def test_search_tree_is_pinned(monkeypatch, v, w, nodes, verdict, reason, digest):
    calls = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("stage0_setup", "mutation_step"):
        monkeypatch.setattr(mutation, name, counting(getattr(mutation, name)))
    report = classify(Permutation.parse(v), Permutation.parse(w),
                      ClassifierConfig(pattern_shortcut=False))
    assert (calls[0], report.verdict.kind.value, report.verdict.reason,
            report.verdict.digest()) == (nodes, verdict, reason, digest)
