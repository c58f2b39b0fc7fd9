import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from klhom import ConsistencyError, classifier, mutation
from klhom.classifier import ClassifierConfig, VerdictKind, classify, working_generators
from klhom.mutation import (ABRUPT_STOP, DEPTH_EXHAUSTED, TERMINATED, MutationConfig,
                            MutationOutcome, MutationState, StageTerm, cancel_outstanding,
                            mutation_step, run_mutation, stage0_setup, verify_certificate)
from klhom.oracle import laplace_determinant
from klhom.paths import determinant, homogeneous_components, is_inhomogeneous_det
from klhom.permutations import Permutation
from klhom.polynomials import Polynomial, mono_div, mono_divides, mono_from_vars, mono_sort_key


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
    for mult, gen in zip(state.multiplier_polys(), state.table.gens):
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
    @pytest.mark.parametrize("kwargs", [{"depth_limit": -1}])
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

    def test_unreachable_target_exhausts_depth(self, monkeypatch):
        # x1 is not in <x1-x2, x2-x3, x3-x1>; rewriting cycles forever
        gens = (poly((1, "x1"), (-1, "x2")),
                poly((1, "x2"), (-1, "x3")),
                poly((1, "x3"), (-1, "x1")))
        monkeypatch.setattr(mutation, "BRANCH_BUDGET", 64)
        out = run_mutation(poly((1, "x1")), gens, MutationConfig(depth_limit=5))
        assert not out.terminated
        assert out.status in (DEPTH_EXHAUSTED, ABRUPT_STOP)

    def test_zero_target_is_trivially_terminated(self):
        out = run_mutation(Polynomial.zero(), HARNESS)
        assert out.terminated
        assert verify_certificate(out, Polynomial.zero(), HARNESS)

    @pytest.mark.parametrize("target", [F1, Polynomial.zero()], ids=["trivial-scaling", "zero"])
    def test_every_terminated_outcome_is_rechecked(self, monkeypatch, target):
        # the outcomes that need no search leave through the same exact
        # re-check as a searched certificate
        assert run_mutation(target, HARNESS).terminated
        monkeypatch.setattr(mutation, "verify_certificate", lambda *args: False)
        with pytest.raises(ConsistencyError,
                           match=f"component {re.escape(str(target))} failed re-verification"):
            run_mutation(target, HARNESS)

    @pytest.mark.parametrize("entry", [run_mutation, stage0_setup])
    def test_non_unit_generator_coefficient_rejected(self, entry):
        # dividing by a generator coefficient is multiplying by it only for ±1
        gens = (F1, F2, poly((2, "x1", "x3"), (1, "x2", "x3", "x4")))
        with pytest.raises(ValueError, match="not ±1"):
            entry(TARGET, gens)


# x1 is not in <x1-x2, x2-x3, x3-x1>: every node holds one term, so a run
# over these builds one term per node, stage 0 included
CYCLIC = (poly((1, "x1"), (-1, "x2")), poly((1, "x2"), (-1, "x3")), poly((1, "x3"), (-1, "x1")))


class TestTermBudget:
    """``TERM_BUDGET`` bounds the terms one run builds; past it the run ends
    at once as depth exhausted, with reason ``term-budget``."""

    def test_leaves_build_no_terms(self):
        # two stage-0 children of one term each, and their two children at
        # the depth limit checked, not built
        out = run_mutation(poly((1, "x1")), CYCLIC, MutationConfig(depth_limit=1))
        assert (out.status, out.nodes, out.terms) == (DEPTH_EXHAUSTED, 4, 2)

    def test_run_ends_past_the_budget(self, monkeypatch):
        full = run_mutation(poly((1, "x1")), CYCLIC)
        assert (full.nodes, full.terms) == (18, 16)
        monkeypatch.setattr(mutation, "TERM_BUDGET", 5)
        out = run_mutation(poly((1, "x1")), CYCLIC)
        assert (out.status, out.stage, out.reason) == (DEPTH_EXHAUSTED, 4, "term-budget")
        assert (out.nodes, out.terms) == (6, 6)

    def test_s4_terms_built_per_run(self, s4_reports_no_shortcut):
        # the most terms any S_4 run builds (the n=5 maximum is 10,660, below
        # the budget, so no n <= 5 verdict meets it)
        built = []
        for (v, w), report in s4_reports_no_shortcut.items():
            if report.verdict.kind.value in REWRITTEN:
                built += [run_mutation(target, gens, target_gen_index=idx).terms
                          for target, gens, idx in component_runs(v, w)]
        assert max(built) == 12

    def test_s6_blow_up_stops_at_the_budget(self):
        # each node of this pair holds 7 times its parent's terms, 823,543 at
        # stage 6; without the budget the run exhausts memory
        report = classify(Permutation.parse("123465"), Permutation.parse("534162"),
                          ClassifierConfig(pattern_shortcut=False))
        assert (report.verdict.kind, report.verdict.reason) == (
            VerdictKind.UNDETERMINED, "depth_exhausted@stage3:term-budget")


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
    """Reference for the table's admissible divisors: every generator term,
    tested one by one."""
    return [(gi, gm, gc) for gi, g in enumerate(gens) if gi != exclude_gen
            for gm, gc in g.terms() if (gi, gm) != exclude_term and mono_divides(gm, mono)]


HARNESS_VARS = ("x1", "x2", "x3", "x4")
HARNESS_TERMS = [(gi, gm) for gi, g in enumerate(HARNESS) for gm, _ in g.terms()]
harness_monos = st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
    lambda exps: tuple((v, e) for v, e in zip(HARNESS_VARS, exps) if e))


harness_lookups = st.lists(st.tuples(harness_monos, st.sampled_from([None, 0, 1, 2]),
                                     st.sampled_from([None] + HARNESS_TERMS)),
                           min_size=1, max_size=6)


class TestGeneratorTable:
    """The divisor, quotient and cross-term table of a generator tuple is
    shared by every node and run over that tuple; it must answer as a fresh
    scan does."""

    @given(st.permutations(range(len(HARNESS))), harness_lookups)
    def test_divisors_match_a_brute_scan(self, order, lookups):
        # the lookups run twice over, so every answer is read once as it is
        # stored and again from the table, after the other lookups
        gens = tuple(HARNESS[i] for i in order)
        table = mutation._gen_table(gens)
        for mono, exclude_gen, exclude_term in lookups * 2:
            if exclude_term is not None:
                exclude_term = (order.index(exclude_term[0]), exclude_term[1])
            assert table.admissible(mono, exclude_gen, exclude_term) \
                == tuple(brute_divisors(mono, gens, exclude_gen, exclude_term))

    @given(harness_monos)
    def test_stored_quotient_is_mono_div(self, mono):
        table = mutation._gen_table(HARNESS)
        divs = table.divisors(mono)
        for _ in range(2):
            for gi, gm, _ in divs:
                assert table.quotient(mono, gm) == mono_div(mono, gm)
                assert table.cross_terms(mono, gi, gm)[0] == mono_div(mono, gm)

    def test_every_node_holds_the_roots_table(self, certified_tree):
        # the run looks the table up once; no node looks it up again
        root = certified_tree[0][0].table
        assert len(certified_tree) > 1
        assert all(state.table is root for state, _, _ in certified_tree)

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
    options = mutation._target_options(target, mutation._gen_table(gens), idx)
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


def reference_search(target, gens, cfg, idx):
    """The search as it ran before children at the depth limit were checked
    instead of built: every child is built by stage0_setup or mutation_step.
    Returns the outcome and the number of children built."""
    gens = tuple(gens)
    options = mutation._target_options(target, mutation._gen_table(gens), idx)
    if mutation._trivial_scaling(target, gens) or isinstance(options, MutationOutcome):
        return run_mutation(target, gens, cfg, idx), 0  # no node is visited
    nodes, built = [0], [0]

    def explore(counts, child, stage):
        best = None
        for vector in itertools.product(*(range(c) for c in counts)):
            nodes[0] += 1
            if nodes[0] > mutation.BRANCH_BUDGET:
                break
            built[0] += 1
            nxt = child(vector)
            out = nxt if isinstance(nxt, MutationOutcome) else explore_state(nxt)
            best = mutation._stronger(best, out)
            if best.terminated:
                break
        return best if best is not None else MutationOutcome(DEPTH_EXHAUSTED, stage)

    def explore_state(state):
        if state.stage >= cfg.depth_limit:
            return MutationOutcome(DEPTH_EXHAUSTED, state.stage)
        frontier = state._frontier
        if isinstance(frontier, MutationOutcome):
            return frontier
        return explore([len(divs) for _, divs in frontier],
                       lambda vector: mutation_step(state, choices=vector), state.stage)

    best = explore([len(divs) for divs in options],
                   lambda vector: stage0_setup(target, gens, idx, choices=vector), 0)
    return best, built[0]


@pytest.fixture(scope="module")
def leaf_check_runs(s4_reports_no_shortcut):
    """Every component run of the 35 S_4 pairs that reach the rewriting
    search, none of which cancels a multiplier term; every component run of
    (13245, 51432), which cancels one at the depth limit at each depth from 1
    to 8; and the harness target whose stage-0 children cancel one."""
    pairs = [pair for pair, report in s4_reports_no_shortcut.items()
             if report.verdict.kind.value in REWRITTEN]
    assert len(pairs) == 35
    pairs.append((Permutation.parse("13245"), Permutation.parse("51432")))
    stage0_cancel = (poly((1, "x3", "x1"), (-1, "x3", "x2")), (poly((1, "x1"), (1, "x2")),), None)
    return [run for v, w in pairs for run in component_runs(v, w)] + [stage0_cancel]


class TestLeafCheck:
    """Children at the depth limit are checked for a cancelled multiplier
    term, not built; the search must end and count as if it built them."""

    def test_matches_building_every_child(self, monkeypatch, leaf_check_runs):
        leaf_abort_depths, budget_spent = set(), 0
        for depth, budget in itertools.product(range(9), (1, 7, 256)):
            cfg = MutationConfig(depth_limit=depth)
            monkeypatch.setattr(mutation, "BRANCH_BUDGET", budget)
            for target, gens, idx in leaf_check_runs:
                out = run_mutation(target, gens, cfg, target_gen_index=idx)
                ref, built = reference_search(target, gens, cfg, idx)
                assert (out, out.nodes) == (ref, built), (depth, budget, target)
                if out.reason == "multiplier term cancelled" and out.stage == max(depth - 1, 0):
                    leaf_abort_depths.add(depth)
                budget_spent += built == budget
        assert leaf_abort_depths == set(range(9)) and budget_spent > 0


# (v, w, nodes the search visits, verdict, reason, digest) at depth 8 without
# the pattern shortcut.  The counts pin the search tree: a faster search must
# visit exactly these nodes, built or checked at the depth limit.
# (1234, 3412) opens no node (its first component has a term with no external
# divisor); (23145, 53142) spends the whole branch budget; (13245, 51432) is
# decided by a child at the depth limit whose multiplier term cancels.
SEARCH_TREES = [
    ("1234", "3412", 0, "undetermined",
     "abrupt_stop@stage0:no external divisor for a target term", "4bc247256cd4"),
    ("1234", "1342", 4, "mutation_certified_homogeneous", "all-components-certified",
     "46f363802495"),
    ("23145", "45132", 142, "mutation_certified_homogeneous", "all-components-certified",
     "491f991ce0d4"),
    ("23145", "53142", 256, "undetermined", "depth_exhausted@stage8:", "a95259d9d16f"),
    ("13245", "51432", 256, "undetermined",
     "abrupt_stop@stage7:multiplier term cancelled", "0710658b8288"),
    # classify-s5-deep's heavy pair and a pair of its middle stratum: their
    # last runs build 3,744 and 1,020 terms, up to 500 and 256 in one node
    ("21354", "52431", 9, "undetermined", "depth_exhausted@stage8:", "a95259d9d16f"),
    ("13254", "43152", 14, "undetermined", "depth_exhausted@stage8:", "a95259d9d16f"),
]


@pytest.mark.parametrize("v, w, nodes, verdict, reason, digest", SEARCH_TREES)
def test_search_tree_is_pinned(monkeypatch, v, w, nodes, verdict, reason, digest):
    visited = [0]

    def counting(*args, **kwargs):
        out = run_mutation(*args, **kwargs)
        visited[0] += out.nodes
        return out

    monkeypatch.setattr(classifier, "run_mutation", counting)
    report = classify(Permutation.parse(v), Permutation.parse(w),
                      ClassifierConfig(pattern_shortcut=False))
    assert (visited[0], report.verdict.kind.value, report.verdict.reason,
            report.verdict.digest()) == (nodes, verdict, reason, digest)
