"""
Staged rewriting of a homogeneous component over a generating set.

Given generators f_1..f_m and a target homogeneous component of one of them,
the procedure looks for an exact expression target = sum g_j * f_j.  Each
round divides every unmatched "generated term" by a chosen generator term,
extends the multipliers by the quotient, and feeds the new cross terms back
in.  The run terminates when the outstanding terms all cancel; it stops
abruptly when a term has no admissible divisor, when the only divisor is the
term's own tail (which would loop), or when extending a multiplier would
cancel one of its existing terms.

Divisor choices are genuine choice points: a greedy pick can fail where
another succeeds, so the driver backtracks over them within a node budget.
A node's frontier (the terms that survive cancellation, with the admissible
divisors of each) is computed once per node, with one lookup of the
generator table, and shared by all its children.
Below the nodes, each monomial's divisor scan and each division's quotient
and cross terms run once per generator tuple: one table, kept for the latest
tuple, serves every node and every run over it, so the components of one
pair share it.
Each multiplier is an unordered ``{monomial: coefficient}`` dict.  A step
copies only the dicts it extends and shares the rest with its parent, so no
node's multipliers change once it is built; the certificate's polynomials
put their terms in canonical order.
Termination is certified by the multipliers and re-checked exactly;
everything else is reported as undetermined, never as a homogeneity claim.
Each step keeps sum multipliers * gens = target + sum outstanding by
construction and does not re-check it: a slip could only lose a certificate
to that exact re-check, never yield a wrong verdict.

Precondition: every generator coefficient is ±1, as every coefficient of a
Kazhdan-Lusztig determinant is.  For gc = ±1 the quotient c / gc equals
c * gc, so each division is an integer multiplication and every coefficient
stays an ``int``.  :func:`run_mutation` and :func:`stage0_setup` raise
``ValueError`` on any other generator coefficient.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ConsistencyError
from .polynomials import Coeff, Mono, Polynomial, mono_div, mono_mul, mono_sort_key

TERMINATED = "terminated"
ABRUPT_STOP = "abrupt_stop"
DEPTH_EXHAUSTED = "depth_exhausted"

_STRENGTH = {TERMINATED: 2, ABRUPT_STOP: 1, DEPTH_EXHAUSTED: 0}


@dataclass(frozen=True)
class MutationConfig:
    depth_limit: int = 8
    branch_budget: int = 256

    def __post_init__(self) -> None:
        if self.depth_limit < 0:
            raise ValueError(f"mutation depth must be >= 0, got {self.depth_limit}")
        if self.branch_budget < 1:
            raise ValueError(f"branch budget must be >= 1, got {self.branch_budget}")


@dataclass(frozen=True)
class StageTerm:
    """A generated term tracked across stages.

    ``tail`` is the generator term whose product created this entry; it is
    barred from dividing the entry at the next step.
    """

    coeff: Coeff
    mono: Mono
    tail: tuple[int, Mono]


@dataclass(frozen=True)
class MutationOutcome:
    status: str
    stage: int
    reason: str = ""
    certificate: tuple[Polynomial, ...] | None = None

    @property
    def terminated(self) -> bool:
        return self.status == TERMINATED


@dataclass(frozen=True)
class MutationState:
    target: Polynomial
    gens: tuple[Polynomial, ...]
    multipliers: tuple[dict[Mono, Coeff], ...]  # never mutated; a step copies what it extends
    outstanding: tuple[StageTerm, ...]
    stage: int

    @cached_property
    def _frontier(self) -> MutationOutcome | tuple[tuple[StageTerm, list], ...]:
        """Each surviving term with its admissible divisors, or the outcome
        that ends the node; the state is immutable, so this is computed once."""
        alive = cancel_outstanding(self.outstanding)
        if not alive:
            return MutationOutcome(TERMINATED, self.stage,
                                   certificate=self.multiplier_polys())
        table = _gen_table(self.gens)
        frontier = []
        for term in alive:
            divs = table.admissible(term.mono, exclude_term=term.tail)
            if not divs:
                return MutationOutcome(ABRUPT_STOP, self.stage,
                                       reason="a generated term has no admissible divisor")
            frontier.append((term, divs))
        return tuple(frontier)

    def multiplier_polys(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(m) for m in self.multipliers)


class _GenTable:
    """What the search reads of one generator tuple, filled in on first use:
    the generator terms dividing each monomial, and each quotient
    ``mono / gm`` with the cross terms of the other terms of generator
    ``gi``.  Every node and every run over the same tuple shares it."""

    def __init__(self, gens: tuple[Polynomial, ...]):
        self.gens = gens
        self._gen_terms = [(gi, gm, gc) for gi, g in enumerate(gens) for gm, gc in g.terms()]
        for gi, _, gc in self._gen_terms:
            if gc != 1 and gc != -1:  # see the module docstring
                raise ValueError(f"generator coefficient {gc} is not ±1 in {gens[gi]}")
        self._divisors: dict[Mono, tuple[tuple[int, Mono, Coeff], ...]] = {}
        self._cross: dict[tuple[Mono, int, Mono], tuple[Mono, tuple]] = {}

    def divisors(self, mono: Mono) -> tuple[tuple[int, Mono, Coeff], ...]:
        """Every generator term dividing the monomial, in canonical order."""
        divs = self._divisors.get(mono)
        if divs is None:
            exps = dict(mono)
            divs = self._divisors[mono] = tuple(
                t for t in self._gen_terms
                if all(exps.get(v, 0) >= e for v, e in t[1]))
        return divs

    def admissible(self, mono: Mono, exclude_gen: int | None = None,
                   exclude_term: tuple[int, Mono] | None = None) -> list[tuple[int, Mono, Coeff]]:
        """:meth:`divisors` without the terms of generator ``exclude_gen``
        and without the generator term ``exclude_term``."""
        xi, xm = exclude_term if exclude_term is not None else (None, None)
        return [d for d in self.divisors(mono)
                if d[0] != exclude_gen and not (d[0] == xi and d[1] == xm)]

    def cross_terms(self, mono: Mono, gi: int, gm: Mono) -> tuple[Mono, tuple]:
        """``mono / gm`` and, for each other term ``oc * om`` of generator
        ``gi``, the cross term ``(oc, (mono / gm) * om, (gi, om))``."""
        key = (mono, gi, gm)
        hit = self._cross.get(key)
        if hit is None:
            mu = mono_div(mono, gm)
            hit = self._cross[key] = (mu, tuple(
                (oc, mono_mul(mu, om), (gi, om)) for om, oc in self.gens[gi].terms()
                if om != gm))
        return hit


@lru_cache(maxsize=1)
def _gen_table(gens: tuple[Polynomial, ...]) -> _GenTable:
    """The table of the current generator tuple; it is a pure function of the
    tuple, so a run over another tuple simply replaces it."""
    return _GenTable(gens)


def _divisors_for(mono: Mono, gens: tuple[Polynomial, ...],
                  exclude_gen: int | None = None,
                  exclude_term: tuple[int, Mono] | None = None) -> list[tuple[int, Mono, Coeff]]:
    """Generator terms dividing the monomial, in canonical order."""
    return _gen_table(gens).admissible(mono, exclude_gen, exclude_term)


def _add_multiplier(multipliers, gi: int, mono: Mono, coeff: Coeff):
    """Extend one multiplier, copying only its dict; None signals a
    forbidden cancellation (``coeff`` is never zero)."""
    table = dict(multipliers[gi])
    merged = table.get(mono, 0) + coeff
    if merged == 0:
        return None
    table[mono] = merged
    new = list(multipliers)
    new[gi] = table
    return tuple(new)


def _spawn(multipliers, table: _GenTable, o_coeff: Coeff, o_mono: Mono,
           gi: int, gm: Mono, gc: Coeff, negate: bool):
    """Divide an entry by the chosen generator term and emit the cross terms.

    At stage 0 the multiplier quotient reproduces the target term; at later
    stages it must cancel the outstanding generated term, so it enters
    negated.
    """
    mu_mono, cross = table.cross_terms(o_mono, gi, gm)
    mu_coeff = o_coeff * gc  # == o_coeff / gc, since gc is ±1
    if negate:
        mu_coeff = -mu_coeff
    multipliers = _add_multiplier(multipliers, gi, mu_mono, mu_coeff)
    if multipliers is None:
        return None
    return multipliers, [StageTerm(mu_coeff * oc, mono, tail) for oc, mono, tail in cross]


def cancel_outstanding(outstanding: tuple[StageTerm, ...]) -> tuple[StageTerm, ...]:
    """Remove exact opposite pairs (equal monomial, opposite coefficient).

    Terms are taken in (monomial, coefficient text) order; each one cancels
    the earliest live opposite term of its monomial, and the survivors keep
    that order (their tails steer the next step).
    """
    remaining = sorted(outstanding, key=lambda t: (mono_sort_key(t.mono), str(t.coeff)))
    alive: list[StageTerm] = []
    for _, run in itertools.groupby(remaining, key=lambda t: t.mono):
        run = list(run)
        live = [True] * len(run)
        waiting: dict[Coeff, list[int]] = {}  # coefficient -> live positions
        for pos, term in enumerate(run):
            opposite = waiting.get(-term.coeff)
            if opposite:
                live[opposite.pop(0)] = live[pos] = False
            else:
                waiting.setdefault(term.coeff, []).append(pos)
        alive.extend(term for term, keep in zip(run, live) if keep)
    return tuple(alive)


def _target_options(target: Polynomial, gens: tuple[Polynomial, ...],
                    target_gen_index: int | None) -> MutationOutcome | list[list]:
    """The external divisors of each target term, or the outcome that ends
    stage 0 when some term has none."""
    options = []
    for mono, _ in target.terms():
        divs = _divisors_for(mono, gens, exclude_gen=target_gen_index)
        if not divs:
            return MutationOutcome(ABRUPT_STOP, 0,
                                   reason="no external divisor for a target term")
        options.append(divs)
    return options


def _expand(state: MutationState, entries, choices: tuple[int, ...] | None,
            next_stage: int, negate: bool) -> MutationState | MutationOutcome:
    """Divide each ``(coeff, mono, divisors)`` entry by its chosen divisor
    (the first by default) and collect the cross terms as the next state."""
    picked = choices if choices is not None else itertools.repeat(0)
    table = _gen_table(state.gens)
    multipliers = state.multipliers
    outstanding: list[StageTerm] = []
    for (coeff, mono, divs), idx in zip(entries, picked):
        gi, gm, gc = divs[idx]
        spawned = _spawn(multipliers, table, coeff, mono, gi, gm, gc, negate=negate)
        if spawned is None:
            return MutationOutcome(ABRUPT_STOP, state.stage,
                                   reason="multiplier term cancelled")
        multipliers, new_terms = spawned
        outstanding.extend(new_terms)
    return MutationState(state.target, state.gens, multipliers, tuple(outstanding), next_stage)


def stage0_setup(target: Polynomial, gens: list[Polynomial] | tuple[Polynomial, ...],
                 target_gen_index: int | None = None,
                 choices: tuple[int, ...] | None = None) -> MutationState | MutationOutcome:
    """Pick one external divisor per target term and open the ledger.

    ``choices`` selects among the admissible divisors per target term (in
    canonical order); the default takes the first of each.
    """
    gens = tuple(gens)
    _gen_table(gens)  # raises ValueError unless every coefficient is ±1
    state = MutationState(
        target=target, gens=gens,
        multipliers=tuple({} for _ in gens),
        outstanding=(), stage=0,
    )
    options = _target_options(target, gens, target_gen_index)
    if isinstance(options, MutationOutcome):
        return options
    return _expand(state, ((coeff, mono, divs) for (mono, coeff), divs
                           in zip(target.terms(), options)),
                   choices, next_stage=0, negate=False)


def mutation_step(state: MutationState,
                  choices: tuple[int, ...] | None = None) -> MutationState | MutationOutcome:
    """One stage: cancel, then divide every surviving generated term."""
    frontier = state._frontier
    if isinstance(frontier, MutationOutcome):
        return frontier
    return _expand(state, ((term.coeff, term.mono, divs) for term, divs in frontier),
                   choices, next_stage=state.stage + 1, negate=True)


def _stronger(a: MutationOutcome | None, b: MutationOutcome) -> MutationOutcome:
    if a is None or _STRENGTH[b.status] > _STRENGTH[a.status]:
        return b
    return a


def _trivial_scaling(target: Polynomial, gens: tuple[Polynomial, ...]):
    """target == c * gens[j] for a scalar c, if such a pair exists."""
    t_terms = target.terms()
    for j, g in enumerate(gens):
        g_terms = g.terms()
        if len(g_terms) != len(t_terms) or g.is_zero:
            continue
        c = t_terms[0][1] * g_terms[0][1]  # == t0 / g0, since g0 is ±1
        if target == g.scaled(c):
            return j, c
    return None


def run_mutation(target: Polynomial, gens: list[Polynomial] | tuple[Polynomial, ...],
                 cfg: MutationConfig = MutationConfig(),
                 target_gen_index: int | None = None) -> MutationOutcome:
    """Backtracking driver; reports the strongest outcome found.

    Outcome strength: terminated > abrupt stop > depth exhausted.  A
    certificate is only ever produced by termination and always re-verifies
    sum g_j * f_j == target exactly.
    """
    gens = tuple(gens)
    _gen_table(gens)  # raises ValueError unless every coefficient is ±1
    if target.is_zero:
        return MutationOutcome(TERMINATED, 0,
                               certificate=tuple(Polynomial.zero() for _ in gens))
    trivial = _trivial_scaling(target, gens)
    if trivial is not None:
        j, c = trivial
        cert = [Polynomial.zero() for _ in gens]
        cert[j] = Polynomial.constant(c)
        return MutationOutcome(TERMINATED, 0, certificate=tuple(cert))

    nodes = [0]

    def explore(counts: list[int], child, stage: int) -> MutationOutcome:
        """Try every choice vector over ``counts`` in order, within the budget."""
        best: MutationOutcome | None = None
        for vector in itertools.product(*(range(c) for c in counts)):
            nodes[0] += 1
            if nodes[0] > cfg.branch_budget:
                break
            nxt = child(vector)
            out = nxt if isinstance(nxt, MutationOutcome) else explore_state(nxt)
            best = _stronger(best, out)
            if best.terminated:
                break
        return best if best is not None else MutationOutcome(DEPTH_EXHAUSTED, stage)

    def explore_state(state: MutationState) -> MutationOutcome:
        if state.stage >= cfg.depth_limit:
            return MutationOutcome(DEPTH_EXHAUSTED, state.stage)
        frontier = state._frontier
        if isinstance(frontier, MutationOutcome):
            return frontier
        return explore([len(divs) for _, divs in frontier],
                       lambda vector: mutation_step(state, choices=vector),
                       state.stage)

    options = _target_options(target, gens, target_gen_index)
    if isinstance(options, MutationOutcome):
        return options
    best = explore([len(divs) for divs in options],
                   lambda vector: stage0_setup(target, gens, target_gen_index,
                                               choices=vector),
                   0)
    if best.terminated and not verify_certificate(best, target, gens):
        raise ConsistencyError("a rewriting certificate failed its exact re-check")
    return best


def verify_certificate(outcome: MutationOutcome, target: Polynomial,
                       gens: list[Polynomial] | tuple[Polynomial, ...]) -> bool:
    """Exact re-check of a termination certificate."""
    if not outcome.terminated or outcome.certificate is None:
        return False
    total = Polynomial.zero()
    for mult, gen in zip(outcome.certificate, gens):
        total = total + mult * gen
    return total == target
