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
divisors of each) is computed once per node and shared by all its children.
Termination is certified by the multipliers and re-checked exactly;
everything else is reported as undetermined, never as a homogeneity claim.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import ConsistencyError
from .polynomials import (Coeff, Mono, Polynomial, mono_div, mono_divides, mono_mul,
                          mono_sort_key)

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
    """A quotient-form term tracked across stages.

    ``numerator`` and ``denominator`` record the factor history; their exact
    quotient times the tail term is the reduced monomial ``mono``.  ``tail``
    is the generator term whose product created this entry; it is barred from
    dividing the entry at the next step.
    """

    coeff: Coeff
    mono: Mono
    numerator: tuple[Mono, ...]
    denominator: tuple[Mono, ...]
    tail: tuple[int, Mono]
    stage: int

    def __post_init__(self) -> None:
        num = self.numerator
        total = num[0]
        for m in num[1:]:
            total = mono_mul(total, m)
        for d in self.denominator:
            total = mono_div(total, d)  # raises unless the quotient is exact
        assert total == self.mono


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
    multipliers: tuple[tuple[tuple[Mono, Coeff], ...], ...]
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
        frontier = []
        for term in alive:
            divs = _divisors_for(term.mono, self.gens, exclude_term=term.tail)
            if not divs:
                return MutationOutcome(ABRUPT_STOP, self.stage,
                                       reason="a generated term has no admissible divisor")
            frontier.append((term, divs))
        return tuple(frontier)

    def multiplier_polys(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(dict(m)) for m in self.multipliers)

    def check_invariant(self) -> None:
        """sum multipliers * gens must equal target + sum outstanding, exactly."""
        total = Polynomial.zero()
        for mult, gen in zip(self.multiplier_polys(), self.gens):
            total = total + mult * gen
        rhs = self.target + Polynomial.from_terms(
            (t.coeff, t.mono) for t in self.outstanding)
        assert total == rhs, "bookkeeping identity violated"


def _divisors_for(mono: Mono, gens: tuple[Polynomial, ...],
                  exclude_gen: int | None = None,
                  exclude_term: tuple[int, Mono] | None = None) -> list[tuple[int, Mono, Coeff]]:
    """Generator terms dividing the monomial, in canonical order."""
    out = []
    for gi, g in enumerate(gens):
        if gi == exclude_gen:
            continue
        for gm, gc in g.terms():
            if exclude_term is not None and exclude_term == (gi, gm):
                continue
            if mono_divides(gm, mono):
                out.append((gi, gm, gc))
    return out


def _add_multiplier(multipliers, gi: int, mono: Mono, coeff: Coeff):
    """Extend one multiplier; None signals a forbidden cancellation."""
    table = dict(multipliers[gi])
    if mono in table:
        merged = table[mono] + coeff
        if merged == 0:
            return None
        table[mono] = merged
    else:
        table[mono] = coeff
    new = list(multipliers)
    new[gi] = tuple(sorted(table.items(), key=lambda kv: mono_sort_key(kv[0])))
    return tuple(new)


def _spawn(multipliers, gens, o_coeff: Coeff, o_mono: Mono,
           numerator: tuple[Mono, ...], denominator: tuple[Mono, ...],
           gi: int, gm: Mono, gc: Coeff, stage: int, negate: bool):
    """Divide an entry by the chosen generator term and emit the cross terms.

    At stage 0 the multiplier quotient reproduces the target term; at later
    stages it must cancel the outstanding generated term, so it enters
    negated.
    """
    mu_mono = mono_div(o_mono, gm)
    mu_coeff = Fraction(o_coeff) / gc
    if negate:
        mu_coeff = -mu_coeff
    multipliers = _add_multiplier(multipliers, gi, mu_mono, mu_coeff)
    if multipliers is None:
        return None
    new_terms = []
    for om, oc in gens[gi].terms():
        if om == gm:
            continue
        new_terms.append(StageTerm(
            coeff=mu_coeff * oc,
            mono=mono_mul(mu_mono, om),
            numerator=numerator + (om,),
            denominator=denominator + (gm,),
            tail=(gi, om),
            stage=stage,
        ))
    return multipliers, new_terms


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


def stage0_setup(target: Polynomial, gens: list[Polynomial] | tuple[Polynomial, ...],
                 target_gen_index: int | None = None,
                 choices: tuple[int, ...] | None = None) -> MutationState | MutationOutcome:
    """Pick one external divisor per target term and open the ledger.

    ``choices`` selects among the admissible divisors per target term (in
    canonical order); the default takes the first of each.
    """
    gens = tuple(gens)
    state = MutationState(
        target=target, gens=gens,
        multipliers=tuple(() for _ in gens),
        outstanding=(), stage=0,
    )
    options = _target_options(target, gens, target_gen_index)
    if isinstance(options, MutationOutcome):
        return options
    picked = choices if choices is not None else (0,) * len(options)
    outstanding: list[StageTerm] = []
    multipliers = state.multipliers
    for (mono, coeff), divs, idx in zip(target.terms(), options, picked):
        gi, gm, gc = divs[idx]
        spawned = _spawn(multipliers, gens, coeff, mono, (mono,), (),
                         gi, gm, gc, stage=0, negate=False)
        if spawned is None:
            return MutationOutcome(ABRUPT_STOP, 0, reason="multiplier term cancelled")
        multipliers, new_terms = spawned
        outstanding.extend(new_terms)
    out = replace(state, multipliers=multipliers, outstanding=tuple(outstanding))
    out.check_invariant()
    return out


def mutation_step(state: MutationState, cfg: MutationConfig = MutationConfig(),
                  choices: tuple[int, ...] | None = None) -> MutationState | MutationOutcome:
    """One stage: cancel, then divide every surviving generated term."""
    frontier = state._frontier
    if isinstance(frontier, MutationOutcome):
        return frontier
    picked = choices if choices is not None else (0,) * len(frontier)
    multipliers = state.multipliers
    outstanding: list[StageTerm] = []
    next_stage = state.stage + 1
    for (term, divs), idx in zip(frontier, picked):
        gi, gm, gc = divs[idx]
        spawned = _spawn(multipliers, state.gens, term.coeff, term.mono,
                         term.numerator, term.denominator,
                         gi, gm, gc, stage=next_stage, negate=True)
        if spawned is None:
            return MutationOutcome(ABRUPT_STOP, state.stage,
                                   reason="multiplier term cancelled")
        multipliers, new_terms = spawned
        outstanding.extend(new_terms)
    out = replace(state, multipliers=multipliers,
                  outstanding=tuple(outstanding), stage=next_stage)
    out.check_invariant()
    return out


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
        c = Fraction(t_terms[0][1]) / g_terms[0][1]
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
                       lambda vector: mutation_step(state, cfg, choices=vector),
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
