"""
Independent brute-force reference implementations.

Everything here exists to validate the fast structural code and is used only
by tests and the ``verify`` command.  The implementations deliberately share
no logic with what they check: determinants come from cofactor expansion
rather than path search, path lists from filtering raw row permutations,
divisibility from scanning expanded terms, and the window pruning from local
pairwise domination rules rather than the bottom-up column scan.  v's pattern
of 1s, 0s and variables is derived here from v's word itself, never from the
pivot maps or the zero rule of ``zmatrix``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .minors import GeneratorSet, MinorSpec, enumerate_defining_minors, pruned_defining_minors
from .permutations import Permutation, all_permutations, rank_matrix
from .polynomials import Mono, Polynomial, mono_from_vars
from .zmatrix import Cell, ZMatrix, build_z

MAX_LAPLACE = 8


def _cell_kind(v: Permutation, i: int, j: int) -> str:
    """Cell (i, j) of v's matrix as ``"one"``, ``"zero"`` or ``"variable"``,
    straight from the defining rule: column j's 1 sits in row n - v(j) + 1,
    and a cell is 0 when it lies above its column's 1 or right of its row's 1.
    """
    n = v.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"cell out of range: ({i}, {j})")
    if i == n - v(j) + 1:
        return "one"
    if i > n - v(j) + 1 or any(i == n - v(k) + 1 for k in range(1, j)):
        return "zero"
    return "variable"


def _entry_poly(v: Permutation, i: int, j: int) -> Polynomial:
    kind = _cell_kind(v, i, j)
    if kind == "zero":
        return Polynomial.zero()
    if kind == "one":
        return Polynomial.constant(1)
    return Polynomial({mono_from_vars([Cell(i, j)]): 1})


def laplace_determinant(m: MinorSpec, z: ZMatrix) -> Polynomial:
    """Cofactor expansion along the first (lowest) row, exact arithmetic.

    Signs follow the matrix whose rows are listed in ascending bottom index,
    the same convention the path engine uses.
    """
    if m.p > MAX_LAPLACE:
        raise ValueError(f"minor of size {m.p} exceeds the oracle guard {MAX_LAPLACE}")
    v = z.v

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        if len(rows) == 1:
            return _entry_poly(v, rows[0], cols[0])
        acc = Polynomial.zero()
        for b, j in enumerate(cols):
            e = _entry_poly(v, rows[0], j)
            if e.is_zero:
                continue
            sub = det(rows[1:], cols[:b] + cols[b + 1:])
            acc = acc + (e * sub).scaled((-1) ** b)
        return acc

    return det(m.rows, m.cols)


def brute_paths(m: MinorSpec, z: ZMatrix) -> list[tuple[Cell, ...]]:
    """All nonzero paths found by filtering raw row permutations."""
    out = []
    for perm_rows in itertools.permutations(m.rows):
        cells = tuple(Cell(i, j) for i, j in zip(perm_rows, m.cols))
        if all(_cell_kind(z.v, *c) != "zero" for c in cells):
            out.append(cells)
    return sorted(out)


def brute_divisor_exists(a: MinorSpec, m_b: Mono, z: ZMatrix) -> bool:
    """Expand det(a) and scan its terms for a setwise divisor of m_b."""
    det = laplace_determinant(a, z)
    vars_b = {v for v, _ in m_b}
    for mono, _ in det.terms():
        if {v for v, _ in mono} <= vars_b:
            return True
    return False


def brute_witness_holds(v: Permutation, w: Permutation, witness) -> bool:
    """Re-check a ``classifier.InhomogeneityWitness`` by expansion: its
    generator is a pruned minor with at least two homogeneous components, and
    each listed term lies in its component and has no divisor among the terms
    of the other nonzero pruned minors."""
    z = build_z(v)
    gens = [m for m in pruned_defining_minors(v, w).minors
            if not laplace_determinant(m, z).is_zero]
    if witness.generator not in gens:
        return False
    det = laplace_determinant(witness.generator, z)
    comps = [det.degree_slice(d) for d in sorted(det.degrees(), reverse=True)]
    if len(comps) < 2 or len(comps) != len(witness.per_component):
        return False
    return all(comp.coeff(mono) != 0 and
               not any(brute_divisor_exists(g, mono, z) for g in gens if g != witness.generator)
               for comp, mono in zip(comps, witness.per_component))


def brute_homogeneity(v: Permutation, w: Permutation) -> dict[tuple, tuple[int, ...]]:
    """Degree spread of every pruned generator, keyed by (rows, cols)."""
    if v.n > 6:
        raise ValueError("degree-spread oracle is guarded to n <= 6")
    z = build_z(v)
    table = {}
    for m in pruned_defining_minors(v, w).minors:
        det = laplace_determinant(m, z)
        table[(m.rows, m.cols)] = tuple(sorted(det.degrees()))
    return table


def brute_si(w: Permutation, t: int) -> list[int]:
    """Window rows kept for column t by local domination rules.

    Scanning candidate top rows s: a window loses to the one directly above
    when both have the same rank entry (the bigger window already contains
    its minors), and loses to the one directly below when the rank entry
    drops there (cofactor expansion rewrites its minors over the smaller
    ones).  Survivors must also fit their minor size.
    """
    if w.n > 6:
        raise ValueError("pruning oracle is guarded to n <= 6")
    n = w.n
    col = (None,) + rank_matrix(w).column(t)
    kept = []
    for s in range(1, n + 1):
        if s >= 2 and col[s - 1] == col[s]:
            continue
        if s <= n - 1 and col[s + 1] < col[s]:
            continue
        if col[s] + 1 <= min(n - s + 1, t):
            kept.append(s)
    return kept


class ReductionError(Exception):
    """A discarded determinant failed to rewrite over the kept generators."""


def reduce_over_generators(m: MinorSpec, kept: GeneratorSet,
                           z: ZMatrix) -> dict[tuple, Polynomial]:
    """Express det(m) as a polynomial combination of kept generators.

    Repeatedly expands along the top row until every piece is a kept
    generator; returns coefficient polynomials keyed by (rows, cols).
    Raises :class:`ReductionError` if the expansion bottoms out first.
    """
    kept_keys = {(g.rows, g.cols) for g in kept.minors}
    v = z.v
    combo: dict[tuple, Polynomial] = {}

    def rec(rows: tuple[int, ...], cols: tuple[int, ...], coeff: Polynomial) -> None:
        key = (rows, cols)
        if key in kept_keys:
            combo[key] = combo.get(key, Polynomial.zero()) + coeff
            return
        if not rows:
            raise ReductionError(f"reduction of {m} bottomed out")
        top = len(rows) - 1
        for b, j in enumerate(cols):
            e = _entry_poly(v, rows[top], j)
            if e.is_zero:
                continue
            sign = (-1) ** (top + b)
            rec(rows[:top], cols[:b] + cols[b + 1:], (coeff * e).scaled(sign))

    rec(m.rows, m.cols, Polynomial.constant(1))
    return combo


@dataclass
class Mismatch:
    check: str
    detail: str


@dataclass
class OracleReport:
    checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def add(self, check: str, detail: str) -> None:
        self.mismatches.append(Mismatch(check, detail))

    def merge(self, other: "OracleReport") -> None:
        self.checked += other.checked
        self.mismatches.extend(other.mismatches)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {self.checked} comparisons, {len(self.mismatches)} mismatches"]
        lines += [f"  [{m.check}] {m.detail}" for m in self.mismatches[:50]]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-check suite.  Each check compares a fast structural routine against
# the brute-force reference above over an exhaustive small-n population.
# ---------------------------------------------------------------------------


def distinct_pruned_minors(n: int):
    """All (v, z, minor) with the minor pruned-defining for some w, deduplicated."""
    for v in all_permutations(n):
        z = build_z(v)
        seen = set()
        for w in all_permutations(n):
            for m in pruned_defining_minors(v, w).minors:
                key = (m.rows, m.cols)
                if key not in seen:
                    seen.add(key)
                    yield v, z, m


def check_rank_formulas(n: int) -> OracleReport:
    """Counting definition vs prefix-minima formula, all of S_n."""
    from .permutations import rank_matrix_via_minima

    rep = OracleReport()
    for w in all_permutations(n):
        rep.checked += 1
        if rank_matrix(w) != rank_matrix_via_minima(w):
            rep.add("rank-matrix", f"w={w}")
    return rep


def check_pruning_rule(n: int) -> OracleReport:
    """Bottom-up column scan vs local domination rules, all w and t."""
    from .minors import relevant_rows_for_column

    rep = OracleReport()
    for w in all_permutations(n):
        for t in range(1, n + 1):
            rep.checked += 1
            fast = relevant_rows_for_column(w, t)
            if fast != brute_si(w, t):
                rep.add("pruning", f"w={w} t={t}: {fast} vs {brute_si(w, t)}")
    return rep


def check_path_engine(n: int) -> OracleReport:
    """Determinants, paths, singularity and inhomogeneity vs brute force."""
    from .paths import (determinant, enumerate_nonzero_paths, exists_nonzero_path_through,
                        is_inhomogeneous_det, is_singular)

    if n > 4:
        raise ValueError("path-engine cross-check is guarded to n <= 4")
    rep = OracleReport()
    for v, z, m in distinct_pruned_minors(n):
        det_fast = determinant(m, z)
        det_ref = laplace_determinant(m, z)
        rep.checked += 1
        if det_fast != det_ref:
            rep.add("determinant", f"v={v} {m}")
        paths = enumerate_nonzero_paths(m, z)
        if sorted(paths) != brute_paths(m, z):
            rep.add("paths", f"v={v} {m}")
        if is_singular(m, z) != det_ref.is_zero:
            rep.add("singular", f"v={v} {m}")
        for i in m.rows:
            for j in m.cols:
                if _cell_kind(v, i, j) == "variable":
                    hit = any(Cell(i, j) in p for p in paths)
                    if exists_nonzero_path_through(m, z, Cell(i, j)) != hit:
                        rep.add("path-through", f"v={v} {m} cell=({i},{j})")
        spread = det_ref.degrees()
        if is_inhomogeneous_det(m, z) != (len(spread) >= 2):
            rep.add("inhomogeneous-det", f"v={v} {m}")
        # a nonsingular determinant with a constant term must be exactly +-1
        if not det_ref.is_zero and 0 in spread and not det_ref.is_unit_constant:
            rep.add("unit-or-nonconstant", f"v={v} {m}")
        terms = [frozenset(var for var, _ in mono) for mono, _ in det_ref.terms()]
        for a in range(len(terms)):
            for b in range(len(terms)):
                if a != b and terms[a] <= terms[b]:
                    rep.add("intra-det-division", f"v={v} {m}")
    return rep


def check_divisibility(n: int) -> OracleReport:
    """Structural cross-minor divisibility vs expansion scan."""
    from .paths import exists_dividing_term_structural

    if n > 4:
        raise ValueError("divisibility cross-check is guarded to n <= 4")
    rep = OracleReport()
    seen = set()
    for v in all_permutations(n):
        z = build_z(v)
        for w in all_permutations(n):
            gens = pruned_defining_minors(v, w).minors
            for b in gens:
                det_b = laplace_determinant(b, z)
                if det_b.is_zero:
                    continue
                for a in gens:
                    if a == b:
                        continue
                    key = (v.word, a.rows, a.cols, b.rows, b.cols)
                    if key in seen:
                        continue
                    seen.add(key)
                    for m_b, _ in det_b.terms():
                        rep.checked += 1
                        fast = exists_dividing_term_structural(a, m_b, z, b=b)
                        if fast != brute_divisor_exists(a, m_b, z):
                            rep.add("divisibility", f"v={v} A={a} B={b} m={m_b}")
    return rep


def check_discard_rules(n: int) -> OracleReport:
    """Empty iff order-reversing; the closed-form minor count matches the
    enumeration; unit iff domination fails iff a +-1 generator."""
    from .minors import defining_minor_count
    from .permutations import dominates, is_longest_element

    rep = OracleReport()
    v0 = next(all_permutations(n))
    for w in all_permutations(n):
        rep.checked += 2
        count = len(enumerate_defining_minors(v0, w))
        if (count == 0) != is_longest_element(w):
            rep.add("empty-ideal", f"w={w}")
        closed_form = defining_minor_count(w)
        if closed_form != count:
            rep.add("minor-count", f"w={w}: {closed_form} vs {count}")
    if n > 4:
        return rep
    for v in all_permutations(n):
        z = build_z(v)
        rv = rank_matrix(v)
        for w in all_permutations(n):
            rep.checked += 1
            nondom = not dominates(rv, rank_matrix(w))
            unit = any(laplace_determinant(m, z).is_unit_constant
                       for m in pruned_defining_minors(v, w).minors)
            if nondom != unit:
                rep.add("unit-ideal", f"v={v} w={w}: nondom={nondom} unit={unit}")
    return rep


def check_pruning_soundness(pairs, strict: bool = True) -> OracleReport:
    """Discarded defining determinants rewrite exactly over the pruned set."""
    rep = OracleReport()
    for v, w in pairs:
        z = build_z(v)
        full = enumerate_defining_minors(v, w)
        kept = pruned_defining_minors(v, w)
        kept_keys = {(m.rows, m.cols) for m in kept.minors}
        kept_by_key = {(m.rows, m.cols): m for m in kept.minors}
        for m in full.minors:
            if (m.rows, m.cols) in kept_keys:
                continue
            rep.checked += 1
            try:
                combo = reduce_over_generators(m, kept, z)
            except ReductionError as exc:
                rep.add("pruning-soundness", f"v={v} w={w} {m}: {exc}")
                continue
            total = Polynomial.zero()
            for key, coeff in combo.items():
                total = total + coeff * laplace_determinant(kept_by_key[key], z)
            if total != laplace_determinant(m, z):
                rep.add("pruning-soundness", f"v={v} w={w} {m}: combination mismatch")
    if strict and rep.checked == 0:
        rep.add("pruning-soundness", "population was empty")
    return rep


def _contains_pattern(p: Permutation, pattern: tuple[int, ...]) -> bool:
    word = p.word
    for tri in itertools.combinations(range(p.n), 3):
        vals = [word[i] for i in tri]
        order = sorted(vals)
        if tuple(order.index(x) + 1 for x in vals) == pattern:
            return True
    return False


def check_classifier(n: int) -> OracleReport:
    """Witness soundness, pattern consistency and certificate re-verification.

    The pattern consistency audited here is the one that holds in this
    package's indexing: v avoiding 123 or w avoiding 312 forces a
    homogeneous ideal (the value-complement of the quoted 321/132 pair,
    which the exhaustive audits refute as literally stated).
    """
    from .classifier import ClassifierConfig, VerdictKind, classify

    if n > 4:
        raise ValueError("classifier cross-check is guarded to n <= 4")
    rep = OracleReport()
    cfg = ClassifierConfig(pattern_shortcut=False)
    for v in all_permutations(n):
        for w in all_permutations(n):
            rep.checked += 1
            report = classify(v, w, cfg)
            kind = report.verdict.kind
            if kind is VerdictKind.INHOMOGENEOUS:
                if not _contains_pattern(v, (1, 2, 3)) or not _contains_pattern(w, (3, 1, 2)):
                    rep.add("pattern-consistency", f"v={v} w={w}")
                if not brute_witness_holds(v, w, report.verdict.witness):
                    rep.add("witness", f"v={v} w={w}")
            # degree-spread oracle must agree with any homogeneity claim
            if kind in (VerdictKind.KNOWN_HOMOGENEOUS,) and report.gens_after:
                table = brute_homogeneity(v, w)
                if any(len(set(d)) > 1 for d in table.values()):
                    rep.add("homogeneous-claim", f"v={v} w={w}")
    return rep


def run_verification(n: int) -> OracleReport:
    """The full cross-check suite at size n (n <= 4)."""
    rep = OracleReport()
    rep.merge(check_rank_formulas(n))
    rep.merge(check_pruning_rule(n))
    rep.merge(check_path_engine(n))
    rep.merge(check_divisibility(n))
    rep.merge(check_discard_rules(n))
    perms = list(all_permutations(min(n, 3)))
    rep.merge(check_pruning_soundness(itertools.product(perms, perms), strict=False))
    rep.merge(check_classifier(n))
    return rep
