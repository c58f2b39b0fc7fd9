"""
The end-to-end verdict pipeline for a pair (v, w).

Order of play: the order-reversing w means there are no generators at all
(empty ideal); a rank-matrix domination failure means the ideal is the whole
ring; otherwise the pruned, nonsingular generators are tested one by one for
an inhomogeneous determinant, an inhomogeneity witness is extracted when the
divisibility necessary condition fails, and as a last resort the staged
rewriting procedure tries to certify every stray homogeneous component as an
ideal member.  The pattern shortcut (v avoiding 321 or w avoiding 132,
quoted from the literature as forcing homogeneity) never carries a verdict
on its own: the full pipeline always runs and the pattern claim merely
annotates the outcome, because in this package's indexing the quoted
protection has verified counterexamples (the one that survives every
exhaustive audit is the value-complemented pair: v avoiding 123 or w
avoiding 312).  A re-verified witness therefore outranks the claim, and an
undetermined outcome is never upgraded by it.

"Undetermined" is an honest verdict: a stalled rewriting run proves nothing
either way and is never upgraded.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path

from .errors import ConsistencyError
# enumerate_defining_minors, is_longest_element and verify_certificate are not
# called here (run_mutation re-checks its own certificates), but the traced
# benchmark (perfbench/spans.py) wraps them under this module's name, so they
# stay imported
from .minors import (GeneratorSet, MinorSpec, defining_minor_count,
                     enumerate_defining_minors, pruned_defining_minors)
from .mutation import MutationConfig, run_mutation, verify_certificate
from .paths import (determinant, exists_dividing_term_structural, homogeneous_components,
                    is_inhomogeneous_det, is_singular, is_unit_determinant)
from .permutations import (PATTERN_132, PATTERN_321, Permutation, all_permutations,
                           avoids_pattern, dominates, is_longest_element, rank_matrix)
from .polynomials import Mono, Polynomial, mono_degree, mono_divides
from .zmatrix import ZMatrix, build_z, cell_name


class VerdictKind(Enum):
    EMPTY_IDEAL = "empty_ideal"
    UNIT_IDEAL = "unit_ideal"
    KNOWN_HOMOGENEOUS = "known_homogeneous"
    INHOMOGENEOUS = "inhomogeneous"
    MUTATION_CERTIFIED_HOMOGENEOUS = "mutation_certified_homogeneous"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class InhomogeneityWitness:
    """One inhomogeneous generator plus, per homogeneous component (highest
    degree first), a squarefree term of that component which no term of any
    other generator divides."""

    generator: MinorSpec
    per_component: tuple[Mono, ...]

    def to_record(self) -> dict:
        return {
            "generator": self.generator.to_record(),
            "components": [
                {"degree": mono_degree(mono),
                 "monomial": sorted(cell_name(c) for c, _ in mono)}
                for mono in self.per_component
            ],
        }


@dataclass(frozen=True)
class ComponentCertificate:
    generator: MinorSpec
    degree: int
    multipliers: tuple[Polynomial, ...]

    def to_record(self) -> dict:
        return {
            "generator": self.generator.to_record(),
            "degree": self.degree,
            # most multipliers are zero; "0" is what str writes for them
            "multipliers": ["0" if p.is_zero else str(p) for p in self.multipliers],
        }


# one encoder serves the digests and the JSONL detail; it gives the bytes of
# json.dumps(obj, sort_keys=True) without building an encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode
# a JSON string literal, as json.dumps writes it
_json_str = json.encoder.encode_basestring_ascii


def _hash(text: str) -> str:
    """The 12-hex-digit digest of an encoded verdict record."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: str = ""
    witness: InhomogeneityWitness | None = None
    certificates: tuple[ComponentCertificate, ...] | None = None

    def to_record(self) -> dict:
        rec: dict = {"kind": self.kind.value, "reason": self.reason}
        if self.witness is not None:
            rec["witness"] = self.witness.to_record()
        if self.certificates is not None:
            rec["certificates"] = [c.to_record() for c in self.certificates]
        return rec

    @cached_property
    def encoded(self) -> tuple[str, str]:
        """The sorted JSON text of :meth:`to_record` and its digest, encoded
        once per verdict."""
        text = _encode(self.to_record())
        return text, _hash(text)

    @cached_property
    def _line_parts(self) -> tuple[str, str, str]:
        """The JSONL line's pieces that only the verdict fixes: the line up
        to the value of ``gens_after``, and the JSON text of the reason and
        of the kind."""
        text, digest = self.encoded
        return (f'{{"detail": {text}, "digest": {_json_str(digest)}, "gens_after": ',
                _json_str(self.reason), _json_str(self.kind.value))

    def digest(self) -> str:
        """The digest of :meth:`to_record`."""
        return self.encoded[1]


@lru_cache(maxsize=None)
def _plain(kind: VerdictKind, reason: str) -> Verdict:
    """The one verdict with this kind and reason and neither witness nor
    certificates; every report that carries it shares it and its encoding."""
    return Verdict(kind, reason)


# the gates' verdicts, looked up once rather than per pair
_EMPTY = _plain(VerdictKind.EMPTY_IDEAL, "w-is-order-reversing")
_UNIT = _plain(VerdictKind.UNIT_IDEAL, "rank-domination-fails")


@dataclass(frozen=True)
class ClassifierConfig:
    pattern_shortcut: bool = True
    mutation: MutationConfig = field(default_factory=MutationConfig)


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    v: Permutation
    w: Permutation
    verdict: Verdict
    gens_before: int
    gens_after: int
    n_singular: int
    n_inhomogeneous: int
    wall_ms: float

    def to_record(self) -> dict:
        """The report as a dict: its :meth:`line` parsed back."""
        return json.loads(self.line())

    def line(self) -> str:
        """The report's JSONL line, the one place that lists its fields, as
        ``json.dumps(..., sort_keys=True)`` writes them: filled in from the
        verdict's cached pieces, so no record is built."""
        head, reason, kind = self.verdict._line_parts
        # the fields in sorted key order, as json.dumps writes them; filled in
        # directly, since JSONEncoder.encode sets up an encoder on every call.
        # A word holds only digits and commas, which JSON writes as they are.
        return (f'{head}{self.gens_after}, "gens_before": {self.gens_before}, '
                f'"n_inhomogeneous": {self.n_inhomogeneous}, "n_singular": {self.n_singular}, '
                f'"reason": {reason}, "v": "{self.v}", "verdict": {kind}, "w": "{self.w}", '
                f'"wall_ms": {round(self.wall_ms, 3)!r}}}')


def working_generators(v: Permutation, w: Permutation) -> tuple[ZMatrix, GeneratorSet, list[MinorSpec]]:
    """The pruned generator list with singular minors dropped."""
    z = build_z(v)
    pruned = pruned_defining_minors(v, w)
    keep = [m for m in pruned.minors if not is_singular(m, z)]
    return z, pruned, keep


def necessary_condition_fails(gens: GeneratorSet, z: ZMatrix,
                              inhom: list[MinorSpec]) -> InhomogeneityWitness | None:
    """Witness extraction for the divisibility necessary condition.

    ``inhom`` lists the generators of ``gens`` whose determinant is
    inhomogeneous, in generator order.  A homogeneous ideal forces, for each
    inhomogeneous generator, some component whose every monomial is
    divisible by a term of another generator.  If instead EVERY component of
    some generator carries a monomial with no external divisor, that
    generator witnesses inhomogeneity; the first such witness (canonical
    order) is returned.
    """
    for m in gens.minors:
        if is_unit_determinant(m, z):
            raise ValueError("unit generator: the ideal is the whole ring")
    for m in inhom:
        others = [g for g in gens.minors if g != m]
        per_component = []
        for comp in homogeneous_components(determinant(m, z)):
            found = next((mono for mono, _ in comp.terms()
                          if not any(exists_dividing_term_structural(g, mono, z, b=m)
                                     for g in others)), None)
            if found is None:
                break
            per_component.append(found)
        else:
            return InhomogeneityWitness(m, tuple(per_component))
    return None


def verify_inhomogeneity_witness(witness: InhomogeneityWitness, gens: GeneratorSet,
                                 z: ZMatrix) -> bool:
    """Re-check a witness against fully expanded generators."""
    det = determinant(witness.generator, z)
    comps = homogeneous_components(det)
    if len(comps) < 2 or len(comps) != len(witness.per_component):
        return False
    other_terms = [t for g in gens.minors if g != witness.generator
                   for t, _ in determinant(g, z).terms()]
    for comp, mono in zip(comps, witness.per_component):
        if comp.coeff(mono) == 0:
            return False
        if any(mono_divides(t, mono) for t in other_terms):
            return False
    return True


def _pattern_reason(v: Permutation, w: Permutation) -> str | None:
    if avoids_pattern(v, PATTERN_321):
        return "v-avoids-321"
    if avoids_pattern(w, PATTERN_132):
        return "w-avoids-132"
    return None


def _core_verdict(v: Permutation, w: Permutation, z: ZMatrix, keep: list[MinorSpec],
                  cfg: ClassifierConfig) -> tuple[Verdict, int]:
    """Steps past the discard gates; returns (verdict, inhomogeneous count)."""
    inhom = [(idx, m) for idx, m in enumerate(keep) if is_inhomogeneous_det(m, z)]
    if not keep:
        return _plain(VerdictKind.KNOWN_HOMOGENEOUS, "no-nonzero-generators"), 0
    if not inhom:
        return _plain(VerdictKind.KNOWN_HOMOGENEOUS, "all-generators-homogeneous"), 0
    gens = GeneratorSet(v, w, tuple(keep))
    witness = necessary_condition_fails(gens, z, [m for _, m in inhom])
    if witness is not None:
        if not verify_inhomogeneity_witness(witness, gens, z):
            raise ConsistencyError(f"witness for ({v}, {w}) failed re-verification")
        return Verdict(VerdictKind.INHOMOGENEOUS, reason="undividable-component-monomials",
                       witness=witness), len(inhom)
    gen_polys = [determinant(g, z) for g in keep]
    certificates = []
    for idx, m in inhom:
        for comp in homogeneous_components(gen_polys[idx]):
            outcome = run_mutation(comp, gen_polys, cfg.mutation, target_gen_index=idx)
            if not outcome.terminated:
                reason = f"{outcome.status}@stage{outcome.stage}:{outcome.reason}"
                return _plain(VerdictKind.UNDETERMINED, reason), len(inhom)
            certificates.append(ComponentCertificate(
                m, mono_degree(comp.terms()[0][0]), outcome.certificate))
    return Verdict(VerdictKind.MUTATION_CERTIFIED_HOMOGENEOUS,
                   reason="all-components-certified",
                   certificates=tuple(certificates)), len(inhom)


def classify(v: Permutation, w: Permutation,
             cfg: ClassifierConfig = ClassifierConfig()) -> ClassificationReport:
    if v.n != w.n:
        raise ValueError(f"size mismatch: {v.n} vs {w.n}")
    t0 = time.perf_counter()
    gens_before = defining_minor_count(w)

    def report(verdict: Verdict, gens_after: int = 0, n_singular: int = 0,
               n_inhom: int = 0) -> ClassificationReport:
        return ClassificationReport(v, w, verdict, gens_before, gens_after,
                                    n_singular, n_inhom,
                                    (time.perf_counter() - t0) * 1000.0)

    # no defining minor at all exactly when w is order-reversing
    if gens_before == 0:
        return report(_EMPTY)
    if not dominates(rank_matrix(v), rank_matrix(w)):
        return report(_UNIT)

    z, pruned, keep = working_generators(v, w)
    gens_after = len(keep)
    n_singular = len(pruned) - gens_after

    verdict, n_inhom = _core_verdict(v, w, z, keep, cfg)
    reason = _pattern_reason(v, w) if cfg.pattern_shortcut else None
    if reason is not None:
        # the pattern claim may annotate but never carry a verdict on its own
        if verdict.kind is VerdictKind.INHOMOGENEOUS:
            verdict = Verdict(verdict.kind,
                              reason=f"{verdict.reason};pattern-claim-contradicted:{reason}",
                              witness=verdict.witness)
        elif verdict.kind is VerdictKind.KNOWN_HOMOGENEOUS:
            verdict = _plain(verdict.kind, reason)
        elif verdict.kind is VerdictKind.UNDETERMINED:
            verdict = _plain(verdict.kind, f"{verdict.reason};pattern-claim-unconfirmed:{reason}")
    return report(verdict, gens_after, n_singular, n_inhom)


CSV_HEADER = ["v", "w", "verdict", "digest", "gens_before", "gens_after", "wall_ms"]

# the largest n a sweep accepts: S_7 x S_7 has 25,401,600 pairs
MAX_SWEEP_N = 6


def _classify_row(task: tuple[Permutation, list[Permutation], ClassifierConfig, str]
                  ) -> tuple[dict[str, int], str]:
    """Classify v against each w of a row: the row's verdict counts (kind ->
    count) and its output lines in ``fmt``, all that a pool worker sends back."""
    v, ws, cfg, fmt = task
    counts: dict[str, int] = {}
    buf = io.StringIO()
    writer = csv.writer(buf)
    for w in ws:
        r = classify(v, w, cfg)
        kind = r.verdict.kind.value
        counts[kind] = counts.get(kind, 0) + 1
        if fmt == "jsonl":
            buf.write(r.line() + "\n")
        else:  # the CSV_HEADER columns
            writer.writerow([str(v), str(w), kind, r.verdict.digest(), r.gens_before,
                             r.gens_after, round(r.wall_ms, 3)])
    return counts, buf.getvalue()


def sweep(n: int, cfg: ClassifierConfig = ClassifierConfig(), out: str | Path | None = None,
          fmt: str = "csv", workers: int = 1, resume: bool = False) -> Counter[str]:
    """Classify every pair in S_n x S_n, in lexicographic word order, and
    return the census of the pairs classified: verdict kind -> count.

    Writes CSV (fixed header) or JSONL when ``out`` is given, one row of v
    at a time as each row finishes, so the file always holds the first pairs
    of the sweep, and an interrupted write at most a partial last line.  No
    record is kept: the file is the only per-pair output.  With ``resume``
    the pairs the file holds (see :func:`held_pairs`) are skipped, and only
    the newly classified pairs are appended and counted; a file that holds
    anything else raises ``ValueError`` first.
    """
    if n > MAX_SWEEP_N:
        raise ResourceWarning(f"sweep over S_{n} exceeds the limit {MAX_SWEEP_N}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format: {fmt}")
    out_path = Path(out) if out is not None else None
    # None (no file, or no whole line in it, not even a CSV header): write afresh
    held = (held_pairs(out_path, n, fmt)
            if resume and out_path is not None and out_path.exists() else None)
    perms = list(all_permutations(n))
    # the held pairs are whole rows of v, then the head of one more row
    done_rows, done_cols = divmod(held or 0, len(perms))
    tasks = [(v, perms[done_cols:] if i == 0 else perms, cfg, fmt)
             for i, v in enumerate(perms[done_rows:])]
    census: Counter[str] = Counter()
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imap, not imap_unordered: the rows are written in word order
            rows = stack.enter_context(multiprocessing.Pool(workers)).imap(_classify_row, tasks)
        else:
            rows = map(_classify_row, tasks)
        # opened after the fork, so that no worker inherits the file's buffer
        fh = None
        if out_path is not None:
            fh = stack.enter_context(out_path.open("w" if held is None else "a"))
            if fmt == "csv" and held is None:
                csv.writer(fh).writerow(CSV_HEADER)
        for counts, text in rows:
            census.update(counts)
            if fh is not None:
                fh.write(text)
                fh.flush()
    return census


# the (v, w) words of a record line, digits only since n <= MAX_SWEEP_N; a
# JSONL line is sorted by key, so its top-level "v" and "w" follow the detail
_PAIR = {"csv": re.compile(r"\A(\d+),(\d+),"),
         "jsonl": re.compile(r'"v": "(\d+)", "verdict": "\w+", "w": "(\d+)", "wall_ms": [^,]*}\Z')}


def held_pairs(path: Path, n: int, fmt: str) -> int | None:
    """How many pairs an output file of the S_n x S_n sweep in ``fmt`` holds,
    or None if it has no whole line.  The file is read forward once, and a
    partial last line is cut off.  Its lines must be the CSV header, then the
    first pairs of the sweep in word order; any other line raises
    ``ValueError`` naming the file, line and pair, and leaves the file as is."""
    words = [str(p) for p in all_permutations(n)]
    head = int(fmt == "csv")  # the CSV header holds no pair
    lineno = kept = 0
    with path.open("rb+") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break
            lineno += 1
            line = raw.decode(errors="replace").rstrip("\r\n")
            if lineno <= head:
                if line != ",".join(CSV_HEADER):
                    raise ValueError(f"{path} line 1 is not the CSV header")
            else:
                row, col = divmod(lineno - head - 1, len(words))
                want = (words[row], words[col]) if row < len(words) else None
                match = _PAIR[fmt].search(line)
                if match is None or match.groups() != want:
                    got = ("the pair ({}, {})".format(*match.groups()) if match
                           else f"no {fmt} record")
                    where = "the pair ({}, {})".format(*want) if want else "no more pairs"
                    raise ValueError(f"{path} line {lineno} holds {got} where the "
                                     f"S_{n} x S_{n} sweep has {where}")
            kept += len(raw)
        fh.truncate(kept)
    return lineno - head if lineno else None
