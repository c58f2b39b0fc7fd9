"""
Pair populations and the committed tables the benchmark checks against.

Nothing here imports klhom: the gates below are the benchmark's own rank
count, so the empty/unit classes in the reference table do not come from the
code under test.

- ``data/reference.csv``: for every pair of S_4 x S_4 and S_5 x S_5 the class
  of its ideal (``empty``, ``unit``, ``homogeneous`` or ``inhomogeneous``).
  Written by ``make_reference.py``; empty and unit come from :func:`gate`, the
  rest from a sympy Groebner basis.
- ``data/golden-<workload>.csv``: the verdict, reason and digest the seed
  commit of the benchmark gave each pair, written by ``make_golden.py``.  The
  ``classify-s5-deep`` table also holds the baseline commit's time per pair, which
  fixes that workload's strata.
"""
from __future__ import annotations

import csv
import itertools
from functools import lru_cache
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "reference.csv"

Word = tuple[int, ...]

# the class each verdict kind claims; undetermined claims nothing
CLAIMED_CLASS = {
    "empty_ideal": "empty",
    "unit_ideal": "unit",
    "known_homogeneous": "homogeneous",
    "mutation_certified_homogeneous": "homogeneous",
    "inhomogeneous": "inhomogeneous",
    "undetermined": None,
}


def all_pairs(n: int) -> list[tuple[Word, Word]]:
    """S_n x S_n in lexicographic word order (the order ``klhom sweep`` uses)."""
    perms = list(itertools.permutations(range(1, n + 1)))
    return [(v, w) for v in perms for w in perms]


def text(word: Word) -> str:
    return "".join(map(str, word))


def parse(s: str) -> Word:
    return tuple(int(ch) for ch in s)


@lru_cache(maxsize=None)
def rank(w: Word) -> tuple[int, ...]:
    """Entry (p, q), flattened row by row: the k <= q with w(k) >= p."""
    n = len(w)
    return tuple(sum(1 for k in range(q) if w[k] >= p)
                 for p in range(1, n + 1) for q in range(1, n + 1))


def gate(v: Word, w: Word) -> str | None:
    """``empty`` when w is n...1, ``unit`` when rank(v) <= rank(w) fails
    somewhere, else None (the pair is non-trivial)."""
    if w == tuple(range(len(w), 0, -1)):
        return "empty"
    if any(a > b for a, b in zip(rank(v), rank(w))):
        return "unit"
    return None


def load_reference() -> dict[tuple[str, str], str]:
    with REFERENCE.open(newline="") as fh:
        return {(row["v"], row["w"]): row["class"] for row in csv.DictReader(fh)}


def load_baseline_times() -> dict[tuple[str, str], tuple[str, float]]:
    """classify-s5-deep's (verdict, ms) per pair at the baseline commit."""
    with golden_path("classify-s5-deep").open(newline="") as fh:
        return {(row["v"], row["w"]): (row["verdict"], float(row["baseline_ms"]))
                for row in csv.DictReader(fh)}


def golden_path(workload: str) -> Path:
    return DATA / f"golden-{workload}.csv"


def load_golden(workload: str) -> dict[tuple[str, str], dict]:
    with golden_path(workload).open(newline="") as fh:
        return {(row["v"], row["w"]): row for row in csv.DictReader(fh)}
