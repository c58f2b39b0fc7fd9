"""Shared populations for the exhaustive cross-checks (computed once)."""
from __future__ import annotations

import csv
from pathlib import Path

import pytest

from klhom.classifier import ClassifierConfig, classify
from klhom.oracle import distinct_pruned_minors
from klhom.permutations import all_permutations

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.fixture(scope="session")
def s4_perms():
    return list(all_permutations(4))


@pytest.fixture(scope="session")
def s4_distinct_minors():
    """All (v, z, minor) with the minor pruned-defining for some w in S4."""
    return list(distinct_pruned_minors(4))


@pytest.fixture(scope="session")
def s4_reports_no_shortcut(s4_perms):
    """classify() over all of S4 x S4 with the pattern shortcut disabled."""
    cfg = ClassifierConfig(pattern_shortcut=False)
    return {(v, w): classify(v, w, cfg) for v in s4_perms for w in s4_perms}


@pytest.fixture(scope="session")
def s3_reports_no_shortcut():
    cfg = ClassifierConfig(pattern_shortcut=False)
    perms = list(all_permutations(3))
    return {(v, w): classify(v, w, cfg) for v in perms for w in perms}


@pytest.fixture(scope="session")
def golden_rows():
    """Reader for the benchmark's golden tables, by file name."""
    def read(name):
        with (GOLDEN_DIR / name).open(newline="") as fh:
            return list(csv.DictReader(fh))
    return read


@pytest.fixture(scope="session")
def s5_middle_stratum(golden_rows):
    """Every 4th pair, by its time when the table was recorded, of the S5
    pairs that took 0.1 to 1 s: the benchmark's fixed middle stratum."""
    return sorted((r for r in golden_rows("golden-classify-s5-deep.csv")
                   if 100 <= float(r["baseline_ms"]) < 1000),
                  key=lambda r: float(r["baseline_ms"]))[::4]
