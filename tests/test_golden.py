"""Verdicts pinned to the benchmark's golden tables.

``perfbench/data/golden-*.csv`` record, per pair, the (verdict, reason,
digest) that ``classify`` gave with the pattern shortcut off when the
benchmark was set up; the benchmark counts any difference as a digest change.
These tests hold every S4 pair, and a fixed slice of the S5 pairs that the
rewriting search works hardest on, to the same tables.
"""
import csv
from pathlib import Path

from klhom.classifier import ClassifierConfig, classify
from klhom.permutations import Permutation

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def golden_rows(name):
    with (DATA / name).open(newline="") as fh:
        return list(csv.DictReader(fh))


def mismatches(rows, reports):
    """(v, w, expected, observed) for every row whose report differs."""
    out = []
    for row in rows:
        verdict = reports[row["v"], row["w"]].verdict
        observed = (verdict.kind.value, verdict.reason, verdict.digest())
        expected = (row["verdict"], row["reason"], row["digest"])
        if observed != expected:
            out.append((row["v"], row["w"], expected, observed))
    return out


def test_every_s4_pair_matches(s4_reports_no_shortcut):
    rows = golden_rows("golden-classify-s4.csv")
    assert len(rows) == 576
    reports = {(str(v), str(w)): r for (v, w), r in s4_reports_no_shortcut.items()}
    assert mismatches(rows, reports) == []


def test_s5_middle_stratum_matches():
    # every 4th pair, by its time when the table was recorded, of the S5
    # pairs that took 0.1 to 1 s: the benchmark's fixed middle stratum
    middle = sorted((r for r in golden_rows("golden-classify-s5-deep.csv")
                     if 100 <= float(r["baseline_ms"]) < 1000),
                    key=lambda r: float(r["baseline_ms"]))[::4]
    assert len(middle) == 11
    cfg = ClassifierConfig(pattern_shortcut=False)
    reports = {(r["v"], r["w"]): classify(Permutation.parse(r["v"]),
                                          Permutation.parse(r["w"]), cfg)
               for r in middle}
    assert mismatches(middle, reports) == []
