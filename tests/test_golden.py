"""Verdicts pinned to the benchmark's golden tables.

``perfbench/data/golden-*.csv`` record, per pair, the (verdict, reason,
digest) that ``classify`` gave with the pattern shortcut off when the
benchmark was set up; the benchmark counts any difference as a digest change.
These tests hold every S4 pair, and a fixed slice of the S5 pairs that the
rewriting search works hardest on, to the same tables.
"""
from klhom.classifier import ClassifierConfig, classify
from klhom.permutations import Permutation


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


def test_every_s4_pair_matches(s4_reports_no_shortcut, golden_rows):
    rows = golden_rows("golden-classify-s4.csv")
    assert len(rows) == 576
    reports = {(str(v), str(w)): r for (v, w), r in s4_reports_no_shortcut.items()}
    assert mismatches(rows, reports) == []


def test_s5_middle_stratum_matches(s5_middle_stratum):
    middle = s5_middle_stratum
    assert len(middle) == 11
    cfg = ClassifierConfig(pattern_shortcut=False)
    reports = {(r["v"], r["w"]): classify(Permutation.parse(r["v"]),
                                          Permutation.parse(r["w"]), cfg)
               for r in middle}
    assert mismatches(middle, reports) == []
