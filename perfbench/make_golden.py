"""
Write ``data/golden-<workload>.csv``: the (v, w, verdict, reason, digest) the
classifier gives each pair of a workload's population, with the settings the
workload uses.  The committed tables were written at the commit that added
the benchmark, before any change to the classifier; a run counts the pairs
whose digest differs from them (``digest_changes``).

The ``classify-s5-deep`` table also records each pair's classify time in ms
(``baseline_ms``), measured one pair at a time in one process.  ``run.py`` draws
that workload's strata from it, so regenerating the table on other hardware
re-draws them.

Run from the repository root:  python3 perfbench/make_golden.py
(about two minutes, most of it in the S_5 pairs at depth 8).
"""
from __future__ import annotations

import csv
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from klhom.classifier import ClassifierConfig, classify, sweep  # noqa: E402
from klhom.mutation import MutationConfig  # noqa: E402
from klhom.permutations import Permutation  # noqa: E402

import tables  # noqa: E402

FIELDS = ["v", "w", "verdict", "reason", "digest"]


def classified(pairs) -> list[dict]:
    cfg = ClassifierConfig(pattern_shortcut=False)
    rows = []
    for v, w in pairs:
        t0 = time.perf_counter()
        rec = classify(Permutation(v), Permutation(w), cfg).to_record()
        rec["baseline_ms"] = f"{(time.perf_counter() - t0) * 1000.0:.3f}"
        rows.append(rec)
    return rows


def write(workload: str, rows: list[dict], fields: list[str]) -> None:
    with tables.golden_path(workload).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"{workload}: {len(rows)} pairs")


def main() -> None:
    write("classify-s4", classified(tables.all_pairs(4)), FIELDS)
    deep = [(v, w) for v, w in tables.all_pairs(5) if tables.gate(v, w) is None]
    write("classify-s5-deep", classified(deep), FIELDS + ["baseline_ms"])
    cfg = ClassifierConfig(pattern_shortcut=False, mutation=MutationConfig(depth_limit=2))
    with tempfile.TemporaryDirectory() as tmp:
        rows = sweep(5, cfg, out=Path(tmp) / "s5.jsonl", fmt="jsonl", workers=2)
    write("sweep-s5", rows, FIELDS)


if __name__ == "__main__":
    main()
