import csv
import hashlib
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest

import klhom
from klhom.classifier import (CSV_HEADER, ClassifierConfig, ConsistencyError, VerdictKind,
                              classify, necessary_condition_fails, sweep,
                              verify_inhomogeneity_witness, working_generators)
from klhom.minors import GeneratorSet, enumerate_defining_minors
from klhom.mutation import MutationConfig
from klhom.oracle import laplace_determinant
from klhom.paths import homogeneous_components, is_singular
from klhom.permutations import Permutation, all_permutations
P = Permutation.parse
NO_SHORTCUT = ClassifierConfig(pattern_shortcut=False)


def brute_witness_exists(v, w):
    """Expansion-only re-derivation of the witness condition."""
    z, _, keep = working_generators(v, w)
    dets = [laplace_determinant(m, z) for m in keep]
    for i, det in enumerate(dets):
        if det.is_zero or det.is_homogeneous:
            continue
        others = [frozenset(var for var, _ in mono)
                  for j, d in enumerate(dets) if j != i for mono, _ in d.terms()]
        if all(any(not any(o <= frozenset(var for var, _ in mono) for o in others)
                   for mono, _ in comp.terms())
               for comp in homogeneous_components(det)):
            return True
    return False


class TestNecessaryCondition:
    def test_matches_expansion_scan_on_s4(self, s4_perms):
        for v in s4_perms:
            for w in s4_perms:
                if w == Permutation.longest(4):
                    continue
                z, _, keep = working_generators(v, w)
                if not keep or any(not is_singular(m, z) and
                                   laplace_determinant(m, z).is_unit_constant
                                   for m in keep):
                    continue
                gens = GeneratorSet(v, w, tuple(keep))
                inhom = [m for m in keep if not laplace_determinant(m, z).is_homogeneous]
                fast = necessary_condition_fails(gens, z, inhom) is not None
                assert fast == brute_witness_exists(v, w), f"v={v} w={w}"

    def test_each_generator_is_tested_for_inhomogeneity_once(self, s4_perms, monkeypatch):
        calls = 0
        counted = klhom.classifier.is_inhomogeneous_det

        def counting(m, v):
            nonlocal calls
            calls += 1
            return counted(m, v)

        monkeypatch.setattr(klhom.classifier, "is_inhomogeneous_det", counting)
        witnessed = 0
        for v in s4_perms:
            for w in s4_perms:
                calls = 0
                report = classify(v, w, NO_SHORTCUT)
                assert calls <= report.gens_after, f"v={v} w={w}"
                witnessed += report.verdict.kind is VerdictKind.INHOMOGENEOUS
        assert witnessed > 0


class TestClassify:
    def test_longest_w_is_empty_ideal(self):
        for v in ["1234", "2314", "4321"]:
            report = classify(P(v), P("4321"))
            assert report.verdict.kind is VerdictKind.EMPTY_IDEAL
            assert report.gens_before == 0

    def test_domination_failure_is_unit_ideal(self):
        report = classify(P("21"), P("12"))
        assert report.verdict.kind is VerdictKind.UNIT_IDEAL

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            classify(P("12"), P("123"))

    def test_pattern_shortcut_reports_reason(self):
        report = classify(P("1234"), P("2341"))
        assert report.verdict.kind is VerdictKind.KNOWN_HOMOGENEOUS
        assert report.verdict.reason == "v-avoids-321"

    def test_audited_shortcut_yields_to_verified_witness(self):
        # the protected pair whose ideal is provably inhomogeneous: the
        # checked witness outranks the quoted pattern claim
        report = classify(P("123"), P("312"))
        assert report.verdict.kind is VerdictKind.INHOMOGENEOUS
        assert "pattern-claim-contradicted" in report.verdict.reason

    def test_gens_before_counts_the_enumerated_minors(self, s4_reports_no_shortcut):
        for (v, w), report in s4_reports_no_shortcut.items():
            assert report.gens_before == len(enumerate_defining_minors(v, w)), f"v={v} w={w}"

    def test_witnesses_reverify(self, s4_reports_no_shortcut):
        seen = 0
        for (v, w), report in s4_reports_no_shortcut.items():
            if report.verdict.kind is not VerdictKind.INHOMOGENEOUS:
                continue
            seen += 1
            z, _, keep = working_generators(v, w)
            gens = GeneratorSet(v, w, tuple(keep))
            assert verify_inhomogeneity_witness(report.verdict.witness, gens, z)
        assert seen > 0

    def test_witness_tampering_detected(self):
        report = classify(P("123"), P("312"), NO_SHORTCUT)
        witness = report.verdict.witness
        z, _, keep = working_generators(P("123"), P("312"))
        gens = GeneratorSet(P("123"), P("312"), tuple(keep))
        assert verify_inhomogeneity_witness(witness, gens, z)
        from klhom.classifier import InhomogeneityWitness
        from klhom.polynomials import mono_from_vars
        from klhom.zmatrix import Cell
        forged = InhomogeneityWitness(
            witness.generator, (mono_from_vars([Cell(2, 1)]),) + witness.per_component[1:])
        assert not verify_inhomogeneity_witness(forged, gens, z)

    def test_s3_verdict_census(self, s3_reports_no_shortcut):
        # regression anchor; every constituent verdict is oracle-checked in
        # the acceptance suite
        counts = {}
        for report in s3_reports_no_shortcut.values():
            kind = report.verdict.kind.value
            counts[kind] = counts.get(kind, 0) + 1
        assert counts == {
            "empty_ideal": 6,
            "unit_ideal": 17,
            "known_homogeneous": 11,
            "mutation_certified_homogeneous": 1,
            "inhomogeneous": 1,
        }

    def test_translated_pattern_protection_never_witnessed(self, s4_reports_no_shortcut):
        # the value-complement protection that holds in this indexing
        for (v, w), report in s4_reports_no_shortcut.items():
            if report.verdict.kind is VerdictKind.INHOMOGENEOUS:
                assert not _avoids(v, (1, 2, 3)) and not _avoids(w, (3, 1, 2))

    def test_empty_ideal_iff_longest_w(self, s4_reports_no_shortcut):
        w0 = Permutation.longest(4)
        for (v, w), report in s4_reports_no_shortcut.items():
            assert (report.verdict.kind is VerdictKind.EMPTY_IDEAL) == (w == w0)

    def test_witnessed_pairs_resist_deep_mutation(self, monkeypatch, s3_reports_no_shortcut):
        # a verified witness proves some component is not an ideal member, so
        # no depth of rewriting may certify every component
        from klhom.mutation import MutationConfig, run_mutation
        monkeypatch.setattr(klhom.mutation, "BRANCH_BUDGET", 2048)
        for (v, w), report in s3_reports_no_shortcut.items():
            if report.verdict.kind is not VerdictKind.INHOMOGENEOUS:
                continue
            z, _, keep = working_generators(v, w)
            gen_polys = [laplace_determinant(m, z) for m in keep]
            all_terminate = True
            for i, det in enumerate(gen_polys):
                if det.is_homogeneous:
                    continue
                for comp in homogeneous_components(det):
                    outcome = run_mutation(comp, gen_polys,
                                           MutationConfig(depth_limit=12),
                                           target_gen_index=i)
                    all_terminate &= outcome.terminated
            assert not all_terminate


def _avoids(p, pattern):
    for tri in itertools.combinations(range(p.n), 3):
        vals = [p.word[i] for i in tri]
        order = sorted(vals)
        if tuple(order.index(x) + 1 for x in vals) == pattern:
            return False
    return True


# classify(1234, 2143) is certified by the rewriting search; run_mutation is
# the one place that re-checks a certificate, and the classifier trusts it
GUARDED_MODULES = ["klhom.mutation"]

GUARD_SCRIPT = """
import importlib, sys
from klhom import ConsistencyError, Permutation, classify
for name in sys.argv[1:]:
    module = importlib.import_module(name)
    real = module.verify_certificate
    module.verify_certificate = lambda *args: False
    try:
        classify(Permutation.parse("1234"), Permutation.parse("2143"))
        print(name, "returned")
    except ConsistencyError:
        print(name, "raised")
    module.verify_certificate = real
print("optimize", sys.flags.optimize)
"""


class TestCertificateGuards:
    def test_consistency_error_is_one_class(self):
        from klhom.errors import ConsistencyError as shared
        assert ConsistencyError is shared is klhom.ConsistencyError

    @pytest.mark.parametrize("module", GUARDED_MODULES)
    def test_failed_recheck_raises(self, monkeypatch, module):
        assert classify(P("1234"), P("2143")).verdict.kind is \
            VerdictKind.MUTATION_CERTIFIED_HOMOGENEOUS
        monkeypatch.setattr(importlib.import_module(module), "verify_certificate",
                            lambda *args: False)
        with pytest.raises(ConsistencyError):
            classify(P("1234"), P("2143"))

    def test_failed_recheck_raises_under_optimize(self):
        # python -O strips assert statements; the guards must not be asserts
        src = str(Path(klhom.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", GUARD_SCRIPT, *GUARDED_MODULES],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == [f"{m} raised" for m in GUARDED_MODULES] + \
            ["optimize 1", ""]

    def test_each_certificate_is_checked_once(self, monkeypatch):
        # over the S_4 census, verify_certificate runs once per terminated
        # rewriting outcome, counted through both module bindings
        checks: Counter = Counter()
        terminated = [0]
        for module in (klhom.classifier, klhom.mutation):
            def counted(*args, _real=module.verify_certificate, _name=module.__name__):
                checks[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, "verify_certificate", counted)

        def running(*args, _real=klhom.mutation.run_mutation, **kwargs):
            out = _real(*args, **kwargs)
            terminated[0] += out.terminated
            return out

        monkeypatch.setattr(klhom.classifier, "run_mutation", running)
        for v in all_permutations(4):
            for w in all_permutations(4):
                classify(v, w, NO_SHORTCUT)
        assert terminated[0] > 0
        assert checks == Counter({"klhom.mutation": terminated[0]})


class TestScale:
    def test_random_s5_pairs_self_consistent(self):
        import random
        rng = random.Random(53)
        perms = list(all_permutations(5))
        for _ in range(40):
            v, w = rng.choice(perms), rng.choice(perms)
            report = classify(v, w, NO_SHORTCUT)
            if report.verdict.kind is VerdictKind.INHOMOGENEOUS:
                z, _, keep = working_generators(v, w)
                gens = GeneratorSet(v, w, tuple(keep))
                assert verify_inhomogeneity_witness(report.verdict.witness, gens, z)
            elif report.verdict.kind is VerdictKind.KNOWN_HOMOGENEOUS:
                z, _, keep = working_generators(v, w)
                assert all(laplace_determinant(m, z).is_homogeneous for m in keep)


def read_output(path, fmt):
    """The records of a sweep's output file."""
    with path.open(newline="") as fh:
        if fmt == "csv":
            return list(csv.DictReader(fh))
        return [json.loads(line) for line in fh]


def blank_wall_ms(text, fmt):
    """A sweep's output bytes with every wall_ms blanked."""
    if fmt == "jsonl":
        return re.sub(rb'"wall_ms": [^,}]*', b'"wall_ms": null', text)
    # wall_ms is the last CSV column
    return re.sub(rb",[^,\r\n]*\r\n", b",\r\n", text)


class TestSweep:
    def test_n2_has_four_rows(self, tmp_path):
        census = sweep(2, out=tmp_path / "r.csv")
        assert sum(census.values()) == 4
        assert len(read_output(tmp_path / "r.csv", "csv")) == 4
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 5

    def test_deterministic_records(self, tmp_path):
        for name in ("a", "b"):
            sweep(3, NO_SHORTCUT, out=tmp_path / f"{name}.jsonl", fmt="jsonl")
        a, b = (read_output(tmp_path / f"{name}.jsonl", "jsonl") for name in ("a", "b"))
        assert len(a) == 36
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_ms"}
                              for r in recs]
        # wall time is the only nondeterministic field, and digests pin the
        # witness/certificate payloads
        assert strip(a) == strip(b)

    def test_jsonl_roundtrip_and_resume(self, tmp_path):
        import json
        out = tmp_path / "r.jsonl"
        sweep(2, out=out, fmt="jsonl")
        # truncate to simulate an interrupted run, then resume
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:2]) + "\n")
        resumed = sweep(2, out=out, fmt="jsonl", resume=True)
        assert sum(resumed.values()) == 2
        final = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(final) == 4
        assert {(r["v"], r["w"]) for r in final} == \
            {(str(v), str(w)) for v in all_permutations(2) for w in all_permutations(2)}

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_resume_into_empty_file(self, tmp_path, fmt):
        out = tmp_path / f"e.{fmt}"
        out.touch()
        assert sum(sweep(2, out=out, fmt=fmt, resume=True).values()) == 4
        assert sweep(2, out=out, fmt=fmt, resume=True) == {}
        final = read_output(out, fmt)
        assert sorted((r["v"], r["w"]) for r in final) == \
            sorted((str(v), str(w)) for v in all_permutations(2) for w in all_permutations(2))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("whole_lines", [0, 4])
    def test_resume_after_truncated_last_line(self, tmp_path, fmt, whole_lines):
        # an interrupted write leaves a partial last line: 5 bytes into the
        # line after the first ``whole_lines`` lines
        out = tmp_path / f"t.{fmt}"
        sweep(3, out=out, fmt=fmt)
        fresh = read_output(out, fmt)
        text = out.read_bytes()
        ends = [i + 1 for i, byte in enumerate(text) if byte == ord("\n")]
        out.write_bytes(text[:(ends[whole_lines - 1] if whole_lines else 0) + 5])
        sweep(3, out=out, fmt=fmt, resume=True)
        final = read_output(out, fmt)
        key = lambda recs: sorted((r["v"], r["w"], r["verdict"], r["digest"]) for r in recs)
        assert key(final) == key(fresh)

    @pytest.mark.parametrize("head, held",
                             [(b"", None), (",".join(CSV_HEADER).encode() + b"\r\n", 0)],
                             ids=["no-newline", "one-line"])
    def test_partial_last_line_past_64_kib_is_cut(self, tmp_path, head, held):
        # the partial last line is longer than any fixed-size read block
        path = tmp_path / "long.csv"
        path.write_bytes(head + b"x" * (2 * 65536 + 3))
        assert klhom.classifier.held_pairs(path, 3, "csv") == held
        assert path.read_bytes() == head

    def test_jsonl_bytes_and_digests(self, tmp_path):
        # the file holds json.dumps(record, sort_keys=True) per line, each
        # record is the pair's to_record() but for wall_ms, and each digest is
        # the sha256 of the sorted JSON of the record's detail
        out = tmp_path / "s3.jsonl"
        sweep(3, NO_SHORTCUT, out=out, fmt="jsonl")
        records = read_output(out, "jsonl")
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert out.read_bytes() == expected.encode()
        strip = lambda rec: {k: x for k, x in rec.items() if k != "wall_ms"}
        assert [strip(r) for r in records] == \
            [strip(classify(v, w, NO_SHORTCUT).to_record())
             for v in all_permutations(3) for w in all_permutations(3)]
        for r in records:
            blob = json.dumps(r["detail"], sort_keys=True).encode()
            assert r["digest"] == hashlib.sha256(blob).hexdigest()[:12]
        assert {"witness", "certificates"} <= {k for r in records for k in r["detail"]}

    @pytest.mark.parametrize("pattern_shortcut", [True, False])
    @pytest.mark.parametrize("depth", [2, 8])
    def test_record_lines_and_details(self, pattern_shortcut, depth):
        # every pair of S_3 and S_4: each line() is the sorted JSON of its
        # to_record(), and each record holds its own detail dict, although
        # the reports of one plain verdict share that verdict and its encoding
        cfg = ClassifierConfig(pattern_shortcut, MutationConfig(depth_limit=depth))
        reports = [classify(v, w, cfg) for n in (3, 4)
                   for v in all_permutations(n) for w in all_permutations(n)]
        records = []
        for report in reports:
            record = report.to_record()
            assert report.line() == json.dumps(record, sort_keys=True)
            records.append(record)
        assert len({id(r["detail"]) for r in records}) == len(records)
        assert len({id(r.verdict) for r in reports}) < len(reports)
        assert {"witness", "certificates"} <= {k for r in records for k in r["detail"]}

    def test_plain_verdict_digest_memo(self, s4_reports_no_shortcut):
        plain = [r.verdict for r in s4_reports_no_shortcut.values()
                 if r.verdict.witness is None and r.verdict.certificates is None]
        assert plain
        for verdict in plain:
            blob = json.dumps(verdict.to_record(), sort_keys=True).encode()
            assert verdict.digest() == hashlib.sha256(blob).hexdigest()[:12]

    def test_parallel_matches_serial(self, tmp_path, golden_rows):
        # a serial and a parallel S4 sweep write the same bytes but for
        # wall_ms, and the pairs, in order, carry the golden table's verdicts
        fields = ("v", "w", "verdict", "reason", "digest")
        golden = [tuple(r[k] for k in fields) for r in golden_rows("golden-classify-s4.csv")]
        assert len(golden) == 576
        for fmt in ("csv", "jsonl"):
            serial, parallel = tmp_path / f"serial.{fmt}", tmp_path / f"parallel.{fmt}"
            sweep(4, NO_SHORTCUT, out=serial, fmt=fmt, workers=1)
            sweep(4, NO_SHORTCUT, out=parallel, fmt=fmt, workers=2)
            assert blank_wall_ms(serial.read_bytes(), fmt) == \
                blank_wall_ms(parallel.read_bytes(), fmt)
        rows = read_output(tmp_path / "parallel.jsonl", "jsonl")
        assert [tuple(r[k] for k in fields) for r in rows] == golden

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch, fmt):
        # a pair in the middle of the third row of v raises: the file holds
        # whole lines for the two rows before it, and a resume completes it
        perms = list(all_permutations(3))
        stop = (perms[2], perms[3])
        real_classify = klhom.classifier.classify

        def classify_until_stop(v, w, cfg):
            if (v, w) == stop:
                raise ValueError("interrupted")
            return real_classify(v, w, cfg)

        out = tmp_path / f"i.{fmt}"
        monkeypatch.setattr(klhom.classifier, "classify", classify_until_stop)
        with pytest.raises(ValueError, match="interrupted"):
            sweep(3, NO_SHORTCUT, out=out, fmt=fmt, workers=1)
        monkeypatch.undo()
        text = out.read_bytes()
        assert text.endswith(b"\n")
        assert text.count(b"\n") == 2 * len(perms) + (fmt == "csv")
        assert [(r["v"], r["w"]) for r in read_output(out, fmt)] == \
            [(str(v), str(w)) for v in perms[:2] for w in perms]
        resumed = sweep(3, NO_SHORTCUT, out=out, fmt=fmt, workers=1, resume=True)
        assert sum(resumed.values()) == 4 * len(perms)
        sweep(3, NO_SHORTCUT, out=tmp_path / f"f.{fmt}", fmt=fmt)
        key = lambda recs: [(r["v"], r["w"], r["verdict"], r["digest"]) for r in recs]
        assert key(read_output(out, fmt)) == key(read_output(tmp_path / f"f.{fmt}", fmt))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_census_counts_the_file(self, tmp_path, fmt, workers):
        # the returned census is the file's verdict counts, and a resume
        # counts only the pairs it appends
        out = tmp_path / f"s4.{fmt}"
        census = sweep(4, NO_SHORTCUT, out=out, fmt=fmt, workers=workers)
        assert census == Counter(r["verdict"] for r in read_output(out, fmt))
        assert sum(census.values()) == 576
        assert sweep(4, NO_SHORTCUT, out=out, fmt=fmt, workers=workers, resume=True) == {}

    def test_pool_result_is_the_row_text(self):
        # a pool worker sends back a row's text and its verdict counts, and
        # nothing per pair besides: no record, no detail
        perms = list(all_permutations(4))
        for fmt in ("csv", "jsonl"):
            for v in perms:
                counts, text = result = klhom.classifier._classify_row(
                    (v, perms, NO_SHORTCUT, fmt))
                assert sum(counts.values()) == len(perms)
                assert len(ForkingPickler.dumps(result)) <= len(text) + 256

    def test_resource_limit(self):
        with pytest.raises(ResourceWarning):
            sweep(7)

    def test_unknown_format_rejected_before_classifying(self, tmp_path, monkeypatch):
        def no_classify(*args, **kwargs):
            raise AssertionError("classify ran before the format check")

        monkeypatch.setattr(klhom.classifier, "classify", no_classify)
        with pytest.raises(ValueError, match="unknown format"):
            sweep(2, out=tmp_path / "r.xml", fmt="xml")
        assert not (tmp_path / "r.xml").exists()
