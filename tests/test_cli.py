import json

import pytest

import klhom.classifier
from klhom.cli import EXIT_MISMATCH, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "classify", "--v", "2314", "--w", "4213", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["v"] == "2314" and rec["w"] == "4213"
        assert rec["verdict"] in {"known_homogeneous", "inhomogeneous",
                                  "mutation_certified_homogeneous", "undetermined"}
        assert {"digest", "gens_before", "gens_after", "wall_ms"} <= rec.keys()

    def test_human_readable(self, capsys):
        code, out, _ = run(capsys, "classify", "--v", "123", "--w", "312")
        assert code == 0
        assert "verdict=inhomogeneous" in out

    def test_invalid_word(self, capsys):
        code, _, _ = run(capsys, "classify", "--v", "11", "--w", "12")
        assert code == 2

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "classify", "--v", "12", "--w", "123")
        assert code == 2
        assert "same size" in err

    def test_mutation_depth_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--v", "1234", "--w", "3412",
                           "--no-pattern-shortcut", "--mutation-depth", "2", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "undetermined"

    def test_negative_mutation_depth_is_invalid(self, capsys):
        code, _, err = run(capsys, "classify", "--v", "1234", "--w", "2143",
                           "--mutation-depth", "-1")
        assert code == 2
        assert "mutation depth" in err


class TestSweep:
    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--n", "2", "--out", str(out_file))
        assert code == 0
        assert "4 pairs classified" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "v,w,verdict,digest,gens_before,gens_after,wall_ms"
        assert len(lines) == 5

    def test_resume_counts_the_pairs_already_held(self, capsys, tmp_path):
        out_file = str(tmp_path / "r3.csv")
        code, out, _ = run(capsys, "sweep", "--n", "3", "--out", out_file)
        assert code == 0
        assert out.startswith(f"36 pairs classified -> {out_file}\n")
        code, out, _ = run(capsys, "sweep", "--n", "3", "--out", out_file, "--resume")
        assert code == 0
        assert out == f"0 pairs classified, 36 already in the file -> {out_file}\n"

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_nonpositive_workers_is_invalid(self, capsys, workers):
        code, _, err = run(capsys, "sweep", "--n", "2", "--workers", workers)
        assert code == 2
        assert "workers" in err

    def test_resource_limit(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "7")
        assert code == 3
        assert "exceeds" in err


# classify(1234, 2143) is certified by the rewriting search; with the
# classifier's certificate re-check made to fail, each subcommand that
# classifies it reports a verification mismatch instead of a traceback
MISMATCH_ARGV = [["classify", "--v", "1234", "--w", "2143"], ["sweep", "--n", "4"]]


@pytest.mark.parametrize("argv", MISMATCH_ARGV, ids=["classify", "sweep"])
def test_failed_recheck_is_a_mismatch(capsys, monkeypatch, argv):
    monkeypatch.setattr(klhom.classifier, "verify_certificate", lambda *args: False)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_MISMATCH
    assert err.startswith("error: ") and "failed re-verification" in err


class TestShow:
    def test_prints_matrices_and_minors(self, capsys):
        code, out, _ = run(capsys, "show", "--v", "23451", "--w", "42531")
        assert code == 0
        assert "z_{1,1}  z_{1,2}  z_{1,3}  1  0" in out
        assert "t=3: raw heights [1, 3, 5] -> rows [3]" in out
        assert "rows{1,2,3} x cols{1,2,3}" in out


class TestVerify:
    def test_suite_passes_n2(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2")
        assert code == 0
        assert out.startswith("PASS")

    def test_budget_guard(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "5")
        assert code == 3

    def test_bad_subcommand_is_invalid_input(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2
