"""Command-line behavior: exit codes, outputs, manifests, determinism."""

import ast
import gc
import hashlib
import json
import os
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import child
import labelcal
from labelcal import calibration, folds, metrics, pbt, sampling
from labelcal.cli import build_parser, dispatch
from labelcal.core import (
    format_json, format_matrix, input_digests, load_label_matrix, load_prob_matrix)

HEADER = "level\tpage_num\tblock_num\tpar_num\tline_num\tword_num\tleft\ttop\twidth\theight\tconf\ttext"


@pytest.fixture
def probs_csv(tmp_path):
    rng = np.random.default_rng(90)
    rows = ["a,b,c"]
    for _ in range(30):
        rows.append(",".join("%.17g" % v for v in rng.random(3)))
    path = tmp_path / "probs.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def truth_csv(tmp_path):
    rng = np.random.default_rng(91)
    rows = ["a,b,c"]
    values = rng.integers(0, 2, size=(30, 3))
    values[0] = 1
    for row in values:
        rows.append(",".join(str(v) for v in row))
    path = tmp_path / "truth.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def run_twice(argv, out_paths):
    """Dispatch twice and return the two byte snapshots of each output."""
    snapshots = []
    for _ in range(2):
        assert dispatch(argv) == 0
        snapshots.append([Path(p).read_bytes() for p in out_paths])
    return snapshots


class TestTruncateCommand:
    def test_fixed_thresholds(self, tmp_path, probs_csv):
        out = str(tmp_path / "q.csv")
        code = dispatch(
            ["truncate", "--probs", probs_csv, "--p-low", "0.2",
             "--p-high", "0.54", "--out", out]
        )
        assert code == 0
        body = Path(out).read_text().splitlines()[1:]
        values = np.array([[float(x) for x in line.split(",")] for line in body])
        assert np.all((values == 0) | (values == 1) | ((values >= 0.2) & (values <= 0.54)))

    def test_manifest_written(self, tmp_path, probs_csv):
        out = str(tmp_path / "q.csv")
        dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.1",
                  "--p-high", "0.9", "--out", out])
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["subcommand"] == "truncate"
        assert probs_csv in manifest["inputs"]
        assert manifest["parameters"]["p_low"] == 0.1

    def test_failed_run_keeps_an_earlier_output(self, tmp_path, probs_csv, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"a,b,c\n0,0,0\n")
        (tmp_path / "out.csv.manifest.json").mkdir()  # the manifest cannot replace it
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2",
                         "--p-high", "0.5", "--out", str(out)]) == 2
        assert "out.csv.manifest.json" in capsys.readouterr().err
        assert out.read_bytes() == b"a,b,c\n0,0,0\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.csv.manifest.json", "probs.csv"]

    def test_failed_in_place_run_keeps_the_input(self, tmp_path, probs_csv, capsys):
        before = Path(probs_csv).read_bytes()
        (tmp_path / "probs.csv.manifest.json").mkdir()
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2",
                         "--p-high", "0.5", "--out", probs_csv]) == 2
        assert "probs.csv.manifest.json" in capsys.readouterr().err
        assert Path(probs_csv).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["probs.csv", "probs.csv.manifest.json"]

    def test_in_place_run_digests_the_input_as_read(self, tmp_path, probs_csv):
        probs = tmp_path / "probs.csv"
        digest = hashlib.sha256(probs.read_bytes()).hexdigest()
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2",
                         "--p-high", "0.54", "--out", probs_csv]) == 0
        assert hashlib.sha256(probs.read_bytes()).hexdigest() != digest  # replaced
        manifest = json.loads((tmp_path / "probs.csv.manifest.json").read_text("utf-8"))
        assert manifest["inputs"] == {probs_csv: digest}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, probs_csv, tmp_path):
        code = dispatch(["truncate", "--probs", probs_csv, "--frobnicate", "1"])
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert dispatch(["no-such-command"]) == 1

    def test_threads_flag_is_usage_error(self, tmp_path, probs_csv, truth_csv):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n0.25\n", encoding="utf-8")
        out = str(tmp_path / "o.json")
        for argv in (
            ["folds", "--labels", truth_csv, "--k", "3", "--candidates", "5"],
            ["calibrate", "--oof", probs_csv, "--truth", truth_csv, "--step", "0.25"],
            ["size-curve", "--scores", str(scores), "--sizes", "1", "2", "1",
             "--reps", "2", "--resamples", "5"],
        ):
            assert dispatch(argv + ["--out", out]) == 0
            assert dispatch(argv + ["--threads", "2", "--out", out]) == 1

    def test_relnet_seed_flag_is_usage_error(self, tmp_path, probs_csv):
        argv = ["relnet", "--probs", probs_csv, "--out", str(tmp_path / "g.dot")]
        assert dispatch(argv) == 0
        assert dispatch(argv + ["--seed", "2"]) == 1

    @pytest.mark.parametrize("extra, message", [
        (["--p-low", "0.2"], "unrecognized arguments: --p-low 0.2"),
        (["--p-high", "0.54"], "unrecognized arguments: --p-high 0.54"),
        (["--calibrate", "truncate"], "invalid choice: 'truncate'"),
    ])
    def test_relnet_truncation_options_are_usage_errors(
            self, tmp_path, probs_csv, capsys, extra, message):
        code = dispatch(["relnet", "--probs", probs_csv, "--out", str(tmp_path / "g.dot")] + extra)
        assert code == 1
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["probs.csv"]

    def test_metrics_report_spelling_is_usage_error(self, tmp_path, probs_csv, truth_csv, capsys):
        code = dispatch(["metrics", "--probs", probs_csv, "--truth", truth_csv,
                         "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["probs.csv", "truth.csv"]

    def test_bad_years_line_is_data_error(self, tmp_path, probs_csv, truth_csv, capsys):
        years = tmp_path / "years.txt"
        years.write_text("1990\n\n19x1\n" + "1992\n" * 27, encoding="utf-8")
        code = dispatch(["calibrate", "--oof", probs_csv, "--truth", truth_csv,
                         "--years", str(years), "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "non-integer year on line 3" in capsys.readouterr().err

    def test_size_curve_nonpositive_reps_or_size_is_data_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n0.25\n0.75\n", encoding="utf-8")
        out = tmp_path / "curve.json"
        for sizes, reps in ((["1", "2", "1"], "0"), (["1", "2", "1"], "-1"),
                            (["-1", "2", "1"], "2")):
            code = dispatch(["size-curve", "--scores", str(scores), "--sizes", *sizes,
                             "--reps", reps, "--resamples", "5", "--out", str(out)])
            assert code == 2
            assert "must be >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_size_curve_nonpositive_step_is_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n0.25\n0.75\n", encoding="utf-8")
        out = tmp_path / "curve.json"
        for step in ("0", "-1"):
            code = dispatch(["size-curve", "--scores", str(scores), "--sizes", "1", "2", step,
                             "--reps", "2", "--resamples", "5", "--out", str(out)])
            assert code == 1
            assert "STEP must be >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_scores_line_is_data_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n0.25\nnope\n", encoding="utf-8")
        code = dispatch(["size-curve", "--scores", str(scores), "--sizes", "1", "2", "1",
                         "--out", str(tmp_path / "curve.json")])
        assert code == 2
        assert "malformed number on line 3" in capsys.readouterr().err

    # float() reads the first two as 10.0, and str.strip() drops the padding
    # of the rest; a matrix cell allows neither
    @pytest.mark.parametrize("line", ["1_0", "\uff11\uff10", "0.5\xa0", "\u20030.5", "0.5\x1f",
                                      "0.5\x85", "\t0.5"])
    def test_score_outside_the_number_grammar_is_data_error(self, tmp_path, capsys, line):
        scores = tmp_path / "scores.txt"
        scores.write_text(f"0.5\n\n{line}\n0.25\n", encoding="utf-8")
        out = tmp_path / "curve.json"
        code = dispatch(["size-curve", "--scores", str(scores), "--sizes", "1", "2", "1",
                         "--out", str(out)])
        assert code == 2
        assert "malformed number on line 3" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["scores.txt"]

    @pytest.mark.parametrize("command", ["metrics", "calibrate"])
    @pytest.mark.parametrize("line", ["198_1", "\uff11\uff19\uff18\uff11", "1981\xa0",
                                      "\u20031981", "1981\x1f", "1981\x85", "\t1981"])
    def test_year_outside_the_number_grammar_is_data_error(
            self, tmp_path, probs_csv, truth_csv, capsys, command, line):
        years = tmp_path / "years.txt"
        years.write_text("1980\n" + line + "\n" + "1982\n" * 28, encoding="utf-8")
        source = "--probs" if command == "metrics" else "--oof"
        code = dispatch([command, source, probs_csv, "--truth", truth_csv,
                         "--years", str(years), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-integer year on line 2" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_empty_scores_file_is_data_error_without_warning(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["size-curve", "--scores", str(scores), "--sizes", "1", "2", "1",
                             "--out", str(tmp_path / "curve.json")])
        assert code == 2
        assert "exceeds population 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_is_data_error(self, tmp_path, capsys, bad):
        scores = tmp_path / "scores.txt"
        scores.write_text(f"0.5\n{bad}\n0.25\n", encoding="utf-8")
        code = dispatch(["size-curve", "--scores", str(scores), "--sizes", "1", "2", "1",
                         "--out", str(tmp_path / "curve.json")])
        assert code == 2
        assert "score 2 is not finite" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["scores.txt"]

    def test_calibrate_label_names_must_match(self, tmp_path, probs_csv, truth_csv, capsys):
        renamed = tmp_path / "renamed.csv"
        body = Path(truth_csv).read_text("utf-8").split("\n", 1)[1]
        renamed.write_text("a,b,d\n" + body, "utf-8")
        code = dispatch(["calibrate", "--oof", probs_csv, "--truth", str(renamed),
                         "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "probability and annotation label names differ" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        code = dispatch(
            ["truncate", "--probs", str(tmp_path / "nope.csv"),
             "--p-low", "0", "--p-high", "1", "--out", str(tmp_path / "q.csv")]
        )
        assert code == 2

    def test_missing_output_directory_is_data_error(self, tmp_path, probs_csv, capsys):
        out = tmp_path / "no-such-dir" / "q.csv"
        code = dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.1",
                         "--p-high", "0.9", "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err

    def test_failed_second_output_leaves_neither_file(self, tmp_path, probs_csv, capsys):
        code = dispatch(["relnet", "--probs", probs_csv, "--out", str(tmp_path / "g.dot"),
                         "--json-out", str(tmp_path / "missing" / "w.json")])
        assert code == 2
        assert "w.json" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["probs.csv"]  # no g.dot, temp or manifest

    def test_failed_score_file_leaves_no_folds_file(self, tmp_path, truth_csv, capsys):
        (tmp_path / "folds.csv.score.json").mkdir()  # the score file cannot replace it
        code = dispatch(["folds", "--labels", truth_csv, "--k", "3", "--candidates", "4",
                         "--out", str(tmp_path / "folds.csv")])
        assert code == 2
        assert "labelcal: error:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["folds.csv.score.json", "truth.csv"]

    @pytest.mark.parametrize("kind", ["multilabel", "multiclass"])
    @pytest.mark.parametrize("k", ["0", "1", "-1"])
    def test_folds_k_below_two_is_data_error(self, tmp_path, capsys, kind, k):
        labels = tmp_path / "labels.csv"
        labels.write_text("a,b\n1,0\n0,1\n1,0\n0,1\n", encoding="utf-8")
        code = dispatch(["folds", "--labels", str(labels), "--kind", kind, "--k", k,
                         "--candidates", "4", "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert f"labelcal: error: k must be >= 2, got {k}\n" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["labels.csv"]

    def test_output_path_that_is_a_directory_is_data_error(self, tmp_path, probs_csv, capsys):
        out = tmp_path / "q.csv"
        out.mkdir()
        code = dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.1",
                         "--p-high", "0.9", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("labelcal: error:") and "Is a directory" in err
        assert f"'{out}'" in err and ".tmp" not in err  # names the target, not the temp file
        assert sorted(os.listdir(tmp_path)) == ["probs.csv", "q.csv"]
        assert not os.listdir(out)

    def test_cr_only_matrix_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "cr.csv"
        bad.write_bytes(b"a,b\r0.1,0.2\r")
        code = dispatch(["truncate", "--probs", str(bad), "--p-low", "0.1",
                         "--p-high", "0.9", "--out", str(tmp_path / "q.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("labelcal: error:") and str(bad) in err
        assert sorted(os.listdir(tmp_path)) == ["cr.csv"]

    def test_out_of_range_value_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.1,1.5\n", encoding="utf-8")
        code = dispatch(
            ["metrics", "--probs", str(bad), "--truth", str(bad),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 1" in err and "'b'" in err
        assert "value 1.5 outside [0, 1]" in err  # the number, not its numpy repr

    def test_underscore_digit_cell_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.1,0.2\n0.3,1_0\n", encoding="utf-8")
        code = dispatch(["truncate", "--probs", str(bad), "--p-low", "0.1",
                         "--p-high", "0.9", "--out", str(tmp_path / "q.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: malformed number '1_0' at row 2, column 'b'" in err
        assert sorted(os.listdir(tmp_path)) == ["bad.csv"]

    def test_fullwidth_digit_ocr_field_is_data_error(self, tmp_path, capsys):
        page = tmp_path / "page.tsv"
        page.write_text(HEADER + "\n5\t1\t1\t1\t1\t1\t100\t100\t\uff15\uff10\t12\t95\tszó\n",
                        encoding="utf-8")
        code = dispatch(["segment", "--tsv", str(page), "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{page}: line 2: non-numeric width field '５０'" in err
        assert sorted(os.listdir(tmp_path)) == ["page.tsv"]

    def test_bad_second_page_of_a_directory_is_named(self, tmp_path, capsys):
        pages = tmp_path / "pages"
        pages.mkdir()
        good = "5\t1\t1\t1\t1\t1\t100\t100\t50\t12\t95\tszó\n"
        (pages / "p1.tsv").write_text(HEADER + "\n" + good, encoding="utf-8")
        (pages / "p2.tsv").write_text(HEADER + "\n" + good + good.replace("\t50\t", "\t5x\t"),
                                      encoding="utf-8")
        code = dispatch(["segment", "--tsv", str(pages), "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{pages / 'p2.tsv'}: line 3: non-numeric width field '5x'" in err
        assert "p1.tsv" not in err
        assert sorted(os.listdir(tmp_path)) == ["pages"]

    @pytest.mark.parametrize("argv", [
        ["filter", "--texts", "{texts}", "--needle", "al"],
        ["match", "--quotes", "{texts}", "--paragraphs", "{texts}"],
    ], ids=["filter", "match"])
    def test_non_string_text_is_data_error(self, tmp_path, capsys, argv):
        texts = tmp_path / "texts.jsonl"
        texts.write_text('{"id": "a", "text": "alma"}\n{"id": "b", "text": 5}\n', "utf-8")
        code = dispatch([a.format(texts=texts) for a in argv] + ["--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{texts}: line 2: 'text' is not a string" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["texts.jsonl"]

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "nan"],
         "grid step must be > 0, got nan"),
        (["segment", "--tsv", "{tsv}", "--eps", "nan"], "eps must be > 0, got nan"),
        (["relnet", "--probs", "{probs}", "--min-weight", "nan"],
         "min_weight must be a number, got nan"),
    ], ids=["calibrate-step", "segment-eps", "relnet-min-weight"])
    def test_nan_option_is_data_error(self, tmp_path, probs_csv, truth_csv, capsys,
                                      argv, message):
        page = tmp_path / "page.tsv"
        page.write_text(HEADER + "".join(
            f"\n5\t1\t1\t{par}\t1\t1\t100\t{20 * par}\t50\t12\t95\tszó" for par in (1, 2, 3)),
            encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        argv = [a.format(probs=probs_csv, truth=truth_csv, tsv=page) for a in argv]
        assert dispatch(argv + ["--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before


# one stage per kind of input file, with the name of the file it reads
READERS = {
    "matrix": (["truncate", "--probs", "{file}", "--p-low", "0.2", "--p-high", "0.6"],
               "probs.csv"),
    "json lines": (["filter", "--texts", "{file}", "--needle", "a"], "texts.jsonl"),
    "ocr tsv": (["segment", "--tsv", "{file}"], "pages.tsv"),
    "years": (["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{file}"],
              "years.txt"),
    "scores": (["size-curve", "--scores", "{file}"], "scores.txt"),
}


class TestInputErrors:
    @pytest.mark.parametrize("argv, name", READERS.values(), ids=READERS.keys())
    def test_invalid_utf8_is_data_error_naming_path_line_and_offset(
            self, tmp_path, probs_csv, truth_csv, capsys, argv, name):
        path = tmp_path / "in" / name
        path.parent.mkdir()
        path.write_bytes(b"first\r\nx\xffy\n")
        before = sorted(os.listdir(tmp_path))
        argv = [a.format(file=path, probs=probs_csv, truth=truth_csv) for a in argv]
        assert dispatch(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"labelcal: error: {path}: invalid UTF-8 on line 2 at byte offset 8: "
            "invalid start byte\n")
        assert sorted(os.listdir(tmp_path)) == before

    def test_out_of_memory_is_data_error(self, tmp_path):
        # 20k items x 50 rare labels in 5000 folds of 4: one slab's counts and
        # deviations are 32 x 5000 x 50 values (64 MB an array), and the run
        # needs 308 MiB of address space, twice the 150 MiB cap
        rates = 0.2 * 0.93 ** np.arange(50)
        values = (np.random.default_rng(0).random((20_000, 50)) < rates).astype(np.int8)
        labels = tmp_path / "labels.csv"
        labels.write_text(format_matrix([f"l{j}" for j in range(50)], values), "utf-8")
        code = "import sys; from labelcal.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
        run = child.run("-c", code, "folds", "--labels", str(labels), "--k", "5000",
                        "--candidates", "64", "--out", str(tmp_path / "folds.csv"),
                        cap=150 << 20, env={"OPENBLAS_NUM_THREADS": "1"})
        assert (run.returncode, run.stdout, run.stderr) == (
            2, "", "labelcal: error: folds: out of memory\n")
        assert os.listdir(tmp_path) == ["labels.csv"]


class TestFoldsCommand:
    def test_byte_identical_across_runs(self, tmp_path, truth_csv):
        out = str(tmp_path / "folds.csv")
        argv = ["folds", "--labels", truth_csv, "--k", "3", "--candidates", "200",
                "--seed", "7", "--out", out]
        first, second = run_twice(argv, [out, out + ".score.json"])
        assert first == second

    def test_output_shape(self, tmp_path, truth_csv):
        out = str(tmp_path / "folds.csv")
        dispatch(["folds", "--labels", truth_csv, "--k", "5", "--candidates", "50",
                  "--seed", "1", "--out", out])
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "id,fold"
        assert len(lines) == 31
        sidecar = json.loads(Path(out + ".score.json").read_text())
        assert sidecar["k"] == 5
        assert len(sidecar["score"]) == 3 * 5

    def test_multiclass_kind(self, tmp_path):
        rows = ["a,b"] + ["1,0" if i % 3 else "0,1" for i in range(12)]
        path = tmp_path / "classes.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = str(tmp_path / "folds.csv")
        code = dispatch(["folds", "--labels", str(path), "--kind", "multiclass",
                         "--k", "2", "--seed", "3", "--out", out])
        assert code == 0


class TestMetricsCommand:
    def test_report_contents(self, tmp_path, probs_csv, truth_csv):
        out = str(tmp_path / "report.json")
        assert dispatch(["metrics", "--probs", probs_csv, "--truth", truth_csv,
                         "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert set(report["macro_roc_auc"]["per_label"]) <= {"a", "b", "c"}
        assert "label_count_error_rate" in report
        assert report["expected_calibration_error"]["bins"] == 10

    def test_tendency_error_with_years(self, tmp_path, probs_csv, truth_csv):
        years = tmp_path / "years.txt"
        years.write_text("\n".join(str(1980 + i % 3) for i in range(30)), "utf-8")
        out = str(tmp_path / "report.json")
        assert dispatch(["metrics", "--probs", probs_csv, "--truth", truth_csv,
                         "--years", str(years), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert 0.0 <= report["tendency_error"]["value"] <= 200.0
        assert set(report["tendency_error"]["per_label"]) == {"a", "b", "c"}

    @pytest.mark.parametrize("bins", [10**9, 10**20])
    def test_bin_counts_no_loop_could_walk(self, tmp_path, probs_csv, truth_csv, bins):
        # a loop over every bin ran past a 10 s timeout at 10**9, and 10**20
        # overflowed the int64 bin index; a child bounds a regression's time
        out = tmp_path / "report.json"
        run = child.run("-m", "labelcal", "metrics", "--probs", probs_csv, "--truth", truth_csv,
                        "--bins", str(bins), "--out", str(out), timeout=60)
        assert (run.returncode, run.stderr) == (0, "")
        ece = json.loads(Path(out).read_text())["expected_calibration_error"]
        probs, truth = load_prob_matrix(probs_csv), load_label_matrix(truth_csv)
        assert ece["bins"] == bins
        assert ece["per_label"] == {
            name: metrics.expected_calibration_error(
                probs.values[:, j], truth.values[:, j], bins=bins)
            for j, name in enumerate(probs.labels)}
        # 30 distinct values of each label's column fall in 30 bins of their own
        assert ece["per_label"] == pytest.approx({
            name: float(np.abs(probs.values[:, j] - truth.values[:, j]).mean())
            for j, name in enumerate(probs.labels)}, rel=1e-12)


class TestCalibrateCommand:
    def test_report_and_determinism(self, tmp_path, probs_csv, truth_csv):
        out = str(tmp_path / "cal.json")
        years = tmp_path / "years.txt"
        years.write_text("\n".join(str(1980 + i % 3) for i in range(30)), "utf-8")
        argv = ["calibrate", "--oof", probs_csv, "--truth", truth_csv,
                "--step", "0.05", "--years", str(years), "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        report = json.loads(Path(out).read_text())
        assert report["error"] <= report["baselines"]["no_truncation"]
        assert report["error"] <= report["baselines"]["half_threshold"]
        assert report["tendency_table"] is not None


class TestSampleCommand:
    def test_sample_output(self, tmp_path, probs_csv):
        out = str(tmp_path / "sample.json")
        argv = ["sample", "--probs", probs_csv, "--n", "10", "--seed", "5",
                "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        payload = json.loads(Path(out).read_text())
        assert len(payload["indices"]) == 10
        assert len(payload["weights"]) == 30


class TestSizeCurveCommand:
    def test_curve_output(self, tmp_path):
        scores = tmp_path / "scores.txt"
        rng = np.random.default_rng(92)
        scores.write_text("\n".join("%.17g" % v for v in rng.normal(size=300)), "utf-8")
        out = str(tmp_path / "curve.json")
        argv = ["size-curve", "--scores", str(scores), "--sizes", "50", "100", "50",
                "--reps", "5", "--resamples", "100", "--seed", "3", "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        payload = json.loads(Path(out).read_text())
        assert payload["sizes"] == [50, 100]

    def test_resamples_option_is_ignored(self, tmp_path):
        scores = tmp_path / "scores.txt"
        rng = np.random.default_rng(93)
        scores.write_text("\n".join("%.17g" % v for v in rng.normal(size=300)), "utf-8")
        curves = []
        for resamples in ("5", "2000"):
            out = tmp_path / f"curve{resamples}.json"
            assert dispatch(["size-curve", "--scores", str(scores), "--sizes", "50", "100", "50",
                             "--reps", "5", "--resamples", resamples, "--seed", "3",
                             "--out", str(out)]) == 0
            curves.append(out.read_bytes())
        assert curves[0] == curves[1]
        assert set(json.loads(curves[0])) == {"sizes", "mean_std", "reps"}


class TestRelnetCommand:
    def test_dot_and_json_outputs(self, tmp_path, probs_csv):
        out = str(tmp_path / "graph.dot")
        jout = str(tmp_path / "weights.json")
        argv = ["relnet", "--probs", probs_csv, "--min-weight", "0.2",
                "--out", out, "--json-out", jout]
        first, second = run_twice(argv, [out, jout])
        assert first == second
        text = Path(out).read_text()
        assert text.startswith("digraph")
        assert json.loads(Path(jout).read_text())["labels"] == ["a", "b", "c"]

    def test_truncate_then_relnet_is_the_in_process_truncation(self, tmp_path, probs_csv):
        """What ``relnet --calibrate truncate`` did in one process: the matrix
        file holds every bit, so two commands write the same graph."""
        from labelcal import calibration, relnet
        from labelcal.core import load_prob_matrix

        probs = calibration.truncate(load_prob_matrix(probs_csv), calibration.Thresholds(0.2, 0.54))
        net = relnet.network_from_probabilities(probs)
        expected = relnet.export_dot(net, relnet.kamada_kawai_layout(net), min_weight=0.1)
        truncated, out = str(tmp_path / "t.csv"), str(tmp_path / "g.dot")
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2", "--p-high", "0.54",
                         "--out", truncated]) == 0
        assert dispatch(["relnet", "--probs", truncated, "--min-weight", "0.1", "--out", out]) == 0
        assert Path(out).read_text(encoding="utf-8") == expected
        assert "p_low" not in json.loads(Path(out + ".manifest.json").read_text())["parameters"]

    def test_needs_some_input(self, tmp_path):
        assert dispatch(["relnet", "--out", str(tmp_path / "g.dot")]) == 1

    def test_truth_input(self, tmp_path, truth_csv):
        out = str(tmp_path / "g.dot")
        assert dispatch(["relnet", "--truth", truth_csv, "--out", out]) == 0

    def test_both_inputs_is_usage_error(self, tmp_path, probs_csv, truth_csv, capsys):
        code = dispatch(["relnet", "--probs", probs_csv, "--truth", truth_csv,
                         "--out", str(tmp_path / "g.dot")])
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["probs.csv", "truth.csv"]

    @pytest.mark.parametrize("out, json_out", [
        ("g", "g"), ("g", "./g"), ("h.dot", "h.dot.manifest.json")])
    def test_outputs_naming_the_same_file_are_usage_error(
            self, tmp_path, monkeypatch, probs_csv, capsys, out, json_out):
        monkeypatch.chdir(tmp_path)
        code = dispatch(["relnet", "--probs", probs_csv, "--out", out, "--json-out", json_out])
        assert code == 1
        assert "name the same file" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["probs.csv"]


class TestSegmentAndMatchCommands:
    def make_tsv(self, tmp_path):
        rows = [HEADER]
        for page in (1, 2):
            for par in (1, 2, 3):
                for line in (1, 2):
                    for word in (1, 2, 3):
                        rows.append(
                            f"5\t{page}\t1\t{par}\t{line}\t{word}\t{100 + 60 * (word - 1)}"
                            f"\t{100 + 20 * line}\t50\t12\t95\tszo{par}{line}{word}"
                        )
        path = tmp_path / "pages.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    def test_segment_then_match_pipeline(self, tmp_path):
        tsv_path = self.make_tsv(tmp_path)
        out = str(tmp_path / "paragraphs.jsonl")
        argv = ["segment", "--tsv", tsv_path, "--min-pts", "2", "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        records = [json.loads(l) for l in Path(out).read_text().splitlines()]
        assert records and all("text" in r and "id" in r for r in records)

        quotes = tmp_path / "quotes.jsonl"
        quotes.write_text(
            json.dumps({"id": "q1", "text": records[0]["text"]}) + "\n", "utf-8"
        )
        matches_out = str(tmp_path / "matches.json")
        assert dispatch(["match", "--quotes", str(quotes), "--paragraphs", out,
                         "--out", matches_out]) == 0
        matches = json.loads(Path(matches_out).read_text())
        assert matches[0]["paragraph_id"] == records[0]["id"]
        assert matches[0]["distance"] == 0.0

    def test_token_less_quote_is_named_by_its_index(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.jsonl"
        quotes.write_text("".join(json.dumps({"id": f"q{i}", "text": text}) + "\n"
                                  for i, text in enumerate(["alma", "körte", "— ..."])), "utf-8")
        out = tmp_path / "matches.json"
        assert dispatch(["match", "--quotes", str(quotes), "--paragraphs", str(quotes),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "labelcal: error: quote at index 2 contains no alphanumeric tokens\n")
        assert not out.exists()


class TestFilterCommand:
    def test_subword_filtering(self, tmp_path):
        texts = tmp_path / "texts.jsonl"
        texts.write_text(
            json.dumps({"id": 1, "text": "a fordítás művészete"}) + "\n"
            + json.dumps({"id": 2, "text": "alma"}) + "\n",
            "utf-8",
        )
        out = str(tmp_path / "kept.jsonl")
        assert dispatch(["filter", "--texts", str(texts), "--needle", "fordí",
                         "--out", out]) == 0
        kept = [json.loads(l) for l in Path(out).read_text().splitlines()]
        assert [r["id"] for r in kept] == [1]


class TestPbtDemoCommand:
    def test_history_written_deterministically(self, tmp_path):
        out = str(tmp_path / "history.json")
        argv = ["pbt-demo", "--mode", "multilabel", "--population", "4",
                "--generations", "3", "--items", "120", "--labels", "3",
                "--features", "5", "--seed", "1", "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        payload = json.loads(Path(out).read_text())
        assert payload["generations"] == 3
        assert len(payload["history"]) == 3


STARTUP_PROBE = """
import json, pkgutil, sys
import labelcal.cli
try:
    labelcal.cli.dispatch(["--version"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "not_loaded": sorted(
        f"labelcal.{m.name}" for m in pkgutil.iter_modules(labelcal.__path__)
        if m.name != "__main__" and f"labelcal.{m.name}" not in sys.modules
    ),
}))
"""


PBT_PROBE = """
import json, sys
import labelcal.cli
for mode in ("multilabel", "multiclass"):
    code = labelcal.cli.dispatch([
        "pbt-demo", "--mode", mode, "--population", "4", "--generations", "2",
        "--patience", "1", "--items", "80", "--labels", "3", "--features", "4",
        "--out", f"{sys.argv[1]}/pbt_{mode}.json",
    ])
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


THREAD_PROBE = """
import json, os
import labelcal.cli
import numpy as np
np.linalg.eigh(np.eye(50) + np.ones((50, 50)))
tasks = "/proc/self/task"
print(json.dumps({
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""


LIBRARY_ENV_PROBE = """
import json, os, sys
before = dict(os.environ)
import labelcal
labelcal.relnet.kamada_kawai_layout
print(json.dumps({"numpy": "numpy" in sys.modules, "environ_unchanged": dict(os.environ) == before}))
"""


MA_PROBE = """
import json, sys
import labelcal.cli
code = labelcal.cli.dispatch(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


# every variable OpenBLAS reads its thread count from; a probe drops them
# all, so a value the test process holds cannot mask the CLI's default
NO_BLAS_THREADS = dict.fromkeys(["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])


def _probe(*argv, env=None):
    run = child.run("-c", *argv, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


class TestStartup:
    def test_cli_loads_every_submodule_and_no_scipy(self):
        # importing scipy.special adds ~0.3 s to a CLI run (0.29 s, median
        # of 15, 2-vCPU VM); the bench tracer wraps only labelcal modules
        # in sys.modules, so all must be registered at import (they load
        # on first access); ``__main__`` is the ``python -m`` entry only
        version, report = _probe(STARTUP_PROBE)
        assert version == f"labelcal {labelcal.__version__}"
        assert json.loads(report) == {"scipy": [], "not_loaded": []}

    def test_pbt_demo_runs_without_scipy(self, tmp_path):
        # focal loss and the multilabel PBT score are numpy-only
        (report,) = _probe(PBT_PROBE, str(tmp_path))
        assert json.loads(report) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_runs_blas_on_one_thread(self):
        # an OpenBLAS worker pool costs about half of ``import numpy``
        # (161 -> 92 ms, median of 15, 2-vCPU VM), more than any stage's
        # BLAS work
        (report,) = _probe(THREAD_PROBE, env=NO_BLAS_THREADS)
        assert json.loads(report) == {"value": "1", "threads": 1}

    def test_preset_blas_threads_win(self):
        (report,) = _probe(THREAD_PROBE, env=dict(NO_BLAS_THREADS, OPENBLAS_NUM_THREADS="2"))
        assert json.loads(report)["value"] == "2"

    def test_library_import_leaves_the_environment_alone(self):
        (report,) = _probe(LIBRARY_ENV_PROBE, env=NO_BLAS_THREADS)
        assert json.loads(report) == {"numpy": True, "environ_unchanged": True}

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0), (["--help"], 0), (["truncate", "--probs", "p.csv"], 1),
    ], ids=["version", "help", "usage-error"])
    def test_runs_that_read_no_matrix_make_no_cache(self, tmp_path, argv, code):
        # the start-up the bench times as setup_s: no cache folder, no numpy
        env = {"XDG_CACHE_HOME": str(tmp_path / "xdg"), "HOME": str(tmp_path / "home")}
        report = json.loads(_probe(COMMAND_PROBE, json.dumps(argv), env=env)[-1])
        assert (report["code"], report["numpy"]) == (code, False)
        assert os.listdir(tmp_path) == []

    def test_help_tells_users_what_a_run_writes_without_markup(self):
        # the module docstring's notes on the code stay out of --help
        *lines, report = _probe(COMMAND_PROBE, json.dumps(["--help"]))
        assert json.loads(report) == {"code": 0, "executed": ["cli", "core"], "numpy": False}
        text = " ".join(" ".join(lines).split())  # as wrapped at any terminal width
        assert "``" not in text
        for said in ("<out>.manifest.json", "--seed (default 0)",
                     "Exit codes: 0 success, 1 usage error, 2 data error"):
            assert said in text

    @pytest.mark.parametrize("argv", [
        ["segment", "--tsv", "{in}/pages.tsv", "--min-pts", "2"],
        ["folds", "--labels", "{truth}", "--k", "3", "--candidates", "8"],
        ["folds", "--labels", "{in}/classes.csv", "--kind", "multiclass", "--k", "3"],
        ["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{in}/years.txt"],
        ["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "0.1"],
        ["truncate", "--probs", "{probs}", "--p-low", "0.2", "--p-high", "0.6"],
        ["sample", "--probs", "{probs}", "--n", "5"],
        ["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10", "--reps", "2"],
        ["relnet", "--probs", "{probs}", "--calibrate", "half"],
        ["pbt-demo", "--mode", "multiclass", "--population", "4", "--generations", "2",
         "--patience", "1", "--items", "80", "--labels", "3", "--features", "4"],
        ["pbt-demo", "--mode", "multilabel", "--population", "4", "--generations", "2",
         "--patience", "1", "--items", "80", "--labels", "3", "--features", "4"],
    ], ids=["segment", "folds", "folds-multiclass", "metrics", "calibrate", "truncate", "sample",
            "size-curve", "relnet", "pbt-demo-multiclass", "pbt-demo-multilabel"])
    def test_stage_never_imports_numpy_ma(self, parameter_inputs, argv):
        # a bare np.unique, np.median, np.percentile or np.quantile imports
        # numpy.ma, 9-17 ms of a short run
        argv = [a.format(**parameter_inputs) for a in [*argv, "--out", "{out}/o"]]
        (report,) = _probe(MA_PROBE, json.dumps(argv))
        assert json.loads(report) == {"code": 0, "numpy.ma": False}


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["labelcal", "labelcal.cli"])
    def test_version(self, module):
        run = child.run("-m", module, "--version")
        assert (run.returncode, run.stdout) == (0, f"labelcal {labelcal.__version__}\n")

    def test_truncate_writes_output_and_manifest(self, tmp_path, probs_csv):
        out = tmp_path / "q.csv"
        run = child.run("-m", "labelcal", "truncate", "--probs", probs_csv, "--p-low", "0.2",
                        "--p-high", "0.54", "--out", str(out))
        assert run.returncode == 0, run.stderr
        assert sorted(os.listdir(tmp_path)) == ["probs.csv", "q.csv", "q.csv.manifest.json"]
        expected = str(tmp_path / "expected.csv")
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2",
                         "--p-high", "0.54", "--out", expected]) == 0
        assert out.read_bytes() == Path(expected).read_bytes()

    def test_unknown_flag_is_usage_error(self, tmp_path, probs_csv):
        run = child.run("-m", "labelcal", "truncate", "--probs", probs_csv, "--p-low", "0.2",
                        "--p-high", "0.54", "--out", str(tmp_path / "q.csv"), "--frobnicate")
        assert run.returncode == 1
        assert "unrecognized arguments: --frobnicate" in run.stderr
        assert not (tmp_path / "q.csv").exists()


# ``main`` in a child, with a hook that reports the frozen objects at exit
FREEZE_PROBE = """if True:
    import atexit, gc, sys
    atexit.register(lambda: print(f"freeze count {gc.get_freeze_count()}", file=sys.stderr))
    import labelcal.cli
    sys.argv = ["labelcal", *sys.argv[1:]]
    labelcal.cli.main()
"""

TRUNCATE = ["truncate", "--probs", "../probs.csv", "--p-low", "0.2", "--p-high", "0.54",
            "--out", "q.csv"]


class TestEntryPointFreezes:
    @pytest.mark.parametrize("argv,code,written", [
        (TRUNCATE, 0, ["q.csv", "q.csv.manifest.json"]),
        ([*TRUNCATE, "--frobnicate"], 1, []),
        ([*TRUNCATE[:2], "../bad.csv", *TRUNCATE[3:]], 2, []),
        (["--version"], 0, []),
    ], ids=["ok", "usage-error", "data-error", "version"])
    def test_main_freezes_and_matches_in_process_dispatch(
            self, tmp_path, probs_csv, monkeypatch, capsys, argv, code, written):
        # the same relative argv from two sibling directories, so the
        # outputs and their manifests can be compared whole
        (tmp_path / "bad.csv").write_text("a,b\n0.5,x\n", encoding="utf-8")
        main_dir, dispatch_dir = tmp_path / "main", tmp_path / "dispatch"
        main_dir.mkdir()
        dispatch_dir.mkdir()
        run = child.run("-c", FREEZE_PROBE, *argv, cwd=main_dir)
        stderr, _, frozen = run.stderr.rpartition("freeze count ")
        assert int(frozen) > 0

        monkeypatch.chdir(dispatch_dir)
        before = gc.get_freeze_count()
        try:
            returned = dispatch(argv)
        except SystemExit as exc:  # --version
            returned = exc.code
        # in-process callers keep their collector as it is
        assert gc.get_freeze_count() == before
        assert (run.returncode, run.stdout, stderr) == (returned, *capsys.readouterr())
        assert returned == code

        assert sorted(os.listdir(main_dir)) == sorted(os.listdir(dispatch_dir)) == written
        for name in written:
            got, want = (main_dir / name).read_bytes(), (dispatch_dir / name).read_bytes()
            if name.endswith(".manifest.json"):
                got, want = json.loads(got), json.loads(want)
                assert got.keys() == want.keys()
                del got["duration_seconds"], want["duration_seconds"]
            assert got == want


@pytest.fixture
def bench_sized_probs(tmp_path):
    # 50 labels as in the bench's relnet stage, and enough items that the
    # co-occurrence product runs ~1.5x faster on two OpenBLAS threads
    # than on one, so the two runs below take different BLAS paths
    rng = np.random.default_rng(94)
    path = tmp_path / "probs50.csv"
    names = ",".join(f"l{j}" for j in range(50))
    rows = ["%.17g" % v for v in rng.beta(0.3, 2.0, size=(3000, 50)).ravel()]
    body = "\n".join(",".join(rows[i:i + 50]) for i in range(0, len(rows), 50))
    path.write_text(f"{names}\n{body}\n", encoding="utf-8")
    return str(path)


# the stages that call BLAS, with the files they write
BLAS_STAGES = {
    "relnet": (["relnet", "--probs", "{probs}", "--min-weight", "0.1",
                "--out", "{out}/graph.dot", "--json-out", "{out}/weights.json"],
               ["graph.dot", "weights.json"]),
    "pbt-demo": (["pbt-demo", "--mode", "multilabel", "--population", "8",
                  "--generations", "3", "--items", "400", "--labels", "5",
                  "--out", "{out}/history.json"], ["history.json"]),
}


class TestBlasThreadEquivalence:
    @pytest.mark.parametrize("stage", sorted(BLAS_STAGES))
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, bench_sized_probs, stage):
        argv, files = BLAS_STAGES[stage]
        outputs = []
        for threads in (None, "2"):  # the CLI default (one), then a preset pool
            out = tmp_path / f"threads-{threads or 'default'}"
            out.mkdir()
            run = child.run("-m", "labelcal", *[a.format(probs=bench_sized_probs, out=out)
                                                for a in argv],
                            env=dict(NO_BLAS_THREADS, OPENBLAS_NUM_THREADS=threads))
            assert run.returncode == 0, run.stderr
            outputs.append([(out / name).read_bytes() for name in files])
        assert outputs[0] == outputs[1]


# the names ``from labelcal import *`` gave before submodules loaded lazily,
# less ``OcrToken``, the wrappers and aliases removed since (``Member``,
# ``bow_match``, ``save_label_matrix``, ``toy_trainable``) and
# ``bootstrap_std``, which lost its last caller to the closed form, and
# ``save_prob_matrix``, whose one file write no command made
# (``format_matrix`` renders every matrix output), and ``TendencySeries``,
# whose values are now one array, and ``concat_labels`` and
# ``ensemble_average``, which nothing in the package called, and
# ``EnsembleSet``, whose one check ``out_of_fold`` now makes on the members
# it is given, plus ``LinearTrainable``, exported in place of ``toy_trainable``
OLD_ALL = [
    "FoldAssignment", "LabelMatrix", "LabelcalError", "Layout",
    "LinearTrainable", "LossValue", "MacroScore", "OcrTokens", "ParagraphRecord", "PbtConfig",
    "PbtResult", "ProbMatrix", "RelationNetwork", "SizingCurve",
    "Thresholds", "ToyDataSpec", "balanced_accuracy",
    "bow_match_many", "calibration", "classify_paragraphs",
    "confidence_penalty", "core", "dbscan", "expected_calibration_error",
    "export_dot", "focal_loss", "folds", "grid_search_thresholds", "importance_weights",
    "kamada_kawai_layout", "label_count_error_rate", "ldam_loss", "ldam_margins",
    "load_label_matrix", "load_prob_matrix", "losses", "macro_roc_auc", "merge_cross_page",
    "metrics", "network_from_annotations", "network_from_probabilities", "out_of_fold",
    "parse_ocr_tsv", "partition_score", "pbt", "pbt_run", "perturb", "relnet", "roc_auc",
    "roulette_select", "sampling", "segmentation",
    "sizing_curve", "stratified_kfold", "stratified_single_label", "substring_filter",
    "tendency_error", "tendency_values", "threshold_at_half", "truncate",
    "warmup_steps", "weighted_sample",
]
SUBMODULES = ["_util", "calibration", "core", "folds", "losses", "metrics", "pbt", "relnet",
              "sampling", "segmentation"]

EXECUTED = """
[n.split(".", 1)[1] for n, m in sorted(sys.modules.items())
 if n.startswith("labelcal.") and type(m) is types.ModuleType]
"""

IMPORT_PROBE = f"""
import json, sys, types
import labelcal
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "registered": sorted(n.split(".", 1)[1] for n in sys.modules if n.startswith("labelcal.")),
    "executed": {EXECUTED},
}}))
"""

COMMAND_PROBE = f"""
import json, sys, types
import labelcal.cli
try:
    code = labelcal.cli.dispatch(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
print(json.dumps({{"code": code, "executed": {EXECUTED}, "numpy": "numpy" in sys.modules}}))
"""

TRACER_VIEW_PROBE = """
import json, sys, types
import labelcal.cli
print(json.dumps({
    name: sorted(attr for attr, value in vars(module).items()
                 if isinstance(value, types.FunctionType) and not attr.startswith("_")
                 and value.__module__ == name)
    for name, module in sorted(sys.modules.items()) if name.startswith("labelcal.")
}))
"""


def _plain_public_defs(path):
    """Top-level public functions defined without a decorator."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and not node.decorator_list}


@pytest.fixture
def stage_inputs(tmp_path, probs_csv, truth_csv):
    rng = np.random.default_rng(93)
    (tmp_path / "scores.txt").write_text(
        "\n".join("%.17g" % v for v in rng.normal(size=100)), "utf-8")
    (tmp_path / "years.txt").write_text("\n".join(["2000"] * 15 + ["2001"] * 15), "utf-8")
    (tmp_path / "pages.tsv").write_text("\n".join([HEADER] + [
        f"5\t1\t1\t{par}\t1\t{word}\t{60 * word}\t{40 * par}\t50\t12\t95\tszo{par}{word}"
        for par in (1, 2, 3) for word in (1, 2, 3)
    ]) + "\n", "utf-8")
    texts = "".join(json.dumps({"id": i, "text": f"szo{i}1 szo{i}2"}) + "\n" for i in (1, 2))
    (tmp_path / "texts.jsonl").write_text(texts, "utf-8")
    return {"in": tmp_path, "probs": probs_csv, "truth": truth_csv}


# subcommand arguments -> the labelcal modules its run executes
STAGE_MODULES = [
    (["--version"], ["cli", "core"]),
    (["--help"], ["cli", "core"]),
    (["truncate", "--probs", "{probs}", "--p-low", "low"], ["cli", "core"]),  # usage error
    (["filter", "--texts", "{in}/texts.jsonl", "--needle", "szo1"], ["cli", "core"]),
    (["match", "--quotes", "{in}/texts.jsonl", "--paragraphs", "{in}/texts.jsonl"],
     ["cli", "core"]),
    (["segment", "--tsv", "{in}/pages.tsv", "--min-pts", "2"], ["cli", "core", "segmentation"]),
    (["folds", "--labels", "{truth}", "--k", "3", "--candidates", "8"],
     ["_util", "cli", "core", "folds"]),
    (["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{in}/years.txt"],
     ["_util", "cli", "core", "metrics"]),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "0.1"],
     ["_util", "calibration", "cli", "core", "metrics"]),
    (["truncate", "--probs", "{probs}", "--p-low", "0.2", "--p-high", "0.6"],
     ["_util", "calibration", "cli", "core", "metrics"]),
    (["sample", "--probs", "{probs}", "--n", "5"], ["_util", "cli", "core", "sampling"]),
    (["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10", "--reps", "2",
      "--resamples", "10"], ["_util", "cli", "core", "sampling"]),
    (["relnet", "--probs", "{probs}"], ["cli", "core", "relnet"]),
    (["relnet", "--probs", "{probs}", "--calibrate", "half"],
     ["_util", "calibration", "cli", "core", "metrics", "relnet"]),
    (["pbt-demo", "--population", "2", "--generations", "1", "--items", "40", "--labels", "2",
      "--features", "2"], ["_util", "cli", "core", "losses", "metrics", "pbt"]),
]


class TestLazyLoading:
    def test_import_executes_no_submodule_and_loads_no_numpy(self):
        (report,) = _probe(IMPORT_PROBE)
        assert json.loads(report) == {"numpy": False, "registered": SUBMODULES, "executed": []}

    @pytest.mark.parametrize("argv, modules", STAGE_MODULES, ids=[
        argv[0] + ("-" + argv[-1] if argv[-1] in ("half", "low") else "")
        for argv, _ in STAGE_MODULES])
    def test_stage_executes_only_its_modules(self, tmp_path, stage_inputs, argv, modules):
        # a run that builds no array imports no numpy (~0.15 s of start-up)
        usage_error = argv[-1] == "low"
        text_only = usage_error or argv[0] in ("--version", "--help", "filter", "match")
        argv = [a.format(**stage_inputs) for a in argv]
        if not argv[0].startswith("--"):
            argv += ["--out", str(tmp_path / "out")]
        lines = _probe(COMMAND_PROBE, json.dumps(argv))
        assert json.loads(lines[-1]) == {
            "code": 1 if usage_error else 0, "executed": modules, "numpy": not text_only}

    def test_all_keeps_every_name_and_each_resolves(self):
        assert labelcal.__all__ == OLD_ALL
        for name in OLD_ALL:
            value = getattr(labelcal, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"labelcal.{name}"]
            else:
                assert value is getattr(sys.modules[value.__module__], name)

    def test_no_two_names_resolve_to_one_object(self):
        # one name per job: an alias kept beside its target is a second public name
        owners: dict[int, list[str]] = {}
        for name in labelcal.__all__:
            owners.setdefault(id(getattr(labelcal, name)), []).append(name)
        assert [names for names in owners.values() if len(names) > 1] == []

    def test_dir_lists_every_name_and_unknown_names_raise(self):
        assert set(OLD_ALL) <= set(dir(labelcal))
        with pytest.raises(AttributeError, match="no_such_name"):
            labelcal.no_such_name

    def test_tracer_view_sees_every_public_function(self):
        # the bench tracer wraps what vars() of each module in sys.modules
        # shows after ``import labelcal.cli``; a lazy module must show its
        # functions, not an empty namespace
        (report,) = _probe(TRACER_VIEW_PROBE)
        view = json.loads(report)
        assert sorted(view) == sorted(["labelcal.cli"] + [f"labelcal.{m}" for m in SUBMODULES])
        folder = os.path.dirname(labelcal.__file__)
        for name, functions in view.items():
            path = os.path.join(folder, name.split(".", 1)[1] + ".py")
            assert _plain_public_defs(path) <= set(functions), name


# every subcommand with the outputs its run writes besides the manifest
ALL_OR_NOTHING = [
    (["segment", "--tsv", "{in}/pages.tsv", "--min-pts", "2"], ["o"]),
    (["match", "--quotes", "{in}/texts.jsonl", "--paragraphs", "{in}/texts.jsonl"], ["o"]),
    (["filter", "--texts", "{in}/texts.jsonl", "--needle", "szo1"], ["o"]),
    (["folds", "--labels", "{truth}", "--k", "3", "--candidates", "8"], ["o", "o.score.json"]),
    (["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{in}/years.txt"], ["o"]),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "0.1"], ["o"]),
    (["truncate", "--probs", "{probs}", "--p-low", "0.2", "--p-high", "0.6"], ["o"]),
    (["sample", "--probs", "{probs}", "--n", "5"], ["o"]),
    (["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10", "--reps", "2",
      "--resamples", "10"], ["o"]),
    (["relnet", "--probs", "{probs}", "--json-out", "{out}/w.json"], ["o", "w.json"]),
    (["pbt-demo", "--population", "2", "--generations", "1", "--items", "40", "--labels", "2",
      "--features", "2"], ["o"]),
]
TARGETS = [(argv, target) for argv, outputs in ALL_OR_NOTHING
           for target in outputs + ["o.manifest.json"]]


class TestAllOrNothing:
    def test_every_subcommand_is_covered(self):
        assert sorted(argv[0] for argv, _ in ALL_OR_NOTHING) == sorted(
            build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("argv, target", TARGETS,
                             ids=[f"{argv[0]}-{target}" for argv, target in TARGETS])
    def test_a_target_that_cannot_be_replaced_leaves_no_file(
            self, tmp_path, stage_inputs, capsys, argv, target):
        out = tmp_path / "out"
        out.mkdir()
        (out / target).mkdir()  # no file can replace a directory
        argv = [a.format(out=out, **stage_inputs) for a in argv] + ["--out", str(out / "o")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("labelcal: error:") and f"'{out / target}'" in err
        assert os.listdir(out) == [target] and not os.listdir(out / target)


class TestOutOption:
    @pytest.mark.parametrize("argv", [argv for argv, _ in ALL_OR_NOTHING],
                             ids=[argv[0] for argv, _ in ALL_OR_NOTHING])
    def test_every_subcommand_needs_out_and_lists_it_once(
            self, tmp_path, stage_inputs, capsys, argv):
        # dispatch names the manifest after --out, so no subcommand may run without it
        argv = [a.format(out=tmp_path, **stage_inputs) for a in argv]
        before = sorted(os.listdir(tmp_path))
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "labelcal: error: the following arguments are required: --out\n")
        assert sorted(os.listdir(tmp_path)) == before
        with pytest.raises(SystemExit) as exc:
            dispatch([argv[0], "--help"])
        assert exc.value.code == 0
        _, options = capsys.readouterr().out.split("\noptions:\n")
        listed = [line for line in options.splitlines() if line.split()[:1] == ["--out"]]
        assert listed == ["  --out OUT"]


class TestReportsFromResultTypes:
    """Reports built from ``asdict`` of their result objects have the bytes
    of the field-by-field rendering they replaced."""

    @staticmethod
    def reformatted(path, **sections):
        """The report at ``path`` with ``sections`` replaced, rendered again."""
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        report.update(sections)
        return format_json(report)

    def test_metrics(self, tmp_path, stage_inputs):
        out = str(tmp_path / "metrics.json")
        assert dispatch(["metrics", "--probs", stage_inputs["probs"],
                         "--truth", stage_inputs["truth"],
                         "--years", str(tmp_path / "years.txt"), "--out", out]) == 0
        probs = load_prob_matrix(stage_inputs["probs"])
        truth = load_label_matrix(stage_inputs["truth"])
        auc = metrics.macro_roc_auc(probs, truth)
        counts = metrics.label_count_error_rate(probs, truth)
        assert counts.excluded == () and auc.undefined == ()
        old = self.reformatted(out, macro_roc_auc={
            "value": auc.value, "per_label": auc.per_label, "undefined": list(auc.undefined),
        }, label_count_error_rate={
            "value": counts.value, "per_label": counts.per_label,
            "excluded": list(counts.excluded),
        })
        assert Path(out).read_text(encoding="utf-8") == old

    def test_calibrate(self, tmp_path, stage_inputs):
        out = str(tmp_path / "calibration.json")
        assert dispatch(["calibrate", "--oof", stage_inputs["probs"],
                         "--truth", stage_inputs["truth"], "--step", "0.1",
                         "--years", str(tmp_path / "years.txt"), "--out", out]) == 0
        oof = load_prob_matrix(stage_inputs["probs"])
        truth = load_label_matrix(stage_inputs["truth"])
        thresholds, _ = calibration.grid_search_thresholds(oof, truth, grid_step=0.1)
        pair = {"p_low": thresholds.p_low, "p_high": thresholds.p_high}
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        old = self.reformatted(
            out, thresholds=pair,
            count_error_table={**report["count_error_table"], "thresholds": pair},
            tendency_table={**report["tendency_table"], "thresholds": pair},
        )
        assert Path(out).read_text(encoding="utf-8") == old

    def test_size_curve(self, tmp_path, stage_inputs):
        out = str(tmp_path / "curve.json")
        assert dispatch(["size-curve", "--scores", str(tmp_path / "scores.txt"),
                         "--sizes", "10", "40", "10", "--reps", "3", "--seed", "4",
                         "--out", out]) == 0
        scores = np.array([float(line) for line in
                           (tmp_path / "scores.txt").read_text("utf-8").splitlines()])
        curve = sampling.sizing_curve(scores, sizes=range(10, 41, 10), reps=3, seed=4)
        old = format_json(
            {"sizes": list(curve.sizes), "mean_std": list(curve.mean_std), "reps": curve.reps})
        assert Path(out).read_text(encoding="utf-8") == old

    @pytest.mark.parametrize("mode", ["multilabel", "multiclass"])
    def test_pbt_demo(self, tmp_path, mode):
        out = str(tmp_path / f"pbt_{mode}.json")
        assert dispatch(["pbt-demo", "--mode", mode, "--population", "4", "--generations", "2",
                         "--patience", "1", "--items", "80", "--labels", "3",
                         "--features", "4", "--seed", "2", "--out", out]) == 0
        spec = pbt.ToyDataSpec(n_items=80, n_labels=3, n_features=4, mode=mode, seed=2)
        config = pbt.PbtConfig(population_size=4, min_generations=2, patience=1, seed=2,
                               mode="fixed" if mode == "multilabel" else "patience")
        result = pbt.pbt_run(lambda: pbt.LinearTrainable(spec), config)
        old = format_json({
            "mode": mode,
            "best_score": result.best_score,
            "best_hyperparameters": result.best_hyperparameters,
            "best_member": result.best_member,
            "best_generation": result.best_generation,
            "generations": result.generations,
            "history": result.history,
        })
        assert Path(out).read_text(encoding="utf-8") == old

    def test_folds(self, tmp_path, truth_csv):
        out = str(tmp_path / "folds.csv")
        assert dispatch(["folds", "--labels", truth_csv, "--k", "4", "--candidates", "40",
                         "--seed", "6", "--out", out]) == 0
        fold_of = folds.stratified_kfold(
            load_label_matrix(truth_csv), k=4, candidates=40, seed=6).fold_of
        old = "id,fold\n" + "".join(f"{i},{fold}\n" for i, fold in enumerate(fold_of))
        assert Path(out).read_text(encoding="utf-8") == old


class TestPbtDemoCounts:
    @pytest.mark.parametrize("flag, field", [("--generations", "min_generations"),
                                             ("--patience", "patience")])
    def test_count_below_one_is_data_error_without_output(self, tmp_path, capsys, flag, field):
        out = str(tmp_path / "pbt.json")
        assert dispatch(["pbt-demo", "--population", "2", "--items", "40", "--labels", "2",
                         "--features", "2", flag, "0", "--out", out]) == 2
        assert capsys.readouterr().err == f"labelcal: error: {field} must be >= 1, got 0\n"
        assert os.listdir(tmp_path) == []


# every subcommand with the files its run reads: a page directory, and one
# file given as both inputs, among them
MANIFEST_INPUTS = [
    (["segment", "--tsv", "{in}/pages.tsv", "--min-pts", "2"], ["{in}/pages.tsv"]),
    (["segment", "--tsv", "{in}/pages", "--min-pts", "2"],
     ["{in}/pages/a.tsv", "{in}/pages/b.tsv"]),
    (["match", "--quotes", "{in}/texts.jsonl", "--paragraphs", "{in}/texts.jsonl"],
     ["{in}/texts.jsonl"]),
    (["filter", "--texts", "{in}/texts.jsonl", "--needle", "szo1"], ["{in}/texts.jsonl"]),
    (["folds", "--labels", "{truth}", "--k", "3", "--candidates", "8"], ["{truth}"]),
    (["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{in}/years.txt"],
     ["{probs}", "{truth}", "{in}/years.txt"]),
    (["metrics", "--probs", "{probs}", "--truth", "{truth}"], ["{probs}", "{truth}"]),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "0.1",
      "--years", "{in}/years.txt"], ["{probs}", "{truth}", "{in}/years.txt"]),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "0.1"],
     ["{probs}", "{truth}"]),
    (["truncate", "--probs", "{probs}", "--p-low", "0.2", "--p-high", "0.6"], ["{probs}"]),
    (["sample", "--probs", "{probs}", "--n", "5"], ["{probs}"]),
    (["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10", "--reps", "2"],
     ["{in}/scores.txt"]),
    (["relnet", "--probs", "{probs}", "--json-out", "{in}/w.json"], ["{probs}"]),
    (["relnet", "--truth", "{truth}"], ["{truth}"]),
    (["pbt-demo", "--population", "2", "--generations", "1", "--items", "40", "--labels", "2",
      "--features", "2"], []),
]


class TestManifestInputs:
    def test_every_subcommand_is_covered(self):
        assert sorted({argv[0] for argv, _ in MANIFEST_INPUTS}) == sorted(
            build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("argv, inputs", MANIFEST_INPUTS,
                             ids=[" ".join(argv[:3]) for argv, _ in MANIFEST_INPUTS])
    def test_inputs_map_each_file_read_to_its_digest(self, tmp_path, stage_inputs, argv, inputs):
        page = (tmp_path / "pages.tsv").read_text("utf-8")
        (tmp_path / "pages").mkdir()
        (tmp_path / "pages" / "a.tsv").write_text(page, "utf-8")
        (tmp_path / "pages" / "b.tsv").write_text(page.replace("\n5\t1\t", "\n5\t2\t"), "utf-8")
        argv = [a.format(**stage_inputs) for a in argv]
        inputs = [a.format(**stage_inputs) for a in inputs]
        out = str(tmp_path / "out")
        assert dispatch(argv + ["--out", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text("utf-8"))
        assert manifest["inputs"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs}
        assert list(manifest["inputs"]) == sorted(inputs)

    def test_an_input_rewritten_after_its_parse_is_digested_as_parsed(
            self, tmp_path, probs_csv, monkeypatch):
        parsed = Path(probs_csv).read_bytes()
        truncate = calibration.truncate

        def rewrite_then_truncate(probs, thresholds):
            Path(probs_csv).write_text("a,b,c\n0,0,0\n", "utf-8")
            return truncate(probs, thresholds)

        monkeypatch.setattr(calibration, "truncate", rewrite_then_truncate)
        out = str(tmp_path / "q.csv")
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2",
                         "--p-high", "0.54", "--out", out]) == 0
        assert Path(probs_csv).read_bytes() != parsed
        manifest = json.loads(Path(out + ".manifest.json").read_text("utf-8"))
        assert manifest["inputs"] == {probs_csv: hashlib.sha256(parsed).hexdigest()}

    def test_a_read_outside_dispatch_hashes_nothing(self, probs_csv, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an input was hashed outside a run")

        monkeypatch.setattr(hashlib, "sha256", refuse)
        assert load_prob_matrix(probs_csv).n_items == 30
        assert input_digests.get() is None

    def test_nothing_stays_recorded_after_a_run(self, tmp_path, probs_csv, monkeypatch, capsys):
        out = str(tmp_path / "q.csv")
        truncate = ["truncate", "--probs", probs_csv, "--out", out]
        assert dispatch(truncate + ["--p-low", "0.2", "--p-high", "0.6"]) == 0
        assert input_digests.get() is None
        assert dispatch(truncate + ["--p-low", "0.6", "--p-high", "0.2"]) == 2  # after the read
        assert input_digests.get() is None
        assert dispatch(truncate + ["--p-low", "low", "--p-high", "0.2"]) == 1
        assert input_digests.get() is None

        def fail(probs, thresholds):
            raise RuntimeError("stage bug")

        monkeypatch.setattr(calibration, "truncate", fail)
        with pytest.raises(RuntimeError, match="stage bug"):
            dispatch(truncate + ["--p-low", "0.2", "--p-high", "0.6"])
        assert input_digests.get() is None


NEGATIVE_SEEDS = [
    ["folds", "--labels", "{truth}", "--k", "3", "--candidates", "8", "--seed", "-1"],
    ["folds", "--labels", "{in}/classes.csv", "--kind", "multiclass", "--k", "3",
     "--seed", "-1"],
    ["sample", "--probs", "{probs}", "--n", "5", "--seed", "-1"],
    ["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10", "--reps", "2",
     "--seed", "-5"],
    ["pbt-demo", "--population", "2", "--generations", "1", "--items", "40", "--labels", "2",
     "--features", "2", "--seed", "-1"],
]

BIG = str(2**63 - 1)
# command lines whose array lengths pass numpy's limit, with what the error names
UNSIZABLE = [
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "1e-20"],
     "grid step 1e-20"),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "1e-300"],
     "grid step 1e-300"),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "5e-324"],
     "grid step 5e-324"),
    (["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{in}/far.txt"],
     "years 0 to 4611686018427387904"),
    (["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--years", "{in}/far.txt"],
     "years 0 to 4611686018427387904"),
    (["pbt-demo", "--items", BIG], f"n_items {BIG} x n_features 8"),
    (["pbt-demo", "--features", BIG], f"n_items 400 x n_features {BIG}"),
    (["pbt-demo", "--labels", BIG], f"n_items 400 x n_labels {BIG}"),
    (["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10", "--reps", BIG],
     f"reps {BIG}"),
]

# command lines that once built a list or tuple of their length before its check
UNBUILT = [
    (["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", BIG, "10"],
     "sample size 9223372036854775800 exceeds population 100"),
    (["pbt-demo", "--population", BIG], f"population_size {BIG}: more than an array can hold"),
]

# command lines whose arrays numpy can size but no memory holds
OVERSIZED = [
    ["calibrate", "--oof", "{probs}", "--truth", "{truth}", "--step", "1e-12"],
    ["metrics", "--probs", "{probs}", "--truth", "{truth}", "--years", "{in}/wide.txt"],
    ["size-curve", "--scores", "{in}/scores.txt", "--sizes", "10", "20", "10",
     "--reps", str(10**14)],
]


@pytest.fixture
def parameter_inputs(tmp_path, stage_inputs):
    classes = np.eye(3, dtype=int)[np.arange(30) % 3]
    (tmp_path / "classes.csv").write_text(format_matrix(["a", "b", "c"], classes), "utf-8")
    for name, year in (("far", 2**62), ("wide", 10**14)):
        (tmp_path / f"{name}.txt").write_text("\n".join(["0", str(year)] + ["2000"] * 28), "utf-8")
    out = tmp_path / "out"
    out.mkdir()
    return dict(stage_inputs, out=out)


class TestParameterErrors:
    """Parameters no run can honour: one error line, exit 2, no output."""

    @pytest.mark.parametrize("argv", NEGATIVE_SEEDS, ids=[
        "folds", "folds-multiclass", "sample", "size-curve", "pbt-demo"])
    def test_negative_seed(self, parameter_inputs, capsys, argv):
        argv = [a.format(**parameter_inputs) for a in argv]
        assert dispatch(argv + ["--out", str(parameter_inputs["out"] / "o")]) == 2
        assert capsys.readouterr().err == f"labelcal: error: seed must be >= 0, got {argv[-1]}\n"
        assert os.listdir(parameter_inputs["out"]) == []

    @pytest.mark.parametrize("step, message", [
        ("inf", "grid step must be finite, got inf"),
        ("0", "grid step must be > 0, got 0.0"),
    ], ids=["inf", "zero"])
    def test_grid_step_names_its_fault(self, parameter_inputs, capsys, step, message):
        # inf passes "> 0", and its one-point grid, lo + inf * 0, would be NaN
        argv = ["calibrate", "--oof", parameter_inputs["probs"], "--truth",
                parameter_inputs["truth"], "--step", step,
                "--out", str(parameter_inputs["out"] / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"labelcal: error: {message}\n"
        assert os.listdir(parameter_inputs["out"]) == []

    @pytest.mark.parametrize("argv, what", UNSIZABLE, ids=[what for _, what in UNSIZABLE])
    def test_length_past_numpys_limit_names_its_parameter(
            self, parameter_inputs, capsys, argv, what):
        argv = [a.format(**parameter_inputs) for a in argv]
        assert dispatch(argv + ["--out", str(parameter_inputs["out"] / "o")]) == 2
        assert capsys.readouterr().err == (
            f"labelcal: error: {what}: more than an array can hold\n")
        assert os.listdir(parameter_inputs["out"]) == []

    @pytest.mark.parametrize("argv, error", UNBUILT, ids=["size-curve", "pbt-demo"])
    def test_rejected_before_anything_is_built(self, parameter_inputs, argv, error):
        # under a 64 MiB budget, a run that built the sizes or the
        # population first would end out of memory instead
        argv = [a.format(**parameter_inputs) for a in argv]
        code = "import sys; from labelcal.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
        run = child.run("-c", code, *argv, "--out", str(parameter_inputs["out"] / "o"),
                        budget=64 << 20, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"labelcal: error: {error}\n")
        assert os.listdir(parameter_inputs["out"]) == []

    @pytest.mark.parametrize("argv", OVERSIZED, ids=["step", "years", "reps"])
    def test_length_within_the_limit_stays_out_of_memory(self, parameter_inputs, argv):
        # under a 256 MiB address-space budget, so a machine that grants
        # the allocation cannot be filled by it
        argv = [a.format(**parameter_inputs) for a in argv]
        code = "import sys; from labelcal.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
        run = child.run("-c", code, *argv, "--out", str(parameter_inputs["out"] / "o"),
                        budget=256 << 20)
        assert (run.returncode, run.stdout, run.stderr) == (
            2, "", f"labelcal: error: {argv[0]}: out of memory\n")
        assert os.listdir(parameter_inputs["out"]) == []
