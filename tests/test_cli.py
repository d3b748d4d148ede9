"""Command-line behavior: exit codes, outputs, manifests, determinism."""

import ast
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import labelcal
from labelcal.cli import dispatch

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
        snapshots.append([open(p, "rb").read() for p in out_paths])
    return snapshots


class TestTruncateCommand:
    def test_fixed_thresholds(self, tmp_path, probs_csv):
        out = str(tmp_path / "q.csv")
        code = dispatch(
            ["truncate", "--probs", probs_csv, "--p-low", "0.2",
             "--p-high", "0.54", "--out", out]
        )
        assert code == 0
        body = open(out).read().splitlines()[1:]
        values = np.array([[float(x) for x in line.split(",")] for line in body])
        assert np.all((values == 0) | (values == 1) | ((values >= 0.2) & (values <= 0.54)))

    def test_manifest_written(self, tmp_path, probs_csv):
        out = str(tmp_path / "q.csv")
        dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.1",
                  "--p-high", "0.9", "--out", out])
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["subcommand"] == "truncate"
        assert probs_csv in manifest["inputs"]
        assert manifest["parameters"]["p_low"] == 0.1


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
        lines = open(out).read().splitlines()
        assert lines[0] == "id,fold"
        assert len(lines) == 31
        sidecar = json.load(open(out + ".score.json"))
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
        report = json.load(open(out))
        assert set(report["macro_roc_auc"]["per_label"]) <= {"a", "b", "c"}
        assert "label_count_error_rate" in report
        assert report["expected_calibration_error"]["bins"] == 10

    def test_tendency_error_with_years(self, tmp_path, probs_csv, truth_csv):
        years = tmp_path / "years.txt"
        years.write_text("\n".join(str(1980 + i % 3) for i in range(30)), "utf-8")
        out = str(tmp_path / "report.json")
        assert dispatch(["metrics", "--probs", probs_csv, "--truth", truth_csv,
                         "--years", str(years), "--out", out]) == 0
        report = json.load(open(out))
        assert 0.0 <= report["tendency_error"]["value"] <= 200.0
        assert set(report["tendency_error"]["per_label"]) == {"a", "b", "c"}


class TestCalibrateCommand:
    def test_report_and_determinism(self, tmp_path, probs_csv, truth_csv):
        out = str(tmp_path / "cal.json")
        years = tmp_path / "years.txt"
        years.write_text("\n".join(str(1980 + i % 3) for i in range(30)), "utf-8")
        argv = ["calibrate", "--oof", probs_csv, "--truth", truth_csv,
                "--step", "0.05", "--years", str(years), "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        report = json.load(open(out))
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
        payload = json.load(open(out))
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
        payload = json.load(open(out))
        assert payload["sizes"] == [50, 100]


class TestRelnetCommand:
    def test_dot_and_json_outputs(self, tmp_path, probs_csv):
        out = str(tmp_path / "graph.dot")
        jout = str(tmp_path / "weights.json")
        argv = ["relnet", "--probs", probs_csv, "--min-weight", "0.2",
                "--out", out, "--json-out", jout]
        first, second = run_twice(argv, [out, jout])
        assert first == second
        text = open(out).read()
        assert text.startswith("digraph")
        assert json.load(open(jout))["labels"] == ["a", "b", "c"]

    def test_needs_some_input(self, tmp_path):
        assert dispatch(["relnet", "--out", str(tmp_path / "g.dot")]) == 1

    def test_truth_input(self, tmp_path, truth_csv):
        out = str(tmp_path / "g.dot")
        assert dispatch(["relnet", "--truth", truth_csv, "--out", out]) == 0


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
        records = [json.loads(l) for l in open(out)]
        assert records and all("text" in r and "id" in r for r in records)

        quotes = tmp_path / "quotes.jsonl"
        quotes.write_text(
            json.dumps({"id": "q1", "text": records[0]["text"]}) + "\n", "utf-8"
        )
        matches_out = str(tmp_path / "matches.json")
        assert dispatch(["match", "--quotes", str(quotes), "--paragraphs", out,
                         "--out", matches_out]) == 0
        matches = json.load(open(matches_out))
        assert matches[0]["paragraph_id"] == records[0]["id"]
        assert matches[0]["distance"] == 0.0


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
        kept = [json.loads(l) for l in open(out)]
        assert [r["id"] for r in kept] == [1]


class TestPbtDemoCommand:
    def test_history_written_deterministically(self, tmp_path):
        out = str(tmp_path / "history.json")
        argv = ["pbt-demo", "--mode", "multilabel", "--population", "4",
                "--generations", "3", "--items", "120", "--labels", "3",
                "--features", "5", "--seed", "1", "--out", out]
        first, second = run_twice(argv, [out])
        assert first == second
        payload = json.load(open(out))
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


# every variable OpenBLAS reads its thread count from; a probe drops them
# all, so a value the test process holds cannot mask the CLI's default
NO_BLAS_THREADS = dict.fromkeys(["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])


def _child(*args, env=None):
    """A fresh interpreter on this source tree; ``env`` overrides variables,
    and a None value removes one."""
    src = os.path.dirname(os.path.dirname(labelcal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path)
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run([sys.executable, *args], env=environ,
                          capture_output=True, text=True, timeout=120)


def _probe(*argv, env=None):
    run = _child("-c", *argv, env=env)
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


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["labelcal", "labelcal.cli"])
    def test_version(self, module):
        run = _child("-m", module, "--version")
        assert (run.returncode, run.stdout) == (0, f"labelcal {labelcal.__version__}\n")

    def test_truncate_writes_output_and_manifest(self, tmp_path, probs_csv):
        out = tmp_path / "q.csv"
        run = _child("-m", "labelcal", "truncate", "--probs", probs_csv, "--p-low", "0.2",
                     "--p-high", "0.54", "--out", str(out))
        assert run.returncode == 0, run.stderr
        assert sorted(os.listdir(tmp_path)) == ["probs.csv", "q.csv", "q.csv.manifest.json"]
        expected = str(tmp_path / "expected.csv")
        assert dispatch(["truncate", "--probs", probs_csv, "--p-low", "0.2",
                         "--p-high", "0.54", "--out", expected]) == 0
        assert out.read_bytes() == open(expected, "rb").read()

    def test_unknown_flag_is_usage_error(self, tmp_path, probs_csv):
        run = _child("-m", "labelcal", "truncate", "--probs", probs_csv, "--p-low", "0.2",
                     "--p-high", "0.54", "--out", str(tmp_path / "q.csv"), "--frobnicate")
        assert run.returncode == 1
        assert "unrecognized arguments: --frobnicate" in run.stderr
        assert not (tmp_path / "q.csv").exists()


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
            run = _child("-m", "labelcal", *[a.format(probs=bench_sized_probs, out=out)
                                             for a in argv],
                         env=dict(NO_BLAS_THREADS, OPENBLAS_NUM_THREADS=threads))
            assert run.returncode == 0, run.stderr
            outputs.append([(out / name).read_bytes() for name in files])
        assert outputs[0] == outputs[1]


# the names ``from labelcal import *`` gave before submodules loaded lazily
OLD_ALL = [
    "EnsembleSet", "FoldAssignment", "LabelMatrix", "LabelcalError", "Layout", "LossValue",
    "MacroScore", "Member", "OcrToken", "OcrTokens", "ParagraphRecord", "PbtConfig",
    "PbtResult", "ProbMatrix", "RelationNetwork", "SizingCurve", "TendencySeries",
    "Thresholds", "ToyDataSpec", "balanced_accuracy", "bootstrap_std", "bow_match",
    "bow_match_many", "calibration", "classify_paragraphs", "concat_labels",
    "confidence_penalty", "core", "dbscan", "ensemble_average", "expected_calibration_error",
    "export_dot", "focal_loss", "folds", "grid_search_thresholds", "importance_weights",
    "kamada_kawai_layout", "label_count_error_rate", "ldam_loss", "ldam_margins",
    "load_label_matrix", "load_prob_matrix", "losses", "macro_roc_auc", "merge_cross_page",
    "metrics", "network_from_annotations", "network_from_probabilities", "out_of_fold",
    "parse_ocr_tsv", "partition_score", "pbt", "pbt_run", "perturb", "relnet", "roc_auc",
    "roulette_select", "sampling", "save_label_matrix", "save_prob_matrix", "segmentation",
    "sizing_curve", "stratified_kfold", "stratified_single_label", "substring_filter",
    "tendency_error", "tendency_values", "threshold_at_half", "toy_trainable", "truncate",
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
assert code == 0, code
print(json.dumps({EXECUTED}))
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
    tree = ast.parse(open(path, encoding="utf-8").read())
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
    (["filter", "--texts", "{in}/texts.jsonl", "--needle", "szo1"], ["cli", "core"]),
    (["match", "--quotes", "{in}/texts.jsonl", "--paragraphs", "{in}/texts.jsonl"],
     ["cli", "core", "segmentation"]),
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
        argv[0] + ("-" + argv[-1] if "--calibrate" in argv else "") for argv, _ in STAGE_MODULES])
    def test_stage_executes_only_its_modules(self, tmp_path, stage_inputs, argv, modules):
        argv = [a.format(**stage_inputs) for a in argv]
        if argv[0] != "--version":
            argv += ["--out", str(tmp_path / "out")]
        lines = _probe(COMMAND_PROBE, json.dumps(argv))
        assert json.loads(lines[-1]) == modules

    def test_all_keeps_every_name_and_each_resolves(self):
        assert labelcal.__all__ == OLD_ALL
        for name in OLD_ALL:
            value = getattr(labelcal, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"labelcal.{name}"]
            else:
                assert value is getattr(sys.modules[value.__module__], name)

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
