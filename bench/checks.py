"""Output checks against the planted answers.

Each ``check_*`` function reads one pass directory and returns a list of
(check name, failure message or None), one entry per check made, so the
caller can count attempts and failures.  Recomputations use the
package's own reference functions (``partition_score``,
``label_count_error_rate``, ``truncate``); ``labelcal`` must be
importable when these run.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from generate import NEEDLE


def _matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        labels = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    return labels, values


def _run(results: list, name: str, check) -> None:
    """Run one check; any exception it raises is that check's failure."""
    try:
        message = check()
    except Exception as exc:  # a malformed output fails the check, not the bench
        message = f"{type(exc).__name__}: {exc}"
    results.append((name, message))


def check_oof(inputs: Path, out: Path, planted: dict) -> list:
    from labelcal import (LabelMatrix, ProbMatrix, Thresholds, label_count_error_rate,
                          partition_score, truncate)

    labels, truth_values = _matrix(inputs / "truth.csv")
    truth = LabelMatrix(tuple(labels), truth_values)
    oof = ProbMatrix(tuple(labels), _matrix(inputs / "oof.csv")[1])
    results: list = []

    def folds():
        rows = np.loadtxt(out / "folds.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        fold_of = rows[:, 1]
        k = planted["k"]
        if rows.shape[0] != truth.n_items or not np.array_equal(rows[:, 0], np.arange(truth.n_items)):
            return f"folds.csv has {rows.shape[0]} rows, expected {truth.n_items}"
        sizes = np.bincount(fold_of, minlength=k)
        if sizes.size != k or sizes.max() - sizes.min() > 1:
            return f"fold sizes {sizes.tolist()} differ by more than 1"
        reported = json.loads((out / "folds.csv.score.json").read_text())
        expected = partition_score(truth, fold_of, k)
        if reported["k"] != k or not np.array_equal(np.array(reported["score"]), expected):
            return "fold score differs from partition_score of the written partition"
        return None

    def calibrate():
        report = json.loads((out / "calibration.json").read_text())
        t = Thresholds(report["thresholds"]["p_low"], report["thresholds"]["p_high"])
        expected = label_count_error_rate(truncate(oof, t), truth).value
        if not math.isclose(report["error"], expected, rel_tol=1e-12, abs_tol=1e-15):
            return f"calibrate error {report['error']!r} != recomputed {expected!r}"
        if report["error"] > report["baselines"]["no_truncation"]:
            return "grid minimum is worse than no truncation, which is on the grid"
        if report["tendency_table"] is None:
            return "tendency table missing although --years was given"
        return None

    def metrics():
        report = json.loads((out / "metrics.json").read_text())
        expected = label_count_error_rate(oof, truth).value
        if not math.isclose(report["label_count_error_rate"]["value"], expected,
                            rel_tol=1e-12, abs_tol=1e-15):
            return "label-count error rate differs from label_count_error_rate"
        if len(report["macro_roc_auc"]["per_label"]) != truth.n_labels:
            return "ROC AUC undefined for a label that has positives and negatives"
        if "tendency_error" not in report:
            return "tendency error missing although --years was given"
        return None

    def size_curve():
        curve = json.loads((out / "curve.json").read_text())
        if curve["sizes"] != list(range(*planted["sizes"])):
            return f"sizes {curve['sizes']} differ from the requested range"
        std = curve["mean_std"]
        if min(std) <= 0 or std[0] <= std[-1]:
            return "bootstrap spread does not shrink with the sample size"
        return None

    def pbt(name, generations):
        def check():
            history = json.loads((out / name).read_text())
            if not 0.0 <= history["best_score"] <= 1.0:
                return f"best score {history['best_score']} outside [0, 1]"
            if history["generations"] < generations:
                return f"{history['generations']} generations, expected >= {generations}"
            return None
        return check

    _run(results, "folds", folds)
    _run(results, "calibrate", calibrate)
    _run(results, "metrics", metrics)
    _run(results, "size-curve", size_curve)
    _run(results, "pbt-multilabel", pbt("pbt_multilabel.json", planted["generations"]))
    _run(results, "pbt-multiclass", pbt("pbt_multiclass.json", planted["generations"]))
    return results


def check_predict(inputs: Path, out: Path, planted: dict) -> list:
    from labelcal import ProbMatrix, importance_weights, network_from_probabilities

    labels, probs = _matrix(inputs / "predict.csv")
    results: list = []

    def truncated():
        out_labels, values = _matrix(out / "truncated.csv")
        lo, hi = planted["p_low"], planted["p_high"]
        expected = np.where(probs < lo, 0.0, np.where(probs > hi, 1.0, probs))
        if out_labels != labels or not np.array_equal(values, expected):
            return "truncated matrix differs from the thresholds applied to the input"
        return None

    def sample():
        report = json.loads((out / "sample.json").read_text())
        idx = report["indices"]
        n = probs.shape[0]
        if len(idx) != planted["n"] or idx != sorted(set(idx)) or not 0 <= idx[0] <= idx[-1] < n:
            return "sample indices are not n distinct sorted item rows"
        expected = importance_weights(ProbMatrix(tuple(labels), probs))
        if not np.array_equal(np.array(report["weights"]), expected):
            return "sample weights differ from importance_weights of the input"
        return None

    def relnet():
        dot = (out / "graph.dot").read_text(encoding="utf-8")
        nodes = re.findall(r'^  "[^"]+" \[pos=', dot, flags=re.M)
        edges = re.findall(r"^  \"[^\"]+\" -> ", dot, flags=re.M)
        _, values = _matrix(out / "truncated.csv")
        net = network_from_probabilities(ProbMatrix(tuple(labels), values))
        w = net.weights[net.defined]
        expected_edges = int((w >= planted["min_weight"]).sum()) - int(net.defined.sum())
        if len(nodes) != len(labels) or len(edges) != expected_edges:
            return f"{len(nodes)} nodes / {len(edges)} edges, expected {len(labels)} / {expected_edges}"
        return None

    _run(results, "truncate", truncated)
    _run(results, "sample", sample)
    _run(results, "relnet", relnet)
    return results


def check_ocr(inputs: Path, out: Path, planted: dict) -> list:
    results: list = []

    def records(name):
        with open(out / name, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def segment():
        got = records("paragraphs.jsonl")
        want = planted["paragraphs"]
        if [r["id"] for r in got] != [p["id"] for p in want]:
            return f"{len(got)} paragraphs, expected the {len(want)} planted ones in order"
        for r, p in zip(got, want):
            if r["text"] != p["text"] or r["class"] != p["class"] \
                    or [r["first_page"], r["last_page"]] != p["pages"]:
                return f"paragraph {r['id']} differs from the planted one"
        merges = sum(r["last_page"] - r["first_page"] for r in got)
        if merges != planted["merges"]:
            return f"{merges} page merges, planted {planted['merges']}"
        return None

    def match():
        got = json.loads((out / "matches.json").read_text(encoding="utf-8"))
        if sorted(m["quote_id"] for m in got) != sorted(planted["quotes"]):
            return "match output does not cover the quotes"
        wrong = [m["quote_id"] for m in got if m["paragraph_id"] != planted["quotes"][m["quote_id"]]]
        return f"quotes matched to the wrong paragraph: {wrong}" if wrong else None

    def filtered():
        got = [r["id"] for r in records("kept.jsonl")]
        want = [p["id"] for p in planted["paragraphs"] if NEEDLE in p["text"]]
        return None if got == want else f"kept {len(got)} paragraphs, expected {len(want)}"

    _run(results, "segment", segment)
    _run(results, "match", match)
    _run(results, "filter", filtered)
    return results


def check_apply(inputs: Path, out: Path, planted: dict) -> list:
    return check_ocr(inputs, out, planted) + check_predict(inputs, out, planted)
