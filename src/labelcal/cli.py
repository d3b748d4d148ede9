"""The ``labelcal`` command line: one subcommand per pipeline stage.

Every run writes its outputs plus a manifest (``<output>.manifest.json``)
recording the subcommand, full parameter set, seed, input digests, tool
version, and wall-clock duration.  All randomness is seeded (default 0,
never wall-clock), so a rerun with the same manifest inputs reproduces
the outputs byte for byte.

BLAS runs on one thread: ``OPENBLAS_NUM_THREADS`` defaults to 1 (a value
already set wins), as starting OpenBLAS's worker pool costs about half of
``import numpy``, more than any stage's BLAS work.  Outputs are the same.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable

# OpenBLAS sizes its thread pool when numpy loads, so this must come first
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import calibration, folds, metrics, pbt, relnet, sampling, segmentation
from .core import (
    DEFAULT_CANDIDATES,
    DEFAULT_ECE_BINS,
    DEFAULT_GRID_STEP,
    DEFAULT_HIGH_RANGE,
    DEFAULT_LOW_RANGE,
    DEFAULT_REPS,
    DEFAULT_RESAMPLES,
    LabelcalError,
    atomic_write,
    load_label_matrix,
    load_prob_matrix,
    load_texts,
    save_prob_matrix,
    save_texts,
    substring_filter,
)


class UsageError(LabelcalError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _write_json(payload, fh) -> None:
    json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
    fh.write("\n")


def _json_dump(payload, path: str) -> None:
    with atomic_write(path) as fh:
        _write_json(payload, fh)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace, inputs: list[str], started: float) -> None:
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "inputs_", "command")
    }
    manifest = {
        "subcommand": args.command,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
    }
    _json_dump(manifest, args.out + ".manifest.json")


def _load_lines(path: str, parse: Callable[[str], object], what: str) -> list:
    """One value per non-blank line; a bad line is reported by number."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(parse(line))
            except ValueError:
                raise LabelcalError(f"{path}: {what} on line {n}") from None
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_segment(args) -> list[str]:
    path = Path(args.tsv)
    files = sorted(path.glob("*.tsv")) if path.is_dir() else [path]
    if not files:
        raise LabelcalError(f"no .tsv files under {path}")
    pages = []
    for f in files:
        try:
            pages.append(segmentation.parse_ocr_tsv(f.read_text(encoding="utf-8")))
        except segmentation.OcrFormatError as exc:
            raise type(exc)(f"{f}: {exc}") from None
    tokens = segmentation.OcrTokens.concat(pages)
    paragraphs = segmentation.paragraphs_from_tokens(tokens)
    if not paragraphs:
        raise LabelcalError("no paragraphs found in the input")
    classes = segmentation.classify_paragraphs(
        paragraphs, eps=args.eps, min_pts=args.min_pts
    )
    paragraphs = segmentation.with_classes(paragraphs, classes)
    # paragraphs come in page order: one pass splits them into pages
    per_page = [list(page) for _, page in groupby(paragraphs, key=attrgetter("first_page"))]
    merged = segmentation.merge_cross_page(per_page, mode=args.merge_mode)
    save_texts([record.to_json() for record in merged], args.out)
    return [str(f) for f in files]


def _cmd_match(args) -> list[str]:
    quotes = load_texts(args.quotes)
    paragraphs = load_texts(args.paragraphs)
    matches = segmentation.bow_match_many(
        [q["text"] for q in quotes], [p["text"] for p in paragraphs]
    )
    results = [
        {
            "quote_id": quote["id"],
            "paragraph_id": paragraphs[index]["id"],
            "paragraph_index": index,
            "distance": distance,
        }
        for quote, (index, distance) in zip(quotes, matches)
    ]
    _json_dump(results, args.out)
    return [args.quotes, args.paragraphs]


def _cmd_filter(args) -> list[str]:
    records = load_texts(args.texts)
    hits = substring_filter(
        [r["text"] for r in records], args.needle, case_fold=args.case_fold
    )
    save_texts([records[i] for i in hits], args.out)
    return [args.texts]


def _cmd_folds(args) -> list[str]:
    labels = load_label_matrix(args.labels, kind=args.kind)
    if args.kind == "multiclass":
        assignment = folds.stratified_single_label(
            labels.class_indices(), k=args.k, seed=args.seed
        )
    else:
        assignment = folds.stratified_kfold(
            labels, k=args.k, candidates=args.candidates, seed=args.seed
        )
    # both files or neither: a failed second write discards the first
    with atomic_write(args.out) as fh, atomic_write(args.out + ".score.json") as score_fh:
        fh.write("id,fold\n")
        for i, fold in enumerate(assignment.fold_of):
            fh.write(f"{i},{fold}\n")
        _write_json({"k": assignment.k, "score": list(assignment.score)}, score_fh)
    return [args.labels]


def _cmd_metrics(args) -> list[str]:
    probs = load_prob_matrix(args.probs)
    truth = load_label_matrix(args.truth, kind=args.kind)
    report: dict = {"n_items": probs.n_items, "n_labels": probs.n_labels}
    auc = metrics.macro_roc_auc(probs, truth)
    report["macro_roc_auc"] = {
        "value": auc.value, "per_label": auc.per_label, "undefined": list(auc.undefined),
    }
    counts = metrics.label_count_error_rate(probs, truth)
    report["label_count_error_rate"] = {
        "value": counts.value, "per_label": counts.per_label,
        "excluded": list(counts.excluded),
    }
    ece = {
        name: metrics.expected_calibration_error(
            probs.values[:, j], truth.values[:, j], bins=args.bins
        )
        for j, name in enumerate(probs.labels)
    }
    report["expected_calibration_error"] = {
        "mean": float(np.mean(list(ece.values()))), "per_label": ece, "bins": args.bins,
    }
    if args.kind == "multiclass":
        report["balanced_accuracy"] = metrics.balanced_accuracy(
            np.argmax(probs.values, axis=1), truth.class_indices()
        )
    inputs = [args.probs, args.truth]
    if args.years:
        years = _load_lines(args.years, int, "non-integer year")
        pred_series = metrics.tendency_series_from_matrix(probs, years)
        true_series = metrics.tendency_series_from_matrix(truth, years)
        report["tendency_error"] = {
            "value": metrics.tendency_error(pred_series, true_series),
            "per_label": {
                name: metrics.tendency_error(
                    {name: pred_series[name]}, {name: true_series[name]}
                )
                for name in probs.labels
            },
        }
        inputs.append(args.years)
    _json_dump(report, args.out)
    return inputs


def _cmd_calibrate(args) -> list[str]:
    oof = load_prob_matrix(args.oof)
    truth = load_label_matrix(args.truth)
    thresholds, error = calibration.grid_search_thresholds(
        oof, truth, grid_step=args.step,
        low_range=tuple(args.low_range), high_range=tuple(args.high_range),
    )
    report = {
        "thresholds": {"p_low": thresholds.p_low, "p_high": thresholds.p_high},
        "error": error,
        "baselines": {
            "no_truncation": metrics.label_count_error_rate(oof, truth).value,
            "half_threshold": metrics.label_count_error_rate(
                calibration.threshold_at_half(oof), truth
            ).value,
        },
        "count_error_table": calibration.count_error_table(oof, truth, thresholds),
    }
    inputs = [args.oof, args.truth]
    if args.years:
        years = _load_lines(args.years, int, "non-integer year")
        report["tendency_table"] = calibration.tendency_error_table(
            oof, truth, years, thresholds
        )
        inputs.append(args.years)
    else:
        report["tendency_table"] = None
    _json_dump(report, args.out)
    return inputs


def _cmd_truncate(args) -> list[str]:
    probs = load_prob_matrix(args.probs)
    out = calibration.truncate(
        probs, calibration.Thresholds(args.p_low, args.p_high)
    )
    save_prob_matrix(out, args.out)
    return [args.probs]


def _cmd_sample(args) -> list[str]:
    probs = load_prob_matrix(args.probs)
    weights = sampling.importance_weights(probs)
    indices = sampling.weighted_sample(weights, n=args.n, seed=args.seed)
    _json_dump(
        {
            "indices": [int(i) for i in indices],
            "weights": [float(w) for w in weights],
            "n": args.n,
        },
        args.out,
    )
    return [args.probs]


def _cmd_size_curve(args) -> list[str]:
    if args.sizes[2] < 1:
        raise UsageError(f"--sizes STEP must be >= 1, got {args.sizes[2]}")
    scores = _load_lines(args.scores, float, "malformed number")
    sizes = range(args.sizes[0], args.sizes[1] + 1, args.sizes[2])
    curve = sampling.sizing_curve(
        scores, sizes=sizes, reps=args.reps, resamples=args.resamples, seed=args.seed
    )
    _json_dump(
        {
            "sizes": list(curve.sizes),
            "mean_std": list(curve.mean_std),
            "reps": curve.reps,
            "resamples": curve.resamples,
        },
        args.out,
    )
    return [args.scores]


def _cmd_relnet(args) -> list[str]:
    inputs = []
    if args.truth:
        truth = load_label_matrix(args.truth)
        net = relnet.network_from_annotations(truth)
        inputs.append(args.truth)
    else:
        probs = load_prob_matrix(args.probs)
        if args.calibrate == "half":
            probs = calibration.threshold_at_half(probs)
        elif args.calibrate == "truncate":
            probs = calibration.truncate(
                probs, calibration.Thresholds(args.p_low, args.p_high)
            )
        net = relnet.network_from_probabilities(probs)
        inputs.append(args.probs)
    layout = relnet.kamada_kawai_layout(net)
    # both files or neither: a failed second write discards the first
    with atomic_write(args.out) as fh, (
        atomic_write(args.json_out) if args.json_out else nullcontext()
    ) as json_fh:
        fh.write(relnet.export_dot(net, layout, min_weight=args.min_weight))
        if json_fh is not None:
            json_fh.write(relnet.export_weights_json(net))
    return inputs


def _cmd_pbt_demo(args) -> list[str]:
    spec = pbt.ToyDataSpec(
        n_items=args.items, n_labels=args.labels, n_features=args.features,
        mode=args.mode, seed=args.seed,
    )
    config = pbt.PbtConfig(
        population_size=args.population,
        min_generations=args.generations,
        patience=args.patience,
        seed=args.seed,
        mode="fixed" if args.mode == "multilabel" else "patience",
    )
    result = pbt.pbt_run(lambda: pbt.toy_trainable(spec), config)
    _json_dump(
        {
            "mode": args.mode,
            "best_score": result.best_score,
            "best_hyperparameters": result.best_hyperparameters,
            "best_member": result.best_member,
            "best_generation": result.best_generation,
            "generations": result.generations,
            "history": result.history,
        },
        args.out,
    )
    return []


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="labelcal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"labelcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("segment", _cmd_segment, help="OCR word boxes to classified paragraphs")
    p.add_argument("--tsv", required=True, help="word-box .tsv file or directory")
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--min-pts", type=int, default=3)
    p.add_argument("--merge-mode", choices=["conjunctive", "disjunctive"],
                   default="conjunctive")

    p = add("match", _cmd_match, help="match annotation quotes to paragraphs")
    p.add_argument("--quotes", required=True)
    p.add_argument("--paragraphs", required=True)
    p.add_argument("--out", required=True)

    p = add("filter", _cmd_filter, help="keep texts containing a subword")
    p.add_argument("--texts", required=True)
    p.add_argument("--needle", required=True)
    p.add_argument("--case-fold", action="store_true")
    p.add_argument("--out", required=True)

    p = add("folds", _cmd_folds, help="stratified k-fold partition search")
    p.add_argument("--labels", required=True)
    p.add_argument("--kind", choices=["multilabel", "multiclass"], default="multilabel")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("metrics", _cmd_metrics, help="evaluation metric report")
    p.add_argument("--probs", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--kind", choices=["multilabel", "multiclass"], default="multilabel")
    p.add_argument("--bins", type=int, default=DEFAULT_ECE_BINS)
    p.add_argument("--years", default=None,
                   help="one year per item; adds the tendency error")
    p.add_argument("--out", "--report", dest="out", required=True)

    p = add("calibrate", _cmd_calibrate, help="grid-search truncation thresholds")
    p.add_argument("--oof", required=True, help="out-of-fold predictions")
    p.add_argument("--truth", required=True)
    p.add_argument("--step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--low-range", type=float, nargs=2,
                   default=list(DEFAULT_LOW_RANGE))
    p.add_argument("--high-range", type=float, nargs=2,
                   default=list(DEFAULT_HIGH_RANGE))
    p.add_argument("--years", default=None,
                   help="one year per item; enables the tendency table")
    p.add_argument("--out", required=True)

    p = add("truncate", _cmd_truncate, help="apply truncation thresholds")
    p.add_argument("--probs", required=True)
    p.add_argument("--p-low", type=float, required=True)
    p.add_argument("--p-high", type=float, required=True)
    p.add_argument("--out", required=True)

    p = add("sample", _cmd_sample, help="importance-weighted validation sample")
    p.add_argument("--probs", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("size-curve", _cmd_size_curve, help="bootstrap sample-size planning")
    p.add_argument("--scores", required=True, help="one metric value per line")
    p.add_argument("--sizes", type=int, nargs=3, default=[50, 300, 10],
                   metavar=("START", "STOP", "STEP"))
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("relnet", _cmd_relnet, help="label relation network export")
    p.add_argument("--probs", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--calibrate", choices=["none", "half", "truncate"], default="none")
    p.add_argument("--p-low", type=float, default=0.2)
    p.add_argument("--p-high", type=float, default=0.54)
    p.add_argument("--min-weight", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--json-out", default=None)

    p = add("pbt-demo", _cmd_pbt_demo,
            help="population-based training on the toy trainable")
    p.add_argument("--mode", choices=["multilabel", "multiclass"], default="multilabel")
    p.add_argument("--population", type=int, default=20)
    p.add_argument("--generations", type=int, default=10)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--items", type=int, default=400)
    p.add_argument("--labels", type=int, default=5)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if args.command == "relnet" and not (args.probs or args.truth):
            raise UsageError("relnet needs --probs or --truth")
        inputs = args.func(args)
        _write_manifest(args, inputs, started)
        return 0
    except UsageError as exc:
        print(f"labelcal: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, LabelcalError) as exc:
        print(f"labelcal: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
