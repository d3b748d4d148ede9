"""The ``labelcal`` command line: one subcommand per pipeline stage.

``_ABOUT`` is what ``--help`` tells users.  A subcommand returns its
outputs as text and ``dispatch`` writes them with the manifest as one
group; outputs that name the same file are a usage error.  Inputs are
strict UTF-8; line-based ones end a line at ``\\n``, ``\\r\\n`` or ``\\r``.

numpy loads only in a run whose stage builds arrays: ``--version``,
``--help``, usage errors, ``filter`` and ``match`` never import it, as
``import numpy`` is most of the start-up of a short run.  BLAS runs on one
thread: ``OPENBLAS_NUM_THREADS`` defaults to 1 (a value already set wins),
set when this module loads, before any stage imports numpy, as starting
OpenBLAS's worker pool costs about half of ``import numpy``, more than any
stage's BLAS work.  Outputs are the same.

``main`` freezes the import-time heap before the run and what is alive
after it, as the collections of interpreter finalization would traverse
all of it and none of it can be garbage by then; ``dispatch`` does not
freeze, so in-process callers keep their collector as it is.

A matrix input whose bytes an earlier run parsed is loaded from the cache
of parsed matrices (see ``core``), with the same checks, outputs and
messages; ``--version``, ``--help`` and usage errors never reach it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from dataclasses import asdict, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

# OpenBLAS sizes its thread pool when numpy loads, so this must come first
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from . import calibration, folds, metrics, pbt, relnet, sampling, segmentation
from .core import (
    DEFAULT_CANDIDATES,
    DEFAULT_ECE_BINS,
    DEFAULT_GRID_STEP,
    DEFAULT_HIGH_RANGE,
    DEFAULT_LOW_RANGE,
    DEFAULT_REPS,
    DEFAULT_SIZE_GRID,
    LabelcalError,
    atomic_files,
    bow_match_many,
    format_json,
    format_matrix,
    format_texts,
    input_digests,
    load_label_matrix,
    load_prob_matrix,
    load_texts,
    read_input,
    read_numbers,
    substring_filter,
    text_lines,
)

if TYPE_CHECKING:
    import numpy as np

Run = list[tuple[str, str]]  # outputs (path, text) in write order

_ABOUT = """Each run writes its outputs and a manifest, <out>.manifest.json,
that records the subcommand, its parameters, the seed, the SHA-256 of each
input file, the version and the run time; a run leaves all of them or none.
Randomness comes from --seed (default 0), never from the clock, so the same
inputs and parameters give the same outputs byte for byte.  Exit codes: 0
success, 1 usage error, 2 data error (an input the stage cannot read, such
as one that is not UTF-8, or running out of memory)."""


class UsageError(LabelcalError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _manifest(args: argparse.Namespace, started: float) -> str:
    return format_json({
        "subcommand": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seed": getattr(args, "seed", None),
        "inputs": dict(sorted(input_digests.get().items())),
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
    })


def _load_lines(path: str, dtype: str, what: str) -> np.ndarray:
    """One ``dtype`` number per non-blank line, each line read whole in the
    grammar of ``read_numbers`` as a matrix cell is; the lines are walked
    again only to name the first bad one."""

    def parse(text: str) -> np.ndarray:
        lines = [(n, line) for n, line in enumerate(text_lines(text), start=1) if line.strip()]
        values = read_numbers([line for _, line in lines], dtype)
        if values is None:
            n = next(n for n, line in lines if read_numbers([line], dtype) is None)
            raise LabelcalError(f"{what} on line {n}")
        return values

    return read_input(path, parse)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_segment(args) -> Run:
    path = Path(args.tsv)
    files = sorted(path.glob("*.tsv")) if path.is_dir() else [path]
    if not files:
        raise LabelcalError(f"no .tsv files under {path}")
    # one file's word boxes at a time are parsed and copied into the table,
    # which is released once its paragraphs are built
    paragraphs = segmentation.paragraphs_from_tokens(segmentation.OcrTokens.concat(
        read_input(f, segmentation.parse_ocr_tsv) for f in files))
    if not paragraphs:
        raise LabelcalError("no paragraphs found in the input")
    classes = segmentation.classify_paragraphs(
        paragraphs, eps=args.eps, min_pts=args.min_pts
    )
    paragraphs = [replace(p, cls=c) for p, c in zip(paragraphs, classes)]
    # paragraphs come in page order: one pass splits them into pages
    per_page = [list(page) for _, page in groupby(paragraphs, key=attrgetter("first_page"))]
    merged = segmentation.merge_cross_page(per_page, mode=args.merge_mode)
    texts = format_texts(record.to_json() for record in merged)
    return [(args.out, texts)]


def _cmd_match(args) -> Run:
    quotes = load_texts(args.quotes)
    paragraphs = load_texts(args.paragraphs)
    matches = bow_match_many(
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
    return [(args.out, format_json(results))]


def _cmd_filter(args) -> Run:
    records = load_texts(args.texts)
    hits = substring_filter(
        [r["text"] for r in records], args.needle, case_fold=args.case_fold
    )
    return [(args.out, format_texts(records[i] for i in hits))]


def _cmd_folds(args) -> Run:
    import numpy as np

    labels = load_label_matrix(args.labels, kind=args.kind)
    if args.kind == "multiclass":
        assignment = folds.stratified_single_label(
            labels.class_indices(), k=args.k, seed=args.seed
        )
    else:
        assignment = folds.stratified_kfold(
            labels, k=args.k, candidates=args.candidates, seed=args.seed
        )
    fold_of = assignment.fold_of
    table = format_matrix(("id", "fold"), np.column_stack((np.arange(fold_of.size), fold_of)))
    score = format_json({"k": assignment.k, "score": list(assignment.score)})
    return [(args.out, table), (args.out + ".score.json", score)]


def _cmd_metrics(args) -> Run:
    import numpy as np

    probs = load_prob_matrix(args.probs)
    truth = load_label_matrix(args.truth, kind=args.kind)
    report: dict = {"n_items": probs.n_items, "n_labels": probs.n_labels}
    report["macro_roc_auc"] = asdict(metrics.macro_roc_auc(probs, truth))
    report["label_count_error_rate"] = asdict(metrics.label_count_error_rate(probs, truth))
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
    if args.years:
        years = _load_lines(args.years, "int64", "non-integer year")
        pred = metrics.tendency_series_from_matrix(probs, years)
        true = metrics.tendency_series_from_matrix(truth, years)
        report["tendency_error"] = {
            "value": metrics.tendency_error(pred, true),
            "per_label": {name: metrics.tendency_error(pred[:, j], true[:, j])
                          for j, name in enumerate(probs.labels)},
        }
    return [(args.out, format_json(report))]


def _cmd_calibrate(args) -> Run:
    oof = load_prob_matrix(args.oof)
    truth = load_label_matrix(args.truth)
    thresholds, error = calibration.grid_search_thresholds(
        oof, truth, grid_step=args.step,
        low_range=tuple(args.low_range), high_range=tuple(args.high_range),
    )
    report = {
        "thresholds": asdict(thresholds),
        "error": error,
        "baselines": {
            "no_truncation": metrics.label_count_error_rate(oof, truth).value,
            "half_threshold": metrics.label_count_error_rate(
                calibration.threshold_at_half(oof), truth
            ).value,
        },
        "count_error_table": calibration.count_error_table(oof, truth, thresholds),
    }
    if args.years:
        years = _load_lines(args.years, "int64", "non-integer year")
        report["tendency_table"] = calibration.tendency_error_table(
            oof, truth, years, thresholds
        )
    else:
        report["tendency_table"] = None
    return [(args.out, format_json(report))]


def _cmd_truncate(args) -> Run:
    probs = load_prob_matrix(args.probs)
    out = calibration.truncate(
        probs, calibration.Thresholds(args.p_low, args.p_high)
    )
    return [(args.out, format_matrix(out.labels, out.values))]


def _cmd_sample(args) -> Run:
    probs = load_prob_matrix(args.probs)
    weights = sampling.importance_weights(probs)
    indices = sampling.weighted_sample(weights, n=args.n, seed=args.seed)
    sample = {"indices": [int(i) for i in indices], "weights": [float(w) for w in weights],
              "n": args.n}
    return [(args.out, format_json(sample))]


def _cmd_size_curve(args) -> Run:
    if args.sizes[2] < 1:
        raise UsageError(f"--sizes STEP must be >= 1, got {args.sizes[2]}")
    scores = _load_lines(args.scores, "float64", "malformed number")
    sizes = range(args.sizes[0], args.sizes[1] + 1, args.sizes[2])
    curve = sampling.sizing_curve(scores, sizes=sizes, reps=args.reps, seed=args.seed)
    return [(args.out, format_json(asdict(curve)))]


def _cmd_relnet(args) -> Run:
    if args.truth is not None:
        net = relnet.network_from_annotations(load_label_matrix(args.truth))
    else:
        probs = load_prob_matrix(args.probs)
        if args.calibrate == "half":
            probs = calibration.threshold_at_half(probs)
        net = relnet.network_from_probabilities(probs)
    layout = relnet.kamada_kawai_layout(net)
    outputs = [(args.out, relnet.export_dot(net, layout, min_weight=args.min_weight))]
    if args.json_out:
        outputs.append((args.json_out, relnet.export_weights_json(net)))
    return outputs


def _cmd_pbt_demo(args) -> Run:
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
    result = pbt.pbt_run(lambda: pbt.LinearTrainable(spec), config)
    return [(args.out, format_json({"mode": args.mode, **asdict(result)}))]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="labelcal", description=_ABOUT)
    parser.add_argument("--version", action="version", version=f"labelcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True)  # dispatch names the manifest after it
        return p

    p = add("segment", _cmd_segment, help="OCR word boxes to classified paragraphs")
    p.add_argument("--tsv", required=True, help="word-box .tsv file or directory")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--min-pts", type=int, default=3)
    p.add_argument("--merge-mode", choices=["conjunctive", "disjunctive"],
                   default="conjunctive")

    p = add("match", _cmd_match, help="match annotation quotes to paragraphs")
    p.add_argument("--quotes", required=True)
    p.add_argument("--paragraphs", required=True)

    p = add("filter", _cmd_filter, help="keep texts containing a subword")
    p.add_argument("--texts", required=True)
    p.add_argument("--needle", required=True)
    p.add_argument("--case-fold", action="store_true")

    p = add("folds", _cmd_folds, help="stratified k-fold partition search")
    p.add_argument("--labels", required=True)
    p.add_argument("--kind", choices=["multilabel", "multiclass"], default="multilabel")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES)
    p.add_argument("--seed", type=int, default=0)

    p = add("metrics", _cmd_metrics, help="evaluation metric report")
    p.add_argument("--probs", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--kind", choices=["multilabel", "multiclass"], default="multilabel")
    p.add_argument("--bins", type=int, default=DEFAULT_ECE_BINS)
    p.add_argument("--years", default=None,
                   help="one year per item; adds the tendency error")

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

    p = add("truncate", _cmd_truncate, help="apply truncation thresholds")
    p.add_argument("--probs", required=True)
    p.add_argument("--p-low", type=float, required=True)
    p.add_argument("--p-high", type=float, required=True)

    p = add("sample", _cmd_sample, help="importance-weighted validation sample")
    p.add_argument("--probs", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("size-curve", _cmd_size_curve, help="bootstrap sample-size planning")
    p.add_argument("--scores", required=True, help="one metric value per line")
    p.add_argument("--sizes", type=int, nargs=3, default=list(DEFAULT_SIZE_GRID),
                   metavar=("START", "STOP", "STEP"))
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--resamples", type=int, default=None,
                   help="ignored: the curve uses the closed-form bootstrap SE; "
                        "kept so existing command lines parse, and to be removed")
    p.add_argument("--seed", type=int, default=0)

    p = add("relnet", _cmd_relnet, help="label relation network export")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--probs", default=None)
    source.add_argument("--truth", default=None)
    p.add_argument("--calibrate", choices=["none", "half"], default="none",
                   help="half: threshold at 0.5; for truncation run `truncate` first")
    p.add_argument("--min-weight", type=float, default=0.1)
    p.add_argument("--json-out", default=None)

    p = add("pbt-demo", _cmd_pbt_demo,
            help="population-based training on the toy trainable")
    p.add_argument("--mode", choices=["multilabel", "multiclass"], default="multilabel")
    p.add_argument("--population", type=int, default=20)
    p.add_argument("--generations", type=int, default=10)
    p.add_argument("--patience", type=int, default=10,
                   help="--mode multiclass only: generations without improvement after "
                        "--generations before the run stops; multilabel runs exactly "
                        "--generations")
    p.add_argument("--items", type=int, default=400)
    p.add_argument("--labels", type=int, default=5)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        token = input_digests.set({})
        try:
            outputs = args.func(args)
            paths = [path for path, _ in outputs] + [args.out + ".manifest.json"]
            real = [os.path.realpath(path) for path in paths]
            for i, path in enumerate(paths):
                if real[i] in real[:i]:
                    other = paths[real.index(real[i])]
                    raise UsageError(f"outputs {other!r} and {path!r} name the same file")
            with atomic_files(paths) as handles:
                for fh, (_, text) in zip(handles, outputs):
                    fh.write(text)
                handles[-1].write(_manifest(args, started))
        except MemoryError:  # the input is too large for this machine: a data error
            raise LabelcalError(f"{args.command}: out of memory") from None
        finally:
            input_digests.reset(token)
        return 0
    except UsageError as exc:
        print(f"labelcal: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, LabelcalError) as exc:
        print(f"labelcal: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    gc.freeze()
    try:
        sys.exit(dispatch())
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
