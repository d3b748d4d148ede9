"""In-memory span tracer for one ``labelcal`` child process, and the
reduction of its spans to per-layer metrics.

``Tracer.install`` wraps every public function of the ``labelcal``
modules at every place it is bound: a function imported by name into
another module (``cli`` takes ``load_prob_matrix``, ``pbt`` takes
``focal_loss``, ``calibration`` takes ``tendency_series_from_matrix``)
is replaced there too, so calls through any binding are seen.  Spans
(id, parent, name, start, end, pass id) are kept in a list and written
as JSON when the child exits.

Spans are recorded on the main thread only.  Work a library function
hands to a thread pool stays inside the span of the call that started
the pool, so the self times of one child add up to its wall time; calls
made on worker threads are still counted.

A span is named ``<layer>.<function>``; the layer is the module that
defines the function, except for the targets listed in ``EXTRA``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import types

# Called once per quote and paragraph inside ``bow_match``; a span per
# call would cost more than the call.  Its time stays in bow_match.
SKIP = {"labelcal.segmentation.bow_tokens"}
# Seed and thread-pool helpers, called once per work item; their time
# stays with the layer that calls them.
SKIP_MODULES = {"labelcal._util"}

# Extra targets outside the public-function rule, with their layer.
EXTRA = {
    # the batched multiclass loss of the toy trainable is loss work
    ("labelcal.pbt", "_batched_multiclass_loss"): "losses",
    # counted to give pbt.member_epochs
    ("labelcal.pbt", "LinearTrainable.train_one_epoch"): "pbt",
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


# --- counters derived from a call's arguments and result -----------------


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_cells(fn, args, kwargs, result):
    return {"core.cells_loaded": result.values.size}


def _count_folds(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n, n_labels = a["labels"].values.shape
    chunk = min(getattr(sys.modules[fn.__module__], "_CHUNK", a["candidates"]), a["candidates"])
    return {"folds.candidates": a["candidates"],
            "folds.gather_bytes": chunk * n * n_labels * 8}


def _count_grid(fn, args, kwargs, result):
    lows, highs = result
    return {"calibration.grid_pairs": int((lows[:, None] <= highs[None, :]).sum())}


def _count_bootstrap(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"sampling.bootstrap_draws": a["resamples"] * len(a["values"])}


def _count_dbscan(fn, args, kwargs, result):
    points = _bound(fn, args, kwargs)["points"]
    m = len(points)
    dims = points.shape[1] if getattr(points, "ndim", 1) == 2 else 1
    # the dense m x m x d deltas, m x m distances and m x m neighbour mask
    return {"segmentation.dbscan_points": m,
            "segmentation.dbscan_pair_bytes": m * m * (8 * dims + 8 + 1)}


def _count_merges(fn, args, kwargs, result):
    return {"segmentation.merges": sum(p.last_page - p.first_page for p in result)}


def _count_bow(fn, args, kwargs, result):
    return {"segmentation.paragraphs_tokenized": len(_bound(fn, args, kwargs)["paragraphs"])}


COUNTERS = {
    "core.load_prob_matrix": _count_cells,
    "core.load_label_matrix": _count_cells,
    "folds.stratified_kfold": _count_folds,
    "calibration.threshold_grid": _count_grid,
    "sampling.bootstrap_std": _count_bootstrap,
    "segmentation.dbscan": _count_dbscan,
    "segmentation.merge_cross_page": _count_merges,
    "segmentation.bow_match": _count_bow,
    "segmentation.parse_ocr_tsv": lambda fn, a, k, r: {"segmentation.tokens": len(r)},
}


class Tracer:
    """Wraps the package's functions and records their spans and counts."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._main = threading.main_thread()
        self._lock = threading.Lock()

    def _note(self, name, fn, args, kwargs, result) -> None:
        counter = COUNTERS.get(name)
        extra = counter(fn, args, kwargs, result) if counter else {}
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            for key, value in extra.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                result = fn(*args, **kwargs)
                tracer._note(name, fn, args, kwargs, result)
                return result
            span = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append([span, parent, name, start, end, tracer.pass_id])
            tracer._note(name, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the targets at every place they are bound."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "labelcal" or n.startswith("labelcal.")) and m is not None]
        targets: dict[int, tuple[str, object]] = {}
        for module in modules:
            if module.__name__ in SKIP_MODULES:
                continue
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and f"{value.__module__}.{attr}" not in SKIP):
                    targets[id(value)] = (f"{_layer(module.__name__)}.{attr}", value)
        for (module_name, path), layer in EXTRA.items():
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            value = getattr(owner, attr, None)
            if isinstance(value, types.FunctionType):
                if outer:  # a method: patch the class itself
                    setattr(owner, attr, self.wrap(f"{layer}.{path}", value))
                else:
                    targets[id(value)] = (f"{layer}.{attr}", value)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    setattr(module, attr, wrappers[id(value)])

    def dump(self, path: str, stage: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass": self.pass_id, "stage": stage, "import_s": import_s,
                       "spans": self.spans, "calls": self.calls, "counts": self.counts}, fh)


# --- reduction (runs in the benchmark process) -----------------------------

# metric -> span names whose outermost inclusive durations it sums
INCLUSIVE = {
    "core.load_matrix_s": ("core.load_prob_matrix", "core.load_label_matrix"),
    "core.format_matrix_s": ("core.format_matrix",),
    "core.load_texts_s": ("core.load_texts",),
    "core.save_texts_s": ("core.save_texts",),
    "core.substring_filter_s": ("core.substring_filter",),
    "folds.stratified_kfold_s": ("folds.stratified_kfold",),
    "calibration.grid_search_s": ("calibration.grid_search_thresholds",),
    "calibration.count_error_table_s": ("calibration.count_error_table",),
    "calibration.tendency_error_table_s": ("calibration.tendency_error_table",),
    "calibration.truncate_s": ("calibration.truncate",),
    "metrics.macro_roc_auc_s": ("metrics.macro_roc_auc",),
    "metrics.label_count_error_rate_s": ("metrics.label_count_error_rate",),
    "metrics.expected_calibration_error_s": ("metrics.expected_calibration_error",),
    "metrics.tendency_series_s": ("metrics.tendency_series_from_matrix",),
    "sampling.importance_weights_s": ("sampling.importance_weights",),
    "sampling.weighted_sample_s": ("sampling.weighted_sample",),
    "sampling.sizing_curve_s": ("sampling.sizing_curve",),
    "relnet.network_s": ("relnet.network_from_annotations", "relnet.network_from_probabilities"),
    "relnet.layout_s": ("relnet.kamada_kawai_layout",),
    "relnet.export_dot_s": ("relnet.export_dot",),
    "pbt.pbt_run_s": ("pbt.pbt_run",),
    "segmentation.parse_ocr_tsv_s": ("segmentation.parse_ocr_tsv",),
    "segmentation.paragraphs_from_tokens_s": ("segmentation.paragraphs_from_tokens",),
    "segmentation.classify_paragraphs_s": ("segmentation.classify_paragraphs",),
    "segmentation.dbscan_s": ("segmentation.dbscan",),
    "segmentation.merge_cross_page_s": ("segmentation.merge_cross_page",),
    "segmentation.bow_match_s": ("segmentation.bow_match",),
}
# metric -> functions whose calls it counts
CALLS = {
    "metrics.tendency_series_calls": ("metrics.tendency_series_from_matrix",),
    "pbt.member_epochs": ("pbt.LinearTrainable.train_one_epoch",),
    "segmentation.bow_match_calls": ("segmentation.bow_match",),
}
COUNTED = ("core.cells_loaded", "folds.candidates", "folds.gather_bytes",
           "calibration.grid_pairs", "sampling.bootstrap_draws",
           "segmentation.tokens", "segmentation.dbscan_points",
           "segmentation.dbscan_pair_bytes", "segmentation.merges",
           "segmentation.paragraphs_tokenized")
LAYERS = ("cli", "core", "folds", "calibration", "metrics", "sampling",
          "relnet", "pbt", "losses", "segmentation")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from one thread and nest strictly, so the children of a
    span never overlap each other.
    """
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _name, start, end, _pass in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def reduce_child(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    spans = record["spans"]
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    for s in spans:
        out[f"{layer_of(s[2])}.self_s"] += own[s[0]]
    for metric, names in INCLUSIVE.items():
        total = 0.0
        for s in spans:
            if s[2] not in names:
                continue
            parent = s[1]
            while parent is not None and by_id[parent][2] not in names:
                parent = by_id[parent][1]
            if parent is None:  # outermost call of this group
                total += s[4] - s[3]
        out[metric] = total
    for metric, names in CALLS.items():
        out[metric] = float(sum(record["calls"].get(n, 0) for n in names))
    for metric in COUNTED:
        out[metric] = float(record["counts"].get(metric, 0))
    out["losses.calls"] = float(layer_calls(record).get("losses", 0))
    out["cli.import_s"] = record["import_s"]
    return out


def layer_calls(record: dict) -> dict[str, int]:
    calls: dict[str, int] = {}
    for name, n in record["calls"].items():
        calls[layer_of(name)] = calls.get(layer_of(name), 0) + n
    return calls
