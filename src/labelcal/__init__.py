"""labelcal: evaluation, calibration and planning tools for imbalanced
multilabel/multiclass corpus coding pipelines.

The package covers the non-neural parts of such a pipeline: OCR
paragraph segmentation, stratified fold search, imbalance-robust losses,
a population-based hyperparameter scheduler, probability truncation
calibration, importance sampling, bootstrap sample-size planning,
tendency analysis, and label relation networks.

``import labelcal`` is cheap: every submodule is registered in
``sys.modules`` through ``importlib.util.LazyLoader`` and runs on first
attribute access, so a command compiles only the modules its stage
touches.  The names re-exported here resolve through ``__getattr__``.
Before Python 3.12 a lazy module's first access is not thread-safe; the
package starts no threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "calibration": "Thresholds grid_search_thresholds out_of_fold threshold_at_half truncate",
    "core": "EnsembleSet LabelcalError LabelMatrix ProbMatrix bow_match_many load_label_matrix"
            " load_prob_matrix substring_filter",
    "folds": "FoldAssignment partition_score stratified_kfold stratified_single_label",
    "losses": "LossValue confidence_penalty focal_loss ldam_loss ldam_margins",
    "metrics": "MacroScore balanced_accuracy expected_calibration_error"
               " label_count_error_rate macro_roc_auc roc_auc tendency_error tendency_values",
    "pbt": "LinearTrainable PbtConfig PbtResult ToyDataSpec pbt_run perturb roulette_select"
           " warmup_steps",
    "relnet": "Layout RelationNetwork export_dot kamada_kawai_layout"
              " network_from_annotations network_from_probabilities",
    "sampling": "SizingCurve importance_weights sizing_curve weighted_sample",
    "segmentation": "OcrTokens ParagraphRecord classify_paragraphs dbscan merge_cross_page"
                    " parse_ocr_tsv",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_OWNER])

for _name in ("_util", *_EXPORTS):
    # the lazy-import recipe of the importlib docs
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_OWNER])
