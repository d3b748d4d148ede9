"""labelcal: evaluation, calibration and planning tools for imbalanced
multilabel/multiclass corpus coding pipelines.

The package covers the non-neural parts of such a pipeline: OCR
paragraph segmentation, stratified fold search, imbalance-robust losses,
a population-based hyperparameter scheduler, probability truncation
calibration, importance sampling, bootstrap sample-size planning,
tendency analysis, and label relation networks.
"""

__version__ = "0.1.0"

from .calibration import (
    Thresholds,
    grid_search_thresholds,
    out_of_fold,
    threshold_at_half,
    truncate,
)
from .core import (
    EnsembleSet,
    LabelcalError,
    LabelMatrix,
    ProbMatrix,
    concat_labels,
    ensemble_average,
    load_label_matrix,
    load_prob_matrix,
    save_label_matrix,
    save_prob_matrix,
    substring_filter,
)
from .folds import (
    FoldAssignment,
    partition_score,
    stratified_kfold,
    stratified_single_label,
)
from .losses import (
    LossValue,
    confidence_penalty,
    focal_loss,
    ldam_loss,
    ldam_margins,
)
from .metrics import (
    MacroScore,
    TendencySeries,
    balanced_accuracy,
    expected_calibration_error,
    label_count_error_rate,
    macro_roc_auc,
    roc_auc,
    tendency_error,
    tendency_values,
)
from .pbt import (
    Member,
    PbtConfig,
    PbtResult,
    ToyDataSpec,
    pbt_run,
    perturb,
    roulette_select,
    toy_trainable,
    warmup_steps,
)
from .relnet import (
    Layout,
    RelationNetwork,
    export_dot,
    kamada_kawai_layout,
    network_from_annotations,
    network_from_probabilities,
)
from .sampling import (
    SizingCurve,
    bootstrap_std,
    importance_weights,
    sizing_curve,
    weighted_sample,
)
from .segmentation import (
    OcrToken,
    OcrTokens,
    ParagraphRecord,
    bow_match,
    bow_match_many,
    classify_paragraphs,
    dbscan,
    merge_cross_page,
    parse_ocr_tsv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
