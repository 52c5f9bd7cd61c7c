"""driftlab: time-aware, class-ratio-aware evaluation of binary classifiers.

The library builds evaluations that respect three constraints — training
strictly precedes testing, test slots are temporally homogeneous, and the
test-time class mix matches deployment — then measures robustness to time
decay as the area under the per-slot performance curve (AUT), tunes the
training class ratio under an error budget, and simulates budgeted
strategies (incremental retraining, active learning, rejection) for
delaying decay.
"""

from .classifiers import (
    Classifier,
    KNNClassifier,
    LinearSGDClassifier,
    ModelOutputError,
    TrainedModel,
    predict_dataset,
    score_dataset,
)
from .dataset import (
    DatasetSummary,
    LabeledDataset,
    Period,
    concat,
    load_dataset,
    summarize,
    write_csv,
    write_jsonl,
)
from .delay import (
    DelayPolicy,
    DelayRunResult,
    run_policy,
)
from .metrics import (
    Confusion,
    MetricCurve,
    SlotSeries,
    aut,
    confusion_counts,
    cumulative_estimates,
    error_rate,
    point_estimates,
    prf1,
    slot_series,
)
from .rng import derive_rng, derive_seed
from .splits import (
    RatioSpec,
    SplitSpec,
    TemporalSplit,
    check_c1,
    check_c2,
    check_c3,
    enforce_ratio,
    run_all_checks,
    time_aware_split,
)
from .synthgen import DriftSpec, generate
from .tuning import TuningConfig, TuningResult, tune_phi

__version__ = "0.1.0"

__all__ = [
    "Classifier",
    "KNNClassifier",
    "LinearSGDClassifier",
    "ModelOutputError",
    "TrainedModel",
    "predict_dataset",
    "score_dataset",
    "DatasetSummary",
    "LabeledDataset",
    "Period",
    "concat",
    "load_dataset",
    "summarize",
    "write_csv",
    "write_jsonl",
    "DelayPolicy",
    "DelayRunResult",
    "run_policy",
    "Confusion",
    "MetricCurve",
    "SlotSeries",
    "aut",
    "confusion_counts",
    "cumulative_estimates",
    "error_rate",
    "point_estimates",
    "prf1",
    "slot_series",
    "derive_rng",
    "derive_seed",
    "RatioSpec",
    "SplitSpec",
    "TemporalSplit",
    "check_c1",
    "check_c2",
    "check_c3",
    "enforce_ratio",
    "run_all_checks",
    "time_aware_split",
    "DriftSpec",
    "generate",
    "TuningConfig",
    "TuningResult",
    "tune_phi",
]
