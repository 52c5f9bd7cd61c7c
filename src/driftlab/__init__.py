"""driftlab: time-aware, class-ratio-aware evaluation of binary classifiers.

The library builds evaluations that respect three constraints — training
strictly precedes testing, test slots are temporally homogeneous, and the
test-time class mix matches deployment — then measures robustness to time
decay as the area under the per-slot performance curve (AUT), tunes the
training class ratio under an error budget, and simulates budgeted
strategies (incremental retraining, active learning, rejection) for
delaying decay.

A public name loads its module on first use (PEP 562): ``import driftlab`` loads none.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "classifiers": "Classifier KNNClassifier LinearSGDClassifier ModelOutputError TrainedModel "
                   "predict_dataset score_dataset",
    "dataset": "DatasetSummary LabeledDataset Period concat load_dataset summarize write_csv "
               "write_jsonl",
    "delay": "DelayPolicy DelayRunResult run_policy",
    "metrics": "Confusion MetricCurve SlotSeries aut confusion_counts cumulative_estimates "
               "error_rate point_estimates prf1 slot_series",
    "rng": "derive_rng derive_seed",
    "splits": "RatioSpec SplitSpec TemporalSplit check_c1 check_c2 check_c3 enforce_ratio "
              "run_all_checks time_aware_split",
    "synthgen": "DriftSpec generate",
    "tuning": "TuningConfig TuningResult tune_phi",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        # Not a public name; ``from driftlab import cli`` then imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
