"""Confusion accounting, per-slot estimates, AUT, error rates, k-fold baseline.

Performance over time is represented as a curve of per-slot metric values
and condensed into a single number by the normalized trapezoid area
:func:`aut`: 1.0 means a perfect, decay-free classifier. Point estimates
score each slot from that slot's predictions alone; cumulative estimates
score slot k from all predictions up to and including slot k and exist for
trend-smoothing only (their area is reported as AUT_cml, never plain AUT).

Degenerate-slot conventions are total and conservative: any metric whose
denominator is empty is 0, never 1, so missing data can only deflate a
score. Use :func:`driftlab.dataset.summarize` to find slots that lack a
class before reading zeros as model failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Literal, Sequence

import numpy as np

from .classifiers import Classifier, TrainedModel, fit_models, predict_dataset
from .dataset import LabeledDataset
from .rng import derive_rng, derive_seed

__all__ = [
    "Confusion",
    "SlotSeries",
    "MetricCurve",
    "prf1",
    "metric_value",
    "point_estimates",
    "cumulative_estimates",
    "aut",
    "error_rate",
    "confusion_counts",
    "slot_series",
    "kfold_eval",
    "KFoldResult",
    "StratificationError",
    "stratified_folds",
]

METRIC_NAMES: tuple[str, ...] = ("f1", "precision", "recall")


def _check_metric(metric: str) -> str:
    m = metric.lower()
    if m not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
    return m


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "Confusion":
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        return cls(
            tp=int(np.sum((y_true == 1) & (y_pred == 1))),
            fp=int(np.sum((y_true == 0) & (y_pred == 1))),
            tn=int(np.sum((y_true == 0) & (y_pred == 0))),
            fn=int(np.sum((y_true == 1) & (y_pred == 0))),
        )


def prf1(c: Confusion) -> tuple[float, float, float]:
    """(precision, recall, f1) for the positive class; empty denominators give 0."""
    p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    r = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def metric_value(c: Confusion, metric: str) -> float:
    p, r, f1 = prf1(c)
    return {"precision": p, "recall": r, "f1": f1}[_check_metric(metric)]


def error_rate(c: Confusion, target: str) -> float:
    """Target-specific error: f1 -> 1-accuracy, recall -> FPR, precision -> FNR."""
    target = _check_metric(target)
    if target == "f1":
        return (c.fp + c.fn) / c.total if c.total else 0.0
    if target == "recall":
        return c.fp / (c.tn + c.fp) if c.tn + c.fp else 0.0
    return c.fn / (c.tp + c.fn) if c.tp + c.fn else 0.0


@dataclass(frozen=True)
class SlotSeries:
    """Per-slot confusions in time order; needs >= 2 slots for any area."""

    confusions: tuple[Confusion, ...]
    slot_starts: tuple[date, ...]

    def __post_init__(self) -> None:
        if len(self.confusions) != len(self.slot_starts):
            raise ValueError("confusions and slot_starts lengths disagree")
        if len(self.confusions) < 2:
            raise ValueError("a slot series needs at least 2 slots")
        if any(a >= b for a, b in zip(self.slot_starts, self.slot_starts[1:])):
            raise ValueError("slot_starts must be strictly increasing")

    @property
    def n_slots(self) -> int:
        return len(self.confusions)

    def pooled(self) -> Confusion:
        total = Confusion()
        for c in self.confusions:
            total = total + c
        return total


@dataclass(frozen=True)
class MetricCurve:
    metric: str
    mode: Literal["point", "cumulative"]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", _check_metric(self.metric))
        if self.mode not in ("point", "cumulative"):
            raise ValueError(f"mode must be point|cumulative, got {self.mode!r}")
        if any(not (0.0 <= v <= 1.0) for v in self.values):
            raise ValueError("curve values must lie in [0, 1]")

    @property
    def area_label(self) -> str:
        return "AUT" if self.mode == "point" else "AUT_cml"


def point_estimates(s: SlotSeries, metric: str) -> MetricCurve:
    """Per-slot metric from each slot's own predictions."""
    return MetricCurve(metric, "point", tuple(metric_value(c, metric) for c in s.confusions))


def cumulative_estimates(s: SlotSeries, metric: str) -> MetricCurve:
    """Per-slot metric from all predictions up to and including each slot."""
    values = []
    running = Confusion()
    for c in s.confusions:
        running = running + c
        values.append(metric_value(running, metric))
    return MetricCurve(metric, "cumulative", tuple(values))


def aut(curve: MetricCurve) -> float:
    """Normalized trapezoid area under a per-slot curve, in [0, 1].

    With N slots: sum over k of (f(x_k) + f(x_{k+1}))/2, divided by N-1.
    Report it under ``curve.area_label`` ("AUT_cml" for cumulative curves).
    """
    v = np.asarray(curve.values, dtype=float)
    if len(v) < 2:
        raise ValueError("AUT needs at least 2 slots")
    return float(np.mean((v[1:] + v[:-1]) / 2.0))


def confusion_counts(model: TrainedModel, d: LabeledDataset) -> Confusion:
    return Confusion.from_predictions(d.labels, predict_dataset(model, d))


def slot_series(
    model: TrainedModel, slots: Sequence[LabeledDataset], slot_starts: Sequence[date]
) -> SlotSeries:
    """Score each test slot with a fixed model and collect confusions."""
    return SlotSeries(
        tuple(confusion_counts(model, s) for s in slots),
        tuple(slot_starts),
    )


# ---------------------------------------------------------------------------
# k-fold baseline (deliberately time-blind, for bias demonstrations)
# ---------------------------------------------------------------------------


class StratificationError(ValueError):
    """A class has fewer samples than there are folds."""


@dataclass(frozen=True)
class KFoldResult:
    mean_f1: float
    std_f1: float
    fold_f1: tuple[float, ...] = field(repr=False)


def stratified_folds(
    labels: np.ndarray, k: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) index arrays of k seeded stratified folds.

    Each class is shuffled by ``rng`` (positives first) and dealt
    round-robin, so fold i tests every k-th positive and every k-th
    negative from offset i; both index arrays come back sorted.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) < k or len(neg) < k:
        raise StratificationError(
            f"cannot stratify: {len(pos)} positives / {len(neg)} negatives into {k} folds"
        )
    pos = pos[rng.permutation(len(pos))]
    neg = neg[rng.permutation(len(neg))]
    folds = []
    for i in range(k):
        test_idx = np.concatenate([pos[i::k], neg[i::k]])
        mask = np.ones(len(labels), dtype=bool)
        mask[test_idx] = False
        folds.append((np.flatnonzero(mask), np.sort(test_idx)))
    return folds


def kfold_eval(d: LabeledDataset, clf: Classifier, k: int, seed: int) -> KFoldResult:
    """Seeded stratified k-fold F1, ignoring timestamps.

    This estimator violates the temporal constraints on purpose; it exists
    as the biased baseline that time-aware evaluation is compared against.
    Stratification keeps the class mix even so the comparison isolates
    temporal bias from sampling noise.
    """
    folds = stratified_folds(d.labels, k, derive_rng(seed, "kfold"))
    models = fit_models(
        clf, d, [train_idx for train_idx, _ in folds],
        [derive_seed(seed, "kfold", "fit", i) for i in range(k)],
    )
    scores = [
        prf1(confusion_counts(model, d.subset(test_idx)))[2]
        for model, (_, test_idx) in zip(models, folds)
    ]
    arr = np.array(scores)
    return KFoldResult(float(arr.mean()), float(arr.std()), tuple(scores))
