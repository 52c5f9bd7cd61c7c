"""Strategies that trade labeling/quarantine budget against time decay.

Four policies over a constraint-respecting split:

* ``none``           — train once, score every slot; zero cost.
* ``incremental``    — after scoring slot i, all of slot i is labeled and
  joins the training pool for the model that scores slot i+1 (the upper
  bound: L counts every test object).
* ``active_learning``— after scoring slot i, the ceil(budget * |slot|)
  most-uncertain objects are labeled and join the pool; L is therefore
  known before the run starts.
* ``rejection``      — one model, but predictions whose predicted-class
  probability falls at or below a threshold are quarantined: excluded
  from the confusions, counted in Q. The threshold is the third quartile
  of the predicted-class probabilities of the mistakes a held-out-time
  validation cut exposes; rejection never alters the model or a score.

Labels are revealed only after a slot has been scored, so the next
retraining still satisfies the training-precedes-testing constraint. The
ground truth plays the human analyst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .classifiers import Classifier, TrainedModel, score_dataset
from .dataset import check_fields, concat, rule
from .metrics import (
    Confusion,
    SlotSeries,
    aut,
    point_estimates,
)
from .rng import derive_seed
from .splits import TemporalSplit, enforce_ratio, least_confident_first, run_all_checks
from .tuning import TuningConfig, proper_validation_cut, tune_phi

__all__ = [
    "DelayPolicy",
    "DelayRunResult",
    "NoMisclassificationError",
    "ConstraintViolationError",
    "initial_scores",
    "run_policy",
]

POLICY_KINDS = ("none", "incremental", "active_learning", "rejection")


class NoMisclassificationError(ValueError):
    """Validation produced zero mistakes; rejection threshold undefined."""


class ConstraintViolationError(ValueError):
    """A split that must satisfy C1/C2/C3 fails one of them."""


@dataclass(frozen=True)
class DelayPolicy:
    kind: str = field(default="none", metadata=rule(POLICY_KINDS))
    al_budget: float | None = field(default=None, metadata=rule(float, gt=0, le=1, optional=True))
    retune_each_step: bool = field(default=False, metadata=rule(bool))
    refresh_threshold: bool = field(default=False, metadata=rule(bool))

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.kind == "active_learning") != (self.al_budget is not None):
            raise ValueError("al_budget is set for active_learning and for no other kind")
        if self.refresh_threshold and self.kind != "rejection":
            raise ValueError("refresh_threshold only applies to rejection")
        # none and rejection never retrain, and under active learning the
        # grown pool's months past the origin hold only the most uncertain
        # picks, no deployment mix to cut a validation tail from.
        if self.retune_each_step and self.kind != "incremental":
            raise ValueError("retune_each_step only applies to incremental")

    @property
    def label(self) -> str:
        if self.kind == "active_learning":
            return f"active_learning:{self.al_budget}"
        return self.kind


@dataclass(frozen=True)
class DelayRunResult:
    policy: DelayPolicy
    series: SlotSeries
    per_slot_labeled: tuple[int, ...]
    per_slot_rejected: tuple[int, ...]
    tuned_phis: tuple[float, ...] = ()
    threshold: float | None = None
    warnings: tuple[str, ...] = field(default=())

    @property
    def labeled(self) -> int:
        return sum(self.per_slot_labeled)

    @property
    def quarantined(self) -> int:
        return sum(self.per_slot_rejected)

    @property
    def aut_f1(self) -> float:
        return aut(point_estimates(self.series, "f1"))


def _most_uncertain(scores: np.ndarray, ids: tuple[str, ...], budget_count: int) -> list[int]:
    """Positions of the budget_count rows whose ``scores`` lie nearest 0.5.

    Uncertainty is 1 minus the predicted-class probability, i.e. largest
    first means smallest |score - 0.5| first; exact ties fall back to
    ascending id. Returned most-uncertain first.
    """
    if budget_count > len(ids):
        raise ValueError(f"budget {budget_count} exceeds slot size {len(ids)}")
    return least_confident_first(np.abs(scores - 0.5), ids)[:budget_count]


def _predicted_class_probs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted-class probability and predicted label of each score."""
    pred = (s >= 0.5).astype(np.int64)
    return np.maximum(s, 1.0 - s), pred


def _mistake_q3(wrong: np.ndarray) -> float:
    """Q3 (linear interpolation) of the mistakes' predicted-class probabilities."""
    if len(wrong) == 0:
        raise NoMisclassificationError(
            "no misclassified validation sample; rejection threshold undefined"
        )
    return float(np.quantile(wrong, 0.75, method="linear"))


def _al_count(budget: float, slot_size: int) -> int:
    # ceil of the exact decimal product; float multiplication would turn
    # 0.1 * 30 into 3.0000000000000004 and over-charge the budget.
    return math.ceil(Fraction(str(budget)) * slot_size)


def initial_scores(split: TemporalSplit, clf: Classifier, seed: int) -> tuple[np.ndarray, ...]:
    """Model 0's scores of every test slot, in slot order.

    Model 0 scores slot 0 under every policy for this seed, and every slot
    under ``none`` and ``rejection``; it is fit once here.
    """
    model0 = clf.fit(split.train, derive_seed(seed, "delay", "fit", 0))
    return tuple(score_dataset(model0, slot) for slot in split.test_slots)


def run_policy(
    split: TemporalSplit,
    clf: Classifier,
    policy: DelayPolicy,
    cfg: TuningConfig | None = None,
    seed: int = 0,
    scores0: tuple[np.ndarray, ...] | None = None,
) -> DelayRunResult:
    """Simulate a delay strategy over the split's test slots, in time order.

    The model that scores slot 0 is identical across policies for the same
    seed, so rejection's kept-set metrics are directly comparable with the
    ``none`` baseline. Its slot scores are ``scores0``, the result of
    :func:`initial_scores` for the same (split, clf, seed); a caller running
    several policies computes them once and passes them to each run. Until a
    policy retrains, slot i reads ``scores0[i]``; when they are omitted,
    model 0 is fit here and scores each slot it serves as the loop reaches
    it. Each retrained model scores its one slot once. With
    ``retune_each_step`` (incremental only), the training ratio is
    re-derived on the grown pool before every retraining.
    """
    verdicts = run_all_checks(split)
    failed = [k for k, v in verdicts.items() if not v.passed]
    if failed:
        raise ConstraintViolationError(f"split violates {failed}")
    if cfg is None:
        cfg = TuningConfig(sigma_hat=split.ratios.sigma_hat)

    slots = split.test_slots
    n = len(slots)
    run_warnings: list[str] = []

    threshold: float | None = None
    wrong_probs_pool: list[float] = []
    if policy.kind == "rejection":
        proper, val_slots, _ = proper_validation_cut(split.train, split.spec, cfg, seed)
        thresh_model = clf.fit(proper, derive_seed(seed, "delay", "reject_fit"))
        val_pool = concat(val_slots)
        val_probs, val_pred = _predicted_class_probs(score_dataset(thresh_model, val_pool))
        val_wrong = val_probs[val_pred != val_pool.labels]
        try:
            threshold = _mistake_q3(val_wrong)
            wrong_probs_pool = [float(v) for v in val_wrong]
        except NoMisclassificationError:
            run_warnings.append("no validation misclassifications; rejection disabled")

    pool = split.train
    model: TrainedModel | None = None
    if scores0 is None:
        model = clf.fit(split.train, derive_seed(seed, "delay", "fit", 0))

    confusions: list[Confusion] = []
    per_slot_labeled = [0] * n
    per_slot_rejected = [0] * n
    tuned_phis: list[float] = []

    for i, slot in enumerate(slots):
        scores = scores0[i] if model is None else score_dataset(model, slot)
        probs, pred = _predicted_class_probs(scores)
        if policy.kind == "rejection" and threshold is not None:
            kept = probs > threshold
            per_slot_rejected[i] = int((~kept).sum())
            confusions.append(Confusion.from_predictions(slot.labels[kept], pred[kept]))
            if policy.refresh_threshold:
                # Quarantined objects get inspected (that is what Q pays
                # for), so their outcomes may refresh the quantile.
                newly_wrong = probs[(~kept) & (pred != slot.labels)]
                wrong_probs_pool.extend(float(v) for v in newly_wrong)
                threshold = _mistake_q3(np.array(wrong_probs_pool))
        else:
            confusions.append(Confusion.from_predictions(slot.labels, pred))

        if policy.kind == "incremental":
            per_slot_labeled[i] = len(slot)
            pool = concat([pool, slot])
        elif policy.kind == "active_learning":
            count = _al_count(policy.al_budget, len(slot))
            per_slot_labeled[i] = count
            if count:
                pool = concat([pool, slot.subset(_most_uncertain(scores, slot.ids, count))])

        retrains = policy.kind in ("incremental", "active_learning")
        if retrains and i < n - 1:
            fit_pool = pool
            if policy.retune_each_step:
                # The pool now reaches i + 1 slots past the original training window.
                width = split.spec.slot_width
                grown = width.scaled(split.spec.train_window.slots_of(width) + i + 1)
                spec_i = replace(split.spec, train_window=grown)
                result = tune_phi(pool, clf, cfg, spec_i, derive_seed(seed, "delay", "retune", i))
                tuned_phis.append(result.phi_star)
                fit_pool = enforce_ratio(
                    pool,
                    result.phi_star,
                    seed=derive_seed(seed, "delay", "retune_ratio", i, bound=2**63),
                )
            model = clf.fit(fit_pool, derive_seed(seed, "delay", "fit", i + 1))

    return DelayRunResult(
        policy=policy,
        series=SlotSeries(tuple(confusions), split.slot_starts),
        per_slot_labeled=tuple(per_slot_labeled),
        per_slot_rejected=tuple(per_slot_rejected),
        tuned_phis=tuple(tuned_phis),
        threshold=threshold,
        warnings=tuple(run_warnings),
    )
