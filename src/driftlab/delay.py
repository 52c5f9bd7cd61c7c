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
  validation cut exposes (with no mistake, the run warns and quarantines
  nothing); rejection never alters the model or a score.

Labels are revealed only after a slot has been scored, so the next
retraining still satisfies the training-precedes-testing constraint C1,
which every fit checks. The ground truth plays the human analyst.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from typing import NamedTuple

import numpy as np

from .classifiers import Classifier, TrainedModel, predicted_labels, score_dataset
from .dataset import ConstraintViolationError, LabeledDataset, check_fields, concat, rule
from .metrics import (
    Confusion,
    SlotSeries,
    aut,
    point_estimates,
)
from .rng import derive_seed
from .splits import (
    TemporalSplit,
    enforce_ratio,
    least_confident_first,
    require_c1,
)
from .tuning import TuningConfig, proper_validation_cut, tune_phi

__all__ = [
    "DelayPolicy",
    "DelayRunResult",
    "initial_scores",
    "run_policy",
]

POLICY_KINDS = ("none", "incremental", "active_learning", "rejection")


@dataclass(frozen=True)
class DelayPolicy:
    """How a deployed model is kept current across the test slots."""

    kind: str = field(default="none", metadata=rule(POLICY_KINDS))
    al_budget: float | None = field(default=None, metadata=rule(float, gt=0, le=1, optional=True))
    retune_each_step: bool = field(default=False, metadata=rule(bool))
    refresh_threshold: bool = field(default=False, metadata=rule(bool))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "active_learning" and self.al_budget is None:
            raise ValueError("active_learning needs an al_budget, and it is missing or null")
        if self.kind != "active_learning" and self.al_budget is not None:
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


class DelayRunResult(NamedTuple):
    policy: DelayPolicy
    series: SlotSeries
    per_slot_labeled: tuple[int, ...]
    per_slot_rejected: tuple[int, ...]
    tuned_phis: tuple[float, ...] = ()
    threshold: float | None = None
    warnings: tuple[str, ...] = ()

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


def _mistake_q3(wrong: np.ndarray) -> float | None:
    """Q3 (linear interpolation) of the mistakes' predicted-class probabilities,
    or None when there is no mistake to take it from.

    The same bits as ``np.quantile(wrong, 0.75, method="linear")``, whose
    ``np.unique`` call would import numpy.ma into every rejection run: the
    two order statistics around the virtual index, then numpy's ``_lerp``.
    """
    n = len(wrong)
    if n == 0:
        return None
    at = (n - 1) * 0.75
    lo = int(at)
    hi = min(lo + 1, n - 1)
    t = at - lo
    part = np.partition(wrong, (lo, hi))
    a, b = float(part[lo]), float(part[hi])
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _al_count(budget: float, slot_size: int) -> int:
    # ceil of the exact decimal product, in integers: repr(budget) reads
    # digits * 10**-scale (scale >= 0 for a budget <= 1). Float multiplication
    # would turn 0.07 * 100 into 7.000000000000001 and over-charge the budget.
    mantissa, _, exponent = repr(float(budget)).partition("e")
    whole, _, frac = mantissa.partition(".")
    scale = len(frac) - int(exponent or 0)
    return -(-int(whole + frac) * slot_size // 10**scale)


def _fit(clf: Classifier, train: LabeledDataset, first_day: date, seed: int, *key) -> TrainedModel:
    """``clf`` fit on ``train`` with ``derive_seed(seed, "delay", *key)``, once C1 holds:
    every training sample must predate ``first_day``, the first day the model scores."""
    require_c1(train, first_day)
    return clf.fit(train, derive_seed(seed, "delay", *key))


def initial_scores(split: TemporalSplit, clf: Classifier, seed: int) -> tuple[np.ndarray, ...]:
    """Model 0's scores of every test slot, in slot order, once the split passes its audit.

    This is the delay loop's one gate: a failed C1-C3 verdict of the split
    raises :class:`ConstraintViolationError` before any model is fit. Model 0
    scores slot 0 under every policy for this seed, and every slot under
    ``none`` and ``rejection``; it is fit once here.
    """
    failed = sorted(k for k, v in split.verdicts.items() if not v.passed)
    if failed:
        raise ConstraintViolationError(f"seed {seed}: realistic split violates {failed}")
    model0 = _fit(clf, split.train, split.slot_starts[0], seed, "fit", 0)
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
    :func:`initial_scores` for the same (split, clf, seed), which also audits
    the split; a caller running several policies computes them once and
    passes them to each run, and when they are omitted they are computed
    here first. Until a policy retrains, slot i reads ``scores0[i]``; each
    retrained model scores its one slot once. With ``retune_each_step``
    (incremental only), the training ratio is re-derived on the grown pool
    before every retraining.
    """
    if scores0 is None:
        scores0 = initial_scores(split, clf, seed)
    if cfg is None:
        cfg = TuningConfig(sigma_hat=split.ratios.sigma_hat)

    d, slots, starts = split.d, split.test_slots, split.slot_starts
    n = len(slots)
    run_warnings: list[str] = []

    threshold: float | None = None
    if policy.kind == "rejection":
        proper, val_slots, val_starts = proper_validation_cut(split.train, split.spec, cfg, seed)
        thresh_model = _fit(clf, proper, val_starts[0], seed, "reject_fit")
        val_pool = concat(val_slots)
        s = score_dataset(thresh_model, val_pool)
        val_wrong = np.maximum(s, 1.0 - s)[predicted_labels(s) != val_pool.labels]
        threshold = _mistake_q3(val_wrong)
        wrong_probs_pool = val_wrong.tolist()
        if threshold is None:
            run_warnings.append("no validation misclassifications; rejection disabled")

    pool = split.train_rows
    model: TrainedModel | None = None  # the latest retrain

    confusions: list[Confusion] = []
    per_slot_labeled = [0] * n
    per_slot_rejected = [0] * n
    tuned_phis: list[float] = []

    for i, slot in enumerate(slots):
        scores = scores0[i] if model is None else score_dataset(model, slot)
        pred = predicted_labels(scores)
        if policy.kind == "rejection" and threshold is not None:
            probs = np.maximum(scores, 1.0 - scores)
            kept = probs > threshold
            per_slot_rejected[i] = int((~kept).sum())
            confusions.append(Confusion.from_predictions(slot.labels[kept], pred[kept]))
            if policy.refresh_threshold:
                # Quarantined objects get inspected (that is what Q pays
                # for), so their outcomes may refresh the quantile.
                wrong_probs_pool += probs[(~kept) & (pred != slot.labels)].tolist()
                threshold = _mistake_q3(np.array(wrong_probs_pool))
        else:
            confusions.append(Confusion.from_predictions(slot.labels, pred))

        if policy.kind == "incremental":
            per_slot_labeled[i] = len(slot)
            pool = np.concatenate([pool, split.slot_rows[i]])
        elif policy.kind == "active_learning":
            count = _al_count(policy.al_budget, len(slot))
            per_slot_labeled[i] = count
            picks = split.slot_rows[i][_most_uncertain(scores, slot.ids, count)]
            pool = np.concatenate([pool, picks])

        retrains = policy.kind in ("incremental", "active_learning")
        if retrains and i < n - 1:
            fit_rows = pool
            if policy.retune_each_step:
                # The pool now reaches i + 1 slots past the original training window.
                width = split.spec.slot_width
                grown = width.scaled(split.spec.train_window.slots_of(width) + i + 1)
                spec_i = replace(split.spec, train_window=grown)
                result = tune_phi(d.subset(pool), clf, cfg, spec_i,
                                  derive_seed(seed, "delay", "retune", i))
                tuned_phis.append(result.phi_star)
                seed_i = derive_seed(seed, "delay", "retune_ratio", i, bound=2**63)
                fit_rows = enforce_ratio(d, result.phi_star, pool, seed=seed_i)
            model = _fit(clf, d.subset(fit_rows), starts[i + 1], seed, "fit", i + 1)

    return DelayRunResult(
        policy=policy,
        series=SlotSeries(tuple(confusions), starts),
        per_slot_labeled=tuple(per_slot_labeled),
        per_slot_rejected=tuple(per_slot_rejected),
        tuned_phis=tuple(tuned_phis),
        threshold=threshold,
        warnings=tuple(run_warnings),
    )
