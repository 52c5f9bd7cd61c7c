"""Grid search over the training positive ratio phi under an error budget.

The search maximizes the validation-time area under the target metric's
decay curve, subject to a target-specific error ceiling:

* target f1        -> error = 1 - accuracy, default ceiling 0.10
* target recall    -> error = false-positive rate, default ceiling 0.05
* target precision -> error = false-negative rate, default ceiling 0.15

The training window is cut in time into a proper-training part and a
validation tail (default: the last third of the training slot grid
``origin + k*slot_width``, each slot downsampled to sigma_hat). phi runs from
sigma_hat to 0.5 in steps of mu: below sigma_hat the positive class would
be under-represented, above 0.5 it would become the majority. Goodware is
downsampled uncertainty-first (scored by a model fit on the full
proper-training pool) so the points that define the boundary survive.
The grid start phi = sigma_hat is the unconditional fallback: a later phi
replaces it only by strictly improving the validation area while meeting
the ceiling, so ties resolve to the smallest phi. No test-period data can
influence the result; tune_phi never sees the test window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .classifiers import Classifier, fit_models, score_rows
from .dataset import EmptySlotError, LabeledDataset, check_fields, rule, slot_edges
from .metrics import aut, error_rate, point_estimates, slot_series
from .rng import derive_seed
from .splits import SplitSpec, enforce_ratio, ratio_rows, two_class_windows

__all__ = [
    "TuningConfig",
    "GridPoint",
    "TuningResult",
    "ValidationWindowError",
    "tune_phi",
    "proper_validation_cut",
]

DEFAULT_E_MAX = {"f1": 0.10, "recall": 0.05, "precision": 0.15}


class ValidationWindowError(ValueError):
    """Training window cannot host a >= 2-slot validation tail."""


@dataclass(frozen=True)
class TuningConfig:
    mu: float = field(default=0.05, metadata=rule(float, gt=0, le=0.5))
    target: str = field(default="f1", metadata=rule(tuple(DEFAULT_E_MAX)))
    # An error rate's ceiling; None takes the target's DEFAULT_E_MAX.
    e_max: float | None = field(default=None, metadata=rule(float, ge=0, le=1, optional=True))
    validation_fraction: float = field(default=1.0 / 3.0, metadata=rule(float, gt=0, lt=1))
    sigma_hat: float = field(default=0.10, metadata=rule(float, gt=0, le=0.5))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.e_max is None:
            object.__setattr__(self, "e_max", DEFAULT_E_MAX[self.target])

    def grid(self) -> tuple[float, ...]:
        """phi values sigma_hat, sigma_hat + mu, ... up to and including 0.5."""
        phis = []
        j = 0
        while True:
            phi = self.sigma_hat + j * self.mu
            if phi > 0.5 + 1e-9:
                break
            phis.append(min(phi, 0.5))
            j += 1
        return tuple(phis)


@dataclass(frozen=True)
class GridPoint:
    phi: float
    aut: float
    error: float
    selected: bool


@dataclass(frozen=True)
class TuningResult:
    phi_star: float
    best_aut: float
    achieved_error: float
    constraint_met: bool
    grid: tuple[GridPoint, ...]
    target: str

    def as_dict(self) -> dict:
        return {
            "phi_star": self.phi_star,
            "best_aut": self.best_aut,
            "achieved_error": self.achieved_error,
            "constraint_met": self.constraint_met,
            "target": self.target,
            "grid": [vars(g) for g in self.grid],
        }


def proper_validation_cut(
    train: LabeledDataset,
    spec: SplitSpec,
    cfg: TuningConfig,
    seed: int,
) -> tuple[LabeledDataset, tuple[LabeledDataset, ...], tuple[date, ...]]:
    """Split a training pool in time into (proper_train, val_slots, starts).

    The validation tail is the last floor(n_slots * validation_fraction)
    slots of the training grid ``slot_edges(origin, slot_width, test_origin)``,
    so it ends at the test origin; each slot is downsampled to sigma_hat so
    the validation mix matches deployment. Proper training is everything in
    the pool before the tail.
    """
    try:
        n_slots = spec.train_window.slots_of(spec.slot_width)
    except ValueError as exc:
        raise ValidationWindowError(str(exc)) from None
    n_val = int(n_slots * cfg.validation_fraction)
    if n_val < 2:
        raise ValidationWindowError(
            f"validation_fraction {cfg.validation_fraction} of {n_slots} slots "
            f"gives {n_val} validation slots; need >= 2"
        )
    edges = slot_edges(spec.origin, spec.slot_width, spec.test_origin)[-(n_val + 1) :]
    first = train.time_range[0]
    if first >= edges[0]:
        raise ValidationWindowError("no samples left before the validation window")
    (proper,) = two_class_windows(train, [first, edges[0]], "proper-training window")
    slots = tuple(
        enforce_ratio(slot, cfg.sigma_hat, seed=derive_seed(seed, "tuning", "val", k, bound=2**63))
        for k, slot in enumerate(two_class_windows(train, edges, "validation slot"))
    )
    return proper, slots, tuple(edges[:-1])


def tune_phi(
    train: LabeledDataset,
    clf: Classifier,
    cfg: TuningConfig,
    spec: SplitSpec,
    seed: int,
) -> TuningResult:
    """Pick the training ratio phi* maximizing validation AUT under e_max.

    Returns the full grid table for audit. When no phi beats the
    sigma_hat start under the error ceiling, phi* stays at sigma_hat;
    ``constraint_met`` records whether the returned point itself satisfies
    the ceiling. Every grid point's training set is a row selection of the
    proper-training pool, and their models are fit in one
    :func:`~driftlab.classifiers.fit_models` call.
    """
    proper, val_slots, starts = proper_validation_cut(train, spec, cfg, seed)
    scorer = clf.fit(proper, derive_seed(seed, "tuning", "scorer"))
    # Each class is scored once, as the same row block enforce_ratio would
    # cut from it, and the confidences serve every grid point.
    confidence = np.empty(len(proper))
    for label in (0, 1):
        rows = proper.labels == label
        confidence[rows] = np.abs(score_rows(scorer, proper.features[rows]) - 0.5)

    grid = cfg.grid()
    kept_rows = []
    for j, phi in enumerate(grid):
        kept = ratio_rows(
            proper.labels,
            phi,
            confidence=confidence,
            seed=derive_seed(seed, "tuning", "downsample", j, bound=2**63),
            ids=proper.ids,
        )
        n_positive = int(np.add.reduce(proper.labels[kept]))
        if n_positive == 0 or n_positive == len(kept):
            raise EmptySlotError(f"proper-training pool single-class at phi={phi}")
        kept_rows.append(kept)
    fit_seeds = [derive_seed(seed, "tuning", "fit", j) for j in range(len(grid))]

    evaluations: list[tuple[float, float, float]] = []
    for phi, model in zip(grid, fit_models(clf, proper, kept_rows, fit_seeds)):
        series = slot_series(model, val_slots, starts)
        area = aut(point_estimates(series, cfg.target))
        evaluations.append((phi, area, error_rate(series.pooled(), cfg.target)))

    # Selection: start pinned at sigma_hat, strict improvement under e_max.
    best_j = 0
    for j in range(1, len(evaluations)):
        _, area, err = evaluations[j]
        if area > evaluations[best_j][1] and err <= cfg.e_max:
            best_j = j
    phi_star, best_area, achieved_err = evaluations[best_j]
    grid = tuple(
        GridPoint(phi, area, err, j == best_j)
        for j, (phi, area, err) in enumerate(evaluations)
    )
    return TuningResult(
        phi_star=phi_star,
        best_aut=best_area,
        achieved_error=achieved_err,
        constraint_met=achieved_err <= cfg.e_max,
        grid=grid,
        target=cfg.target,
    )
