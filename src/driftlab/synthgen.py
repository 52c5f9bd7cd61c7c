"""Seeded generator of timestamped two-class datasets with controllable drift.

Two decay mechanisms are modelled, matching how evasive classes behave:

* the main positive cluster sits at radius 3 * spread from the negative
  cluster and its center moves ``drift_velocity`` length units per month
  *along* that circle (in the first two feature dimensions). Separation
  from the negative class stays constant, so a freshly retrained model
  always works, but a stale decision boundary points at where the
  positives used to be and erodes month by month;
* each month a fraction ``family_churn`` of that month's positives is
  drawn from a freshly spawned sub-cluster at a random direction (same
  radius), so classifiers that memorize known regions miss the new ones.

Everything is driven by :mod:`driftlab.rng` streams, so a (spec, seed)
pair is a complete description of the dataset — exports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .dataset import LabeledDataset, _month_days, add_months, check_fields, rule
from .rng import derive_rng

__all__ = ["DriftSpec", "generate"]


@dataclass(frozen=True)
class DriftSpec:
    # Each integer's cap bounds a stream's size; the real bounds keep every
    # feature, and the drift angle drift_velocity * month / (3 * spread), finite.
    months: int = field(metadata=rule(int, gt=0, le=1_200))
    samples_per_month: int = field(metadata=rule(int, ge=2, le=100_000))
    dim: int = field(default=2, metadata=rule(int, gt=0, le=1_000))
    positive_ratio: float = field(default=0.10, metadata=rule(float, gt=0, lt=1))
    ratio_jitter: float = field(default=0.02, metadata=rule(float, ge=0, le=1))
    drift_velocity: float = field(default=0.0, metadata=rule(float, ge=0, le=1_000_000))
    spread: float = field(default=1.0, metadata=rule(float, ge=1e-6, le=1_000_000))
    family_churn: float = field(default=0.0, metadata=rule(float, ge=0, le=1))
    start: date = field(default=date(2014, 1, 1), metadata=rule(date))

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.family_churn > 0 or self.drift_velocity > 0) and self.dim < 2:
            raise ValueError("drift and family_churn need dim >= 2 to place directions")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate(spec: DriftSpec, seed: int) -> LabeledDataset:
    """Materialize the dataset described by ``spec`` under ``seed``.

    Both classes are present every month (positive counts are clamped to
    [1, n-1]); realized per-month positive counts are the rounding of the
    jittered per-month target; timestamps are uniform within each month.
    """
    radius = 3.0 * spec.spread

    ids: list[str] = []
    stamps, labels, rows = [], [], []
    for m in range(spec.months):
        rng = derive_rng(seed, "synthgen", "month", m)
        month_start = add_months(spec.start, m)
        n_days = _month_days(month_start.year, month_start.month)
        n = spec.samples_per_month
        ratio_m = spec.positive_ratio + rng.uniform(-spec.ratio_jitter, spec.ratio_jitter)
        n_pos = int(np.clip(np.rint(n * ratio_m), 1, n - 1))
        n_neg = n - n_pos

        feats = np.empty((n, spec.dim))
        feats[:n_neg] = rng.normal(0.0, spec.spread, size=(n_neg, spec.dim))
        # Arc displacement of drift_velocity per month at constant radius.
        angle = spec.drift_velocity * m / radius
        center = np.zeros(spec.dim)
        center[0] = radius * np.cos(angle)
        if spec.dim >= 2:
            center[1] = radius * np.sin(angle)
        n_new = int(np.rint(spec.family_churn * n_pos))
        n_main = n_pos - n_new
        feats[n_neg : n_neg + n_main] = rng.normal(center, spec.spread, size=(n_main, spec.dim))
        if n_new:
            family_center = _unit(rng.normal(size=spec.dim)) * radius
            feats[n_neg + n_main :] = rng.normal(
                family_center, spec.spread, size=(n_new, spec.dim)
            )

        month_labels = np.repeat([0, 1], [n_neg, n_pos])
        days = rng.integers(0, n_days, size=n)
        order = rng.permutation(n)
        ids += [f"m{m:03d}-{rank:05d}" for rank in range(n)]
        stamps.append(np.datetime64(month_start, "D") + days[order])
        labels.append(month_labels[order])
        rows.append(feats[order])
    return LabeledDataset(ids, np.concatenate(stamps), np.concatenate(labels), np.vstack(rows))
