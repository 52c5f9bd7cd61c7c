import calendar
from datetime import date, timedelta

import numpy as np
import pytest

from driftlab.dataset import LabeledDataset, add_months
from driftlab.splits import enforce_ratio


def blob_dataset(
    n_neg: int,
    n_pos: int,
    seed: int = 0,
    neg_center=(0.0, 0.0),
    pos_center=(3.0, 3.0),
    spread: float = 0.5,
    start: date = date(2014, 1, 1),
    span_days: int = 30,
) -> LabeledDataset:
    """Two Gaussian blobs with timestamps spread uniformly over span_days."""
    rng = np.random.default_rng(seed)
    Xn = rng.normal(neg_center, spread, size=(n_neg, 2))
    Xp = rng.normal(pos_center, spread, size=(n_pos, 2))
    X = np.vstack([Xn, Xp])
    y = np.array([0] * n_neg + [1] * n_pos)
    days = rng.integers(0, span_days, size=len(y))
    ids = [f"s{i:05d}" for i in range(len(y))]
    stamps = [start + timedelta(days=int(d)) for d in days]
    return LabeledDataset(ids, stamps, y, X)


def monthly_dataset(
    months: int,
    n_neg: int,
    n_pos: int,
    seed: int = 0,
    start: date = date(2014, 1, 1),
    pos_center=(3.0, 0.0),
    drift_per_month: float = 0.0,
    spread: float = 0.5,
) -> LabeledDataset:
    """Fixed per-month class counts; positive center drifts along -x."""
    rng = np.random.default_rng(seed)
    ids, stamps, labels, feats = [], [], [], []
    for m in range(months):
        month_start = add_months(start, m)
        n_days = calendar.monthrange(month_start.year, month_start.month)[1]
        center = (pos_center[0] - drift_per_month * m, pos_center[1])
        for i in range(n_neg):
            ids.append(f"m{m:02d}n{i:04d}")
            stamps.append(month_start + timedelta(days=int(rng.integers(0, n_days))))
            labels.append(0)
            feats.append(rng.normal((0.0, 0.0), spread, size=2))
        for i in range(n_pos):
            ids.append(f"m{m:02d}p{i:04d}")
            stamps.append(month_start + timedelta(days=int(rng.integers(0, n_days))))
            labels.append(1)
            feats.append(rng.normal(center, spread, size=2))
    return LabeledDataset(ids, stamps, labels, np.array(feats))


def downsampled(pools, ratios):
    """A pool builder's ``(train, test_sides)``: training downsampled to phi, each test side
    to delta, each with its own seed."""
    (train, train_seed), tests = pools
    return (
        enforce_ratio(train, ratios.phi, seed=train_seed),
        tuple(enforce_ratio(pool, ratios.delta, seed=s) for pool, s in tests),
    )


@pytest.fixture
def small_blobs() -> LabeledDataset:
    return blob_dataset(90, 30, seed=3)
