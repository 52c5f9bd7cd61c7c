"""Train/test partitions that respect the three realistic-evaluation constraints.

The constraints, checked by the validators below and enforced by
:func:`time_aware_split`:

* C1 — every training timestamp strictly precedes every testing timestamp;
* C2 — each test slot k only contains samples dated inside its half-open
  window ``[edges[k], edges[k+1])`` on the grid ``test_origin + k*slot_width``
  (:meth:`SplitSpec.test_edges`);
* C3 — each test slot's positive ratio stays inside a tolerance band
  around the estimated deployment ratio sigma_hat (default 0.10 +/- 0.02).

Ratios are reached by downsampling the class that is over-represented
relative to the target; the under-represented class is never touched and
nothing is ever synthesized. All randomness is seeded through
:mod:`driftlab.rng`, so identical inputs reproduce identical splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import date
from typing import Sequence

import numpy as np

from .dataset import (
    EmptySlotError,
    LabeledDataset,
    Period,
    add_period,
    check_fields,
    concat,
    iso_dates,
    rule,
    slot_edges,
)
from .rng import derive_rng, derive_seed

__all__ = [
    "SplitSpec",
    "RatioSpec",
    "TemporalSplit",
    "ConstraintVerdict",
    "InsufficientSpanError",
    "EmptySlotError",
    "UpsamplingRequiredError",
    "Side",
    "Pools",
    "two_class_windows",
    "time_aware_pools",
    "past_testing_pools",
    "disjoint_class_pools",
    "time_aware_split",
    "enforce_ratio",
    "ratio_rows",
    "least_confident_first",
    "check_c1",
    "check_c2",
    "check_c3",
    "run_all_checks",
    "split_to_manifest",
    "split_from_manifest",
]


class InsufficientSpanError(ValueError):
    """Dataset does not cover origin + train_window + test_window."""


class UpsamplingRequiredError(ValueError):
    """Requested ratio is unreachable by downsampling alone."""


@dataclass(frozen=True)
class SplitSpec:
    """Window geometry: train width W, test width S, slot width delta, origin."""

    train_window: Period
    test_window: Period
    slot_width: Period
    origin: date

    def __post_init__(self) -> None:
        if self.n_test_slots < 2:
            raise ValueError("test window must contain at least 2 slots (AUT needs >= 2)")

    @property
    def n_test_slots(self) -> int:
        return self.test_window.slots_of(self.slot_width)

    @property
    def test_origin(self) -> date:
        return add_period(self.origin, self.train_window)

    @property
    def test_end(self) -> date:
        return add_period(self.test_origin, self.test_window)

    def test_edges(self) -> list[date]:
        """The test slots' edges: slot k is ``[edges[k], edges[k+1])``."""
        return slot_edges(self.test_origin, self.slot_width, self.test_end)

    def as_dict(self) -> dict:
        """The JSON form shared by configs, their echo and split manifests."""
        return {
            "origin": self.origin.isoformat(),
            "train_window": str(self.train_window),
            "test_window": str(self.test_window),
            "slot_width": str(self.slot_width),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "SplitSpec":
        """Inverse of :meth:`as_dict`; every key is required and no other is allowed."""
        unknown = set(blob) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return cls(
            train_window=Period.parse(blob["train_window"]),
            test_window=Period.parse(blob["test_window"]),
            slot_width=Period.parse(blob["slot_width"]),
            origin=date.fromisoformat(blob["origin"]),
        )


@dataclass(frozen=True)
class RatioSpec:
    """Class-ratio targets: estimated in-the-wild positive rate sigma_hat,
    training ratio phi, testing ratio delta, and the per-slot C3 band."""

    sigma_hat: float = field(default=0.10, metadata=rule(float, gt=0, lt=1))
    phi: float = field(default=0.10, metadata=rule(float, gt=0, lt=1))
    delta: float = field(default=0.10, metadata=rule(float, gt=0, lt=1))
    per_slot_tolerance: float = field(default=0.02, metadata=rule(float, ge=0, le=1))

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def band(self) -> tuple[float, float]:
        # Rounded to 12 decimals so e.g. 0.10 +/- 0.02 gives the decimal
        # band [0.08, 0.12] with inclusive edges, not 0.12000000000000001.
        return (
            round(self.sigma_hat - self.per_slot_tolerance, 12),
            round(self.sigma_hat + self.per_slot_tolerance, 12),
        )


@dataclass(frozen=True)
class TemporalSplit:
    train: LabeledDataset
    test_slots: tuple[LabeledDataset, ...]
    spec: SplitSpec
    ratios: RatioSpec

    def __post_init__(self) -> None:
        if len(self.test_slots) != self.spec.n_test_slots:
            raise ValueError(
                f"expected {self.spec.n_test_slots} test slots, got {len(self.test_slots)}"
            )

    @property
    def slot_starts(self) -> tuple[date, ...]:
        return tuple(self.spec.test_edges()[:-1])


# ---------------------------------------------------------------------------
# Ratio enforcement by downsampling
# ---------------------------------------------------------------------------


def _round_half_even(x: float) -> int:
    return int(np.rint(x))


def least_confident_first(confidence: np.ndarray, ids: Sequence[str]) -> list[int]:
    """Row positions by ascending ``(confidence[i], ids[i])``: least confident first."""
    return sorted(range(len(ids)), key=lambda i: (confidence[i], ids[i]))


def ratio_rows(
    labels: np.ndarray,
    target: float,
    confidence: np.ndarray | None = None,
    seed: int = 0,
    ids: Sequence[str] | None = None,
) -> np.ndarray:
    """Ascending positions of the rows :func:`enforce_ratio` keeps of a pool with ``labels``.

    ``confidence`` also needs the pool's ``ids``, which break ties between
    equal confidences. All positions come back when nothing is cut.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target ratio must lie in (0, 1), got {target}")
    n = len(labels)
    if confidence is not None and (np.shape(confidence) != (n,) or ids is None or len(ids) != n):
        raise ValueError("confidence needs one scorer confidence and one id per row")

    n_pos = int(np.add.reduce(labels))
    n_neg = n - n_pos
    everything = np.arange(n)
    # Over-represented class relative to target, by cross-multiplication
    # (avoids dividing and float ratio round-off).
    pos_excess = n_pos * (1.0 - target) - n_neg * target
    if pos_excess > 0:
        if n_neg == 0:
            raise UpsamplingRequiredError("no negatives: target unreachable by downsampling")
        cut_label, keep_count = 1, _round_half_even(n_neg * target / (1.0 - target))
    elif pos_excess < 0:
        if n_pos == 0:
            raise UpsamplingRequiredError("no positives: target unreachable by downsampling")
        cut_label, keep_count = 0, _round_half_even(n_pos * (1.0 - target) / target)
    else:
        return everything

    cut_idx = np.flatnonzero(labels == cut_label)
    if keep_count >= len(cut_idx):
        return everything
    if confidence is None:
        rng = derive_rng(seed, "enforce_ratio")
        kept = rng.choice(cut_idx, size=keep_count, replace=False)
    else:
        order = least_confident_first(confidence[cut_idx], [ids[i] for i in cut_idx])
        kept = cut_idx[order[:keep_count]]
    keep_mask = labels != cut_label
    keep_mask[kept] = True
    return np.flatnonzero(keep_mask)


def enforce_ratio(
    pool: LabeledDataset,
    target: float,
    confidence: np.ndarray | None = None,
    seed: int = 0,
) -> LabeledDataset:
    """Downsample the over-represented class until the ratio is closest to target.

    The under-represented class is kept whole; the retained count of the
    other class is the half-to-even rounding of the exact solution, so
    |realized - target| <= 1/len(result). Given ``confidence``, the retained
    samples are those a scorer is least sure about: it holds each pool
    row's |score - 0.5|, and :func:`least_confident_first` keeps the
    smallest (ties by ascending id), which keeps the points that define the
    decision boundary; without it, retention is a seeded uniform draw.
    Output preserves the pool's original order, and is ``pool`` itself when
    nothing is cut. :func:`ratio_rows` makes the selection.
    """
    rows = ratio_rows(pool.labels, target, confidence, seed, pool.ids)
    return pool if len(rows) == len(pool) else pool.subset(rows)


# ---------------------------------------------------------------------------
# Split construction
# ---------------------------------------------------------------------------


# A window before ratio enforcement, with the seed that downsamples it; a
# split's pools are its training side and its test sides.
Side = tuple[LabeledDataset, int]
Pools = tuple[Side, tuple[Side, ...]]


def time_aware_pools(d: LabeledDataset, spec: SplitSpec, seed: int) -> Pools:
    """The windows of :func:`time_aware_split`: training, then each test slot.

    Training covers ``[origin, origin + W)``; test slot k covers
    ``[edges[k], edges[k+1])`` of :meth:`SplitSpec.test_edges`. Each window
    must hold both classes.
    """
    _require_span(d, spec)
    (train,) = two_class_windows(d, [spec.origin, spec.test_origin], "training window")
    slots = two_class_windows(d, spec.test_edges(), "test slot")
    return (train, derive_seed(seed, "split", "train", bound=2**63)), tuple(
        (pool, derive_seed(seed, "split", "test", k, bound=2**63)) for k, pool in enumerate(slots)
    )


def past_testing_pools(d: LabeledDataset, spec: SplitSpec, seed: int) -> Pools:
    """The windows of :func:`time_aware_pools`, mirrored in time (the C1 pitfall).

    Training covers ``[origin + S, origin + S + W)``; test slot k covers
    ``[edges[k], edges[k+1])`` of ``slot_edges(origin, delta, origin + S)``.
    Each must hold both classes. A model trained here is scored on detecting the past.
    """
    _require_span(d, spec)
    train_start = add_period(spec.origin, spec.test_window)
    train_end = add_period(train_start, spec.train_window)
    (train,) = two_class_windows(d, [train_start, train_end], "training window")
    slots = two_class_windows(d, slot_edges(spec.origin, spec.slot_width, train_start), "test slot")
    return (train, derive_seed(seed, "past", "train")), tuple(
        (pool, derive_seed(seed, "past", "slot", k)) for k, pool in enumerate(slots)
    )


def disjoint_class_pools(d: LabeledDataset, spec: SplitSpec, seed: int) -> Pools:
    """Training and one test window, each taking its classes from disjoint periods (the C2 pitfall).

    The train window ``[origin, origin + W)`` and the test window
    ``[origin + W, origin + W + S)`` are each cut at their middle slot
    boundary; each keeps only the positives before its cut and only the
    negatives from the cut on.
    """
    _require_span(d, spec)

    def classed_window(start: date, window: Period) -> LabeledDataset:
        cut = add_period(start, spec.slot_width, max(1, window.slots_of(spec.slot_width) // 2))
        early = d.between(start, cut)
        late = d.between(cut, add_period(start, window))
        pos_idx = np.flatnonzero(early.labels == 1)
        neg_idx = np.flatnonzero(late.labels == 0)
        if not len(pos_idx) or not len(neg_idx):
            raise EmptySlotError(f"disjoint windows left the period from {start} single-class")
        return concat([early.subset(pos_idx), late.subset(neg_idx)])

    train = classed_window(spec.origin, spec.train_window)
    test = classed_window(spec.test_origin, spec.test_window)
    return (train, derive_seed(seed, "disjoint", "train")), (
        (test, derive_seed(seed, "disjoint", "test")),
    )


def time_aware_split(
    d: LabeledDataset, spec: SplitSpec, ratios: RatioSpec, seed: int
) -> TemporalSplit:
    """Carve the dataset into a C1/C2/C3-respecting train/test partition.

    Training covers ``[origin, origin + W)`` downsampled to ratio phi; each
    of the N = S/delta test slots is downsampled to ratio delta. Samples
    outside the declared windows are dropped. The same (d, spec, ratios,
    seed) always produces the identical split; the test side's random
    streams do not depend on phi, so splits differing only in phi share
    their test slots exactly.
    """
    (train, train_seed), tests = time_aware_pools(d, spec, seed)
    slots = tuple(enforce_ratio(pool, ratios.delta, seed=s) for pool, s in tests)
    return TemporalSplit(enforce_ratio(train, ratios.phi, seed=train_seed), slots, spec, ratios)


def _require_span(d: LabeledDataset, spec: SplitSpec) -> None:
    last, last_slot = d.time_range[1], spec.test_edges()[-2]
    if last < last_slot:
        raise InsufficientSpanError(
            f"dataset ends {last}, before the last test slot starting {last_slot}"
        )


def two_class_windows(d: LabeledDataset, edges: Sequence[date], what: str) -> list[LabeledDataset]:
    """``d.between(edges[k], edges[k+1])`` for each k; each must hold both classes.

    ``what`` names the windows in the error: ``"{what} {k}"`` when there are
    several, ``what`` alone for a single window.
    """
    windows = []
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        pool = d.between(lo, hi)
        if pool.n_positive == 0 or pool.n_negative == 0:
            name = what if len(edges) == 2 else f"{what} {k}"
            raise EmptySlotError(f"{name} ([{lo}, {hi})) lacks one class")
        windows.append(pool)
    return windows


# ---------------------------------------------------------------------------
# Constraint validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintVerdict:
    constraint: str
    passed: bool
    witnesses: tuple[dict, ...] = ()
    per_slot: tuple[dict, ...] = ()
    warnings: tuple[dict, ...] = ()

    def as_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "pass": self.passed,
            "witnesses": list(self.witnesses),
            "per_slot": list(self.per_slot),
            "warnings": list(self.warnings),
        }


def check_c1(split: TemporalSplit) -> ConstraintVerdict:
    """Training strictly precedes testing; witness is one offending pair.

    The witness pairs the first latest training sample with the first
    earliest test sample, in slot order.
    """
    train, slots = split.train, split.test_slots
    i = int(np.argmax(train.times))
    test_times = np.concatenate([s.times for s in slots])
    j = int(np.argmin(test_times))
    passed = bool(train.times[i] < test_times[j])
    witnesses = ()
    if not passed:
        witnesses = (
            {
                "train_id": train.ids[i],
                "train_timestamp": train.times[i].item().isoformat(),
                "test_id": [sid for s in slots for sid in s.ids][j],
                "test_timestamp": test_times[j].item().isoformat(),
            },
        )
    return ConstraintVerdict("C1", passed, witnesses=witnesses)


def check_c2(split: TemporalSplit) -> ConstraintVerdict:
    """Every test sample sits inside its slot's window, cut from :meth:`SplitSpec.test_edges`.

    Failures are out-of-window samples. Warnings (never failures) flag
    slots where a class is absent or where the two classes' timestamp
    ranges do not overlap — the fingerprint of classes collected from
    different periods — and training-window slots missing a class, which
    cannot bias the evaluation but can skew what the model learns.
    """
    witnesses: list[dict] = []
    warnings: list[dict] = []
    edges = np.array(split.spec.test_edges(), dtype="datetime64[D]")
    for k, slot in enumerate(split.test_slots):
        t = slot.times
        outside = (t < edges[k]) | (t >= edges[k + 1])
        for i in np.flatnonzero(outside):
            witnesses.append({"slot": k, "id": slot.ids[i], "timestamp": t[i].item().isoformat()})
        pos_t, neg_t = t[slot.labels == 1], t[slot.labels == 0]
        if not len(pos_t) or not len(neg_t):
            warnings.append({"slot": k, "kind": "missing_class"})
        elif pos_t.max() < neg_t.min() or neg_t.max() < pos_t.min():
            warnings.append({"slot": k, "kind": "disjoint_class_windows"})
    # Training slots run from the origin; the last one is clipped at the test origin.
    train_edges = slot_edges(split.spec.origin, split.spec.slot_width, split.spec.test_origin)
    pos, neg = split.train.class_counts(train_edges)
    for k in np.flatnonzero((pos == 0) != (neg == 0)):
        warnings.append({"slot": int(k), "kind": "train_missing_class"})
    return ConstraintVerdict(
        "C2", not witnesses, witnesses=tuple(witnesses), warnings=tuple(warnings)
    )


def check_c3(split: TemporalSplit) -> ConstraintVerdict:
    """Each test slot's positive ratio stays inside the sigma_hat band."""
    lo, hi = split.ratios.band
    per_slot = []
    passed = True
    for k, slot in enumerate(split.test_slots):
        ratio = slot.positive_ratio
        ok = lo <= ratio <= hi
        passed &= ok
        per_slot.append({"slot": k, "ratio": ratio, "low": lo, "high": hi, "pass": ok})
    return ConstraintVerdict("C3", passed, per_slot=tuple(per_slot))


def run_all_checks(split: TemporalSplit) -> dict[str, ConstraintVerdict]:
    return {"C1": check_c1(split), "C2": check_c2(split), "C3": check_c3(split)}


# ---------------------------------------------------------------------------
# Split manifests: a features-free description of a split (ids, timestamps,
# labels) that the audit tooling can re-check without the original data.
# ---------------------------------------------------------------------------

MANIFEST_VERSION = 1


def split_to_manifest(split: TemporalSplit) -> dict:
    def rows(d: LabeledDataset) -> list[dict]:
        return [
            {"id": sid, "timestamp": t, "label": y}
            for sid, t, y in zip(d.ids, iso_dates(d.times), d.labels.tolist())
        ]

    return {
        "manifest_version": MANIFEST_VERSION,
        "spec": split.spec.as_dict(),
        "ratios": dict(vars(split.ratios)),
        "train": rows(split.train),
        "test_slots": [rows(s) for s in split.test_slots],
    }


def split_from_manifest(blob: dict) -> TemporalSplit:
    if not isinstance(blob, dict):
        raise ValueError("manifest must be a JSON object")
    if blob.get("manifest_version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {blob.get('manifest_version')!r}")

    def dataset(rows: Sequence[dict]) -> LabeledDataset:
        return LabeledDataset(
            [r["id"] for r in rows],
            [date.fromisoformat(r["timestamp"]) for r in rows],
            [int(r["label"]) for r in rows],
            np.zeros((len(rows), 0)),
        )

    ratios = RatioSpec(**{f.name: blob["ratios"][f.name] for f in fields(RatioSpec)})
    return TemporalSplit(
        dataset(blob["train"]),
        tuple(dataset(rows) for rows in blob["test_slots"]),
        SplitSpec.from_dict(blob["spec"]),
        ratios,
    )
