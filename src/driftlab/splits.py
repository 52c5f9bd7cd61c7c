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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import (
    ConfigError,
    ConstraintViolationError,
    EmptySlotError,
    LabeledDataset,
    Period,
    _json_text,
    _parse_date,
    _parse_id,
    _parse_label,
    add_period,
    check_fields,
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
    "UpsamplingRequiredError",
    "Side",
    "Pools",
    "two_class_windows",
    "time_aware_pools",
    "past_testing_pools",
    "disjoint_class_pools",
    "time_aware_split",
    "enforce_ratio",
    "least_confident_first",
    "check_c1",
    "check_c2",
    "check_c3",
    "require_c1",
    "run_all_checks",
    "split_to_manifest",
    "split_from_manifest",
]


class InsufficientSpanError(ConfigError):
    """Dataset does not cover origin + train_window + test_window."""


class UpsamplingRequiredError(ConstraintViolationError):
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
            origin=_parse_date(_json_text(blob["origin"])),
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


class TemporalSplit:
    """A training side and one side per test slot, as rows of one stream ``d``.

    ``train`` and ``test_slots`` are the sides cut from ``d`` once, as the split
    is built, so bad rows fail here; ``verdicts`` is the C1-C3 audit, run once.
    A split is immutable and compares by identity.
    """

    d: LabeledDataset
    train_rows: np.ndarray
    slot_rows: tuple[np.ndarray, ...]
    spec: SplitSpec
    ratios: RatioSpec
    train: LabeledDataset
    test_slots: tuple[LabeledDataset, ...]

    def __init__(self, d, train_rows, slot_rows, spec, ratios) -> None:
        if len(slot_rows) != spec.n_test_slots:
            raise ValueError(f"expected {spec.n_test_slots} test slots, got {len(slot_rows)}")
        vars(self).update(
            d=d, train_rows=train_rows, slot_rows=slot_rows, spec=spec, ratios=ratios,
            train=d.subset(train_rows), test_slots=tuple(map(d.subset, slot_rows)),
        )

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def verdicts(self) -> dict[str, ConstraintVerdict]:
        return run_all_checks(self)

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


def enforce_ratio(
    d: LabeledDataset,
    target: float,
    rows: np.ndarray | None = None,
    confidence: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """The rows of ``d`` kept by downsampling the pool's over-represented class to target.

    The pool is ``rows`` of ``d`` when given, else all of ``d``; the kept rows
    keep the pool's order, and the whole pool comes back when nothing is cut.
    The under-represented class is kept whole; the retained count of the other
    class is the half-to-even rounding of the exact solution, so
    |realized - target| <= 1/len(result). ``confidence`` holds one scorer
    |score - 0.5| per pool row; given it, :func:`least_confident_first` keeps
    the rows the scorer is least sure of (ties by id in ``d``), the points that
    define the decision boundary; without it, retention is a seeded uniform draw.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target ratio must lie in (0, 1), got {target}")
    pool = np.arange(len(d)) if rows is None else np.asarray(rows)
    labels = d.labels[pool]
    n = len(labels)
    if confidence is not None and np.shape(confidence) != (n,):
        raise ValueError("confidence needs one scorer confidence per row")

    n_pos = int(np.add.reduce(labels))
    n_neg = n - n_pos
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
        return pool

    cut_idx = np.flatnonzero(labels == cut_label)
    if keep_count >= len(cut_idx):
        return pool
    if confidence is None:
        rng = derive_rng(seed, "enforce_ratio")
        kept = rng.choice(cut_idx, size=keep_count, replace=False)
    else:
        order = least_confident_first(confidence[cut_idx], [d.ids[i] for i in pool[cut_idx]])
        kept = cut_idx[order[:keep_count]]
    keep_mask = labels != cut_label
    keep_mask[kept] = True
    return pool[keep_mask]


# ---------------------------------------------------------------------------
# Split construction
# ---------------------------------------------------------------------------


# A window before ratio enforcement, as rows of the dataset it was cut from, with
# the seed that downsamples it; a split's pools are its training side and test sides.
Side = tuple[np.ndarray, int]
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
        (rows, derive_seed(seed, "split", "test", k, bound=2**63)) for k, rows in enumerate(slots)
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
        (rows, derive_seed(seed, "past", "slot", k)) for k, rows in enumerate(slots)
    )


def disjoint_class_pools(d: LabeledDataset, spec: SplitSpec, seed: int) -> Pools:
    """Training and one test window, each taking its classes from disjoint periods (the C2 pitfall).

    The train window ``[origin, origin + W)`` and the test window
    ``[origin + W, origin + W + S)`` are each cut at their middle slot
    boundary; each keeps only the positives before its cut and only the
    negatives from the cut on, in that order.
    """
    _require_span(d, spec)

    def classed_window(start: date, window: Period) -> np.ndarray:
        cut = add_period(start, spec.slot_width, max(1, window.slots_of(spec.slot_width) // 2))
        early = d.rows_between(start, cut)
        late = d.rows_between(cut, add_period(start, window))
        pos = early[d.labels[early] == 1]
        neg = late[d.labels[late] == 0]
        if not len(pos) or not len(neg):
            raise EmptySlotError(f"disjoint windows left the period from {start} single-class")
        return np.concatenate([pos, neg])

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
    train = enforce_ratio(d, ratios.phi, train, seed=train_seed)
    slots = tuple(enforce_ratio(d, ratios.delta, rows, seed=s) for rows, s in tests)
    return TemporalSplit(d, train, slots, spec, ratios)


def _require_span(d: LabeledDataset, spec: SplitSpec) -> None:
    last, last_slot = d.time_range[1], spec.test_edges()[-2]
    if last < last_slot:
        raise InsufficientSpanError(
            f"dataset ends {last}, before the last test slot starting {last_slot}"
        )


def two_class_windows(d: LabeledDataset, edges: Sequence[date], what: str) -> list[np.ndarray]:
    """``d.rows_between(edges[k], edges[k+1])`` for each k; each must hold both classes.

    ``what`` names the windows in the error: ``"{what} {k}"`` when there are
    several, ``what`` alone for a single window.
    """
    windows = []
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        rows = d.rows_between(lo, hi)
        n_positive = int(np.add.reduce(d.labels[rows]))
        if n_positive == 0 or n_positive == len(rows):
            name = what if len(edges) == 2 else f"{what} {k}"
            raise EmptySlotError(f"{name} ([{lo}, {hi})) lacks one class")
        windows.append(rows)
    return windows


# ---------------------------------------------------------------------------
# Constraint validators
# ---------------------------------------------------------------------------


class ConstraintVerdict(NamedTuple):
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
    t, train, test = split.d.times, split.train_rows, np.concatenate(split.slot_rows)
    i, j = train[np.argmax(t[train])], test[np.argmin(t[test])]
    passed = bool(t[i] < t[j])
    witnesses = ()
    if not passed:
        witnesses = (
            {
                "train_id": split.d.ids[i],
                "train_timestamp": t[i].item().isoformat(),
                "test_id": split.d.ids[j],
                "test_timestamp": t[j].item().isoformat(),
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


def require_c1(train: LabeledDataset, first_day: date) -> None:
    """C1 for one fit: every sample of ``train`` predates ``first_day``, the
    first day its model scores; else :class:`ConstraintViolationError` names
    the latest sample."""
    i = int(np.argmax(train.times))
    if train.times[i] >= np.datetime64(first_day, "D"):
        raise ConstraintViolationError(
            f"C1: training sample {train.ids[i]!r} dated {train.times[i]} does not precede "
            f"{first_day}, the first day its model scores"
        )


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

    # One row per distinct id: an id listed on two sides is one sample on both.
    records: dict[str, tuple[date, int]] = {}
    sides = [blob["train"], *blob["test_slots"]]
    for k, side in enumerate(sides):
        if not side:
            raise ValueError(f"test slot {k - 1} is empty" if k else "train is empty")
    for r in (r for side in sides for r in side):
        record = (_parse_date(_json_text(r["timestamp"])), _parse_label(r["label"]))
        if records.setdefault(_parse_id(r["id"]), record) != record:
            raise ValueError(f"sample id {r['id']!r} has two different records")
    row = {sid: k for k, sid in enumerate(records)}
    times, labels = [t for t, _ in records.values()], [y for _, y in records.values()]
    d = LabeledDataset(list(records), times, labels, np.zeros((len(records), 0)))
    rows = [np.array([row[_parse_id(r["id"])] for r in side], dtype=np.intp) for side in sides]
    ratios = RatioSpec(**{f.name: blob["ratios"][f.name] for f in fields(RatioSpec)})
    return TemporalSplit(d, rows[0], tuple(rows[1:]), SplitSpec.from_dict(blob["spec"]), ratios)
