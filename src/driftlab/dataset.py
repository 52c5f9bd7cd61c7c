"""Timestamped, binary-labeled datasets: ingestion, validation, summaries.

The positive class is label 1 throughout the library (in the malware use
case that inspired it: malware = 1, goodware = 0). Timestamps are UTC
calendar dates at day resolution, stored as one ``datetime64[D]`` column.
Time is bucketed into half-open slots ``[origin + k*width, origin + (k+1)*width)``
where a :class:`Period` width is either a number of calendar months
(calendar arithmetic, day-of-month clamped) or a number of days.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from dataclasses import dataclass, fields
from datetime import date, timedelta
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Period",
    "LabeledDataset",
    "DatasetSummary",
    "DatasetFormatError",
    "EmptySlotError",
    "add_months",
    "add_period",
    "slot_edges",
    "load_dataset",
    "iso_dates",
    "write_csv",
    "write_jsonl",
    "summarize",
    "concat",
    "rule",
    "check_fields",
]


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


class EmptySlotError(ValueError):
    """A time window holds no samples, or a train or test slot lacks one class."""


@dataclass(frozen=True)
class Period:
    """A slot width or window size: whole calendar months OR whole days."""

    months: int = 0
    days: int = 0

    def __post_init__(self) -> None:
        if (self.months > 0) == (self.days > 0):
            raise ValueError("Period must set exactly one of months/days > 0")
        if self.months < 0 or self.days < 0:
            raise ValueError("Period components must be non-negative")

    @classmethod
    def parse(cls, text: str) -> "Period":
        """Parse compact period syntax: '12m' (months) or '45d' (days)."""
        m = re.fullmatch(r"\s*(\d+)\s*([md])\s*", str(text))
        if not m:
            raise ValueError(f"bad period {text!r}; expected e.g. '12m' or '45d'")
        n, unit = int(m.group(1)), m.group(2)
        return cls(months=n) if unit == "m" else cls(days=n)

    def __str__(self) -> str:
        return f"{self.months}m" if self.months else f"{self.days}d"

    def scaled(self, k: int) -> "Period":
        return Period(months=self.months * k, days=self.days * k)

    def slots_of(self, width: "Period") -> int:
        """How many ``width`` slots tile this period; must divide exactly."""
        if self.months and width.months:
            q, r = divmod(self.months, width.months)
        elif self.days and width.days:
            q, r = divmod(self.days, width.days)
        else:
            raise ValueError(f"incompatible period units: {self} vs {width}")
        if r:
            raise ValueError(f"{self} is not a whole multiple of {width}")
        return q


# ---------------------------------------------------------------------------
# Config field rules: every config dataclass declares, on each field, the
# values it accepts, and checks them all with one check_fields call.
# ---------------------------------------------------------------------------

_NOUNS = {int: "integer", float: "number", bool: "boolean", str: "non-empty string", date: "date"}


class _Rule:
    """A config field's accepted values: a kind, optional bounds, optionally null."""

    __slots__ = ("kind", "gt", "ge", "lt", "le", "optional", "odd")

    def __init__(self, kind, gt, ge, lt, le, optional, odd) -> None:
        self.kind, self.optional, self.odd = kind, optional, odd
        self.gt, self.ge, self.lt, self.le = gt, ge, lt, le

    def accepts(self, value: object) -> bool:
        if value is None:
            return self.optional
        if isinstance(self.kind, tuple):
            return isinstance(value, str) and value in self.kind
        if self.kind not in (int, float):
            return isinstance(value, self.kind) and value != ""
        real = numbers.Integral if self.kind is int else numbers.Real
        if isinstance(value, bool) or not isinstance(value, real):
            return False
        try:
            if not math.isfinite(value):
                return False
        except OverflowError:  # an integer beyond float range
            return False
        return (
            (self.gt is None or value > self.gt)
            and (self.ge is None or value >= self.ge)
            and (self.lt is None or value < self.lt)
            and (self.le is None or value <= self.le)
            and (not self.odd or value % 2 == 1)
        )

    def __str__(self) -> str:
        """The accepted values in words, e.g. ``a positive integer at most 1200``."""
        if isinstance(self.kind, tuple):
            text = f"one of {list(self.kind)}"
        else:
            sign = "positive " if self.gt == 0 else "non-negative " if self.ge == 0 else ""
            text = f"{sign}{'odd ' if self.odd else ''}{_NOUNS[self.kind]}"
            text = ("an " if text[0] in "aeiou" else "a ") + text
            # A lower bound of 0 is the sign above.
            limits = [f"{w} {b}" for w, b in (("above", self.gt), ("at least", self.ge))
                      if b not in (None, 0)]
            limits += [f"{w} {b}" for w, b in (("below", self.lt), ("at most", self.le))
                       if b is not None]
            if limits:
                text += " " + " and ".join(limits)
        return text + (" or null" if self.optional else "")


def rule(kind, *, gt=None, ge=None, lt=None, le=None, optional: bool = False, odd: bool = False):
    """Field metadata declaring the values a config field accepts.

    ``kind`` is ``int``, ``float`` (any finite real), ``bool`` (a JSON
    boolean), ``str`` (non-empty), ``date``, or a tuple of allowed strings.
    Numbers are bounded by ``gt``/``ge`` below and ``lt``/``le`` above; a
    bool is never a number. ``odd`` admits odd integers only, and
    ``optional`` admits ``None``.
    """
    return {"rule": _Rule(kind, gt, ge, lt, le, optional, odd)}


def check_fields(obj) -> None:
    """Raise ``ValueError("<field> must be <rule>, got <value>")`` for the first field of
    dataclass ``obj`` whose value its :func:`rule` rejects."""
    for f in fields(obj):
        r = f.metadata.get("rule")
        if r is not None and not r.accepts(value := getattr(obj, f.name)):
            raise ValueError(f"{f.name} must be {r}, got {value!r}")


def _month_days(y: int, m: int) -> int:
    """Number of days in month ``m`` (1-12) of year ``y``."""
    return (date(y + m // 12, m % 12 + 1, 1) - timedelta(days=1)).day


def add_months(d: date, n: int) -> date:
    """Calendar-month shift with day-of-month clamping (Jan 31 + 1m = Feb 28)."""
    total = d.year * 12 + (d.month - 1) + n
    year, month0 = divmod(total, 12)
    month = month0 + 1
    day = min(d.day, _month_days(year, month))
    return date(year, month, day)


def add_period(d: date, period: Period, k: int = 1) -> date:
    if period.months:
        return add_months(d, period.months * k)
    return d + timedelta(days=period.days * k)


def slot_edges(origin: date, width: Period, end: date) -> list[date]:
    """Slot starts ``origin + k*width`` that precede ``end``, then ``end`` itself.

    This is the one slot grid: window k is ``[edges[k], edges[k+1])``, so
    adjacent windows share their edge. Each start is ``origin`` shifted by
    whole periods, never iterated, so month-end clamping cannot accumulate.
    """
    edges: list[date] = []
    while (start := add_period(origin, width, len(edges))) < end:
        edges.append(start)
    return edges + [end]


_DAY = np.dtype("datetime64[D]")
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _day_column(dates: Iterable[date]) -> np.ndarray:
    # Through ordinals: np.array(dates, dtype="datetime64[D]") is over 10x slower.
    ordinals = np.fromiter((t.toordinal() for t in dates), dtype=np.int64)
    return (ordinals - _EPOCH_ORDINAL).astype(_DAY)


class LabeledDataset:
    """Immutable collection of samples sharing one feature dimensionality.

    Invariants enforced at construction: non-empty, unique ids, labels in
    {0, 1}, consistent feature width, finite features. ``timestamps`` may
    be ``date`` objects or a ``datetime64`` array; either way they are
    stored as the ``datetime64[D]`` column ``times``. Arrays are stored
    read-only so a dataset can be shared freely across workers.
    """

    def __init__(
        self,
        ids: Sequence[str],
        timestamps: Sequence[date] | np.ndarray,
        labels: Sequence[int] | np.ndarray,
        features: np.ndarray,
    ) -> None:
        self.ids: tuple[str, ...] = tuple(map(str, ids))
        if isinstance(timestamps, np.ndarray) and timestamps.dtype.kind == "M":
            self.times = timestamps.astype(_DAY)
        else:
            self.times = _day_column(timestamps)
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array (n_samples, n_features)")
        self.features = feats.copy()
        for column in (self.times, self.labels, self.features):
            column.setflags(write=False)
        self._validate()

    def _validate(self) -> None:
        n = len(self.ids)
        if n == 0:
            raise ValueError("dataset must be non-empty")
        if not (len(self.times) == len(self.labels) == self.features.shape[0] == n):
            raise ValueError("ids/timestamps/labels/features lengths disagree")
        if len(set(self.ids)) != n:
            seen: set[str] = set()
            dup = next(i for i in self.ids if i in seen or seen.add(i))
            raise ValueError(f"duplicate sample id {dup!r}")
        # A mask, not np.unique: numpy 2 imports numpy.ma inside np.unique.
        bad = set(self.labels[(self.labels != 0) & (self.labels != 1)])
        if bad:
            raise ValueError(f"labels must be 0 or 1, got {sorted(bad)}")
        if np.isnat(self.times).any():
            raise ValueError("timestamps must not be NaT")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite (no nan or inf)")

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimensionality(self) -> int:
        return self.features.shape[1]

    @property
    def timestamps(self) -> tuple[date, ...]:
        return tuple(self.times.tolist())

    @property
    def time_range(self) -> tuple[date, date]:
        return (self.times.min().item(), self.times.max().item())

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return len(self) - self.n_positive

    @property
    def positive_ratio(self) -> float:
        return self.n_positive / len(self)

    # -- derived datasets ----------------------------------------------

    def subset(self, indices: Sequence[int] | np.ndarray) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            [self.ids[i] for i in idx],
            self.times[idx],
            self.labels[idx],
            self.features[idx],
        )

    def between(self, start: date, end: date) -> "LabeledDataset":
        """Samples with ``start <= timestamp < end``, in their original order.

        This is the one time-window cut; an empty window raises
        :class:`EmptySlotError`.
        """
        inside = (self.times >= np.datetime64(start, "D")) & (self.times < np.datetime64(end, "D"))
        if not inside.any():
            raise EmptySlotError(f"no samples in [{start}, {end})")
        return self.subset(np.flatnonzero(inside))

    def class_counts(self, edges: Sequence[date]) -> tuple[np.ndarray, np.ndarray]:
        """(positives, negatives) per window ``[edges[k], edges[k+1])``.

        ``edges`` must increase; samples outside ``[edges[0], edges[-1])``
        are not counted.
        """
        n = len(edges) - 1
        k = np.searchsorted(np.array(edges, dtype=_DAY), self.times, side="right") - 1
        inside = (k >= 0) & (k < n)
        pos = np.bincount(k[inside & (self.labels == 1)], minlength=n)
        neg = np.bincount(k[inside & (self.labels == 0)], minlength=n)
        return pos, neg


def concat(parts: Iterable[LabeledDataset]) -> LabeledDataset:
    """Concatenate datasets in the given order; ids must stay unique."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    return LabeledDataset(
        [i for p in parts for i in p.ids],
        np.concatenate([p.times for p in parts]),
        np.concatenate([p.labels for p in parts]),
        np.vstack([p.features for p in parts]),
    )


# ---------------------------------------------------------------------------
# Ingestion. CSV schema: header id,timestamp,label,f0,...,f{n-1}; dates are
# YYYY-MM-DD; labels 0|1; features decimal numerals. JSONL: one object per
# line with keys id, timestamp, label, features. Both UTF-8.
# ---------------------------------------------------------------------------


def _parse_date(text: str, lineno: int) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise DatasetFormatError(f"line {lineno}: unparseable timestamp {text!r}") from None


def _parse_label(text: object, lineno: int) -> int:
    if text in ("0", "1", 0, 1):
        return int(text)
    raise DatasetFormatError(f"line {lineno}: label must be 0 or 1, got {text!r}")


def load_dataset(path: str, format: str | None = None) -> LabeledDataset:
    """Load a CSV or JSONL dataset file, validating as it goes.

    ``format`` is inferred from the file suffix when omitted. Malformed
    rows, non-finite features included, raise :class:`DatasetFormatError`
    naming the 1-based line number.
    """
    if format is None:
        format = "jsonl" if str(path).endswith((".jsonl", ".ndjson")) else "csv"
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'jsonl'")
    loader = _load_csv if format == "csv" else _load_jsonl
    ids, stamps, labels, rows = loader(path)
    seen: dict[str, int] = {}
    for lineno, sid in ids:
        if sid in seen:
            raise DatasetFormatError(
                f"line {lineno}: duplicate id {sid!r} (first seen line {seen[sid]})"
            )
        seen[sid] = lineno
    if not ids:
        raise DatasetFormatError("dataset file contains no samples")
    features = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise DatasetFormatError(f"line {ids[bad[0]][0]}: non-finite feature value")
    # With every |feature| <= B, a squared distance between two rows sums
    # dim terms (t_i - q_i)^2 <= (2B)^2, so it is at most 4 * dim * B^2. At
    # B = sqrt(max_float / (4 * (dim + 1))) that is max_float * dim / (dim + 1),
    # and for dim < 10^7 the 1 / (dim + 1) headroom exceeds the rounding of
    # the squares and the sum (relative error under (dim + 4) * eps), so the
    # computed distance is finite too. At sqrt(max_float / (4 * dim)) it can
    # round to inf.
    bound = math.sqrt(np.finfo(np.float64).max / (4 * (features.shape[1] + 1)))
    bad = np.flatnonzero(np.maximum(features.max(axis=1), -features.min(axis=1)) > bound)
    if len(bad):
        raise DatasetFormatError(f"line {ids[bad[0]][0]}: |feature| exceeds {bound:.6g}")
    return LabeledDataset([s for _, s in ids], stamps, labels, features)


# CSV feature cells are converted this many rows at a time, so the strings
# held at once stay few however long the file is.
_CSV_CHUNK_ROWS = 1024


def _load_csv(path):
    ids: list[tuple[int, str]] = []
    stamps: list[date] = []
    labels: list[int] = []
    blocks: list[np.ndarray] = []
    cells: list[list[str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("empty file: missing header") from None
        if header[:3] != ["id", "timestamp", "label"]:
            raise DatasetFormatError(
                f"line 1: header must start with id,timestamp,label; got {header[:3]}"
            )
        dim = len(header) - 3
        if dim < 1:
            raise DatasetFormatError("line 1: header declares no feature columns")
        expected_feats = [f"f{i}" for i in range(dim)]
        if header[3:] != expected_feats:
            raise DatasetFormatError(f"line 1: feature columns must be f0..f{dim - 1}")
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3 + dim:
                    raise DatasetFormatError(
                        f"line {lineno}: feature dimensionality mismatch: expected "
                        f"{dim} features, got {len(row) - 3}"
                    )
                t = _parse_date(row[1], lineno)
                ids.append((lineno, row[0]))
                cells.append(row[3:])
                stamps.append(t)
                labels.append(_parse_label(row[2], lineno))
                if len(cells) == _CSV_CHUNK_ROWS:
                    blocks.append(_float_cells(ids, cells))
                    cells = []
        except (ValueError, csv.Error):
            # A line's features are checked before its label and before any
            # later line, so a non-numeric cell already read is reported first.
            _per_cell_floats(ids, cells)
            raise
    blocks.append(_float_cells(ids, cells).reshape(-1, dim))
    return ids, stamps, labels, np.concatenate(blocks)


def _float_cells(ids: list[tuple[int, str]], cells: list[list[str]]) -> np.ndarray:
    """The feature cells as float64, each parsed as ``float()`` parses it.

    ``cells`` holds the features of the last ``len(cells)`` rows of ``ids``.
    One numpy conversion does the work; only when it fails does the
    per-cell loop run, to name the first non-numeric line.
    """
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:
        return np.array(_per_cell_floats(ids, cells), dtype=np.float64)


def _per_cell_floats(ids: list[tuple[int, str]], cells: list[list[str]]) -> list[list[float]]:
    rows = []
    for (lineno, _), row in zip(ids[len(ids) - len(cells) :], cells):
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric feature value") from None
    return rows


def _load_jsonl(path):
    ids: list[tuple[int, str]] = []
    stamps: list[date] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            missing = {"id", "timestamp", "label", "features"} - set(obj)
            if missing:
                raise DatasetFormatError(f"line {lineno}: missing keys {sorted(missing)}")
            feats = obj["features"]
            if not isinstance(feats, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in feats
            ):
                raise DatasetFormatError(f"line {lineno}: features must be a numeric array")
            if dim is None:
                dim = len(feats)
                if dim < 1:
                    raise DatasetFormatError(f"line {lineno}: empty feature array")
            elif len(feats) != dim:
                raise DatasetFormatError(
                    f"line {lineno}: feature dimensionality mismatch: expected "
                    f"{dim} features, got {len(feats)}"
                )
            t = _parse_date(str(obj["timestamp"]), lineno)
            ids.append((lineno, str(obj["id"])))
            stamps.append(t)
            labels.append(_parse_label(obj["label"], lineno))
            try:
                rows.append([float(v) for v in feats])
            except OverflowError:  # an integer beyond float range
                raise DatasetFormatError(f"line {lineno}: non-finite feature value") from None
    return ids, stamps, labels, rows


def iso_dates(times: np.ndarray) -> list[str]:
    """``YYYY-MM-DD`` strings of a ``datetime64[D]`` column."""
    return np.datetime_as_string(times, unit="D").tolist()


def _rows(d: LabeledDataset):
    return zip(d.ids, iso_dates(d.times), d.labels.tolist(), d.features.tolist())


def write_csv(d: LabeledDataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "timestamp", "label"] + [f"f{i}" for i in range(d.dimensionality)])
        for sid, t, y, feats in _rows(d):
            writer.writerow([sid, t, y] + [repr(v) for v in feats])


def write_jsonl(d: LabeledDataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, t, y, feats in _rows(d):
            fh.write(json.dumps({"id": sid, "timestamp": t, "label": y, "features": feats}) + "\n")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSummary:
    """Per-slot class counts plus the overall positive ratio."""

    slot_starts: tuple[date, ...]
    pos_counts: np.ndarray
    neg_counts: np.ndarray
    positive_ratio: float
    slot_width: Period

    @property
    def n_slots(self) -> int:
        return len(self.slot_starts)

    @property
    def slots_missing_class(self) -> list[int]:
        """Slots with no positives or no negatives (regenerate, don't score)."""
        return [
            k
            for k in range(self.n_slots)
            if self.pos_counts[k] == 0 or self.neg_counts[k] == 0
        ]


def summarize(d: LabeledDataset, slot_width: Period) -> DatasetSummary:
    """Partition the dataset into calendar slots and count classes per slot.

    Month-based widths snap the origin to the first day of the earliest
    sample's month, so monthly summaries align with calendar months; day
    widths start at the earliest timestamp.
    """
    first, last = d.time_range
    origin = date(first.year, first.month, 1) if slot_width.months else first
    edges = slot_edges(origin, slot_width, last + timedelta(days=1))
    pos, neg = d.class_counts(edges)
    return DatasetSummary(tuple(edges[:-1]), pos, neg, d.positive_ratio, slot_width)
