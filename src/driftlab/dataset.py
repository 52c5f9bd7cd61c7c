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
import functools
import hashlib
import io
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass, fields
from datetime import date, timedelta
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Period",
    "LabeledDataset",
    "DatasetSummary",
    "ConfigError",
    "ConstraintViolationError",
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


class ConfigError(ValueError):
    """Base of every error in outside input (config, flag, file); the CLI exits 2."""


class ConstraintViolationError(ValueError):
    """Base of every constraint the data cannot meet (C1-C3, a window's classes); exit 3."""


class DatasetFormatError(ConfigError):
    """Malformed dataset file; message carries the offending line number."""


class EmptySlotError(ConstraintViolationError):
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

_NOUNS = {int: "integer", float: "number", bool: "boolean", str: "non-empty string",
          date: "YYYY-MM-DD date"}


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
            raise ValueError(f"{f.name} must be {r}, got {_shown(value)}")


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

    @classmethod
    def _derived(cls, ids: tuple[str, ...], times, labels, features) -> "LabeledDataset":
        """A dataset made of columns cut from validated datasets, stored as given.

        The columns inherit their parents' checks; the caller checks what its
        cut can break (emptiness, repeated ids). Nothing is copied again.
        """
        d = cls.__new__(cls)
        d.ids, d.times, d.labels, d.features = ids, times, labels, features
        for column in (times, labels, features):
            column.setflags(write=False)
        return d

    def _validate(self) -> None:
        n = len(self.ids)
        if n == 0:
            raise ValueError("dataset must be non-empty")
        if not (len(self.times) == len(self.labels) == self.features.shape[0] == n):
            raise ValueError("ids/timestamps/labels/features lengths disagree")
        if len(set(self.ids)) != n:
            _raise_duplicate(self.ids)
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
    def positive_ratio(self) -> float:
        return self.n_positive / len(self)

    # -- derived datasets ----------------------------------------------

    def subset(self, indices: Sequence[int] | np.ndarray) -> "LabeledDataset":
        """The rows at ``indices``, in that order, as a new dataset.

        One gather per column: the rows already passed this dataset's
        checks, so only what a selection can break is checked. The result
        must not be empty, an index outside ``[0, len)`` (negative ones
        included) raises ``IndexError``, and a repeated index raises the
        ``duplicate sample id`` error.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if not len(idx):
            raise ValueError("dataset must be non-empty")
        ids = self.ids
        if idx.min() < 0 or idx.max() >= len(ids):
            raise IndexError(f"row index out of range for {len(ids)} rows")
        picked = tuple([ids[i] for i in idx.tolist()])
        seen = np.zeros(len(ids), dtype=bool)
        seen[idx] = True
        if np.count_nonzero(seen) != len(idx):
            _raise_duplicate(picked)
        return LabeledDataset._derived(
            picked, self.times.take(idx), self.labels.take(idx), self.features.take(idx, axis=0)
        )

    def rows_between(self, start: date, end: date) -> np.ndarray:
        """Ascending positions of the samples with ``start <= timestamp < end``.

        This is the one time-window cut; an empty window raises
        :class:`EmptySlotError`.
        """
        inside = (self.times >= np.datetime64(start, "D")) & (self.times < np.datetime64(end, "D"))
        rows = np.flatnonzero(inside)
        if not len(rows):
            raise EmptySlotError(f"no samples in [{start}, {end})")
        return rows

    def between(self, start: date, end: date) -> "LabeledDataset":
        """Samples with ``start <= timestamp < end``, in their original order
        (:meth:`rows_between`)."""
        return self.subset(self.rows_between(start, end))

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
    """Concatenate datasets in the given order; ids must stay unique.

    The parts are already valid datasets, so only the ids across them are checked.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    ids = tuple(i for p in parts for i in p.ids)
    if len(set(ids)) != len(ids):
        _raise_duplicate(ids)
    return LabeledDataset._derived(
        ids,
        np.concatenate([p.times for p in parts]),
        np.concatenate([p.labels for p in parts]),
        np.vstack([p.features for p in parts]),
    )


def _raise_duplicate(ids: Sequence[str]):
    """Raise the ``duplicate sample id`` error for the first id of ``ids`` seen twice."""
    seen: set[str] = set()
    dup = next(i for i in ids if i in seen or seen.add(i))
    raise ValueError(f"duplicate sample id {dup!r}")


# ---------------------------------------------------------------------------
# Ingestion. CSV schema: header id,timestamp,label,f0,...,f{n-1}; dates are
# YYYY-MM-DD; labels 0|1; features decimal numerals. JSONL: one object per
# line with keys id, timestamp, label, features. Both UTF-8. The day, label and
# id rules below are also the ones for every other date, label and id read
# from outside: configs, generate --start and split manifests.
# ---------------------------------------------------------------------------


def _parse_date(text: str) -> date:
    """The day ``text`` names, which must be written ``YYYY-MM-DD``."""
    # From Python 3.11 on, date.fromisoformat alone also takes 20140101 and
    # 2014-W02-3. Ten characters with "-" at 4 and 7 leave it only YYYY-MM-DD
    # (ASCII digits) to accept, so every interpreter accepts the same dates.
    if len(text) == 10 and text[4] == "-" == text[7]:
        try:
            return date.fromisoformat(text)
        except ValueError:  # a month or day out of range
            pass
    raise ValueError(f"{text!r} is not a YYYY-MM-DD date")


def _parse_label(value: object) -> int:
    """The label ``value`` names, which must be the int or the text 0 or 1."""
    if value in ("0", "1") or (type(value) is int and value in (0, 1)):
        return int(value)
    raise ValueError(f"label must be 0 or 1, got {_shown(value)}")


def _json_text(value: object) -> str:
    """A JSON value as the file spells it: a string as itself, any other value as JSON."""
    return value if type(value) is str else json.dumps(value)


def _shown(value: object) -> str:
    """A value for a message: ``None``, ``True`` and ``False`` as JSON spells them, else repr."""
    return json.dumps(value) if value is None or type(value) is bool else repr(value)


def _parse_id(value: object) -> str:
    """The id ``value`` names, which must be a string or an integer (not a bool)."""
    if type(value) in (str, int):
        return str(value)
    raise ValueError(f"id must be a string or an integer, got {_shown(value)}")


def load_dataset(path: str, format: str | None = None) -> LabeledDataset:
    """Load a CSV or JSONL dataset file, validating as it goes.

    ``format`` is inferred from the file suffix when omitted. Malformed
    rows, non-finite features included, raise :class:`DatasetFormatError`
    naming the 1-based line number.

    A regular file's parsed columns are kept beside it in the sidecar
    ``<path>.driftlab-cache``. A later load of the same bytes in the same format
    by the same code, Python and numpy reads the sidecar instead of parsing; it
    skips only the text-syntax checks, which the key fixes, and runs every check
    on the data again. A missing, stale, unreadable or corrupt sidecar means a
    parse, and a sidecar that cannot be written is left out.
    """
    if format is None:
        format = _format_of(path)
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'jsonl'")
    side = f"{path}{_CACHE_SUFFIX}"
    regular = os.path.isfile(path)
    if regular and (cached := _read_cache(path, side, format)) is not None:
        return _checked(*cached)
    loader = _load_csv if format == "csv" else _load_jsonl
    digest = _key_hash(format)
    # The key is hashed from the very bytes the parser reads.
    try:
        with io.TextIOWrapper(io.BufferedReader(_Hashing(path, digest), _HASH_CHUNK),
                              encoding="utf-8", newline="" if format == "csv" else None) as text:
            columns = _columns(*loader(text))
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"file is not UTF-8 text ({exc.reason})") from None
    d = _checked(*columns)
    if regular:
        _write_cache(side, digest.digest(), columns[0], d)
    return d


def _format_of(path: str) -> str:
    """The format a file's suffix names: ``jsonl`` for .jsonl and .ndjson, else ``csv``."""
    return "jsonl" if str(path).endswith((".jsonl", ".ndjson")) else "csv"


def _checked(lines, ids, stamps, labels, features) -> LabeledDataset:
    """The dataset of these columns, after every check that depends on the data
    rather than on its text; ``lines`` holds each sample's first line in the file."""
    seen: dict[str, int] = {}
    for lineno, sid in zip(lines, ids):
        if sid in seen:
            raise DatasetFormatError(
                f"line {lineno}: duplicate id {sid!r} (first seen line {seen[sid]})"
            )
        seen[sid] = lineno
    features = np.asarray(features, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise DatasetFormatError(f"line {lines[bad[0]]}: non-finite feature value")
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
        raise DatasetFormatError(f"line {lines[bad[0]]}: |feature| exceeds {bound:.6g}")
    return LabeledDataset(ids, stamps, labels, features)


# ---------------------------------------------------------------------------
# The parse cache. A sidecar is key (32 bytes), SHA-256 of the payload (32),
# payload. The payload is little-endian int64 n and dim, then n int64 each of
# first line, id length in code points, day (since 1970-01-01) and label,
# then n * dim float64 features row by row, then the ids, joined, in UTF-8.
# ---------------------------------------------------------------------------

_CACHE_SUFFIX = ".driftlab-cache"
_HASH_CHUNK = 1 << 20


@functools.cache
def _code_digest() -> str:
    with open(__file__, "rb") as fh:  # this module holds all parse and sidecar code
        return hashlib.sha256(fh.read()).hexdigest()


def _key_hash(format: str):
    """A SHA-256 hash fed what parses (this module's source, Python and numpy) and
    ``format``; the file's bytes follow. A hit trusts that parser's columns."""
    reader = (_code_digest(), sys.version_info[:2], np.__version__, format)
    return hashlib.sha256("\0".join(map(str, reader)).encode() + b"\0")


class _Hashing(io.FileIO):
    """The file ``path``, opened for reading, feeding every byte read to ``digest``."""

    def __init__(self, path: str, digest) -> None:
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


def _write_cache(side: str, key: bytes, lines: Sequence[int], d: LabeledDataset) -> None:
    """Write the sidecar of ``d``, parsed from the file whose key is ``key``.

    Each part goes from its array straight to a temporary file of this call
    and to the payload digest, so no copy of the features is made; the header
    is written last, then the file is renamed into place. A failure leaves no
    file and is not an error, since the cache is optional.
    """
    parts = [
        np.array([len(d), d.dimensionality], "<i8"),
        np.array([lines, [len(sid) for sid in d.ids]], "<i8"),
        d.times.astype("<M8[D]", copy=False).view("<i8"),
        d.labels.astype("<i8", copy=False),
        np.ascontiguousarray(d.features, "<f8"),
        # A JSONL id may hold a lone surrogate ("\ud800"); it round-trips.
        "".join(d.ids).encode("utf-8", "surrogatepass"),
    ]
    payload = hashlib.sha256()
    tmp = f"{side}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(64))
            for part in parts:
                payload.update(part)
                fh.write(part)
            fh.seek(0)
            fh.write(key + payload.digest())
        os.replace(tmp, side)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _read_cache(path: str, side: str, format: str):
    """``_checked``'s arguments from a sidecar made for the current bytes of
    ``path`` read as ``format``, or None when there is no such valid sidecar."""
    try:
        with open(side, "rb") as fh:
            blob = fh.read()
        key = _key_hash(format)
        with open(path, "rb") as fh:
            while chunk := fh.read(_HASH_CHUNK):
                key.update(chunk)
    except OSError:
        return None
    payload = memoryview(blob)[64:]
    if blob[:32] != key.digest() or hashlib.sha256(payload).digest() != blob[32:64]:
        return None
    try:
        n, dim = np.frombuffer(payload, "<i8", 2).tolist()
        start = 16 + 8 * n * (4 + dim)
        if min(n, dim) < 1 or start > len(payload):
            return None
        lines, sizes, days, labels = np.frombuffer(payload, "<i8", 4 * n, 16).reshape(4, n)
        features = np.frombuffer(payload, "<f8", n * dim, 16 + 32 * n).reshape(n, dim)
        ends = np.cumsum(sizes).tolist()
        text = bytes(payload[start:]).decode("utf-8", "surrogatepass")
        if sizes.min() < 0 or ends[-1] != len(text):
            return None
        ids = [text[a:b] for a, b in zip([0] + ends[:-1], ends)]
    except ValueError:  # a UTF-8 error
        return None
    return lines.tolist(), ids, days.view("<M8[D]"), labels, features


# Parsed features go into float64 blocks of this many rows, so no array is
# regrown however long the file is.
_CSV_CHUNK_ROWS = 1024


def _load_csv(fh):
    """The feature count CSV text ``fh``'s header declares, and its records, each
    numbered by the physical line it starts on (a quoted id may span lines)."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty file: missing header") from None
    except csv.Error as exc:  # as in _csv_records
        raise DatasetFormatError(f"line 1: {exc}") from None
    if header[:3] != ["id", "timestamp", "label"]:
        raise DatasetFormatError(
            f"line 1: header must start with id,timestamp,label; got {header[:3]}"
        )
    dim = len(header) - 3
    if dim < 1:
        raise DatasetFormatError("line 1: header declares no feature columns")
    if header[3:] != [f"f{i}" for i in range(dim)]:
        raise DatasetFormatError(f"line 1: feature columns must be f0..f{dim - 1}")
    return dim, _csv_records(reader)


def _csv_records(reader):
    next_line = reader.line_num + 1
    try:
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if row:
                row += [""] * (3 - len(row))  # no label, so no features: the count check names it
                yield lineno, row[0], row[1], row[2], row[3:]
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise DatasetFormatError(f"line {next_line}: {exc}") from None


def _load_jsonl(fh):
    """No declared feature count, and the records of JSONL text ``fh``."""
    return None, (_jsonl_record(n, line) for n, line in enumerate(fh, start=1) if line.strip())


def _jsonl_record(lineno: int, line: str):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"line {lineno}: not a JSON object")
    missing = {"id", "timestamp", "label", "features"} - set(obj)
    if missing:
        raise DatasetFormatError(f"line {lineno}: missing keys {sorted(missing)}")
    feats = obj["features"]
    if not (isinstance(feats, list) and feats and all(type(v) in (int, float) for v in feats)):
        raise DatasetFormatError(f"line {lineno}: features must be a non-empty numeric array")
    return lineno, obj["id"], _json_text(obj["timestamp"]), obj["label"], feats


def _columns(dim: int | None, records):
    """``_checked``'s columns from ``records``, each ``(line, id, timestamp text,
    label, feature cells)``; ``dim`` is the declared feature count, or None to
    take the first record's. Within a line the feature count is checked first,
    then the timestamp, the feature cells, the id and the label."""
    lines, ids, stamps, labels, blocks = [], [], [], [], []
    for lineno, sid, ts, label, feats in records:
        if dim is None:
            dim = len(feats)
        if len(feats) != dim:
            raise DatasetFormatError(f"line {lineno}: feature dimensionality mismatch: "
                                     f"expected {dim} features, got {len(feats)}")
        try:
            stamps.append(_parse_date(ts))
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: unparseable timestamp {ts!r}") from None
        if (j := len(lines) % _CSV_CHUNK_ROWS) == 0:
            blocks.append(block := np.empty((_CSV_CHUNK_ROWS, dim)))
        try:
            block[j] = feats  # each cell parsed as float() parses it
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric feature value") from None
        except OverflowError:  # a JSON integer beyond float range
            raise DatasetFormatError(f"line {lineno}: non-finite feature value") from None
        try:
            ids.append(_parse_id(sid))
            labels.append(_parse_label(label))
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from None
        lines.append(lineno)
    if not lines:
        raise DatasetFormatError("dataset file contains no samples")
    blocks[-1] = block[: j + 1]
    return lines, ids, stamps, labels, np.concatenate(blocks)


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


class DatasetSummary(NamedTuple):
    """Per-slot class counts plus the overall positive ratio."""

    slot_starts: tuple[date, ...]
    pos_counts: np.ndarray
    neg_counts: np.ndarray
    positive_ratio: float
    slot_width: Period

    @property
    def n_slots(self) -> int:
        return len(self.slot_starts)


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
