import calendar
import csv
import hashlib
import json
import os
import re
import threading
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import dataset
from driftlab.classifiers import KNNModel
from driftlab.cli import _fan_out
from driftlab.dataset import (
    DatasetFormatError,
    EmptySlotError,
    LabeledDataset,
    Period,
    add_period,
    load_dataset,
    slot_edges,
    summarize,
    write_csv,
    write_jsonl,
)


def slot_index(t, origin, width):
    """Index k with ``t`` in ``[origin + k*width, origin + (k+1)*width)`` on the slot_edges grid."""
    if t < origin:
        raise ValueError(f"timestamp {t} precedes slot origin {origin}")
    return len(slot_edges(origin, width, t + timedelta(days=1))) - 2


def make_dataset(rows):
    """rows: list of (id, iso_date, label, feature_list)."""
    return LabeledDataset(
        [r[0] for r in rows],
        [date.fromisoformat(r[1]) for r in rows],
        [r[2] for r in rows],
        np.array([r[3] for r in rows], dtype=float),
    )


# Dates in 2013-2016 with month starts and month ends drawn often, so window
# edges land on the days where calendar arithmetic clamps.
DAYS = st.one_of(
    st.dates(date(2013, 1, 1), date(2016, 12, 31)),
    st.builds(lambda y, m: date(y, m, 1), st.integers(2013, 2016), st.integers(1, 12)),
    st.builds(
        lambda y, m: date(y, m, calendar.monthrange(y, m)[1]),
        st.integers(2013, 2016),
        st.integers(1, 12),
    ),
)
WIDTHS = st.one_of(
    st.builds(lambda n: Period(months=n), st.integers(1, 4)),
    st.builds(lambda n: Period(days=n), st.integers(1, 90)),
)


def dated_dataset(stamps, labels=None):
    n = len(stamps)
    labels = [i % 2 for i in range(n)] if labels is None else labels
    return LabeledDataset([f"s{i}" for i in range(n)], stamps, labels, np.zeros((n, 1)))


class TestPeriod:
    def test_parse(self):
        assert Period.parse("12m") == Period(months=12)
        assert Period.parse("45d") == Period(days=45)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Period.parse("1 fortnight")

    def test_slots_of(self):
        assert Period(months=24).slots_of(Period(months=1)) == 24
        with pytest.raises(ValueError):
            Period(months=24).slots_of(Period(days=30))
        with pytest.raises(ValueError):
            Period(months=7).slots_of(Period(months=2))


def test_month_days_matches_calendar():
    for year in range(1900, 2101):
        for month in range(1, 13):
            assert dataset._month_days(year, month) == calendar.monthrange(year, month)[1]


class TestSlotIndex:
    def test_origin_maps_to_zero(self):
        assert slot_index(date(2014, 1, 1), date(2014, 1, 1), Period(months=1)) == 0

    def test_second_month(self):
        assert slot_index(date(2014, 2, 15), date(2014, 1, 1), Period(months=1)) == 1

    def test_calendar_month_counting_oracle(self):
        # Oracle: walk month boundaries one at a time and count.
        origin, t, width = date(2014, 1, 1), date(2016, 12, 31), Period(months=1)
        k, boundary = 0, origin
        while True:
            nxt = add_period(origin, width, k + 1)
            if nxt > t:
                break
            k += 1
            boundary = nxt
        assert boundary <= t < add_period(origin, width, k + 1)
        assert k == 35
        assert slot_index(t, origin, width) == 35

    def test_rejects_time_before_origin(self):
        with pytest.raises(ValueError):
            slot_index(date(2013, 12, 31), date(2014, 1, 1), Period(months=1))

    def test_day_widths(self):
        origin = date(2014, 1, 1)
        assert slot_index(date(2014, 1, 14), origin, Period(days=7)) == 1
        assert slot_index(date(2014, 1, 13), origin, Period(days=7)) == 1
        assert slot_index(date(2014, 1, 15), origin, Period(days=7)) == 2

    def test_month_end_origin_clamping(self):
        # Boundaries come from the origin, not iterated: Jan 31 -> Feb 28 -> Mar 31.
        origin, width = date(2014, 1, 31), Period(months=1)
        assert slot_index(date(2014, 2, 27), origin, width) == 0
        assert slot_index(date(2014, 2, 28), origin, width) == 1
        assert slot_index(date(2014, 3, 30), origin, width) == 1
        assert slot_index(date(2014, 3, 31), origin, width) == 2

    @given(
        offset=st.integers(min_value=0, max_value=2000),
        origin_day=st.integers(min_value=0, max_value=365),
        months=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_t(self, offset, origin_day, months):
        origin = date(2013, 1, 1) + timedelta(days=origin_day)
        t = origin + timedelta(days=offset)
        width = Period(months=months)
        k0 = slot_index(t, origin, width)
        k1 = slot_index(t + timedelta(days=1), origin, width)
        assert k0 <= k1 <= k0 + 1
        # Half-open membership.
        assert add_period(origin, width, k0) <= t < add_period(origin, width, k0 + 1)

    @given(origin=DAYS, offset=st.integers(min_value=0, max_value=1500), width=WIDTHS)
    @settings(max_examples=300, deadline=None)
    def test_matches_one_period_at_a_time_oracle(self, origin, offset, width):
        t = origin + timedelta(days=offset)
        k = 0
        while add_period(origin, width, k + 1) <= t:
            k += 1
        assert slot_index(t, origin, width) == k


class TestLabeledDataset:
    def test_invariants(self):
        d = make_dataset(
            [
                ("a", "2014-01-01", 0, [1.0, 2.0]),
                ("b", "2014-03-05", 1, [0.5, 0.5]),
            ]
        )
        assert len(d) == 2
        assert d.dimensionality == 2
        assert d.time_range == (date(2014, 1, 1), date(2014, 3, 5))
        assert d.positive_ratio == 0.5

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_dataset(
                [
                    ("a", "2014-01-01", 0, [1.0]),
                    ("a", "2014-01-02", 1, [2.0]),
                ]
            )

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            make_dataset([("a", "2014-01-01", 2, [1.0])])

    def test_bad_label_message_lists_each_value_once(self):
        rows = [("a", "2014-01-01", 2, [1.0]), ("b", "2014-01-02", -1, [1.0]),
                ("c", "2014-01-03", 2, [1.0]), ("d", "2014-01-04", 1, [1.0])]
        with pytest.raises(ValueError) as err:
            make_dataset(rows[:1])
        # Under numpy 2 this reads "labels must be 0 or 1, got [np.int64(2)]".
        assert str(err.value) == f"labels must be 0 or 1, got {[np.int64(2)]}"
        with pytest.raises(ValueError) as err:
            make_dataset(rows)
        assert str(err.value) == f"labels must be 0 or 1, got {[np.int64(-1), np.int64(2)]}"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            LabeledDataset([], [], [], np.zeros((0, 1)))

    def test_subset_preserves_order_and_content(self):
        d = make_dataset(
            [
                ("a", "2014-01-01", 0, [1.0]),
                ("b", "2014-01-02", 1, [2.0]),
                ("c", "2014-01-03", 0, [3.0]),
            ]
        )
        sub = d.subset([2, 0])
        assert sub.ids == ("c", "a")
        assert sub.features[:, 0].tolist() == [3.0, 1.0]

    def test_between_is_half_open(self):
        d = make_dataset(
            [
                ("a", "2014-01-31", 0, [1.0]),
                ("b", "2014-02-01", 1, [2.0]),
            ]
        )
        w = d.between(date(2014, 1, 1), date(2014, 2, 1))
        assert w.ids == ("a",)

    @given(stamps=st.lists(DAYS, min_size=1, max_size=40), start=DAYS, end=DAYS)
    @settings(max_examples=300, deadline=None)
    def test_between_matches_comprehension_oracle(self, stamps, start, end):
        d = dated_dataset(stamps)
        expected = [i for i, t in enumerate(stamps) if start <= t < end]
        if not expected:
            with pytest.raises(EmptySlotError):
                d.between(start, end)
            return
        w = d.between(start, end)
        assert w.ids == tuple(f"s{i}" for i in expected)
        assert w.timestamps == tuple(stamps[i] for i in expected)
        assert w.labels.tolist() == [i % 2 for i in expected]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_dataset([("a", "2014-01-01", 0, [1.0]), ("b", "2014-01-02", 1, [bad])])


@st.composite
def built_datasets(draw, max_rows=25):
    """A dataset made by the constructor: distinct ids, any days, 0/1 labels, finite features."""
    n = draw(st.integers(1, max_rows))
    dim = draw(st.integers(0, 3))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    stamps = draw(st.lists(DAYS, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n * dim, max_size=n * dim))
    return LabeledDataset(ids, stamps, labels, np.array(cells, dtype=float).reshape(n, dim))


def assert_same_dataset(got, want):
    """Equal ids, times and labels, features equal bit for bit, and read-only columns."""
    assert got.ids == want.ids
    for name in ("times", "labels", "features"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def first_repeat(ids):
    seen = set()
    return next(i for i in ids if i in seen or seen.add(i))


class TestDerivedDatasets:
    """subset, between and concat equal the same rows built through the constructor."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_subset_equals_the_constructor(self, data):
        d = data.draw(built_datasets())
        n = len(d)
        idx = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=2 * n))
        if min(idx) < 0:
            with pytest.raises(IndexError, match=f"row index out of range for {n} rows"):
                d.subset(idx)
            return
        ids = [d.ids[i] for i in idx]
        if len(set(idx)) < len(idx):
            message = re.escape(f"duplicate sample id {first_repeat(ids)!r}")
            with pytest.raises(ValueError, match=message):
                d.subset(idx)
            return
        want = LabeledDataset(ids, d.times[idx], d.labels[idx], d.features[idx])
        assert_same_dataset(d.subset(np.array(idx)), want)
        assert_same_dataset(d.subset(idx), want)

    @given(built_datasets(), DAYS, DAYS)
    @settings(max_examples=200, deadline=None)
    def test_between_equals_the_constructor(self, d, start, end):
        rows = [i for i, t in enumerate(d.timestamps) if start <= t < end]
        if not rows:
            with pytest.raises(EmptySlotError):
                d.between(start, end)
            return
        assert d.rows_between(start, end).tolist() == rows
        want = LabeledDataset([d.ids[i] for i in rows], d.times[rows], d.labels[rows],
                              d.features[rows])
        assert_same_dataset(d.between(start, end), want)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_concat_equals_the_constructor(self, data):
        d = data.draw(built_datasets())
        order = data.draw(st.permutations(range(len(d))))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(d) - 1)), max_size=3)))
        cuts = [c for c in cuts if c < len(d)]
        chunks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(d)])]
        parts = [
            LabeledDataset([d.ids[i] for i in c], d.times[c], d.labels[c], d.features[c])
            for c in chunks
        ]
        want = LabeledDataset([d.ids[i] for i in order], d.times[order], d.labels[order],
                              d.features[order])
        assert_same_dataset(dataset.concat(parts), want)

    def test_empty_subset_rejected(self):
        d = dated_dataset([date(2014, 1, 1), date(2014, 1, 2)])
        with pytest.raises(ValueError, match="non-empty"):
            d.subset([])

    def test_repeated_index_names_the_duplicate_id(self):
        d = dated_dataset([date(2014, 1, 1), date(2014, 1, 2), date(2014, 1, 3)])
        with pytest.raises(ValueError, match="duplicate sample id 's1'"):
            d.subset([1, 2, 1])
        with pytest.raises(ValueError, match="duplicate sample id 's2'"):
            d.subset([2, 0, 2])

    @pytest.mark.parametrize("rows", [[-1], [2, 0, -1], [0, 3]])
    def test_index_outside_the_rows_rejected(self, rows):
        # A negative index does not wrap to the end, as it would in Python.
        d = dated_dataset([date(2014, 1, 1), date(2014, 1, 2), date(2014, 1, 3)])
        with pytest.raises(IndexError, match="row index out of range for 3 rows"):
            d.subset(rows)

    def test_concat_rejects_overlapping_ids(self):
        d = dated_dataset([date(2014, 1, 1), date(2014, 1, 2), date(2014, 1, 3)])
        with pytest.raises(ValueError, match="duplicate sample id 's1'"):
            dataset.concat([d.subset([0, 1]), d.subset([2, 1])])


# The largest |feature| load_dataset accepts in a file of 3 features.
LOAD_BOUND_3 = float(np.sqrt(np.finfo(np.float64).max / 16))


class TestLoading:
    def test_csv_three_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "id,timestamp,label,f0,f1\n"
            "a,2014-01-01,0,1.0,2.0\n"
            "b,2014-01-02,1,0.25,0.5\n"
            "c,2014-02-03,0,-1.5,3.25\n"
        )
        d = load_dataset(str(p))
        assert len(d) == 3
        assert d.dimensionality == 2
        assert d.ids == ("a", "b", "c")

    def test_csv_dimensionality_error_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "id,timestamp,label,f0,f1\n"
            "a,2014-01-01,0,1.0,2.0\n"
            "b,2014-01-02,1,0.25,0.5,9.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 3.*dimensionality"):
            load_dataset(str(p))

    def test_csv_bad_timestamp_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,timestamp,label,f0\na,2014-13-01,0,1.0\n")
        with pytest.raises(DatasetFormatError, match="line 2.*timestamp"):
            load_dataset(str(p))

    # Python 3.11's date.fromisoformat takes the basic and week forms; 3.10's does not.
    @pytest.mark.parametrize(
        "stamp", ["20140101", "2014-W02-3", "2014W023", "2014-1-01",
                  "2014-01-01 ", "\uff12014-01-01", "2014-01-0\u0661", "2014-W0-23"],
    )
    @pytest.mark.parametrize("name", ["d.csv", "d.jsonl"])
    def test_timestamp_is_an_iso_day(self, tmp_path, name, stamp):
        p = tmp_path / name
        if name == "d.csv":
            p.write_text(f"id,timestamp,label,f0\nz,2014-01-01,0,1.0\na,{stamp},0,1.0\n")
        else:
            p.write_text("".join(json.dumps({"id": i, "timestamp": t, "label": 0, "features": [1]})
                                 + "\n" for i, t in [("z", "2014-01-01"), ("a", stamp)]))
        lineno = 3 if name == "d.csv" else 2
        with pytest.raises(DatasetFormatError,
                           match=f"^line {lineno}: unparseable timestamp {re.escape(repr(stamp))}$"):
            load_dataset(str(p))
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("line", ["5", "null", "[1]", '"x"', "true"])
    def test_jsonl_line_must_be_an_object(self, tmp_path, line):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [1]}\n'
                     + line + "\n")
        with pytest.raises(DatasetFormatError, match="^line 2: not a JSON object$"):
            load_dataset(str(p))

    # An id is a JSON string or an integer by exact type, so null cannot pose as "None".
    @pytest.mark.parametrize("sid", ["null", "true", "false", "[1]", "1.5", '{"a": 1}'])
    def test_jsonl_id_is_a_string_or_an_integer(self, tmp_path, sid):
        p = tmp_path / "d.jsonl"
        line = '{{"id": {}, "timestamp": "2014-01-01", "label": 0, "features": [1]}}\n'
        p.write_text(line.format('"None"') + line.format(sid))
        shown = sid if sid in ("null", "true", "false") else repr(json.loads(sid))
        message = f"line 2: id must be a string or an integer, got {shown}"
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            load_dataset(str(p))
        p.write_text(line.format('"None"') + line.format("5") + line.format(2**70))
        assert load_dataset(str(p)).ids == ("None", "5", str(2**70))

    @pytest.mark.parametrize(
        "name,text",
        [("d.csv", b"id,timestamp,label,f0\na,2014-01-01,0,1.0\nb\xff,2014-01-02,1,2.0\n"),
         ("d.csv", b"id,timestamp,label,f\xe9\n"),
         ("d.jsonl", b'{"id": "a\xc3", "timestamp": "2014-01-01", "label": 0, "features": [1]}\n')],
    )
    def test_file_that_is_not_utf8_is_malformed(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_bytes(text)
        with pytest.raises(DatasetFormatError, match="^file is not UTF-8 text"):
            load_dataset(str(p))
        assert os.listdir(tmp_path) == [name]

    def test_csv_duplicate_id_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,timestamp,label,f0\na,2014-01-01,0,1.0\na,2014-01-02,1,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3.*duplicate"):
            load_dataset(str(p))

    @pytest.mark.parametrize(
        "name,text",
        [
            ("d.csv", "id,timestamp,label,f0\na,2014-01-01,0,1.0\nb,2014-01-02,1,nan\n"),
            ("d.csv", "id,timestamp,label,f0\na,2014-01-01,0,1.0\nb,2014-01-02,1,-inf\n"),
            (
                "d.jsonl",
                '{"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [1.0]}\n'
                '{"id": "b", "timestamp": "2014-01-02", "label": 1, "features": [NaN]}\n',
            ),
            (
                "d.jsonl",
                '{"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [1.0]}\n'
                '{"id": "b", "timestamp": "2014-01-02", "label": 1, "features": [Infinity]}\n',
            ),
            (
                "d.jsonl",
                '{"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [1.0]}\n'
                '{"id": "b", "timestamp": "2014-01-02", "label": 1, "features": [1%s]}\n'
                % ("0" * 400),
            ),
        ],
    )
    def test_non_finite_feature_names_line(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        lineno = 3 if name.endswith(".csv") else 2
        with pytest.raises(DatasetFormatError, match=f"line {lineno}: non-finite"):
            load_dataset(str(p))

    @pytest.mark.parametrize("dim", [1, 20, 300])
    def test_overflow_scale_feature_names_line(self, tmp_path, dim):
        # At the bound every squared distance between two rows is finite,
        # under kNN scoring too; one step past it, a file is rejected.
        bound = np.sqrt(np.finfo(np.float64).max / (4 * (dim + 1)))
        header = "id,timestamp,label," + ",".join(f"f{i}" for i in range(dim))
        values = [bound, -bound, np.nextafter(bound, np.inf)]
        rows = [f"{sid},2014-01-0{n},{n % 2}," + ",".join([repr(float(v))] * dim)
                for n, (sid, v) in enumerate(zip("abc", values), start=1)]
        p = tmp_path / "d.csv"
        p.write_text("\n".join([header] + rows[:2]) + "\n")
        d = load_dataset(str(p))
        diff = d.features[0] - d.features[1]
        assert np.isfinite(diff @ diff)
        assert KNNModel(d.features, d.labels, d.ids, 1).scores(d.features).tolist() == [1.0, 0.0]
        p.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(DatasetFormatError, match=r"line 4: \|feature\| exceeds"):
            load_dataset(str(p))

    @staticmethod
    def per_cell_floats(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return np.array([[float(v) for v in row[3:]] for row in list(csv.reader(fh))[1:]])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            # Every float load_dataset accepts in a 3-feature file.
            st.lists(st.floats(-LOAD_BOUND_3, LOAD_BOUND_3), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from([1, 2, 3, dataset._CSV_CHUNK_ROWS]),
    )
    def test_csv_features_equal_per_cell_float(self, tmp_path_factory, rows, chunk_rows):
        # repr writes both decimal ("0.1") and exponent ("1e-07") numerals.
        d = make_dataset([(f"r{i}", "2014-01-01", 0, f) for i, f in enumerate(rows)])
        p = tmp_path_factory.mktemp("csv") / "d.csv"
        write_csv(d, str(p))
        with mock.patch.object(dataset, "_CSV_CHUNK_ROWS", chunk_rows):
            loaded = load_dataset(str(p)).features
        assert loaded.view(np.int64).tolist() == self.per_cell_floats(p).view(np.int64).tolist()
        assert loaded.view(np.int64).tolist() == d.features.view(np.int64).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.from_regex(r"[-+]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})([eE][-+]?[0-9]{1,2})?",
                          fullmatch=True),
            min_size=1,
            max_size=30,
        )
    )
    def test_csv_numerals_equal_per_cell_float(self, tmp_path_factory, numerals):
        p = tmp_path_factory.mktemp("csv") / "d.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "timestamp", "label", "f0"])
            writer.writerows([f"r{i}", "2014-01-01", 0, v] for i, v in enumerate(numerals))
        loaded = load_dataset(str(p)).features
        assert loaded.view(np.int64).tolist() == self.per_cell_floats(p).view(np.int64).tolist()

    @pytest.mark.parametrize(
        "lines,lineno",
        [
            (["a,2014-01-01,0,x"], 2),
            (["a,2014-01-01,0,1.0", "b,2014-01-02,1,0x10"], 3),
            (["a,2014-01-01,0,1.0", "b,2014-01-02,1,2.0", "c,2014-01-03,0,1e"], 4),
            (["a,2014-01-01,0,1.0", "b,2014-01-02,1,", "c,2014-01-03,0,2.0"], 3),
            # A line's features are checked before its label and later lines.
            (["a,2014-01-01,0,1.0", "b,2014-01-02,7,one"], 3),
            (["a,2014-01-01,0,one", "b,2014-13-02,1,2.0"], 2),
            (["a,2014-01-01,0,one", "b,2014-01-02,1,2.0,3.0"], 2),
            # JSONL, whose bad cell is an integer beyond float range.
            ([json.dumps({"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [10**400]}),
              json.dumps({"id": "b", "timestamp": "2014-01-02", "label": 7, "features": [1.0]})], 1),
        ],
    )
    @pytest.mark.parametrize("chunk_rows", [1, 2, dataset._CSV_CHUNK_ROWS])
    def test_csv_non_numeric_names_line(self, tmp_path, monkeypatch, lines, lineno, chunk_rows):
        monkeypatch.setattr(dataset, "_CSV_CHUNK_ROWS", chunk_rows)
        if lines[0].startswith("{"):
            p, header, error = tmp_path / "d.jsonl", "", "non-finite"
        else:
            p, header, error = tmp_path / "d.csv", "id,timestamp,label,f0\n", "non-numeric"
        p.write_text(header + "".join(line + "\n" for line in lines))
        with pytest.raises(DatasetFormatError, match=f"^line {lineno}: {error} feature value$"):
            load_dataset(str(p))

    @pytest.mark.parametrize(
        "last,error",
        [
            ("d,2014-01-03,0,x", "line 5: non-numeric feature value"),
            ("c,2014-01-03,0,3.0", "line 5: duplicate id 'c' (first seen line 4)"),
            ("d,2014-01-03,0", "line 5: feature dimensionality mismatch"),
            ("d,2014-13-03,0,3.0", "line 5: unparseable timestamp"),
        ],
    )
    def test_csv_error_names_the_physical_line(self, tmp_path, last, error):
        # The first record's quoted id spans lines 2-3, so the third record is on line 5.
        p = tmp_path / "d.csv"
        p.write_text('id,timestamp,label,f0\n"a\nb",2014-01-01,0,1.0\nc,2014-01-02,1,2.0\n'
                     + last + "\n")
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(error)}"):
            load_dataset(str(p))

    def test_jsonl_matches_csv(self, tmp_path):
        # Cross-format round-trip oracle: identical content, field by field.
        rows = [
            ("a", "2014-01-01", 0, [1.0, 2.0]),
            ("b", "2014-01-02", 1, [0.25, 0.5]),
            ("c", "2014-02-03", 0, [-1.5, 3.25]),
        ]
        pc = tmp_path / "d.csv"
        pj = tmp_path / "d.jsonl"
        pc.write_text(
            "id,timestamp,label,f0,f1\n"
            + "".join(f"{i},{t},{y},{f[0]},{f[1]}\n" for i, t, y, f in rows)
        )
        pj.write_text(
            "".join(
                json.dumps({"id": i, "timestamp": t, "label": y, "features": f}) + "\n"
                for i, t, y, f in rows
            )
        )
        dc = load_dataset(str(pc))
        dj = load_dataset(str(pj))
        assert dc.ids == dj.ids
        assert dc.timestamps == dj.timestamps
        assert dc.labels.tolist() == dj.labels.tolist()
        np.testing.assert_array_equal(dc.features, dj.features)

    def test_round_trip_through_writers(self, tmp_path):
        d = make_dataset(
            [
                ("a", "2014-01-01", 0, [1.0, 2.0]),
                ("b", "2014-01-02", 1, [0.1, -0.333]),
            ]
        )
        pc = tmp_path / "out.csv"
        pj = tmp_path / "out.jsonl"
        write_csv(d, str(pc))
        write_jsonl(d, str(pj))
        for p in (pc, pj):
            back = load_dataset(str(p))
            assert back.ids == d.ids
            assert back.timestamps == d.timestamps
            np.testing.assert_array_equal(back.features, d.features)


def parse_counter(monkeypatch):
    """Count the parses ``load_dataset`` makes, of either format."""
    calls = []
    for name in ("_load_csv", "_load_jsonl"):
        def counted(fh, _parse=getattr(dataset, name)):
            calls.append(fh)
            return _parse(fh)
        monkeypatch.setattr(dataset, name, counted)
    return calls


# Ids that need quoting in a CSV, or that are not ASCII.
AWKWARD_IDS = ["plain", "com,ma", 'quo"te', "new\nline", "na\u00efve \u2603 \u65e5\u672c", " "]


class TestParseCache:
    """``load_dataset`` keeps a file's parsed columns in ``<path>.driftlab-cache``."""

    @staticmethod
    def written(tmp_path, fmt, ids=AWKWARD_IDS):
        d = make_dataset([(sid, f"2014-0{1 + i % 9}-1{i % 10}", i % 2, [i / 3, -1e-300, 1e150])
                          for i, sid in enumerate(ids)])
        p = tmp_path / f"d.{fmt}"
        (write_csv if fmt == "csv" else write_jsonl)(d, str(p))
        return d, p

    @staticmethod
    def sidecar(p):
        return p.parent / (p.name + dataset._CACHE_SUFFIX)

    @pytest.mark.parametrize(
        "fmt,ids",
        [("csv", AWKWARD_IDS), ("jsonl", AWKWARD_IDS),
         # JSON can escape a lone surrogate, which UTF-8 cannot encode.
         ("jsonl", AWKWARD_IDS + ["\ud800"])],
    )
    def test_hit_equals_miss(self, tmp_path, monkeypatch, fmt, ids):
        made, p = self.written(tmp_path, fmt, ids)
        parses = parse_counter(monkeypatch)
        miss = load_dataset(str(p))
        assert len(parses) == 1 and self.sidecar(p).is_file()
        hit = load_dataset(str(p))
        assert len(parses) == 1
        assert_same_dataset(hit, miss)
        assert_same_dataset(miss, made)

    def test_one_changed_byte_misses(self, tmp_path, monkeypatch):
        _, p = self.written(tmp_path, "csv")
        load_dataset(str(p))
        old = self.sidecar(p).read_bytes()
        text = p.read_bytes()
        at = text.index(b",0.0,")
        p.write_bytes(text[:at + 1] + b"5" + text[at + 2:])
        parses = parse_counter(monkeypatch)
        assert load_dataset(str(p)).features[0, 0] == 5.0
        assert len(parses) == 1
        assert self.sidecar(p).read_bytes() != old
        assert load_dataset(str(p)).features[0, 0] == 5.0
        assert len(parses) == 1

    def test_key_holds_this_modules_source(self):
        source = Path(dataset.__file__).read_bytes()
        assert dataset._code_digest() == hashlib.sha256(source).hexdigest()

    # A hit skips the text checks, trusting that the code which wrote the sidecar
    # would parse the file to the same columns. So another dataset.py, Python or
    # numpy parses once and rewrites the sidecar with the same payload.
    @pytest.mark.parametrize(
        "other",
        [lambda mp: mp.setattr(dataset, "_code_digest", lambda: "0" * 64),
         lambda mp: mp.setattr(dataset, "sys", SimpleNamespace(version_info=(3, 99, 0))),
         lambda mp: mp.setattr(np, "__version__", "0.0.0")],
        ids=["parse-code", "python", "numpy"],
    )
    def test_another_parser_reparses_and_rewrites(self, tmp_path, monkeypatch, other):
        made, p = self.written(tmp_path, "csv")
        load_dataset(str(p))
        old = self.sidecar(p).read_bytes()
        other(monkeypatch)
        parses = parse_counter(monkeypatch)
        assert_same_dataset(load_dataset(str(p)), made)
        assert len(parses) == 1
        new = self.sidecar(p).read_bytes()
        assert new[:32] != old[:32] and new[32:] == old[32:]
        assert_same_dataset(load_dataset(str(p)), made)
        assert len(parses) == 1

    @pytest.mark.parametrize("first,then", [("csv", "jsonl"), ("jsonl", "csv")])
    def test_formats_never_share_an_entry(self, tmp_path, first, then):
        # The same bytes read as the other format are parsed as that format.
        _, p = self.written(tmp_path, first)
        load_dataset(str(p), first)
        error = "invalid JSON" if then == "jsonl" else "header must start with"
        with pytest.raises(DatasetFormatError, match=error):
            load_dataset(str(p), then)

    @pytest.mark.parametrize(
        "damage",
        [lambda b: b[:0], lambda b: b[:31], lambda b: b[:64], lambda b: b[:-1],
         lambda b: b + b"x"]
        + [lambda b, i=i: b[:i % len(b)] + bytes([b[i] ^ 1]) + b[i % len(b) + 1:]
           # the key, the payload digest, n, a line number, a feature, the last id
           for i in (0, 40, 64, 80 + 8, 80 + 32 * 6 + 8, -1)],
        ids=["empty", "key-cut", "header-only", "last-byte-cut", "byte-added", "key-flip",
             "digest-flip", "n-flip", "line-flip", "feature-flip", "id-flip"],
    )
    def test_damaged_sidecar_reparses_and_is_rewritten(self, tmp_path, monkeypatch, damage):
        made, p = self.written(tmp_path, "csv")
        load_dataset(str(p))
        good = self.sidecar(p).read_bytes()
        self.sidecar(p).write_bytes(damage(good))
        parses = parse_counter(monkeypatch)
        assert_same_dataset(load_dataset(str(p)), made)
        assert len(parses) == 1
        assert self.sidecar(p).read_bytes() == good

    def test_concurrent_cold_loads_agree(self, tmp_path):
        # More processes than cores load one uncached file at once. Whichever
        # finishes last, each load returns the file's columns and one whole,
        # canonical sidecar remains.
        _, p = self.written(tmp_path, "csv")

        def load(_):
            d = load_dataset(str(p))
            return d.ids, d.times.tobytes(), d.labels.tobytes(), d.features.tobytes()

        want = load(None)
        canonical = self.sidecar(p).read_bytes()
        self.sidecar(p).unlink()
        assert _fan_out(load, list(range(8)), 8) == [want] * 8
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv" + dataset._CACHE_SUFFIX]
        assert self.sidecar(p).read_bytes() == canonical

    def test_read_only_directory_loads_and_writes_nothing(self, tmp_path, monkeypatch):
        made, p = self.written(tmp_path, "csv")
        tmp_path.chmod(0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                # Permission bits do not bind this user (root): refuse writes as
                # they would be refused to anyone else.
                def read_only_open(file, mode="r", *args, **kw):
                    if "w" in mode:
                        raise PermissionError(13, "Permission denied", str(file))
                    return open(file, mode, *args, **kw)

                monkeypatch.setattr(dataset, "open", read_only_open, raising=False)
            assert_same_dataset(load_dataset(str(p)), made)
        finally:
            tmp_path.chmod(0o755)
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_non_regular_file_is_parsed_and_not_cached(self, tmp_path):
        made, p = self.written(tmp_path, "csv")
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(p.read_bytes()))
        writer.start()
        try:
            assert_same_dataset(load_dataset(str(fifo)), made)
        finally:
            writer.join()
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "fifo.csv"]

    @pytest.mark.parametrize(
        "name,text",
        [
            ("d.csv", "id,timestamp,label,f0\na,2014-01-01,0,1.0\nb,2014-01-02,1,x\n"),
            ("d.csv", "id,timestamp,label,f0\na,2014-01-01,0,1.0\na,2014-01-02,1,2.0\n"),
            ("d.csv", "id,timestamp,label,f0\na,2014-01-01,0,1.0\nb,2014-01-02,1,inf\n"),
            ("d.csv", "id,timestamp,label,f0\n"),
            ("d.jsonl", '{"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [1]}\n{'),
        ],
    )
    def test_malformed_file_raises_and_leaves_no_sidecar(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        for _ in range(2):
            with pytest.raises(DatasetFormatError):
                load_dataset(str(p))
            assert os.listdir(tmp_path) == [name]

    def test_over_bound_sidecar_raises_like_the_parse(self, tmp_path):
        # A sidecar whose digests hold still gets every data check on a hit.
        big = np.nextafter(LOAD_BOUND_3, np.inf)
        rows = [("a", "2014-01-01", 0, [1.0] * 3), ("b", "2014-01-02", 1, [2.0] * 3),
                ("c", "2014-01-03", 0, [1.0, -big, 1.0])]
        p = tmp_path / "d.csv"
        write_csv(make_dataset(rows), str(p))
        with pytest.raises(DatasetFormatError) as parsed:
            load_dataset(str(p))
        assert str(parsed.value).startswith("line 4: |feature| exceeds")
        key = dataset._key_hash("csv")
        key.update(p.read_bytes())
        dataset._write_cache(str(self.sidecar(p)), key.digest(), [2, 3, 4], make_dataset(rows))
        with pytest.raises(DatasetFormatError) as hit:
            load_dataset(str(p))
        assert str(hit.value) == str(parsed.value)


class TestSummarize:
    def test_single_slot_ratio(self):
        rows = [(f"n{i}", "2014-01-15", 0, [0.0]) for i in range(90)]
        rows += [(f"p{i}", "2014-01-20", 1, [1.0]) for i in range(10)]
        s = summarize(make_dataset(rows), Period(months=1))
        assert s.n_slots == 1
        assert s.pos_counts.tolist() == [10]
        assert s.neg_counts.tolist() == [90]
        assert s.positive_ratio == pytest.approx(0.10)

    def test_paper_scale_overall_ratio(self):
        # 116,993 negatives + 12,735 positives -> ratio ~= 0.0982.
        n_neg, n_pos = 116_993, 12_735
        assert n_pos / (n_pos + n_neg) == pytest.approx(0.0982, abs=5e-5)
        # Same arithmetic through the library on a scaled-down mirror with
        # identical ratio handling at full integer counts.
        rows = [(f"n{i}", "2014-01-10", 0, [0.0]) for i in range(1000)]
        rows += [(f"p{i}", "2014-01-11", 1, [1.0]) for i in range(109)]
        s = summarize(make_dataset(rows), Period(months=1))
        assert s.positive_ratio == pytest.approx(109 / 1109)

    def test_calendar_month_boundary_two_slots(self):
        # Boundary oracle: calendar-month assignment puts the last day of
        # month k and the first day of month k+1 in different slots.
        d = make_dataset(
            [
                ("a", "2014-03-31", 0, [0.0]),
                ("b", "2014-04-01", 1, [1.0]),
            ]
        )
        s = summarize(d, Period(months=1))
        assert s.n_slots == 2
        assert (s.pos_counts + s.neg_counts).tolist() == [1, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        rows = []
        for i in range(300):
            day = date(2014, 1, 1) + timedelta(days=int(rng.integers(0, 400)))
            rows.append((f"s{i}", day.isoformat(), int(rng.integers(0, 2)), [0.0]))
        d = make_dataset(rows)
        s = summarize(d, Period(months=1))
        assert int((s.pos_counts + s.neg_counts).sum()) == len(d)
        # Consistency with slot_index against the snapped origin.
        origin = s.slot_starts[0]
        assert origin == date(2014, 1, 1)
        for t in d.timestamps:
            assert s.slot_starts[slot_index(t, origin, Period(months=1))] <= t

    def test_missing_class_slots_reported(self):
        d = make_dataset(
            [
                ("a", "2014-01-05", 0, [0.0]),
                ("b", "2014-02-05", 1, [1.0]),
                ("c", "2014-02-06", 0, [0.0]),
            ]
        )
        s = summarize(d, Period(months=1))
        assert (s.pos_counts.tolist(), s.neg_counts.tolist()) == ([0, 1], [1, 1])

    @given(rows=st.lists(st.tuples(DAYS, st.integers(0, 1)), min_size=1, max_size=60), width=WIDTHS)
    @settings(max_examples=200, deadline=None)
    def test_counts_match_per_row_slot_index_oracle(self, rows, width):
        stamps, labels = [t for t, _ in rows], [y for _, y in rows]
        s = summarize(dated_dataset(stamps, labels), width)
        first = min(stamps)
        origin = date(first.year, first.month, 1) if width.months else first
        n_slots = slot_index(max(stamps), origin, width) + 1
        pos, neg = [0] * n_slots, [0] * n_slots
        for t, y in rows:
            (pos if y else neg)[slot_index(t, origin, width)] += 1
        assert s.pos_counts.tolist() == pos
        assert s.neg_counts.tolist() == neg
        assert s.slot_starts == tuple(add_period(origin, width, k) for k in range(n_slots))
