import calendar
import json
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.dataset import LabeledDataset, Period, add_period
from driftlab.splits import (
    EmptySlotError,
    InsufficientSpanError,
    RatioSpec,
    SplitSpec,
    TemporalSplit,
    UpsamplingRequiredError,
    check_c1,
    check_c2,
    check_c3,
    disjoint_class_pools,
    enforce_ratio,
    past_testing_pools,
    run_all_checks,
    split_from_manifest,
    split_to_manifest,
    time_aware_pools,
    time_aware_split,
)

from conftest import cut, downsampled, monthly_dataset


def flat_dataset(n_neg, n_pos, day=date(2015, 1, 15)):
    ids = [f"n{i}" for i in range(n_neg)] + [f"p{i}" for i in range(n_pos)]
    labels = [0] * n_neg + [1] * n_pos
    feats = np.arange(len(ids), dtype=float)[:, None]
    return LabeledDataset(ids, [day] * len(ids), labels, feats)


def default_spec(origin=date(2014, 1, 1), w=12, s=24):
    return SplitSpec(
        train_window=Period(months=w),
        test_window=Period(months=s),
        slot_width=Period(months=1),
        origin=origin,
    )


class FakeScorer:
    """Scores keyed by the first feature value."""

    def __init__(self, table):
        self.table = table

    def scores(self, features):
        return np.array([self.table[float(f[0])] for f in features])


class TestEnforceRatio:
    def test_already_at_target_unchanged(self):
        d = flat_dataset(90, 10)
        # Nothing is cut: every row is selected, of all of d or of the rows given.
        assert enforce_ratio(d, 0.10, seed=0).tolist() == list(range(len(d)))
        rows = np.array([95, 3, 40, 99, 7, 12, 60, 22, 33, 50])
        assert enforce_ratio(d, 0.2, rows=rows, seed=0).tolist() == rows.tolist()

    def test_downsample_negatives_oracle(self):
        # Oracle: keep_neg = round(pos * (1 - t) / t) = round(20 * 0.8 / 0.2) = 80.
        d = flat_dataset(180, 20)
        out = cut(d, 0.20, seed=1)
        assert out.n_positive == 20
        assert len(out) - out.n_positive == 80
        assert out.positive_ratio == pytest.approx(0.20)

    def test_downsample_positives_oracle(self):
        # delta below the natural ratio removes positives:
        # keep_pos = round(neg * t / (1 - t)) = round(1000/9) = 111.
        d = flat_dataset(1000, 200)
        out = cut(d, 0.10, seed=2)
        assert len(out) - out.n_positive == 1000
        assert out.n_positive == 111
        assert out.positive_ratio == pytest.approx(111 / 1111, abs=1e-12)

    def test_half_keep_count_rounds_to_even(self):
        # 10 negatives at target 0.2 keep 10 * 0.2 / 0.8 = 2.5 positives exactly:
        # half to even keeps 2, not 3.
        d = flat_dataset(10, 5)
        assert 10 * 0.2 / (1.0 - 0.2) == 2.5
        for seed in range(3):
            out = cut(d, 0.2, seed=seed)
            assert (len(out) - out.n_positive, out.n_positive) == (10, 2)

    def test_uncertainty_mode_keeps_least_confident(self):
        # Four negatives with confidences {a: .4, b: .1, c: .3, d: .2} plus one
        # positive; target 0.25 keeps the 3 lowest-confidence negatives.
        ids = ["a", "b", "c", "d", "p"]
        feats = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        d = LabeledDataset(ids, [date(2015, 1, 1)] * 5, [0, 0, 0, 0, 1], feats)
        scorer = FakeScorer({0.0: 0.9, 1.0: 0.6, 2.0: 0.2, 3.0: 0.3, 4.0: 0.95})
        conf = np.abs(scorer.scores(feats) - 0.5)
        out = cut(d, 0.25, confidence=conf, seed=0)
        assert set(out.ids) == {"b", "c", "d", "p"}

    def test_uncertainty_tie_broken_by_id(self):
        ids = ["z", "a", "p"]
        feats = np.array([[0.0], [1.0], [2.0]])
        d = LabeledDataset(ids, [date(2015, 1, 1)] * 3, [0, 0, 1], feats)
        scorer = FakeScorer({0.0: 0.6, 1.0: 0.4, 2.0: 0.9})  # equal confidence 0.1
        conf = np.abs(scorer.scores(feats) - 0.5)
        out = cut(d, 0.5, confidence=conf, seed=0)
        assert set(out.ids) == {"a", "p"}

    def test_tie_broken_by_id_of_the_row_given(self):
        # Rows 3 ("n3") and 1 ("n1") tie; the id read from d, not the pool position, decides.
        d = flat_dataset(4, 1)
        rows = np.array([3, 1, 4])
        kept = enforce_ratio(d, 0.5, rows=rows, confidence=np.array([0.1, 0.1, 0.3]), seed=0)
        assert kept.tolist() == [1, 4]

    def test_uncertainty_requires_scorer(self):
        # One scorer confidence per row, or none at all.
        with pytest.raises(ValueError, match="scorer"):
            enforce_ratio(flat_dataset(10, 2), 0.5, confidence=np.zeros(3), seed=0)

    @pytest.mark.parametrize("n", [11, 13, 20], ids=["short", "long", "whole_stream"])
    def test_confidence_needs_one_value_per_pool_row(self, n):
        # The pool is 12 of d's 20 rows; d's own length is no longer the pool's.
        d = flat_dataset(16, 4)
        rows = np.arange(2, 14)
        with pytest.raises(ValueError, match="one scorer confidence per row"):
            enforce_ratio(d, 0.5, rows=rows, confidence=np.zeros(n), seed=0)

    def test_upsampling_rejected(self):
        # A dataset with zero positives cannot reach any positive target.
        ids = [f"n{i}" for i in range(10)]
        d = LabeledDataset(
            ids, [date(2015, 1, 1)] * 10, [0] * 10, np.zeros((10, 1))
        )
        with pytest.raises(UpsamplingRequiredError):
            enforce_ratio(d, 0.3, seed=0)

    def test_never_removes_under_represented_class(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n_neg = int(rng.integers(5, 200))
            n_pos = int(rng.integers(5, 200))
            t = float(rng.uniform(0.05, 0.95))
            d = flat_dataset(n_neg, n_pos)
            out = cut(d, t, seed=trial)
            if d.positive_ratio > t:
                assert len(out) - out.n_positive == n_neg
            elif d.positive_ratio < t:
                assert out.n_positive == n_pos
            # Subset property and the rounding bound.
            assert set(out.ids) <= set(d.ids)
            assert abs(out.positive_ratio - t) <= 1.0 / len(out) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.floats(0.01, 0.99),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    def test_ratio_bound_property(self, n_neg, n_pos, target, uncertain, seed):
        d = flat_dataset(n_neg, n_pos)
        conf = np.random.default_rng(seed).uniform(0.0, 0.5, size=len(d)) if uncertain else None
        out = cut(d, target, confidence=conf, seed=seed)
        assert within_ratio_bound(out, target)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 120),
        st.integers(1, 120),
        st.floats(0.01, 0.99),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_given_equal_cutting_their_subset(self, n_neg, n_pos, target, uncertain, seed):
        # Cutting rows r of d picks, bit for bit, r's rows that a cut of d.subset(r) keeps.
        rng = np.random.default_rng(seed)
        d = flat_dataset(n_neg, n_pos)
        r = rng.permutation(len(d))[: int(rng.integers(1, len(d) + 1))]
        # Few distinct confidences, so the id tie-break decides often.
        conf = rng.integers(0, 4, size=len(r)) / 8 if uncertain else None
        try:
            expected = r[enforce_ratio(d.subset(r), target, confidence=conf, seed=seed)]
        except UpsamplingRequiredError:
            with pytest.raises(UpsamplingRequiredError):
                enforce_ratio(d, target, rows=r, confidence=conf, seed=seed)
            return
        got = enforce_ratio(d, target, rows=r, confidence=conf, seed=seed)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()
        assert within_ratio_bound(d.subset(got), target)

    def test_deterministic_given_seed(self):
        d = flat_dataset(150, 30)
        a = enforce_ratio(d, 0.4, seed=9)
        b = enforce_ratio(d, 0.4, seed=9)
        assert a.tolist() == b.tolist()

    def test_preserves_input_order(self):
        d = flat_dataset(50, 10)
        kept = enforce_ratio(d, 0.4, seed=3)
        assert kept.tolist() == sorted(kept.tolist())
        # Given rows, the kept ones come back in the order they were given.
        rows = np.arange(len(d))[::-1]
        kept = enforce_ratio(d, 0.4, rows=rows, seed=3)
        assert kept.tolist() == sorted(kept.tolist(), reverse=True)


class TestTimeAwareSplit:
    def test_paper_shaped_split(self):
        # 36 months, train 2014, test 2015-2016 in 24 monthly slots.
        d = monthly_dataset(36, 90, 10, seed=1)
        split = time_aware_split(d, default_spec(), RatioSpec(), seed=0)
        assert len(split.test_slots) == 24
        assert max(split.train.timestamps) <= date(2014, 12, 31)
        assert min(t for s in split.test_slots for t in s.timestamps) >= date(2015, 1, 1)
        assert split.slot_starts[0] == date(2015, 1, 1)
        assert split.slot_starts[-1] == date(2016, 12, 1)

    def test_identity_when_already_at_ratio(self):
        d = monthly_dataset(36, 90, 10, seed=2)
        split = time_aware_split(d, default_spec(), RatioSpec(), seed=0)
        # 10% everywhere already: nothing removed.
        assert len(split.train) == len(d.between(date(2014, 1, 1), date(2015, 1, 1)))
        assert sum(map(len, split.test_slots)) == len(d.between(date(2015, 1, 1), date(2017, 1, 1)))

    def test_slot_downsampling_oracle(self):
        # Each month 1000 neg + 200 pos; delta = 0.10 keeps 1000 + 111 per slot.
        d = monthly_dataset(5, 1000, 200, seed=3)
        spec = SplitSpec(Period(months=3), Period(months=2), Period(months=1), date(2014, 1, 1))
        split = time_aware_split(d, spec, RatioSpec(), seed=0)
        for slot in split.test_slots:
            assert len(slot) - slot.n_positive == 1000
            assert slot.n_positive == 111

    def test_insufficient_span(self):
        d = monthly_dataset(20, 50, 10, seed=4)
        with pytest.raises(InsufficientSpanError):
            time_aware_split(d, default_spec(), RatioSpec(), seed=0)

    def test_empty_slot_class(self):
        d = monthly_dataset(6, 50, 10, seed=5)
        # Knock every positive out of one test month.
        keep = [
            i
            for i, (t, y) in enumerate(zip(d.timestamps, d.labels))
            if not (y == 1 and date(2014, 5, 1) <= t < date(2014, 6, 1))
        ]
        d2 = d.subset(keep)
        spec = SplitSpec(Period(months=3), Period(months=3), Period(months=1), date(2014, 1, 1))
        with pytest.raises(EmptySlotError, match="slot"):
            time_aware_split(d2, spec, RatioSpec(), seed=0)

    def test_no_sample_in_both_sides(self):
        d = monthly_dataset(8, 40, 10, seed=6)
        spec = SplitSpec(Period(months=4), Period(months=4), Period(months=1), date(2014, 1, 1))
        split = time_aware_split(d, spec, RatioSpec(), seed=0)
        train_ids = set(split.train.ids)
        for slot in split.test_slots:
            assert train_ids.isdisjoint(slot.ids)

    def test_round_trip_checks_pass_many_seeds(self):
        d = monthly_dataset(10, 60, 12, seed=7)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        for seed in range(8):
            split = time_aware_split(d, spec, RatioSpec(), seed=seed)
            verdicts = run_all_checks(split)
            assert all(v.passed for v in verdicts.values()), {
                k: v.as_dict() for k, v in verdicts.items() if not v.passed
            }

    def test_deterministic(self):
        d = monthly_dataset(10, 60, 12, seed=8)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        a = time_aware_split(d, spec, RatioSpec(), seed=5)
        b = time_aware_split(d, spec, RatioSpec(), seed=5)
        assert a.train.ids == b.train.ids
        assert all(x.ids == y.ids for x, y in zip(a.test_slots, b.test_slots))

    def test_test_side_independent_of_phi(self):
        d = monthly_dataset(10, 60, 30, seed=9)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        a = time_aware_split(d, spec, RatioSpec(phi=0.10), seed=5)
        b = time_aware_split(d, spec, RatioSpec(phi=0.45), seed=5)
        assert all(x.ids == y.ids for x, y in zip(a.test_slots, b.test_slots))


def daily_dataset(first: date, last: date) -> LabeledDataset:
    """One negative and one positive on every day of ``[first, last]``."""
    days = [first + timedelta(days=i) for i in range((last - first).days + 1)]
    n = 2 * len(days)
    return LabeledDataset(
        [f"d{i}" for i in range(n)],
        [t for t in days for _ in (0, 1)],
        [0, 1] * len(days),
        np.zeros((n, 1)),
    )


# Origins on any day, with the month ends where calendar arithmetic clamps
# (days 28-31) drawn often.
ORIGINS = st.one_of(
    st.dates(date(2013, 1, 1), date(2015, 12, 31)),
    st.builds(
        lambda y, m, d: date(y, m, min(d, calendar.monthrange(y, m)[1])),
        st.integers(2013, 2015),
        st.integers(1, 12),
        st.integers(28, 31),
    ),
)
SLOT_WIDTHS = st.one_of(
    st.builds(lambda n: Period(months=n), st.integers(1, 2)),
    st.builds(lambda n: Period(days=n), st.integers(1, 20)),
)


@st.composite
def dense_specs(draw):
    """A random SplitSpec and a dense dataset that covers all of its windows."""
    width = draw(SLOT_WIDTHS)
    spec = SplitSpec(
        width.scaled(draw(st.integers(1, 3))),
        width.scaled(draw(st.integers(2, 4))),
        width,
        draw(ORIGINS),
    )
    past_end = add_period(add_period(spec.origin, spec.test_window), spec.train_window)
    last = max(spec.test_end, past_end)
    return spec, daily_dataset(spec.origin - timedelta(days=3), last + timedelta(days=3))


class TestOneSlotGrid:
    """Every window is cut from one edge list, and C2 is audited against it."""

    @staticmethod
    def assert_tiles(d: LabeledDataset, slots, lo: date, hi: date) -> None:
        ids = [i for slot in slots for i in slot.ids]
        assert len(ids) == len(set(ids))
        assert sorted(ids) == sorted(d.between(lo, hi).ids)

    @given(dense_specs())
    @settings(max_examples=150, deadline=None)
    def test_time_aware_test_pools_tile_the_test_window(self, case):
        spec, d = case
        _, tests = time_aware_pools(d, spec, seed=0)
        self.assert_tiles(d, [d.subset(rows) for rows, _ in tests], spec.test_origin, spec.test_end)

    @given(dense_specs())
    @settings(max_examples=150, deadline=None)
    def test_past_testing_pools_tile_their_window(self, case):
        spec, d = case
        _, tests = past_testing_pools(d, spec, seed=0)
        end = add_period(spec.origin, spec.test_window)
        self.assert_tiles(d, [d.subset(rows) for rows, _ in tests], spec.origin, end)

    @given(dense_specs(), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_random_time_aware_splits_pass_c1_c3(self, case, seed):
        spec, d = case
        split = time_aware_split(d, spec, RatioSpec(sigma_hat=0.5, phi=0.5, delta=0.5), seed)
        verdicts = run_all_checks(split)
        assert all(v.passed for v in verdicts.values()), {
            k: v.as_dict() for k, v in verdicts.items() if not v.passed
        }

    def test_month_end_origin_keeps_every_test_day(self):
        # Test origin 2014-01-31: slot 1 is [02-28, 03-31), not [02-28, 03-28).
        spec = SplitSpec(Period(months=3), Period(months=4), Period(months=1), date(2013, 10, 31))
        d = daily_dataset(date(2013, 10, 1), date(2014, 6, 30))
        split = time_aware_split(d, spec, RatioSpec(sigma_hat=0.5, phi=0.5, delta=0.5), seed=0)
        assert spec.test_edges() == [
            date(2014, 1, 31),
            date(2014, 2, 28),
            date(2014, 3, 31),
            date(2014, 4, 30),
            date(2014, 5, 31),
        ]
        assert split.slot_starts == tuple(spec.test_edges()[:-1])
        tested = {t for slot in split.test_slots for t in slot.timestamps}
        for day in (28, 29, 30):
            assert date(2014, 3, day) in tested
        assert date(2014, 5, 30) in tested
        n_tested = sum(map(len, split.test_slots))
        assert n_tested == len(d.between(date(2014, 1, 31), date(2014, 5, 31)))
        assert all(v.passed for v in run_all_checks(split).values())


def two_slot_split(train_rows, slot_rows_list, origin=date(2014, 1, 1), w=2):
    """Hand-build a TemporalSplit from (id, date, label) rows; one stream, 1-dim zeros."""
    records = [*train_rows, *(r for rows in slot_rows_list for r in rows)]
    d = LabeledDataset(
        [r[0] for r in records],
        [r[1] for r in records],
        [r[2] for r in records],
        np.zeros((len(records), 1)),
    )
    cuts = np.cumsum([len(train_rows), *map(len, slot_rows_list)])
    train, *slots = np.split(np.arange(len(records)), cuts[:-1])
    spec = SplitSpec(
        Period(months=w), Period(months=len(slot_rows_list)), Period(months=1), origin
    )
    return TemporalSplit(d, train, tuple(slots), spec, RatioSpec())


def within_ratio_bound(d: LabeledDataset, target: float) -> bool:
    return abs(d.positive_ratio - target) <= 1.0 / len(d)


BIAS_CELLS = [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)]


class TestPastTestingSplit:
    @pytest.mark.parametrize("phi,delta", BIAS_CELLS)
    def test_trains_on_the_future_of_every_slot(self, phi, delta):
        d = monthly_dataset(36, 45, 15, seed=2)
        spec = default_spec()
        ratios = RatioSpec(phi=phi, delta=delta)
        train, slots = downsampled(d, past_testing_pools(d, spec, 4), ratios)
        assert len(slots) == spec.n_test_slots
        assert min(train.timestamps) > max(t for s in slots for t in s.timestamps)
        for k, slot in enumerate(slots):
            lo = add_period(spec.origin, spec.slot_width, k)
            hi = add_period(spec.origin, spec.slot_width, k + 1)
            assert all(lo <= t < hi for t in slot.timestamps)
            assert within_ratio_bound(slot, delta)
        assert within_ratio_bound(train, phi)

    def test_deterministic(self):
        d = monthly_dataset(36, 45, 15, seed=2)
        a = downsampled(d, past_testing_pools(d, default_spec(), 9), RatioSpec())
        b = downsampled(d, past_testing_pools(d, default_spec(), 9), RatioSpec())
        assert a[0].ids == b[0].ids
        assert [s.ids for s in a[1]] == [s.ids for s in b[1]]

    def test_insufficient_span(self):
        d = monthly_dataset(20, 9, 1)
        with pytest.raises(InsufficientSpanError):
            past_testing_pools(d, default_spec(), 0)


class TestDisjointClassSplit:
    @pytest.mark.parametrize("phi,delta", BIAS_CELLS)
    def test_every_positive_precedes_every_negative(self, phi, delta):
        d = monthly_dataset(36, 45, 15, seed=2)
        spec = default_spec()
        ratios = RatioSpec(phi=phi, delta=delta)
        train, (test,) = downsampled(d, disjoint_class_pools(d, spec, 4), ratios)
        windows = ((train, spec.origin, spec.test_origin), (test, spec.test_origin, spec.test_end))
        for part, lo, hi in windows:
            pos = [t for t, y in zip(part.timestamps, part.labels) if y == 1]
            neg = [t for t, y in zip(part.timestamps, part.labels) if y == 0]
            assert pos and neg
            assert max(pos) < min(neg)
            assert lo <= min(part.timestamps) and max(part.timestamps) < hi
        assert within_ratio_bound(train, phi)
        assert within_ratio_bound(test, delta)

    def test_insufficient_span(self):
        d = monthly_dataset(20, 9, 1)
        with pytest.raises(InsufficientSpanError):
            disjoint_class_pools(d, default_spec(), 0)

    def test_single_class_half_rejected(self):
        # No negatives from July 2014 on: the train window's late half is all positive.
        d = monthly_dataset(36, 9, 1)
        keep = [
            i for i, (t, y) in enumerate(zip(d.timestamps, d.labels))
            if y == 1 or t < date(2014, 7, 1)
        ]
        with pytest.raises(EmptySlotError):
            disjoint_class_pools(d.subset(keep), default_spec(), 0)


class TestCheckC1:
    def test_adjacent_windows_pass(self):
        split = two_slot_split(
            [("tr1", date(2014, 12, 31), 0), ("tr2", date(2014, 1, 5), 1)],
            [
                [("a", date(2015, 1, 1), 0), ("b", date(2015, 1, 20), 1)],
                [("c", date(2015, 2, 10), 0), ("d", date(2015, 2, 11), 1)],
            ],
            w=12,
        )
        assert check_c1(split).passed

    def test_future_train_sample_fails_with_id(self):
        split = two_slot_split(
            [("ok", date(2014, 6, 1), 0), ("leaky", date(2015, 1, 15), 1)],
            [
                [("a", date(2015, 1, 1), 0)],
                [("b", date(2015, 2, 3), 1)],
            ],
            w=12,
        )
        verdict = check_c1(split)
        assert not verdict.passed
        assert verdict.witnesses[0]["train_id"] == "leaky"
        assert verdict.witnesses[0]["test_id"] == "a"

    def test_last_training_day_on_first_test_day_fails(self):
        split = two_slot_split(
            [("tr1", date(2015, 1, 1), 0), ("tr2", date(2014, 1, 5), 1)],
            [
                [("b", date(2015, 1, 20), 1), ("a", date(2015, 1, 1), 0)],
                [("c", date(2015, 2, 10), 0), ("d", date(2015, 2, 11), 1)],
            ],
            w=12,
        )
        verdict = check_c1(split)
        assert not verdict.passed
        assert verdict.witnesses == (
            {"train_id": "tr1", "train_timestamp": "2015-01-01",
             "test_id": "a", "test_timestamp": "2015-01-01"},
        )

    def test_shuffled_kfold_style_split_fails(self):
        # Random, time-blind partition of a multi-year dataset.
        d = monthly_dataset(24, 30, 6, seed=10)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(d))
        cut = int(len(d) * 2 / 3)
        train, rest = np.sort(perm[:cut]), np.sort(perm[cut:])
        spec = SplitSpec(Period(months=12), Period(months=2), Period(months=1), date(2014, 1, 1))
        half = len(rest) // 2
        split = TemporalSplit(d, train, (rest[:half], rest[half:]), spec, RatioSpec())
        assert not check_c1(split).passed


class TestCheckC2:
    def test_constructed_split_passes_cleanly(self):
        d = monthly_dataset(10, 60, 12, seed=11)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        split = time_aware_split(d, spec, RatioSpec(), seed=0)
        verdict = check_c2(split)
        assert verdict.passed
        assert verdict.warnings == ()

    def test_out_of_window_sample_fails_with_witness(self):
        split = two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)],
            [
                [("a", date(2014, 3, 5), 0), ("b", date(2014, 3, 9), 1)],
                [("strayed", date(2014, 3, 28), 0), ("c", date(2014, 4, 9), 1)],
            ],
        )
        verdict = check_c2(split)
        assert not verdict.passed
        assert verdict.witnesses == ({"slot": 1, "id": "strayed", "timestamp": "2014-03-28"},)

    def test_sample_on_the_next_slots_first_day_fails(self):
        # Slot 0 is [2014-03-01, 2014-04-01): its right edge is not inside it.
        split = two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)],
            [
                [("a", date(2014, 3, 1), 0), ("edge", date(2014, 4, 1), 1)],
                [("c", date(2014, 4, 9), 0), ("d", date(2014, 4, 10), 1)],
            ],
        )
        verdict = check_c2(split)
        assert not verdict.passed
        assert verdict.witnesses == ({"slot": 0, "id": "edge", "timestamp": "2014-04-01"},)

    def test_samples_on_their_slots_first_day_pass(self):
        # Each slot's left edge is inside it: [2014-03-01, 2014-04-01), [2014-04-01, ...).
        split = two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)],
            [
                [("a", date(2014, 3, 1), 0), ("b", date(2014, 3, 9), 1)],
                [("c", date(2014, 4, 1), 0), ("d", date(2014, 4, 1), 1)],
            ],
        )
        verdict = check_c2(split)
        assert verdict.passed
        assert verdict.witnesses == ()

    def test_disjoint_class_windows_warn_but_pass(self):
        # Positives from week 1, negatives from week 4 of the same slot.
        split = two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)],
            [
                [
                    ("p1", date(2014, 3, 2), 1),
                    ("p2", date(2014, 3, 5), 1),
                    ("n1", date(2014, 3, 24), 0),
                    ("n2", date(2014, 3, 27), 0),
                ],
                [("a", date(2014, 4, 5), 0), ("b", date(2014, 4, 9), 1)],
            ],
        )
        verdict = check_c2(split)
        assert verdict.passed
        assert {"slot": 0, "kind": "disjoint_class_windows"} in verdict.warnings

    def test_missing_class_slot_warns(self):
        split = two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)],
            [
                [("a", date(2014, 3, 5), 0)],
                [("b", date(2014, 4, 9), 1), ("c", date(2014, 4, 10), 0)],
            ],
        )
        verdict = check_c2(split)
        assert verdict.passed
        assert {"slot": 0, "kind": "missing_class"} in verdict.warnings

    def test_train_side_missing_class_warns(self):
        split = two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)],
            [
                [("a", date(2014, 3, 5), 0), ("b", date(2014, 3, 6), 1)],
                [("c", date(2014, 4, 9), 1), ("d", date(2014, 4, 10), 0)],
            ],
        )
        verdict = check_c2(split)
        kinds = {w["kind"] for w in verdict.warnings}
        assert "train_missing_class" in kinds


class TestCheckC3:
    def make(self, ratios_per_slot, size=200):
        slots = []
        for k, r in enumerate(ratios_per_slot):
            n_pos = int(round(r * size))
            rows = [(f"s{k}p{i}", date(2014, 3 + k, 5), 1) for i in range(n_pos)]
            rows += [(f"s{k}n{i}", date(2014, 3 + k, 6), 0) for i in range(size - n_pos)]
            slots.append(rows)
        return two_slot_split(
            [("tr", date(2014, 1, 10), 0), ("tr2", date(2014, 2, 1), 1)], slots
        )

    def test_all_at_sigma_hat(self):
        verdict = check_c3(self.make([0.10, 0.10]))
        assert verdict.passed
        assert all(row["pass"] for row in verdict.per_slot)

    def test_unrealistic_slot_named(self):
        verdict = check_c3(self.make([0.10, 0.90]))
        assert not verdict.passed
        failing = [row for row in verdict.per_slot if not row["pass"]]
        assert failing == [
            {"slot": 1, "ratio": pytest.approx(0.90), "low": 0.08, "high": 0.12, "pass": False}
        ]

    def test_band_edges(self):
        # 8/100 and 12/100 sit exactly on the inclusive edges of 0.10 +/- 0.02.
        verdict = check_c3(self.make([0.08, 0.12], size=100))
        assert [row["ratio"] for row in verdict.per_slot] == [0.08, 0.12]
        assert verdict.passed

    def test_just_below_the_band_fails(self):
        verdict = check_c3(self.make([0.07, 0.10], size=100))
        assert not verdict.passed
        assert [row["pass"] for row in verdict.per_slot] == [False, True]

    def test_verdict_json_shape(self):
        verdict = check_c3(self.make([0.10, 0.90]))
        blob = verdict.as_dict()
        assert set(blob) == {"constraint", "pass", "witnesses", "per_slot", "warnings"}
        assert blob["constraint"] == "C3"


class TestManifest:
    def test_round_trip_preserves_verdicts(self):
        d = monthly_dataset(10, 60, 12, seed=12)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        split = time_aware_split(d, spec, RatioSpec(), seed=0)
        blob = json.loads(json.dumps(split_to_manifest(split)))
        back = split_from_manifest(blob)
        assert back.train.ids == split.train.ids
        for a, b in zip(back.test_slots, split.test_slots):
            assert a.ids == b.ids
            assert a.timestamps == b.timestamps
        for k, v in run_all_checks(back).items():
            assert v.passed, k

    def manifest(self):
        d = monthly_dataset(10, 60, 12, seed=12)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        return json.loads(json.dumps(split_to_manifest(time_aware_split(d, spec, RatioSpec(), 0))))

    def test_id_on_two_sides_is_one_row(self):
        blob = self.manifest()
        leaked = blob["test_slots"][2][0]
        blob["train"].append(leaked)
        split = split_from_manifest(blob)
        assert len(split.d) == len(blob["train"]) + sum(map(len, blob["test_slots"])) - 1
        (row,) = set(split.train_rows) & set(split.slot_rows[2])
        assert split.d.ids[row] == leaked["id"]
        assert split.verdicts["C1"].witnesses[0]["train_id"] == leaked["id"]

    def test_split_spec_codec(self):
        spec = SplitSpec(Period(days=90), Period(days=60), Period(days=30), date(2014, 1, 31))
        blob = spec.as_dict()
        assert blob == {
            "origin": "2014-01-31",
            "train_window": "90d",
            "test_window": "60d",
            "slot_width": "30d",
        }
        assert SplitSpec.from_dict(blob) == spec
        del blob["slot_width"]
        with pytest.raises(KeyError, match="slot_width"):
            SplitSpec.from_dict(blob)

    # Python 3.11's date.fromisoformat takes the basic and week forms; 3.10's does not.
    @pytest.mark.parametrize("origin", ["20140101", "2014-W01-3", "2014W013", 20140101])
    def test_origin_is_an_iso_day(self, origin):
        blob = self.manifest()["spec"]
        assert SplitSpec.from_dict(blob).origin == date(2014, 1, 1)
        blob["origin"] = origin
        with pytest.raises(ValueError, match=f"^'{origin}' is not a YYYY-MM-DD date$"):
            SplitSpec.from_dict(blob)

    @pytest.mark.parametrize(
        "key,value,message",
        [("timestamp", "20140105", "'20140105' is not a YYYY-MM-DD date"),
         ("timestamp", "2014-W01-7", "'2014-W01-7' is not a YYYY-MM-DD date"),
         ("label", 1.7, "label must be 0 or 1, got 1.7"),
         ("label", "01", "label must be 0 or 1, got '01'"),
         ("label", 2, "label must be 0 or 1, got 2"),
         ("id", None, "id must be a string or an integer, got null"),
         ("id", True, "id must be a string or an integer, got true"),
         ("id", [1], "id must be a string or an integer, got [1]"),
         ("id", 1.0, "id must be a string or an integer, got 1.0")],
    )
    def test_manifest_record_follows_the_dataset_rules(self, key, value, message):
        blob = self.manifest()
        blob["train"][0][key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split_from_manifest(blob)

    def test_manifest_missing_ratio_key_rejected(self):
        d = monthly_dataset(10, 60, 12, seed=12)
        spec = SplitSpec(Period(months=4), Period(months=6), Period(months=1), date(2014, 1, 1))
        blob = json.loads(json.dumps(split_to_manifest(time_aware_split(d, spec, RatioSpec(), 0))))
        del blob["ratios"]["phi"]
        with pytest.raises(KeyError, match="phi"):
            split_from_manifest(blob)
