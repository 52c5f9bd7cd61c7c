from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.classifiers import KNNClassifier, LinearSGDClassifier
from driftlab.metrics import (
    Confusion,
    KFoldResult,
    MetricCurve,
    SlotSeries,
    aut,
    confusion_counts,
    cumulative_estimates,
    error_rate,
    kfold_eval,
    metric_value,
    point_estimates,
    prf1,
    slot_series,
    stratified_folds,
    write_curves_csv,
)

from conftest import blob_dataset


def series_from(confusions):
    starts = tuple(date(2015, 1 + k, 1) for k in range(len(confusions)))
    return SlotSeries(tuple(confusions), starts)


def curve(values, mode="point", metric="f1"):
    return MetricCurve(metric, mode, tuple(values))


class TestPrf1:
    def test_hand_arithmetic(self):
        p, r, f1 = prf1(Confusion(tp=8, fp=2, fn=4, tn=0))
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(8 / 12)
        assert f1 == pytest.approx(2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))
        assert f1 == pytest.approx(0.7273, abs=1e-4)

    def test_degenerate_slot_all_zero(self):
        assert prf1(Confusion(tn=10)) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert prf1(Confusion(tp=10)) == (1.0, 1.0, 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Confusion(tp=-1)


class TestErrorRate:
    def test_f1_target_is_one_minus_accuracy(self):
        c = Confusion(tp=5, tn=85, fp=5, fn=5)
        assert error_rate(c, "f1") == pytest.approx(0.10)

    def test_recall_target_is_fpr(self):
        assert error_rate(Confusion(tp=3, tn=50, fp=0, fn=1), "recall") == 0.0
        assert error_rate(Confusion(tn=90, fp=10), "recall") == pytest.approx(0.1)

    def test_precision_target_is_fnr(self):
        assert error_rate(Confusion(tp=7, fn=3), "precision") == pytest.approx(0.30)

    def test_zero_denominators(self):
        assert error_rate(Confusion(), "f1") == 0.0
        assert error_rate(Confusion(tp=1, fn=0), "recall") == 0.0
        assert error_rate(Confusion(tn=5), "precision") == 0.0


class TestEstimates:
    def test_point_identical_slots(self):
        c = Confusion(tp=3, fp=1, fn=1, tn=10)
        s = series_from([c, c])
        pc = point_estimates(s, "f1")
        assert pc.values[0] == pc.values[1]

    def test_point_f1_example(self):
        s = series_from([Confusion(tp=1), Confusion(fn=1)])
        assert point_estimates(s, "f1").values == (1.0, 0.0)

    def test_cumulative_recall_example(self):
        s = series_from([Confusion(tp=1), Confusion(fn=1)])
        assert cumulative_estimates(s, "recall").values == (1.0, 0.5)

    def test_cumulative_constant_equals_point(self):
        c = Confusion(tp=4, fp=2, fn=1, tn=20)
        s = series_from([c, c, c])
        assert point_estimates(s, "precision").values == cumulative_estimates(
            s, "precision"
        ).values

    def test_cumulative_smoother_on_random_series(self):
        rng = np.random.default_rng(0)
        var_pnt, var_cml = [], []
        for _ in range(120):
            confs = [
                Confusion(*[int(v) for v in rng.integers(0, 30, size=4)]) for _ in range(12)
            ]
            s = series_from(confs)
            var_pnt.append(np.var(point_estimates(s, "f1").values))
            var_cml.append(np.var(cumulative_estimates(s, "f1").values))
        assert np.mean(var_cml) < np.mean(var_pnt)


class TestAut:
    def test_perfect_classifier(self):
        assert aut(curve([1.0, 1.0])) == 1.0

    def test_single_trapezoid(self):
        assert aut(curve([1.0, 0.0])) == 0.5

    def test_four_point_oracle(self):
        # Independent trapezoid sum: (0.85 + 0.70 + 0.55) / 3.
        assert aut(curve([0.9, 0.8, 0.6, 0.5])) == pytest.approx(0.70, abs=1e-12)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            aut(curve([1.0]))

    @given(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=30
        ).map(lambda vs: [vs[0]] * len(vs))
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_curve_exact(self, values):
        assert aut(curve(values)) == values[0]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=100))
    @settings(max_examples=120, deadline=None)
    def test_matches_trapezoid_oracle_and_range(self, values):
        got = aut(curve(values))
        oracle = float(np.trapezoid(np.array(values))) / (len(values) - 1)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert 0.0 <= got <= 1.0 + 1e-15

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_pointwise_dominance(self, pairs):
        lo = [min(a, b) for a, b in pairs]
        hi = [max(a, b) for a, b in pairs]
        assert aut(curve(hi)) >= aut(curve(lo))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_shift_adds_constant(self, data):
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
        c = data.draw(st.floats(-min(values), 1.0 - max(values)))
        shifted = [min(max(v + c, 0.0), 1.0) for v in values]
        assert aut(curve(shifted)) == pytest.approx(aut(curve(values)) + c, abs=1e-12)

    def test_cml_label(self):
        assert curve([0.5, 0.5], mode="cumulative").area_label == "AUT_cml"
        assert curve([0.5, 0.5]).area_label == "AUT"


class TestSpatialTestingBiasMechanics:
    def test_removing_negatives_recall_stable_precision_up(self):
        d = blob_dataset(200, 40, seed=13, pos_center=(2.0, 2.0), spread=1.0)
        model = LinearSGDClassifier().fit(d, seed=0)
        slot = blob_dataset(300, 60, seed=14, pos_center=(2.0, 2.0), spread=1.0)
        base = confusion_counts(model, slot)
        p0, r0, _ = prf1(base)
        rng = np.random.default_rng(5)
        neg_idx = np.flatnonzero(slot.labels == 0)
        for _ in range(25):
            keep_neg = rng.choice(neg_idx, size=len(neg_idx) // 2, replace=False)
            keep = np.sort(np.concatenate([np.flatnonzero(slot.labels == 1), keep_neg]))
            c = confusion_counts(model, slot.subset(keep))
            p1, r1, _ = prf1(c)
            assert c.tp == base.tp and c.fn == base.fn
            assert r1 == r0
            assert p1 >= p0


class TestKFold:
    def test_perfectly_separable(self):
        d = blob_dataset(80, 40, seed=1, pos_center=(8.0, 8.0), spread=0.3)
        res = kfold_eval(d, LinearSGDClassifier(), k=5, seed=0)
        assert res.mean_f1 == 1.0

    def test_no_signal_near_half(self):
        # Labels independent of features, balanced: F1 ~ 0.5 on average.
        rng = np.random.default_rng(2)
        means = []
        for seed in range(4):
            X = rng.normal(size=(200, 3))
            y = np.array([0, 1] * 100)
            from driftlab.dataset import LabeledDataset
            from datetime import date as _date

            d = LabeledDataset(
                [f"s{i}" for i in range(200)], [_date(2014, 1, 1)] * 200, y, X
            )
            means.append(kfold_eval(d, KNNClassifier(k=5), k=5, seed=seed).mean_f1)
        assert abs(float(np.mean(means)) - 0.5) < 0.1

    def test_stratification_required(self):
        d = blob_dataset(50, 3, seed=4)
        with pytest.raises(ValueError, match="stratify"):
            kfold_eval(d, LinearSGDClassifier(), k=5, seed=0)

    def test_stratified_folds_deal_each_class_evenly(self):
        labels = np.array([1] * 7 + [0] * 23)
        folds = stratified_folds(labels, 4, np.random.default_rng(0))
        assert sorted(np.concatenate([test for _, test in folds])) == list(range(30))
        for train, test in folds:
            assert sorted(np.concatenate([train, test])) == list(range(30))
            assert list(test) == sorted(test)
            assert labels[test].sum() in (1, 2)  # 7 positives over 4 folds
            assert (labels[test] == 0).sum() in (5, 6)  # 23 negatives over 4 folds

    def test_deterministic(self):
        d = blob_dataset(60, 30, seed=6)
        a = kfold_eval(d, LinearSGDClassifier(), k=4, seed=3)
        b = kfold_eval(d, LinearSGDClassifier(), k=4, seed=3)
        assert a == b


class TestCsv:
    def test_curves_csv_layout(self, tmp_path):
        s = series_from([Confusion(tp=1), Confusion(fn=1)])
        curves = [point_estimates(s, "f1"), cumulative_estimates(s, "f1")]
        p = tmp_path / "curves.csv"
        write_curves_csv(str(p), s, curves)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "slot,timestamp,metric,mode,value"
        assert lines[1].startswith("0,2015-01-01,f1,point,")
        assert any(line.startswith("AUT,") for line in lines)
        assert any(line.startswith("AUT_cml,") for line in lines)
