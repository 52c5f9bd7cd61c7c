import math
from collections import Counter
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab.classifiers import (
    KNNClassifier,
    LinearSGDClassifier,
    predicted_labels,
    score_dataset,
)
from driftlab.cli import _write_delay_slots, _write_delay_summary
from driftlab.dataset import LabeledDataset, Period
from driftlab.delay import (
    ConstraintViolationError,
    DelayPolicy,
    _al_count,
    _fit,
    _mistake_q3,
    initial_scores,
    _most_uncertain,
    run_policy,
)
from driftlab.metrics import aut, point_estimates
from driftlab.splits import (
    RatioSpec,
    SplitSpec,
    TemporalSplit,
    least_confident_first,
    time_aware_split,
)
from driftlab.synthgen import DriftSpec, generate
from driftlab.tuning import TuningConfig, proper_validation_cut


def make_split(seed=0, months=20, w=8, n=120, velocity=0.0, churn=0.0, phi=0.10):
    d = generate(
        DriftSpec(
            months=months,
            samples_per_month=n,
            drift_velocity=velocity,
            family_churn=churn,
            spread=1.0,
            positive_ratio=0.10,
            ratio_jitter=0.0,
        ),
        seed=seed,
    )
    spec = SplitSpec(
        train_window=Period(months=w),
        test_window=Period(months=months - w),
        slot_width=Period(months=1),
        origin=date(2014, 1, 1),
    )
    return time_aware_split(d, spec, RatioSpec(phi=phi), seed=seed)


class FixedScoreModel:
    def __init__(self, table):
        self.table = table

    def scores(self, features):
        return np.array([self.table[float(f[0])] for f in features])


class ConstantClassifier:
    """Every model it fits scores every row ``score``."""

    def __init__(self, score):
        self.score = score

    def fit(self, train, seed):
        return self

    def scores(self, features):
        return np.full(len(features), self.score)


def slot_of(score_table, labels=None):
    ids = sorted(score_table)
    feats = np.array([[float(i)] for i, _ in enumerate(ids)])
    table = {float(i): score_table[k] for i, k in enumerate(ids)}
    labels = labels if labels is not None else [0] * len(ids)
    d = LabeledDataset(ids, [date(2015, 1, 5)] * len(ids), labels, feats)
    return d, FixedScoreModel(table)


def select_uncertain(model, slot, budget_count):
    """Ids of the budget_count slot members the model is least sure of, as run_policy ranks them."""
    picks = _most_uncertain(score_dataset(model, slot), slot.ids, budget_count)
    return [slot.ids[i] for i in picks]


class TestSelectUncertain:
    def test_picks_most_uncertain(self):
        d, model = slot_of({"a": 0.5, "b": 0.9, "c": 0.1, "d": 0.45})
        assert set(select_uncertain(model, d, 2)) == {"a", "d"}

    def test_whole_slot(self):
        d, model = slot_of({"a": 0.2, "b": 0.7})
        assert set(select_uncertain(model, d, 2)) == {"a", "b"}

    def test_tie_broken_by_ascending_id(self):
        d, model = slot_of({"a": 0.4, "b": 0.6})
        assert select_uncertain(model, d, 1) == ["a"]

    def test_budget_exceeds_slot(self):
        d, model = slot_of({"a": 0.4})
        with pytest.raises(ValueError, match="exceeds"):
            select_uncertain(model, d, 2)

    def test_ranked_most_uncertain_first(self):
        d, model = slot_of({"a": 0.5, "b": 0.9, "c": 0.1, "d": 0.45})
        assert select_uncertain(model, d, 4) == ["a", "d", "b", "c"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_score_ranking_equals_select_uncertain_on_ties(self, n):
        # |s - 0.5| ties at 0.1 ({b, d, e}) and at 0.4 ({a, c}).
        d, model = slot_of({"e": 0.4, "b": 0.6, "d": 0.4, "c": 0.9, "a": 0.1})
        ranked = _most_uncertain(score_dataset(model, d), d.ids, n)
        assert ranked == [1, 3, 4, 0, 2][:n]  # the rows of b, d, e, a, c
        assert select_uncertain(model, d, n) == ["b", "d", "e", "a", "c"][:n]


def rejection_threshold(model, validation):
    """Q3 of the mistakes' predicted-class probabilities, as run_policy computes it."""
    s = score_dataset(model, validation)
    return _mistake_q3(np.maximum(s, 1.0 - s)[predicted_labels(s) != validation.labels])


class TestRejectionThreshold:
    def test_interpolated_quartile(self):
        # Incorrect-prediction probabilities [.55, .6, .7, .9] -> Q3 = 0.75.
        d, model = slot_of(
            {"a": 0.55, "b": 0.6, "c": 0.7, "d": 0.9},
            labels=[0, 0, 0, 0],  # all predicted 1, all wrong
        )
        assert rejection_threshold(model, d) == pytest.approx(0.75)

    def test_single_mistake(self):
        d, model = slot_of({"a": 0.8, "b": 0.9}, labels=[0, 1])
        # Only "a" is wrong; threshold equals its predicted-class prob.
        assert rejection_threshold(model, d) == pytest.approx(0.8)

    def test_all_correct_gives_no_threshold(self):
        d, model = slot_of({"a": 0.9, "b": 0.1}, labels=[1, 0])
        assert rejection_threshold(model, d) is None

    # The virtual index (n - 1) * 0.75 falls t = 0, 0.75, 0.5, 0.25 and 0 past
    # an order statistic; dyadic values make every interpolation exact.
    @pytest.mark.parametrize(
        "wrong,q3",
        [([0.75], 0.75), ([1.0, 0.5], 0.875), ([1.0, 0.5, 0.75], 0.875),
         ([0.75, 1.0, 0.5, 0.625], 0.8125), ([0.875, 0.5, 1.0, 0.625, 0.75], 0.875)],
        ids=["n1", "n2", "n3", "n4", "n5"],
    )
    def test_q3_of_a_few_mistakes(self, wrong, q3):
        x = np.array(wrong)
        assert _mistake_q3(x) == q3 == float(np.quantile(x, 0.75, method="linear"))
        assert x.tolist() == wrong  # the input is left in its order

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(0.5, 1.0), min_size=1, max_size=300),
        # Forced repeats: every value drawn from a pool of at most five.
        st.lists(st.floats(0.5, 1.0), min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)),
    ))
    def test_q3_is_numpys_linear_quantile(self, wrong):
        x = np.array(wrong)
        assert _mistake_q3(x) == float(np.quantile(x, 0.75, method="linear"))


class TestRunPolicyNone:
    def test_stationary_flat_curve_zero_cost(self):
        split = make_split(seed=1)
        res = run_policy(split, LinearSGDClassifier(epochs=25), DelayPolicy("none"), seed=1)
        assert res.labeled == 0
        assert res.quarantined == 0
        f1 = point_estimates(res.series, "f1")
        assert np.std(f1.values) < 0.12
        assert res.aut_f1 == aut(f1)

    def test_score_of_one_half_counts_as_positive(self):
        split = make_split(seed=1)
        res = run_policy(split, ConstantClassifier(0.5), DelayPolicy("none"), seed=1)
        for slot, c in zip(split.test_slots, res.series.confusions):
            n_pos = slot.n_positive
            assert (c.tp, c.fp, c.tn, c.fn) == (n_pos, len(slot) - n_pos, 0, 0)

    @pytest.mark.parametrize("broken", ["C2", "C3"])
    def test_rejects_split_failing_c2_or_c3(self, broken):
        split = make_split(seed=2)
        d, slots = split.d, list(split.slot_rows)
        if broken == "C2":
            # A sample of slot 4 filed under slot 3.
            slots[3] = np.append(slots[3], slots[4][0])
        else:
            # Slot 1 keeps its positives and one negative.
            labels = d.labels[slots[1]]
            slots[1] = np.sort(np.r_[slots[1][labels == 1], slots[1][labels == 0][:1]])
        bad = TemporalSplit(d, split.train_rows, tuple(slots), split.spec, split.ratios)
        assert [k for k, v in bad.verdicts.items() if not v.passed] == [broken]
        with pytest.raises(ConstraintViolationError, match=broken):
            run_policy(bad, LinearSGDClassifier(epochs=5), DelayPolicy("none"), seed=0)

    def test_model_zero_fit_checks_c1(self):
        # initial_scores audits the split before it fits model 0.
        split = make_split(seed=2)
        leaked = split.slot_rows[3][0]
        bad = TemporalSplit(split.d, np.append(split.train_rows, leaked), split.slot_rows,
                            split.spec, split.ratios)
        fits = []

        class Recording:
            def fit(self, train, seed):
                fits.append(seed)

        with pytest.raises(ConstraintViolationError,
                           match=r"^seed 0: realistic split violates \['C1'\]$"):
            initial_scores(bad, Recording(), 0)
        assert fits == []

    def test_every_delay_fit_checks_c1(self):
        split = make_split(seed=2)
        leaked = split.slot_rows[3][0]
        train = split.d.subset(np.append(split.train_rows, leaked))
        with pytest.raises(ConstraintViolationError, match=repr(split.d.ids[leaked])):
            _fit(KNNClassifier(k=3), train, split.slot_starts[0], 0, "fit", 0)

    def test_rejects_biased_split(self):
        split = make_split(seed=2)
        # Shuffle one future sample into the training set.
        leaky = np.append(split.train_rows, split.slot_rows[3][0])
        bad = TemporalSplit(split.d, leaky, split.slot_rows, split.spec, split.ratios)
        with pytest.raises(ConstraintViolationError, match="C1"):
            run_policy(bad, LinearSGDClassifier(epochs=5), DelayPolicy("none"), seed=0)


def record_fits(split, inner, policy, seed):
    """The training ids, in order, and the model of every fit ``run_policy`` makes."""
    pools, models = [], []

    class Recording:
        def fit(self, train, fit_seed):
            pools.append(list(train.ids))
            models.append(inner.fit(train, fit_seed))
            return models[-1]

    run_policy(split, Recording(), policy, seed=seed)
    return pools, models


class TestRunPolicyIncremental:
    def test_pool_grows_by_whole_slots_in_slot_order(self):
        split = make_split(seed=6, velocity=0.3)
        pools, _ = record_fits(split, KNNClassifier(k=3), DelayPolicy("incremental"), seed=6)
        assert len(pools) == len(split.test_slots)
        assert pools[0] == list(split.train.ids)
        for i, (earlier, later) in enumerate(zip(pools, pools[1:])):
            assert later == earlier + list(split.test_slots[i].ids)

    def test_labels_every_object_and_helps_under_drift(self):
        auts_none, auts_inc = [], []
        for seed in range(3):
            split = make_split(seed=seed, velocity=0.35)
            none = run_policy(
                split, LinearSGDClassifier(epochs=25), DelayPolicy("none"), seed=seed
            )
            inc = run_policy(
                split, LinearSGDClassifier(epochs=25), DelayPolicy("incremental"), seed=seed
            )
            assert inc.labeled == sum(map(len, split.test_slots))
            assert inc.per_slot_labeled == tuple(len(s) for s in split.test_slots)
            assert inc.quarantined == 0
            auts_none.append(none.aut_f1)
            auts_inc.append(inc.aut_f1)
        assert np.mean(auts_inc) >= np.mean(auts_none)

    def test_first_slot_scored_by_same_model_as_none(self):
        split = make_split(seed=4, velocity=0.3)
        clf = LinearSGDClassifier(epochs=20)
        none = run_policy(split, clf, DelayPolicy("none"), seed=9)
        inc = run_policy(split, clf, DelayPolicy("incremental"), seed=9)
        assert none.series.confusions[0] == inc.series.confusions[0]


class TestRunPolicyScoresEachSlotOnce:
    """Without ``scores0``, model 0 scores every slot once, through
    :func:`initial_scores`, and each retrained model scores its one slot once."""

    @pytest.mark.parametrize(
        "policy,expected",
        [(DelayPolicy("none"), 12), (DelayPolicy("incremental"), 12 + 11),
         (DelayPolicy("active_learning", 0.1), 12 + 11)],
        ids=["none", "incremental", "active_learning"],
    )
    def test_one_scores_call_per_slot(self, policy, expected):
        split = make_split(seed=2, velocity=0.3)
        assert len(split.test_slots) == 12
        inner = KNNClassifier(k=3)
        calls = []

        class Counting:
            def fit(self, pool, seed):
                model = inner.fit(pool, seed)
                unwrapped = model.scores

                def scores(X):
                    calls.append(len(X))
                    return unwrapped(X)

                model.scores = scores
                return model

        res = run_policy(split, Counting(), policy, seed=3)
        assert len(calls) == expected
        shared = run_policy(split, inner, policy, seed=3, scores0=initial_scores(split, inner, 3))
        assert res.series == shared.series
        assert res.per_slot_labeled == shared.per_slot_labeled


class TestRunPolicyActiveLearning:
    def test_cost_is_sum_of_ceilings(self):
        split = make_split(seed=5)
        budget = 0.05
        res = run_policy(
            split,
            LinearSGDClassifier(epochs=20),
            DelayPolicy("active_learning", al_budget=budget),
            seed=5,
        )
        expected = [math.ceil(Fraction("0.05") * len(s)) for s in split.test_slots]
        assert res.per_slot_labeled == tuple(expected)
        assert res.labeled == sum(expected)
        assert res.quarantined == 0

    def test_training_pools_nested(self):
        # Instrument fit() to capture every retraining pool, in order: each
        # one is the previous one followed by the current slot's picks,
        # most uncertain first under the scores of the model that scored it.
        split = make_split(seed=6, velocity=0.3)
        pools, models = record_fits(split, LinearSGDClassifier(epochs=10),
                                    DelayPolicy("active_learning", al_budget=0.25), seed=6)
        assert len(pools) == len(split.test_slots)
        for i, (earlier, later) in enumerate(zip(pools, pools[1:])):
            slot = split.test_slots[i]
            uncertainty = np.abs(score_dataset(models[i], slot) - 0.5)
            count = math.ceil(Fraction("0.25") * len(slot))
            picks = least_confident_first(uncertainty, slot.ids)[:count]
            assert later == earlier + [slot.ids[k] for k in picks]

    def test_half_budget_beats_none_on_average(self):
        # Mean AUT(F1) at budget 0.5 exceeds the no-update baseline under
        # drift, over 5 seeds.
        from driftlab.classifiers import KNNClassifier

        gains = []
        for seed in range(5):
            split = make_split(seed=seed, months=16, w=8, velocity=0.35)
            clf = KNNClassifier(k=5)
            none = run_policy(split, clf, DelayPolicy("none"), seed=seed)
            al50 = run_policy(
                split, clf, DelayPolicy("active_learning", al_budget=0.5), seed=seed
            )
            gains.append(al50.aut_f1 - none.aut_f1)
        assert np.mean(gains) > 0

    def test_full_budget_equals_incremental_costs(self):
        split = make_split(seed=7)
        res = run_policy(
            split,
            LinearSGDClassifier(epochs=15),
            DelayPolicy("active_learning", al_budget=1.0),
            seed=7,
        )
        assert res.labeled == sum(map(len, split.test_slots))

    def test_count_is_the_exact_decimal_ceiling(self):
        # As floats, 0.07 * 100 is 7.000000000000001, whose ceiling is 8.
        assert _al_count(0.07, 100) == 7
        assert _al_count(0.071, 100) == 8

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.integers(1, 100_000))
    @example(1e-05, 100_000)
    @example(1e-05, 99_999)
    @example(0.07, 100)
    @example(1.0, 100_000)
    def test_count_is_the_ceiling_of_the_fraction(self, budget, slot_size):
        assert _al_count(budget, slot_size) == math.ceil(Fraction(repr(budget)) * slot_size)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="al_budget"):
            DelayPolicy("active_learning")
        with pytest.raises(ValueError, match="al_budget"):
            DelayPolicy("none", al_budget=0.1)


class TestRunPolicyRejection:
    def test_rejection_masks_but_never_rescores(self):
        split = make_split(seed=8, velocity=0.3)
        clf = LinearSGDClassifier(epochs=25)
        none = run_policy(split, clf, DelayPolicy("none"), seed=8)
        rej = run_policy(split, clf, DelayPolicy("rejection"), seed=8)
        assert rej.labeled == 0
        assert rej.quarantined == sum(rej.per_slot_rejected)
        assert rej.threshold is not None
        # Kept + rejected = slot size; confusions shrink by the rejected count.
        for k, slot in enumerate(split.test_slots):
            assert rej.series.confusions[k].total == len(slot) - rej.per_slot_rejected[k]
            assert none.series.confusions[k].total == len(slot)

    def test_scores_validation_pool_once(self):
        # The threshold and the refresh pool come from one scoring of the
        # validation tail.
        split = make_split(seed=8, velocity=0.3)
        scored: list[bytes] = []
        inner = LinearSGDClassifier(epochs=10)

        class Recording:
            def fit(self, pool, seed):
                model = inner.fit(pool, seed)
                unwrapped = model.scores

                def scores(X):
                    scored.extend(row.tobytes() for row in X)
                    return unwrapped(X)

                model.scores = scores
                return model

        rej = run_policy(split, Recording(), DelayPolicy("rejection"), seed=8)
        assert rej.threshold is not None
        cfg = TuningConfig(sigma_hat=split.ratios.sigma_hat)
        _, val_slots, _ = proper_validation_cut(split.train, split.spec, cfg, 8)
        counts = Counter(scored)
        assert all(counts[r.tobytes()] == 1 for s in val_slots for r in s.features)

    def test_rejected_counts_match_threshold_rule(self):
        split = make_split(seed=9, velocity=0.3)
        clf = LinearSGDClassifier(epochs=25)
        rej = run_policy(split, clf, DelayPolicy("rejection"), seed=9)
        # Recompute with the same deployed model: seed stream "delay","fit",0.
        from driftlab.rng import derive_rng

        model = clf.fit(split.train, int(derive_rng(9, "delay", "fit", 0).integers(2**31)))
        for k, slot in enumerate(split.test_slots):
            s = score_dataset(model, slot)
            p_hat = np.maximum(s, 1.0 - s)
            assert rej.per_slot_rejected[k] == int((p_hat <= rej.threshold).sum())

    def test_probability_equal_to_the_threshold_is_quarantined(self):
        # kNN probabilities are multiples of 1/k, so the mistakes' Q3 can equal
        # one of them: such an object counts in Q and not in the confusions.
        split = make_split(seed=0, velocity=0.3)
        clf = KNNClassifier(k=3)
        rej = run_policy(split, clf, DelayPolicy("rejection"), seed=0)
        p_hats = [np.maximum(s, 1.0 - s) for s in initial_scores(split, clf, 0)]
        assert any((p == rej.threshold).any() for p in p_hats)
        for k, p in enumerate(p_hats):
            assert rej.per_slot_rejected[k] == int((p <= rej.threshold).sum())
            assert rej.series.confusions[k].total == int((p > rej.threshold).sum())

    def test_perfect_validation_falls_back_to_no_rejection(self):
        # A cleanly separable stream: zero validation mistakes, so there is
        # no quantile to take; the run degrades to the none policy + warning.
        from conftest import monthly_dataset
        from driftlab.splits import time_aware_split as _split

        d = monthly_dataset(12, 90, 10, seed=0, spread=0.1)
        spec = SplitSpec(Period(months=6), Period(months=6), Period(months=1), date(2014, 1, 1))
        split = _split(d, spec, RatioSpec(), seed=0)
        res = run_policy(split, LinearSGDClassifier(epochs=25), DelayPolicy("rejection"), seed=0)
        assert res.threshold is None
        assert res.quarantined == 0
        assert any("rejection disabled" in w for w in res.warnings)

    def test_refresh_variant_still_valid_costs(self):
        split = make_split(seed=10, velocity=0.3)
        rej = run_policy(
            split,
            LinearSGDClassifier(epochs=20),
            DelayPolicy("rejection", refresh_threshold=True),
            seed=10,
        )
        assert rej.labeled == 0
        assert rej.quarantined == sum(rej.per_slot_rejected)


class TestRetuneEachStep:
    def test_retune_records_phis_on_grid(self):
        split = make_split(seed=11, months=16, w=6, velocity=0.3)
        cfg = TuningConfig(validation_fraction=0.34)
        res = run_policy(
            split,
            LinearSGDClassifier(epochs=15),
            DelayPolicy("incremental", retune_each_step=True),
            cfg=cfg,
            seed=11,
        )
        assert len(res.tuned_phis) == len(split.test_slots) - 1
        for phi in res.tuned_phis:
            assert 0.10 - 1e-9 <= phi <= 0.5 + 1e-9

    @pytest.mark.parametrize(
        "kind,budget", [("none", None), ("active_learning", 0.25), ("rejection", None)]
    )
    def test_only_incremental_retunes(self, kind, budget):
        with pytest.raises(ValueError, match="retune_each_step only applies to incremental"):
            DelayPolicy(kind, al_budget=budget, retune_each_step=True)


class TestCsvOutputs:
    def test_summary_and_slots(self, tmp_path):
        split = make_split(seed=12)
        res = run_policy(
            split,
            LinearSGDClassifier(epochs=10),
            DelayPolicy("active_learning", al_budget=0.1),
            seed=12,
        )
        _write_delay_summary(tmp_path, 0, "sigma_hat", [res])
        ps = tmp_path / "delay_summary_seed0.csv"
        lines = ps.read_text().strip().splitlines()
        assert lines[0] == "policy,phi_mode,L,Q,AUT_F1"
        assert lines[1].startswith("active_learning:0.1,sigma_hat,")
        _write_delay_slots(tmp_path, 0, res)
        pd = tmp_path / "delay_active_learning_0.1_slots_seed0.csv"
        rows = pd.read_text().strip().splitlines()
        assert rows[0] == "slot,timestamp,labeled,rejected,f1,precision,recall"
        assert len(rows) == 1 + len(split.test_slots)
