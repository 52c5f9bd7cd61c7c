import math
from collections import Counter
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from driftlab.classifiers import KNNClassifier, LinearSGDClassifier, score_dataset
from driftlab.cli import _write_delay_slots, _write_delay_summary
from driftlab.dataset import LabeledDataset, Period
from driftlab.delay import (
    ConstraintViolationError,
    DelayPolicy,
    NoMisclassificationError,
    _mistake_q3,
    initial_scores,
    _most_uncertain,
    _predicted_class_probs,
    run_policy,
)
from driftlab.metrics import aut, point_estimates
from driftlab.splits import RatioSpec, SplitSpec, TemporalSplit, time_aware_split
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
    probs, pred = _predicted_class_probs(score_dataset(model, validation))
    return _mistake_q3(probs[pred != validation.labels])


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

    def test_all_correct_raises(self):
        d, model = slot_of({"a": 0.9, "b": 0.1}, labels=[1, 0])
        with pytest.raises(NoMisclassificationError):
            rejection_threshold(model, d)


class TestRunPolicyNone:
    def test_stationary_flat_curve_zero_cost(self):
        split = make_split(seed=1)
        res = run_policy(split, LinearSGDClassifier(epochs=25), DelayPolicy("none"), seed=1)
        assert res.labeled == 0
        assert res.quarantined == 0
        f1 = point_estimates(res.series, "f1")
        assert np.std(f1.values) < 0.12
        assert res.aut_f1 == aut(f1)

    def test_rejects_biased_split(self):
        split = make_split(seed=2)
        # Shuffle one future sample into the training set.
        leak = split.test_slots[3].subset([0])
        from driftlab.dataset import concat

        bad = TemporalSplit(
            concat([split.train, leak]), split.test_slots, split.spec, split.ratios
        )
        with pytest.raises(ConstraintViolationError, match="C1"):
            run_policy(bad, LinearSGDClassifier(epochs=5), DelayPolicy("none"), seed=0)


class TestRunPolicyIncremental:
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
    """Without ``scores0``, model 0 scores only the slots it serves."""

    @pytest.mark.parametrize(
        "policy",
        [DelayPolicy("none"), DelayPolicy("incremental"), DelayPolicy("active_learning", 0.1)],
        ids=["none", "incremental", "active_learning"],
    )
    def test_one_scores_call_per_slot(self, policy):
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
        assert len(calls) == 12
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
        # Instrument fit() to capture every retraining pool: each one must
        # contain the previous one plus only current-slot members.
        split = make_split(seed=6, velocity=0.3)
        pools: list[set] = []
        inner = LinearSGDClassifier(epochs=10)

        class Recording:
            def fit(self, train, seed):
                pools.append(set(train.ids))
                return inner.fit(train, seed)

        res = run_policy(
            split, Recording(), DelayPolicy("active_learning", al_budget=0.25), seed=6
        )
        assert all(c >= 1 for c in res.per_slot_labeled)
        assert len(pools) == len(split.test_slots)
        for earlier, later in zip(pools, pools[1:]):
            assert earlier <= later
        slot_ids = [set(s.ids) for s in split.test_slots]
        for i, (earlier, later) in enumerate(zip(pools, pools[1:])):
            added = later - earlier
            assert added <= slot_ids[i]
            assert len(added) == res.per_slot_labeled[i]

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
        ps = tmp_path / "summary.csv"
        _write_delay_summary(ps, "sigma_hat", [res])
        lines = ps.read_text().strip().splitlines()
        assert lines[0] == "policy,phi_mode,L,Q,AUT_F1"
        assert lines[1].startswith("active_learning:0.1,sigma_hat,")
        pd = tmp_path / "slots.csv"
        _write_delay_slots(pd, res)
        rows = pd.read_text().strip().splitlines()
        assert rows[0] == "slot,timestamp,labeled,rejected,f1,precision,recall"
        assert len(rows) == 1 + len(split.test_slots)
