import json
from collections import Counter
from datetime import date

import numpy as np
import pytest

from driftlab.classifiers import LinearSGDClassifier, TrainedModel
from driftlab.cli import _write_tuning
from driftlab.dataset import ConstraintViolationError, LabeledDataset, Period
from driftlab.metrics import Confusion, aut, confusion_counts, error_rate, point_estimates, slot_series
from driftlab.rng import derive_rng
from driftlab import tuning
from driftlab.splits import SplitSpec, enforce_ratio
from driftlab.synthgen import DriftSpec, generate
from driftlab.tuning import (
    TuningConfig,
    TuningResult,
    ValidationWindowError,
    proper_validation_cut,
    tune_phi,
)


def drifting_train(seed, months=12, n=150, velocity=0.25):
    return generate(
        DriftSpec(
            months=months,
            samples_per_month=n,
            drift_velocity=velocity,
            spread=1.0,
            positive_ratio=0.10,
            ratio_jitter=0.0,
        ),
        seed=seed,
    )


def spec_for(months=12):
    return SplitSpec(
        train_window=Period(months=months),
        test_window=Period(months=2),
        slot_width=Period(months=1),
        origin=date(2014, 1, 1),
    )


class ConstantScore:
    """A classifier whose every model scores every row 0.7."""

    class Model(TrainedModel):
        def scores(self, features):
            return np.full(len(features), 0.7)

    def fit(self, train, seed):
        return self.Model()


class TestTuningConfig:
    def test_default_error_ceilings(self):
        assert TuningConfig(target="f1").e_max == 0.10
        assert TuningConfig(target="recall").e_max == 0.05
        assert TuningConfig(target="precision").e_max == 0.15

    def test_grid_includes_both_endpoints(self):
        grid = TuningConfig(mu=0.05, sigma_hat=0.10).grid()
        assert grid[0] == pytest.approx(0.10)
        assert grid[-1] == pytest.approx(0.50)
        assert len(grid) == 9

    def test_grid_last_point_is_exactly_half(self):
        # 0.045 + 13 * 0.035 is 0.5000000000000001; the grid still ends on 0.5.
        grid = TuningConfig(mu=0.035, sigma_hat=0.045).grid()
        assert len(grid) == 14
        assert grid[-1] == 0.5

    def test_grid_respects_upper_bound(self):
        grid = TuningConfig(mu=0.07, sigma_hat=0.10).grid()
        assert all(p <= 0.5 + 1e-9 for p in grid)
        assert grid[-1] == pytest.approx(0.45)

    def test_validation(self):
        with pytest.raises(ValueError):
            TuningConfig(mu=0.0)
        with pytest.raises(ValueError):
            TuningConfig(target="auroc")


class TestProperValidationCut:
    def test_eight_four_cut(self):
        train = drifting_train(0)
        proper, val_slots, starts = proper_validation_cut(
            train, spec_for(), TuningConfig(), seed=0
        )
        # 1/3 of 12 slots -> 4 validation months, Sep-Dec.
        assert len(val_slots) == 4
        assert starts[0] == date(2014, 9, 1)
        assert max(proper.timestamps) < date(2014, 9, 1)
        for slot in val_slots:
            assert abs(slot.positive_ratio - 0.10) <= 1.0 / len(slot) + 1e-12

    def test_tail_length_is_rounded_down(self):
        # 0.3 of 12 slots is 3.6 -> 3 validation months, Oct-Dec.
        cfg = TuningConfig(validation_fraction=0.3)
        proper, val_slots, starts = proper_validation_cut(drifting_train(0), spec_for(), cfg, 0)
        assert len(val_slots) == 3
        assert starts[0] == date(2014, 10, 1)
        assert max(proper.timestamps) < date(2014, 10, 1)

    def test_too_short_window(self):
        train = drifting_train(1, months=3)
        with pytest.raises(ValidationWindowError):
            proper_validation_cut(train, spec_for(months=3), TuningConfig(), seed=0)

    def test_ragged_training_window_is_a_window_error(self):
        spec = SplitSpec(Period(months=10), Period(months=6), Period(months=3), date(2014, 1, 1))
        with pytest.raises(ValidationWindowError, match="10m is not a whole multiple of 3m"):
            proper_validation_cut(drifting_train(1), spec, TuningConfig(), seed=0)

    def test_validation_tail_ends_at_the_test_origin(self):
        # Origin 2013-10-31, W = 6m: the training grid runs 10-31, 11-30, ...,
        # 02-28, 03-31 and ends at the test origin 2014-04-30.
        spec = SplitSpec(Period(months=6), Period(months=2), Period(months=1), date(2013, 10, 31))
        train = generate(
            DriftSpec(months=7, samples_per_month=300, start=date(2013, 10, 1)), seed=2
        ).between(spec.origin, spec.test_origin)
        cfg = TuningConfig(sigma_hat=0.5, validation_fraction=0.34)
        proper, val_slots, starts = proper_validation_cut(train, spec, cfg, seed=0)
        assert starts == (date(2014, 2, 28), date(2014, 3, 31))
        assert max(proper.timestamps) < date(2014, 2, 28)
        # Downsampling to 0.5 keeps every positive, up to the last training day.
        tail = [(i, t) for i, t, y in zip(train.ids, train.timestamps, train.labels) if y == 1]
        tail = [(i, t) for i, t in tail if t >= date(2014, 3, 31)]
        assert max(t for _, t in tail) >= date(2014, 4, 28)
        assert {i for i, _ in tail} <= set(val_slots[-1].ids)


class TestTunePhi:
    def test_contract_and_brute_force_oracle(self):
        train = drifting_train(2)
        cfg = TuningConfig(target="f1")
        spec = spec_for()
        clf = LinearSGDClassifier(epochs=25)
        result = tune_phi(train, clf, cfg, spec, seed=7)

        # phi* sits on the grid within [sigma_hat, 0.5].
        assert cfg.sigma_hat - 1e-9 <= result.phi_star <= 0.5 + 1e-9
        assert any(
            abs(result.phi_star - (cfg.sigma_hat + j * cfg.mu)) < 1e-9 for j in range(20)
        )
        # AUT at phi* never falls below the sigma_hat start.
        assert result.best_aut >= result.grid[0].aut - 1e-12
        # Flag semantics.
        assert result.constraint_met == (result.achieved_error <= cfg.e_max)

        # Brute-force oracle: independently re-run every grid point with the
        # same derived seeds, then re-implement the selection scan.
        proper, val_slots, starts = proper_validation_cut(train, spec, cfg, seed=7)
        scorer = clf.fit(proper, int(derive_rng(7, "tuning", "scorer").integers(2**31)))
        conf = np.empty(len(proper))
        for c in (0, 1):
            rows_c = proper.labels == c
            conf[rows_c] = np.abs(scorer.scores(proper.features[rows_c]) - 0.5)
        rows = []
        for j, phi in enumerate(cfg.grid()):
            kept = enforce_ratio(
                proper,
                phi,
                confidence=conf,
                seed=int(derive_rng(7, "tuning", "downsample", j).integers(2**63)),
            )
            down = proper.subset(kept)
            model = clf.fit(down, int(derive_rng(7, "tuning", "fit", j).integers(2**31)))
            series = slot_series(model, val_slots, starts)
            area = aut(point_estimates(series, "f1"))
            pooled = Confusion()
            for slot in val_slots:
                pooled = pooled + confusion_counts(model, slot)
            rows.append((phi, area, error_rate(pooled, "f1")))
        best = 0
        for j in range(1, len(rows)):
            if rows[j][1] > rows[best][1] and rows[j][2] <= cfg.e_max:
                best = j
        assert result.phi_star == rows[best][0]
        assert result.best_aut == rows[best][1]
        for got, exp in zip(result.grid, rows):
            assert (got.phi, got.aut, got.error) == exp

    def test_scores_each_proper_row_at_most_once(self):
        # Every grid point downsamples proper-training uncertainty-first;
        # the confidences come from one scoring of its rows, not one per phi.
        train = drifting_train(3)
        cfg = TuningConfig(mu=0.1)
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

        tune_phi(train, Recording(), cfg, spec_for(), seed=1)
        proper, _, _ = proper_validation_cut(train, spec_for(), cfg, seed=1)
        counts = Counter(scored)
        assert len(cfg.grid()) == 5
        assert max(counts[r.tobytes()] for r in proper.features) == 1

    def test_impossible_ceiling_falls_back_to_sigma_hat(self):
        train = drifting_train(3)
        cfg = TuningConfig(target="recall", e_max=0.0)
        result = tune_phi(train, LinearSGDClassifier(epochs=25), cfg, spec_for(), seed=1)
        assert result.phi_star == pytest.approx(cfg.sigma_hat)
        if result.achieved_error > 0.0:
            assert not result.constraint_met

    def test_selection_prefers_smallest_phi_on_tie(self):
        # Every model scores 0.7, so every grid point has the same area and the
        # ceiling 1.0 admits them all: strict improvement keeps the first point.
        cfg = TuningConfig(target="f1", e_max=1.0)
        result = tune_phi(drifting_train(4), ConstantScore(), cfg, spec_for(), seed=2)
        assert len({g.aut for g in result.grid}) == 1
        assert result.phi_star == cfg.sigma_hat
        assert [g.selected for g in result.grid] == [True] + [False] * (len(result.grid) - 1)

    def test_a_point_at_the_error_ceiling_is_selectable(self):
        # Ten samples a month, the first one positive, so the validation slots
        # keep all ten at sigma_hat. Feature 0 is the label and feature 1 marks
        # the second sample. A model fit on a pool at least 15% positive scores
        # the label but flips the marked negative, so each of the four
        # validation slots holds one false positive: 4 wrong of 40, exactly
        # f1's default ceiling. The sigma_hat start, a 10% positive pool,
        # gives a model that never predicts positive (AUT 0).
        days = [(date(2014, m, k), int(k == 1), int(k == 2)) for m in range(1, 13)
                for k in range(1, 11)]
        train = LabeledDataset([f"s{i}" for i in range(len(days))], [t for t, _, _ in days],
                               [y for _, y, _ in days],
                               np.array([[y, mark] for _, y, mark in days], dtype=float))

        class FlipsMarked:
            class Model(TrainedModel):
                def __init__(self, finds_positives):
                    self.finds_positives = finds_positives

                def scores(self, features):
                    hits = np.abs(features[:, 0] - features[:, 1])
                    return hits if self.finds_positives else np.zeros(len(features))

            def fit(self, pool, seed):
                return self.Model(pool.labels.mean() > 0.125)

        cfg = TuningConfig(target="f1")
        result = tune_phi(train, FlipsMarked(), cfg, spec_for(), seed=0)
        assert cfg.e_max == 0.10 and result.grid[0].aut == 0.0
        assert result.phi_star == result.grid[1].phi > cfg.sigma_hat
        assert result.achieved_error == 4 / 40 == cfg.e_max
        assert result.constraint_met

    def test_fits_check_c1_against_the_validation_start(self, monkeypatch):
        # A proper-training pool that reaches into the validation tail is refused
        # before any fit, naming its latest sample.
        train = drifting_train(6)
        cut_proper = tuning.proper_validation_cut

        def leaky_cut(train, spec, cfg, seed):
            _, slots, starts = cut_proper(train, spec, cfg, seed)
            return train, slots, starts

        monkeypatch.setattr(tuning, "proper_validation_cut", leaky_cut)
        latest = train.ids[int(np.argmax(train.times))]
        with pytest.raises(ConstraintViolationError, match=f"C1: training sample {latest!r}"):
            tune_phi(train, LinearSGDClassifier(epochs=2), TuningConfig(), spec_for(), seed=0)

    def test_uses_no_test_period_data(self):
        # The API only ever receives the training window; extending the
        # dataset past the training window cannot change the result.
        base = drifting_train(5)
        extended = generate(
            DriftSpec(
                months=16,
                samples_per_month=150,
                drift_velocity=0.25,
                spread=1.0,
                positive_ratio=0.10,
                ratio_jitter=0.0,
            ),
            seed=5,
        )
        train_only = extended.between(date(2014, 1, 1), date(2015, 1, 1))
        assert train_only.ids == base.ids
        r1 = tune_phi(base, LinearSGDClassifier(epochs=20), TuningConfig(), spec_for(), seed=3)
        r2 = tune_phi(
            train_only, LinearSGDClassifier(epochs=20), TuningConfig(), spec_for(), seed=3
        )
        assert r1 == r2

    def test_directional_effect_of_phi(self):
        # Recall rises and precision falls as phi grows from sigma_hat to
        # 0.5; compare the two grid endpoints averaged over 5 seeds.
        rec_lo, rec_hi, prec_lo, prec_hi = [], [], [], []
        for seed in range(5):
            train = drifting_train(seed, velocity=0.3)
            cfg_r = TuningConfig(target="recall")
            res_r = tune_phi(train, LinearSGDClassifier(epochs=25), cfg_r, spec_for(), seed=seed)
            rec_lo.append(res_r.grid[0].aut)
            rec_hi.append(res_r.grid[-1].aut)
            cfg_p = TuningConfig(target="precision")
            res_p = tune_phi(train, LinearSGDClassifier(epochs=25), cfg_p, spec_for(), seed=seed)
            prec_lo.append(res_p.grid[0].aut)
            prec_hi.append(res_p.grid[-1].aut)
        assert np.mean(rec_hi) >= np.mean(rec_lo)
        assert np.mean(prec_hi) <= np.mean(prec_lo)

    def test_grid_csv(self, tmp_path):
        train = drifting_train(6)
        result = tune_phi(
            train, LinearSGDClassifier(epochs=15), TuningConfig(), spec_for(), seed=0
        )
        _write_tuning(tmp_path, 0, result)
        lines = (tmp_path / "tuning_seed0.csv").read_text().strip().splitlines()
        assert lines[0] == "phi,aut,error,selected"
        assert len(lines) == 1 + len(result.grid)
        assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 1

    def test_json_round_trip(self, tmp_path):
        train = drifting_train(6)
        result = tune_phi(
            train, LinearSGDClassifier(epochs=15), TuningConfig(), spec_for(), seed=0
        )
        _write_tuning(tmp_path, 0, result)
        blob = json.loads((tmp_path / "tuning_seed0.json").read_text())
        assert blob["phi_star"] == result.phi_star
        assert len(blob["grid"]) == len(result.grid)
