import json
from collections import Counter
from datetime import date

import numpy as np
import pytest

from driftlab.classifiers import LinearSGDClassifier
from driftlab.cli import _write_tuning
from driftlab.dataset import Period
from driftlab.metrics import Confusion, aut, confusion_counts, error_rate, point_estimates, slot_series
from driftlab.rng import derive_rng
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
            down = enforce_ratio(
                proper,
                phi,
                confidence=conf,
                seed=int(derive_rng(7, "tuning", "downsample", j).integers(2**63)),
            )
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
        # Strict improvement means equal areas keep the earlier grid point.
        train = drifting_train(4)
        cfg = TuningConfig(target="f1")
        result = tune_phi(train, LinearSGDClassifier(epochs=25), cfg, spec_for(), seed=2)
        areas = [g.aut for g in result.grid]
        first_best = min(
            (j for j, a in enumerate(areas) if a == max(areas)),
        )
        selected = next(j for j, g in enumerate(result.grid) if g.selected)
        if result.grid[first_best].error <= cfg.e_max:
            assert selected <= first_best or areas[selected] == max(areas)

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
