from dataclasses import fields
from datetime import date

import numpy as np
import pytest

from driftlab.dataset import Period, add_months, summarize, write_csv
from driftlab.synthgen import DriftSpec, generate


class TestGenerate:
    def test_shape_and_time_span(self):
        spec = DriftSpec(months=6, samples_per_month=100, dim=3)
        d = generate(spec, seed=0)
        assert len(d) == 600
        assert d.dimensionality == 3
        first, last = d.time_range
        assert first >= date(2014, 1, 1)
        assert last < add_months(date(2014, 1, 1), 6)

    def test_monthly_ratio_within_one_sample_no_jitter(self):
        spec = DriftSpec(months=8, samples_per_month=120, ratio_jitter=0.0)
        d = generate(spec, seed=1)
        s = summarize(d, Period(months=1))
        for k in range(s.n_slots):
            total = s.pos_counts[k] + s.neg_counts[k]
            assert total == 120
            assert abs(s.pos_counts[k] - 120 * 0.10) <= 0.5 + 1e-9

    def test_monthly_ratio_within_jitter_band(self):
        spec = DriftSpec(months=12, samples_per_month=100, ratio_jitter=0.02)
        d = generate(spec, seed=2)
        s = summarize(d, Period(months=1))
        n = 100
        for k in range(s.n_slots):
            ratio = s.pos_counts[k] / n
            assert 0.10 - 0.02 - 1.0 / n <= ratio <= 0.10 + 0.02 + 1.0 / n

    def test_both_classes_every_month(self):
        spec = DriftSpec(months=10, samples_per_month=30, positive_ratio=0.05)
        d = generate(spec, seed=3)
        s = summarize(d, Period(months=1))
        assert (s.pos_counts > 0).all() and (s.neg_counts > 0).all()

    def test_deterministic_csv_export(self, tmp_path):
        spec = DriftSpec(
            months=4, samples_per_month=50, drift_velocity=0.2, family_churn=0.3
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(generate(spec, seed=9), str(p1))
        write_csv(generate(spec, seed=9), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("spread", ["floor", "cap"])
    def test_every_field_at_its_cap_gives_finite_features(self, spread):
        rules = {f.name: f.metadata["rule"] for f in fields(DriftSpec)}
        given = {name: r.le for name, r in rules.items() if r.le is not None}
        given["samples_per_month"] = 2
        if spread == "floor":  # the widest drift angle
            given["spread"] = rules["spread"].ge
        d = generate(DriftSpec(**given), seed=0)
        assert len(d) == 1_200 * 2
        assert d.dimensionality == 1_000
        assert np.isfinite(d.features).all()

    def test_different_seeds_differ(self):
        spec = DriftSpec(months=3, samples_per_month=40)
        a, b = generate(spec, seed=0), generate(spec, seed=1)
        assert not np.array_equal(a.features, b.features)

    def test_drift_moves_positive_center_at_constant_radius(self):
        spec = DriftSpec(months=12, samples_per_month=300, drift_velocity=0.5)
        d = generate(spec, seed=4)

        def month_center(lo, hi):
            pts = [
                f
                for f, t, y in zip(d.features, d.timestamps, d.labels)
                if y == 1 and lo <= t < hi
            ]
            return np.mean(pts, axis=0)

        c0 = month_center(date(2014, 1, 1), date(2014, 2, 1))
        c11 = month_center(date(2014, 12, 1), date(2015, 1, 1))
        # The center moved substantially...
        assert np.linalg.norm(c11 - c0) > 1.5
        # ...but stayed at (roughly) the same distance from the negatives.
        assert np.linalg.norm(c11) == pytest.approx(np.linalg.norm(c0), abs=0.5)

    def test_zero_drift_is_stationary(self):
        spec = DriftSpec(months=6, samples_per_month=300, drift_velocity=0.0)
        d = generate(spec, seed=5)
        pos = d.features[d.labels == 1]
        assert np.mean(pos[:, 0]) == pytest.approx(3.0, abs=0.3)
        assert abs(np.mean(pos[:, 1])) < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftSpec(months=0, samples_per_month=10)
        with pytest.raises(ValueError):
            DriftSpec(months=3, samples_per_month=10, positive_ratio=1.5)
        with pytest.raises(ValueError, match="dim >= 2"):
            DriftSpec(months=3, samples_per_month=10, dim=1, family_churn=0.2)
        with pytest.raises(ValueError, match="dim >= 2"):
            DriftSpec(months=3, samples_per_month=10, dim=1, drift_velocity=0.1)
