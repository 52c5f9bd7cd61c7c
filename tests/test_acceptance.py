"""Acceptance suite: one test per criterion, each printing a PASS line.

Every experiment below is fully seeded, so outcomes are deterministic;
runtime ceilings are asserted alongside the substance.
"""

import hashlib
import math
import time
from datetime import date
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from driftlab.classifiers import KNNClassifier, LinearSGDClassifier, score_dataset
from driftlab.cli import parse_config, run_experiment
from driftlab.dataset import LabeledDataset, Period
from driftlab.delay import DelayPolicy, run_policy
from driftlab.metrics import (
    Confusion,
    MetricCurve,
    aut,
    confusion_counts,
    error_rate,
    point_estimates,
    prf1,
    slot_series,
)
from driftlab.rng import derive_rng
from driftlab.splits import (
    RatioSpec,
    SplitSpec,
    TemporalSplit,
    check_c1,
    check_c2,
    check_c3,
    enforce_ratio,
    run_all_checks,
    time_aware_split,
)
from driftlab.synthgen import DriftSpec, generate
from driftlab.tuning import TuningConfig, proper_validation_cut, tune_phi

from conftest import kfold_f1s


def _report(capsys, name: str, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    with capsys.disabled():
        print(f"\n{name} {detail}: PASS ({elapsed:.2f}s)", flush=True)


def drifting(seed, months, n, velocity=0.0, churn=0.0):
    return generate(
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


def spec(w, s, origin=date(2014, 1, 1)):
    return SplitSpec(Period(months=w), Period(months=s), Period(months=1), origin)


def test_a1_aut_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        values = rng.uniform(0.0, 1.0, size=n)
        got = aut(MetricCurve("f1", "point", tuple(values)))
        # Independently coded trapezoid summation.
        area = 0.0
        for k in range(n - 1):
            area += (values[k] + values[k + 1]) / 2.0
        oracle = area / (n - 1)
        assert abs(got - oracle) <= 1e-12
    _report(capsys, "A1", "aut-oracle-equivalence (1000 curves)", started, 1.0)


def test_a2_aut_calibration(capsys):
    started = time.perf_counter()
    # Constant curves: exact equality. Lengths with N-1 a power of two keep
    # the arithmetic exact for every c; dyadic c is exact at any length.
    for c in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 0.75, 0.9, 1.0):
        for n in (2, 3, 5, 9, 17):
            assert aut(MetricCurve("f1", "point", (c,) * n)) == c
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        for n in (4, 6, 7, 10, 33):
            assert aut(MetricCurve("f1", "point", (c,) * n)) == c
    assert aut(MetricCurve("f1", "point", (1.0, 0.0))) == 0.5
    assert abs(aut(MetricCurve("f1", "point", (0.9, 0.8, 0.6, 0.5))) - 0.70) <= 1e-12
    _report(capsys, "A2", "aut-calibration", started, 1.0)


def test_a3_spatial_testing_bias_invariant(capsys):
    started = time.perf_counter()
    train = drifting(seed=0, months=2, n=300)
    model = LinearSGDClassifier(epochs=25).fit(train, seed=0)
    slot = drifting(seed=1, months=1, n=400)
    base = confusion_counts(model, slot)
    p0, r0, _ = prf1(base)
    neg_idx = np.flatnonzero(slot.labels == 0)
    pos_idx = np.flatnonzero(slot.labels == 1)
    rng = np.random.default_rng(99)
    for _ in range(100):
        keep_n = int(rng.integers(1, len(neg_idx)))
        kept_neg = rng.choice(neg_idx, size=keep_n, replace=False)
        sub = slot.subset(np.sort(np.concatenate([pos_idx, kept_neg])))
        c = confusion_counts(model, sub)
        p1, r1, _ = prf1(c)
        assert r1 == r0  # bit-identical: TP and FN untouched
        assert c.tp == base.tp and c.fn == base.fn
        assert p1 >= p0
    _report(capsys, "A3", "testing-ratio bias mechanics (100 trials)", started, 10.0)


def test_a4_spatial_training_bias_direction(capsys):
    started = time.perf_counter()
    clf = LinearSGDClassifier(epochs=30)
    recalls = {0.1: [], 0.5: []}
    precisions = {0.1: [], 0.5: []}
    for seed in range(5):
        d = drifting(seed, months=16, n=200, velocity=0.25)
        for phi in (0.1, 0.5):
            split = time_aware_split(d, spec(8, 8), RatioSpec(phi=phi), seed=seed)
            model = clf.fit(split.train, int(derive_rng(seed, "a4", "fit").integers(2**31)))
            pooled = Confusion()
            for s in split.test_slots:
                pooled = pooled + confusion_counts(model, s)
            p, r, _ = prf1(pooled)
            recalls[phi].append(r)
            precisions[phi].append(p)
    assert np.mean(recalls[0.5]) > np.mean(recalls[0.1])
    assert np.mean(precisions[0.5]) < np.mean(precisions[0.1])
    _report(
        capsys,
        "A4",
        f"training-ratio direction (recall {np.mean(recalls[0.1]):.2f}->"
        f"{np.mean(recalls[0.5]):.2f}, precision {np.mean(precisions[0.1]):.2f}->"
        f"{np.mean(precisions[0.5]):.2f})",
        started,
        120.0,
    )


def _kfold_vs_realistic_gap(velocity, churn, seeds=5):
    gaps = []
    clf = KNNClassifier(k=5)
    for seed in range(seeds):
        d = drifting(seed, months=18, n=150, velocity=velocity, churn=churn)
        kfold_f1 = float(np.mean(kfold_f1s(d, clf, 10, seed)))
        split = time_aware_split(d, spec(6, 12), RatioSpec(), seed=seed)
        model = clf.fit(split.train, int(derive_rng(seed, "a5", "fit").integers(2**31)))
        series = slot_series(model, split.test_slots, split.slot_starts)
        gaps.append(kfold_f1 - aut(point_estimates(series, "f1")))
    return float(np.mean(gaps))


def test_a5_temporal_bias_direction(capsys):
    started = time.perf_counter()
    gap_drift = _kfold_vs_realistic_gap(velocity=0.25, churn=0.35)
    gap_flat = _kfold_vs_realistic_gap(velocity=0.0, churn=0.0)
    assert gap_drift >= 0.05
    assert gap_flat < 0.05
    _report(
        capsys,
        "A5",
        f"kfold vs realistic AUT gap (drift {gap_drift:.3f}, stationary {gap_flat:.3f})",
        started,
        300.0,
    )


def test_a6_tuning_contract(capsys):
    started = time.perf_counter()
    train = drifting(seed=11, months=12, n=150, velocity=0.25)
    cfg = TuningConfig(target="f1")
    sp = spec(12, 2)
    clf = LinearSGDClassifier(epochs=25)
    result = tune_phi(train, clf, cfg, sp, seed=17)

    # phi* on the grid {sigma_hat + j*mu} within [sigma_hat, 0.5].
    assert cfg.sigma_hat - 1e-9 <= result.phi_star <= 0.5 + 1e-9
    assert any(abs(result.phi_star - (cfg.sigma_hat + j * cfg.mu)) < 1e-9 for j in range(64))
    # Error budget respected, or flagged fallback at sigma_hat.
    assert result.constraint_met or result.phi_star == pytest.approx(cfg.sigma_hat)
    assert result.constraint_met == (result.achieved_error <= cfg.e_max)
    # Validation AUT never falls below the sigma_hat start.
    assert result.best_aut >= result.grid[0].aut - 1e-12

    # Brute-force oracle: independent re-run of every grid point with the
    # same derived seeds, plus an independent selection scan.
    proper, val_slots, starts = proper_validation_cut(train, sp, cfg, seed=17)
    scorer = clf.fit(proper, int(derive_rng(17, "tuning", "scorer").integers(2**31)))
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
            seed=int(derive_rng(17, "tuning", "downsample", j).integers(2**63)),
        )
        down = proper.subset(kept)
        model = clf.fit(down, int(derive_rng(17, "tuning", "fit", j).integers(2**31)))
        series = slot_series(model, val_slots, starts)
        pooled = Confusion()
        for slot in val_slots:
            pooled = pooled + confusion_counts(model, slot)
        rows.append((phi, aut(point_estimates(series, cfg.target)), error_rate(pooled, cfg.target)))
    best = 0
    for j in range(1, len(rows)):
        if rows[j][1] > rows[best][1] and rows[j][2] <= cfg.e_max:
            best = j
    assert result.phi_star == rows[best][0]
    assert result.best_aut == rows[best][1]
    assert [(g.phi, g.aut, g.error) for g in result.grid] == rows

    # Flagged-fallback variant: an unattainable ceiling pins phi* at sigma_hat.
    strict = TuningConfig(target="recall", e_max=0.0)
    fb = tune_phi(train, clf, strict, sp, seed=17)
    assert fb.phi_star == pytest.approx(strict.sigma_hat)
    _report(capsys, "A6", f"tuning contract (phi*={result.phi_star:.2f})", started, 120.0)


def test_a7_delay_strategy_ordering(capsys):
    started = time.perf_counter()
    clf = KNNClassifier(k=5)
    means: dict[str, list[float]] = {"none": [], "al1": [], "al25": [], "inc": []}
    for seed in range(7):
        d = drifting(seed, months=20, n=200, velocity=0.35)
        split = time_aware_split(d, spec(8, 12), RatioSpec(), seed=seed)
        policies = [
            ("none", DelayPolicy("none")),
            ("al1", DelayPolicy("active_learning", al_budget=0.01)),
            ("al25", DelayPolicy("active_learning", al_budget=0.25)),
            ("inc", DelayPolicy("incremental")),
        ]
        for key, policy in policies:
            means[key].append(run_policy(split, clf, policy, seed=seed).aut_f1)
    m = {k: float(np.mean(v)) for k, v in means.items()}
    assert m["inc"] >= m["al25"] >= m["al1"] >= m["none"]
    assert m["inc"] - m["none"] >= 0.05
    _report(
        capsys,
        "A7",
        "delay ordering (none {none:.2f} <= al1 {al1:.2f} <= al25 {al25:.2f} "
        "<= incremental {inc:.2f})".format(**m),
        started,
        600.0,
    )


def test_a8_rejection_improves_kept_set(capsys):
    started = time.perf_counter()
    clf = LinearSGDClassifier(epochs=30)
    lifts = []
    for seed in range(5):
        d = drifting(seed, months=18, n=200, velocity=0.1)
        split = time_aware_split(d, spec(9, 9), RatioSpec(), seed=seed)
        none = run_policy(split, clf, DelayPolicy("none"), seed=seed)
        rej = run_policy(split, clf, DelayPolicy("rejection"), seed=seed)
        lifts.append(
            float(np.mean(point_estimates(rej.series, "f1").values))
            - float(np.mean(point_estimates(none.series, "f1").values))
        )
        # Q reported exactly: recompute against the same deployed model.
        assert rej.quarantined > 0
        model = clf.fit(split.train, int(derive_rng(seed, "delay", "fit", 0).integers(2**31)))
        expected_q = 0
        for slot in split.test_slots:
            s = score_dataset(model, slot)
            expected_q += int((np.maximum(s, 1.0 - s) <= rej.threshold).sum())
        assert rej.quarantined == expected_q
    assert np.mean(lifts) >= 0.0
    _report(capsys, "A8", f"rejection kept-set lift (+{np.mean(lifts):.3f} F1)", started, 300.0)


def test_a9_cost_bookkeeping(capsys):
    started = time.perf_counter()
    d = drifting(seed=21, months=20, n=137, velocity=0.1)
    split = time_aware_split(d, spec(8, 12), RatioSpec(), seed=21)
    clf = LinearSGDClassifier(epochs=15)
    sizes = [len(s) for s in split.test_slots]
    for budget in (0.01, 0.025, 0.25):
        res = run_policy(
            split, clf, DelayPolicy("active_learning", al_budget=budget), seed=21
        )
        expected = [math.ceil(Fraction(str(budget)) * s) for s in sizes]
        assert res.per_slot_labeled == tuple(expected)
        assert res.labeled == sum(expected)
        assert res.quarantined == 0
    inc = run_policy(split, clf, DelayPolicy("incremental"), seed=21)
    assert inc.labeled == sum(sizes)
    none = run_policy(split, clf, DelayPolicy("none"), seed=21)
    assert none.labeled == 0 and none.quarantined == 0
    rej = run_policy(split, clf, DelayPolicy("rejection"), seed=21)
    assert rej.labeled == 0
    assert rej.quarantined == sum(rej.per_slot_rejected)
    _report(capsys, "A9", "cost bookkeeping (L = sum of per-slot ceilings; Q exact)", started, 60.0)


def test_a10_constraint_validators(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for trial in range(100):
        months = int(rng.integers(6, 12))
        w = int(rng.integers(2, months - 3))
        s = months - w
        n = int(rng.integers(40, 80))
        seed = int(rng.integers(0, 2**31))
        d = drifting(seed % 1000, months=months, n=n, velocity=float(rng.uniform(0, 0.3)))
        split = time_aware_split(d, spec(w, s), RatioSpec(), seed=seed)
        verdicts = run_all_checks(split)
        assert all(v.passed for v in verdicts.values()), (trial, verdicts)

    # Violation 1: time-blind shuffled (k-fold style) split fails C1 with the
    # independently computed witness pair.
    d = drifting(3, months=12, n=60, velocity=0.1)
    perm = np.random.default_rng(0).permutation(len(d))
    cut = int(len(d) * 2 / 3)
    train_rows, rest = np.sort(perm[:cut]), np.sort(perm[cut:])
    half = len(rest) // 2
    kf_split = TemporalSplit(d, train_rows, (rest[:half], rest[half:]), spec(6, 2), RatioSpec())
    v1 = check_c1(kf_split)
    assert not v1.passed
    train = d.subset(train_rows)
    expect_train = max(range(len(train)), key=lambda i: train.timestamps[i])
    assert v1.witnesses[0]["train_id"] == train.ids[expect_train]

    # Violation 2: one test sample shifted a month early fails C2 with id+slot.
    from driftlab.dataset import add_months

    good = time_aware_split(d, spec(6, 6), RatioSpec(), seed=0)
    moved = good.slot_rows[2][0]
    stamps = list(d.timestamps)
    stamps[moved] = add_months(stamps[moved], -1)
    shifted = LabeledDataset(d.ids, stamps, d.labels, d.features)
    v2 = check_c2(TemporalSplit(shifted, good.train_rows, good.slot_rows, good.spec, good.ratios))
    assert not v2.passed
    assert v2.witnesses[0]["id"] == d.ids[moved]
    assert v2.witnesses[0]["slot"] == 2

    # Violation 3: a ~90%-positive slot (all positives, pos/9 negatives)
    # fails C3 naming that slot.
    slot1 = good.slot_rows[1]
    pos_idx = slot1[d.labels[slot1] == 1]
    keep_neg = max(1, round(len(pos_idx) / 9))
    ninety = np.sort(np.concatenate([pos_idx, slot1[d.labels[slot1] == 0][:keep_neg]]))
    bad_slots3 = tuple(ninety if k == 1 else s for k, s in enumerate(good.slot_rows))
    v3 = check_c3(TemporalSplit(d, good.train_rows, bad_slots3, good.spec, good.ratios))
    assert not v3.passed
    failing = [row for row in v3.per_slot if not row["pass"]]
    assert [row["slot"] for row in failing] == [1]
    assert failing[0]["ratio"] > 0.12
    _report(capsys, "A10", "validators (100 random splits + 3 seeded violations)", started, 120.0)


def test_a11_end_to_end_determinism(tmp_path, capsys):
    started = time.perf_counter()

    def config(out, workers):
        return parse_config(
            {
                "dataset": {
                    "synthetic": {
                        "months": 12,
                        "samples_per_month": 80,
                        "drift_velocity": 0.2,
                        "ratio_jitter": 0.0,
                    }
                },
                "split": {
                    "origin": "2014-01-01",
                    "train_window": "6m",
                    "test_window": "6m",
                    "slot_width": "1m",
                },
                "ratios": {},
                "classifier": {"kind": "linear_sgd", "epochs": 15},
                "scenario": "realistic",
                "delay": {"kind": "active_learning", "al_budget": 0.1},
                "seeds": [0, 1, 2],
                "output_dir": str(out),
                "workers": workers,
            }
        )

    def digest(path: Path) -> dict:
        return {
            str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*"))
            if p.is_file()
        }

    run_experiment(config(tmp_path / "r1", workers=1))
    run_experiment(config(tmp_path / "r2", workers=1))
    run_experiment(config(tmp_path / "r8", workers=8))
    d1, d2, d8 = digest(tmp_path / "r1"), digest(tmp_path / "r2"), digest(tmp_path / "r8")
    assert d1 == d2, "same config + seeds must be byte-identical across runs"
    assert d1 == d8, "worker-pool size must not change any output byte"
    assert any(name.startswith("decay_seed") for name in d1)
    _report(capsys, "A11", f"end-to-end determinism ({len(d1)} files)", started, 300.0)
