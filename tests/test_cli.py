import csv
import hashlib
import json
import os
import shlex
import signal
import warnings
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import cli, splits
from driftlab.cli import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    emit_plot_data,
    main,
    parse_config,
    run_experiment,
)
from driftlab.classifiers import KNNClassifier, LinearSGDClassifier
from driftlab.dataset import load_dataset, write_csv
from driftlab.delay import ConstraintViolationError, DelayPolicy
from driftlab.metrics import Confusion, confusion_counts, prf1, stratified_folds
from driftlab.rng import derive_rng, derive_seed
from driftlab.splits import (
    RatioSpec,
    disjoint_class_pools,
    enforce_ratio,
    past_testing_pools,
    ratio_rows,
    time_aware_split,
)
from driftlab.synthgen import DriftSpec, generate
from driftlab.tuning import TuningConfig

from conftest import downsampled


def base_config(out, scenario="realistic", seeds=(0, 1), **extra):
    cfg = {
        "dataset": {
            "synthetic": {
                "months": 12,
                "samples_per_month": 80,
                "drift_velocity": 0.25,
                "spread": 1.0,
                "positive_ratio": 0.10,
                "ratio_jitter": 0.0,
            }
        },
        "split": {
            "origin": "2014-01-01",
            "train_window": "6m",
            "test_window": "6m",
            "slot_width": "1m",
        },
        "ratios": {"sigma_hat": 0.10, "phi": 0.10, "delta": 0.10},
        "classifier": {"kind": "linear_sgd", "epochs": 15},
        "scenario": scenario,
        "seeds": list(seeds),
        "kfold_k": 4,
        "output_dir": str(out),
    }
    cfg.update(extra)
    return cfg


def ragged_training_window(cfg: dict) -> dict:
    """A tuned run whose training window is not a whole number of slots."""
    split = {**cfg["split"], "train_window": "10m", "test_window": "6m", "slot_width": "3m"}
    return {**with_synthetic(cfg, months=16), "split": split, "tuning": {"mu": 0.1}}


def ragged_retuned_window(cfg: dict) -> dict:
    """An untuned run that retunes over a training window of 3 1/3 slots."""
    split = {**cfg["split"], "train_window": "10m", "test_window": "6m", "slot_width": "3m"}
    delay = {"kind": "incremental", "retune_each_step": True}
    return {**with_synthetic(cfg, months=16), "split": split, "delay": delay}


def with_synthetic(cfg: dict, **fields) -> dict:
    synthetic = {**cfg["dataset"]["synthetic"], **fields}
    return {**cfg, "dataset": {"synthetic": synthetic}}


def with_ratios(cfg: dict, **fields) -> dict:
    return {**cfg, "ratios": {**cfg["ratios"], **fields}}


def dir_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


class TestParseConfig:
    def test_minimal_round_trip(self, tmp_path):
        cfg = parse_config(base_config(tmp_path / "out"))
        assert cfg.scenario == "realistic"
        assert cfg.seeds == (0, 1)
        assert cfg.synthetic is not None

    def test_rejects_unknown_keys(self, tmp_path):
        blob = base_config(tmp_path / "out")
        blob["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(blob)

    def test_requires_exactly_one_dataset_source(self, tmp_path):
        blob = base_config(tmp_path / "out")
        blob["dataset"]["path"] = "also.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(blob)

    def test_bias_grid_rejects_delay(self, tmp_path):
        blob = base_config(tmp_path / "out", scenario="bias_grid")
        blob["delay"] = {"kind": "incremental"}
        with pytest.raises(ConfigError, match="bias_grid"):
            parse_config(blob)

    def test_budget_list_expands_policies(self, tmp_path):
        blob = base_config(tmp_path / "out")
        blob["delay"] = {"kind": "active_learning", "al_budget": [0.01, 0.25]}
        cfg = parse_config(blob)
        assert [p.al_budget for p in cfg.delay_policies] == [0.01, 0.25]

    @pytest.mark.parametrize("over", ["cap+1", "10**300"])
    @pytest.mark.parametrize(
        "section,field,cap",
        [
            ("classifier", "epochs", 10_000),
            ("dataset.synthetic", "months", 1_200),
            ("dataset.synthetic", "samples_per_month", 100_000),
            ("dataset.synthetic", "dim", 1_000),
        ],
    )
    def test_integer_field_over_its_cap_rejected(self, tmp_path, section, field, cap, over):
        def with_value(value):
            blob = base_config(tmp_path / "out")
            if section == "classifier":
                blob["classifier"][field] = value
            else:
                blob["dataset"]["synthetic"][field] = value
            return blob

        parse_config(with_value(cap))  # the cap itself is allowed
        value = cap + 1 if over == "cap+1" else 10**300
        with pytest.raises(ConfigError, match=f"bad {section}: {field} must be .*at most {cap}"):
            parse_config(with_value(value))

    def test_bad_split_reported(self, tmp_path):
        blob = base_config(tmp_path / "out")
        blob["split"]["slot_width"] = "one month"
        with pytest.raises(ConfigError, match="bad split"):
            parse_config(blob)

    def test_tuning_takes_the_ratios_sigma_hat(self, tmp_path):
        blob = with_ratios(base_config(tmp_path / "out"), sigma_hat=0.2, phi=0.2, delta=0.2)
        tuning = parse_config({**blob, "tuning": {"mu": 0.1}}).tuning
        assert tuning.sigma_hat == 0.2
        assert tuning.grid()[0] == 0.2  # phi is never tuned below the deployment rate
        # Set in both sections, the two values must agree.
        assert parse_config({**blob, "tuning": {"sigma_hat": 0.2}}).tuning.sigma_hat == 0.2


# Each config dataclass, the section it is parsed from (None: the top level)
# and that section's other keys.
CONFIG_SECTIONS = {
    DriftSpec: ("dataset.synthetic", None),
    RatioSpec: ("ratios", {}),
    TuningConfig: ("tuning", {}),
    DelayPolicy: ("delay", {"kind": "active_learning", "al_budget": 0.1}),
    LinearSGDClassifier: ("classifier", {"kind": "linear_sgd"}),
    KNNClassifier: ("classifier", {"kind": "knn"}),
    ExperimentConfig: (None, None),
}
RULED_FIELDS = [
    (cls, f.name, f.metadata["rule"])
    for cls in CONFIG_SECTIONS
    for f in fields(cls)
    if "rule" in f.metadata
]
WRONG_KINDS = ["x", True, False, [], ["x"], None, float("nan"), float("inf"), float("-inf"),
               10**400]


def with_field(cfg: dict, cls, name: str, value) -> dict:
    """``cfg`` with field ``name`` of the section that parses into ``cls`` set to ``value``."""
    section, rest = CONFIG_SECTIONS[cls]
    if name in ("dataset_path", "dataset_format"):
        return {**cfg, "dataset": {"path": "data.csv", name.split("_")[1]: value}}
    if section is None:
        return {**cfg, name: value}
    if cls is DriftSpec:
        return with_synthetic(cfg, **{name: value})
    return {**cfg, section: {**rest, name: value}}


class TestFieldRules:
    def test_every_config_field_declares_a_rule(self):
        for cls in CONFIG_SECTIONS:
            unruled = [f.name for f in fields(cls) if "rule" not in f.metadata]
            if cls is ExperimentConfig:
                assert not {"kfold_k", "workers"} & set(unruled)
            else:
                assert unruled == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_wrong_kind_is_a_config_error_naming_the_field(self, data):
        cls, name, rule = data.draw(st.sampled_from(RULED_FIELDS))
        right_kind = [
            v for v in WRONG_KINDS
            if (v is None and rule.optional)
            or (isinstance(v, bool) and rule.kind is bool)
            or (isinstance(v, str) and rule.kind is str)
        ]
        value = data.draw(st.sampled_from([v for v in WRONG_KINDS if v not in right_kind]))
        section, _ = CONFIG_SECTIONS[cls]
        prefix = "" if section is None else f"bad {section}: "
        with pytest.raises(ConfigError, match=f"^{prefix}{name} must be "):
            parse_config(with_field(base_config("out"), cls, name, value))


class TestRealisticScenario:
    def test_artifacts_written_and_audit_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(parse_config(base_config(out))) == 0
        for seed in (0, 1):
            assert (out / f"decay_seed{seed}.csv").is_file()
            audit = json.loads((out / f"audit_seed{seed}.json").read_text())
            assert all(audit[c]["pass"] for c in ("C1", "C2", "C3"))
            assert (out / f"split_manifest_seed{seed}.json").is_file()
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "metric,mode,aut_mean,aut_std,n_seeds"
        assert len(agg) == 1 + 6  # 3 metrics x {point, cumulative}

    def test_delay_and_tuning_artifacts(self, tmp_path):
        out = tmp_path / "out"
        blob = base_config(
            out,
            seeds=(0,),
            tuning={"mu": 0.1, "target": "f1", "validation_fraction": 0.34},
            delay={"kind": "active_learning", "al_budget": [0.05, 0.25]},
        )
        blob["split"]["train_window"] = "8m"
        blob["dataset"]["synthetic"]["months"] = 14
        assert run_experiment(parse_config(blob)) == 0
        assert (out / "tuning_seed0.csv").is_file()
        assert (out / "tuning_seed0.json").is_file()
        summary = (out / "delay_summary_seed0.csv").read_text().splitlines()
        assert summary[0] == "policy,phi_mode,L,Q,AUT_F1"
        # Baseline plus both budgets.
        assert len(summary) == 4
        assert (out / "delay_active_learning_0.05_slots_seed0.csv").is_file()
        assert (out / "delay_active_learning_0.25_slots_seed0.csv").is_file()


class TestOtherScenarios:
    def test_every_scenario_has_one_table_entry(self):
        assert tuple(cli._SCENARIOS) == SCENARIOS

    def test_kfold(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(parse_config(base_config(out, scenario="kfold"))) == 0
        lines = (out / "kfold.csv").read_text().splitlines()
        assert lines[0] == "seed,mean_f1"
        assert len(lines) == 3

    def test_past_testing(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(parse_config(base_config(out, scenario="past_testing"))) == 0
        assert (out / "past_testing.csv").is_file()

    def test_disjoint(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(base_config(out, scenario="disjoint_class_windows"))
        assert run_experiment(cfg) == 0
        assert (out / "disjoint_class_windows.csv").is_file()

    def test_bias_grid_table_shape(self, tmp_path):
        out = tmp_path / "out"
        blob = base_config(out, scenario="bias_grid", seeds=(0,))
        blob["dataset"]["synthetic"]["samples_per_month"] = 120
        assert run_experiment(parse_config(blob)) == 0
        rows = (out / "bias_grid.csv").read_text().splitlines()
        assert rows[0] == "scenario,phi,delta,seed,f1"
        assert len(rows) == 1 + 4 * 4  # 4 scenarios x 4 ratio cells x 1 seed
        summary = (out / "bias_grid_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 16

    def test_standalone_scenarios_match_their_bias_grid_row(self, tmp_path):
        # past_testing and disjoint_class_windows are their bias-table row at
        # the configured (phi, delta), so the numbers agree per seed.
        def run(scenario):
            blob = base_config(tmp_path / scenario, scenario=scenario, seeds=(0, 1))
            blob["dataset"]["synthetic"]["samples_per_month"] = 120
            assert run_experiment(parse_config(blob)) == 0
            with open(tmp_path / scenario / f"{scenario}.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        grid = run("bias_grid")
        for scenario in ("past_testing", "disjoint_class_windows"):
            standalone = {r["seed"]: r["pooled_f1"] for r in run(scenario)}
            row = {
                r["seed"]: r["f1"]
                for r in grid
                if (r["scenario"], r["phi"], r["delta"]) == (scenario, "0.1", "0.1")
            }
            assert standalone == row and len(row) == 2

    def test_bias_grid_direction_realistic_below_kfold(self, tmp_path):
        # At the realistic (0.1, 0.1) cell, the time-aware row must not beat
        # the time-blind k-fold row on drifting data, averaged over 5 seeds.
        out = tmp_path / "out"
        blob = base_config(out, scenario="bias_grid", seeds=(0, 1, 2, 3, 4))
        blob["dataset"]["synthetic"].update(
            {"samples_per_month": 150, "drift_velocity": 0.25, "family_churn": 0.35}
        )
        blob["classifier"] = {"kind": "knn", "k": 5}
        assert run_experiment(parse_config(blob)) == 0
        with open(out / "bias_grid_summary.csv", newline="") as fh:
            cells = {
                (r["scenario"], r["phi"], r["delta"]): float(r["mean_f1"])
                for r in csv.DictReader(fh)
            }
        assert cells[("realistic", "0.1", "0.1")] <= cells[("kfold", "0.1", "0.1")]


class CountingClassifier:
    """LinearSGDClassifier that records the (training ids, seed) of every fit."""

    def __init__(self):
        self.inner = LinearSGDClassifier(epochs=5)
        self.fits = []

    def fit(self, train, seed):
        self.fits.append((train.ids, seed))
        return self.inner.fit(train, seed)


class ScoreCountingClassifier(CountingClassifier):
    """CountingClassifier whose models log (fit number, fit seed, rows) per ``scores`` call."""

    def __init__(self):
        super().__init__()
        self.scored = []

    def fit(self, train, seed):
        model = super().fit(train, seed)
        number, log = len(self.fits), self.scored

        class Logged:
            def scores(self, features):
                log.append((number, seed, features.tobytes()))
                return model.scores(features)

        return Logged()


class TestFitCounts:
    @pytest.mark.parametrize(
        "delay",
        [{"kind": "rejection"}, {"kind": "active_learning", "al_budget": [0.05, 0.25]}],
        ids=["rejection", "active_learning"],
    )
    def test_each_model_scores_each_slot_once(self, tmp_path, delay):
        out = tmp_path / "out"
        blob = base_config(out, seeds=(0, 1), delay=delay)
        cfg = parse_config(blob)
        counter = ScoreCountingClassifier()
        assert run_experiment(replace(cfg, classifier=counter)) == 0
        for seed in (0, 1):
            d = generate(cfg.synthetic, seed=derive_seed(seed, "dataset"))
            manifest = json.loads((out / f"split_manifest_seed{seed}.json").read_text())
            position = {sid: i for i, sid in enumerate(d.ids)}
            slots = [
                d.subset([position[r["id"]] for r in slot]).features.tobytes()
                for slot in manifest["test_slots"]
            ]
            fit_seeds = [derive_seed(seed, "delay", "fit", i) for i in range(len(slots))]
            # Model 0 scores every slot once, for the baseline and every policy.
            assert [rows for _, s, rows in counter.scored if s == fit_seeds[0]] == slots
            # Each model retrained after slot i - 1 makes one call, on slot i.
            retrained = {}  # fit number -> (slot index, rows of each scores call)
            for number, s, rows in counter.scored:
                if s in fit_seeds[1:]:
                    retrained.setdefault(number, (fit_seeds.index(s), []))[1].append(rows)
            fits = sum(1 for _, s in counter.fits if s in fit_seeds[1:])
            expected = len(cfg.delay_policies) * (len(slots) - 1)
            assert len(retrained) == fits == (expected if delay["kind"] == "active_learning" else 0)
            assert all(calls == [slots[i]] for i, calls in retrained.values())

    def test_realistic_fits_model_zero_once(self, tmp_path):
        out = tmp_path / "out"
        blob = base_config(
            out,
            seeds=(0,),
            tuning={"mu": 0.1, "target": "f1", "validation_fraction": 0.34},
            delay={"kind": "active_learning", "al_budget": [0.05, 0.25]},
        )
        blob["split"]["train_window"] = "8m"
        blob["dataset"]["synthetic"]["months"] = 14
        counter = CountingClassifier()
        assert run_experiment(replace(parse_config(blob), classifier=counter)) == 0
        manifest = json.loads((out / "split_manifest_seed0.json").read_text())
        train_ids = tuple(r["id"] for r in manifest["train"])
        model0_seed = int(derive_rng(0, "delay", "fit", 0).integers(2**31))
        assert [ids for ids, seed in counter.fits if seed == model0_seed] == [train_ids]

    def test_bias_grid_fits_each_training_set_once(self, tmp_path):
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        blob["dataset"]["synthetic"]["samples_per_month"] = 120
        counter = CountingClassifier()
        assert run_experiment(replace(parse_config(blob), classifier=counter)) == 0
        # (row, phi, seed, fold): 2 phis x 2 seeds x (4 k-fold folds + 3 one-fold rows).
        assert len(counter.fits) == 2 * 2 * (4 + 3)
        assert len(set(counter.fits)) == len(counter.fits)

    def test_bias_grid_generates_each_stream_once_per_seed(self, tmp_path, monkeypatch):
        calls = []

        def counting_generate(spec, seed):
            calls.append(seed)
            return generate(spec, seed)

        monkeypatch.setattr(cli, "generate", counting_generate)
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        assert run_experiment(parse_config(blob)) == 0
        assert len(calls) == 2

    def test_bias_grid_loads_a_file_dataset_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting_load(path, fmt=None):
            calls.append(path)
            return load_dataset(path, fmt)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        data = tmp_path / "data.csv"
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        blob["dataset"] = {"path": str(data)}
        write_csv(generate(DriftSpec(months=12, samples_per_month=80), seed=0), str(data))
        assert run_experiment(parse_config(blob)) == 0
        assert calls == [str(data)]
        # The next run reads the file again, so it sees a rewrite.
        write_csv(generate(DriftSpec(months=12, samples_per_month=80), seed=1), str(data))
        assert run_experiment(parse_config(blob)) == 0
        assert calls == [str(data)] * 2

    @pytest.mark.parametrize(
        "scenario,workers,expected",
        [("bias_grid", 8, 4), ("bias_grid", 2, 2), ("realistic", 3, 1)],
    )
    def test_pool_is_bounded_by_the_task_count(
        self, tmp_path, monkeypatch, scenario, workers, expected
    ):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        blob = base_config(tmp_path / "out", scenario=scenario, seeds=(0,), workers=workers)
        assert run_experiment(parse_config(blob)) == 0
        # The caller is one of the processes; a one-task run forks nothing.
        assert len(forks) == expected - 1

    def test_bias_grid_fits_each_phi_in_one_lockstep_call(self, tmp_path, monkeypatch):
        calls, fits = [], []
        fit_many, fit = LinearSGDClassifier.fit_many, LinearSGDClassifier.fit

        def counting_fit_many(self, base, rows, seeds):
            calls.append((base.ids, len(rows)))
            return fit_many(self, base, rows, seeds)

        def counting_fit(self, train, seed):
            fits.append(seed)
            return fit(self, train, seed)

        monkeypatch.setattr(LinearSGDClassifier, "fit_many", counting_fit_many)
        monkeypatch.setattr(LinearSGDClassifier, "fit", counting_fit)
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        assert run_experiment(parse_config(blob)) == 0
        # One call per (seed, row, phi): 2 seeds x 4 rows x 2 phis; the
        # k-fold row's calls hold its 4 folds, the others one model.
        assert len(calls) == 2 * 4 * 2
        assert sorted(n for _, n in calls) == [1] * 12 + [4] * 4
        assert fits == []

    def test_bias_grid_fans_out_one_task_per_row_and_seed(self, tmp_path, monkeypatch):
        tasks = []
        execute = cli._execute_task

        def recording_execute(payload):
            tasks.append(payload[1])
            return execute(payload)

        monkeypatch.setattr(cli, "_execute_task", recording_execute)
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        assert run_experiment(parse_config(blob)) == 0
        # Row-outer: 4 rows x 2 seeds.
        assert tasks == [(seed, row) for row in cli.BIAS_GRID_ROWS for seed in (0, 1)]
        assert len(tasks) == 8

    def test_bias_grid_downsamples_each_side_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_enforce_ratio(pool, target, *args, **kwargs):
            calls.append((pool.ids, target, kwargs["seed"]))
            return enforce_ratio(pool, target, *args, **kwargs)

        def counting_ratio_rows(labels, target, *args, **kwargs):
            calls.append((labels.tobytes(), target, kwargs["seed"]))
            return ratio_rows(labels, target, *args, **kwargs)

        monkeypatch.setattr(cli, "enforce_ratio", counting_enforce_ratio)
        monkeypatch.setattr(splits, "enforce_ratio", counting_enforce_ratio)
        # Training sides are selected as rows; enforce_ratio's own call is not counted.
        monkeypatch.setattr(cli, "ratio_rows", counting_ratio_rows)
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        assert run_experiment(parse_config(blob)) == 0
        # Per seed, 2 phis + 2 deltas per side: k-fold 4 x (1 + 1), past_testing
        # and realistic 1 + 6 slots, disjoint_class_windows 1 + 1.
        assert len(calls) == 2 * 2 * (4 * 2 + 7 + 7 + 2)
        assert len(set(calls)) == len(calls)


class FitOnly:
    """A classifier with ``fit`` alone, so the framework falls back to one fit per model."""

    def __init__(self, inner):
        self.inner = inner

    def fit(self, train, seed):
        return self.inner.fit(train, seed)


class TestFitManyFallback:
    @pytest.mark.parametrize(
        "scenario,extra",
        [
            ("bias_grid", {}),
            ("kfold", {}),
            ("realistic", {"tuning": {"mu": 0.1, "validation_fraction": 0.34}}),
        ],
        ids=["bias_grid", "kfold", "tune"],
    )
    def test_fit_only_classifier_writes_the_same_bytes(self, tmp_path, scenario, extra):
        blob = base_config(tmp_path / "lockstep", scenario=scenario, seeds=(0, 1), **extra)
        blob["dataset"]["synthetic"]["samples_per_month"] = 120
        cfg = parse_config(blob)
        assert run_experiment(cfg) == 0
        fallback = replace(
            cfg, classifier=FitOnly(cfg.classifier), output_dir=str(tmp_path / "fit")
        )
        assert run_experiment(fallback) == 0
        lockstep = dir_digest(tmp_path / "lockstep")
        assert lockstep == dir_digest(tmp_path / "fit")
        if scenario == "realistic":
            assert "tuning_seed0.csv" in lockstep


def oracle_bias_grid(cfg) -> dict[tuple[str, str, str, str], str]:
    """Every bias_grid cell computed on its own from the public split functions."""
    cells = {}
    for seed in cfg.seeds:
        d = generate(cfg.synthetic, seed=derive_seed(seed, "dataset"))
        for phi in (0.1, 0.9):
            for delta in (0.1, 0.9):
                ratios = replace(cfg.ratios, phi=phi, delta=delta)
                kfold = []
                folds = stratified_folds(d.labels, cfg.kfold_k, derive_rng(seed, "bias_kfold"))
                for i, (train_idx, test_idx) in enumerate(folds):
                    train_seed, test_seed = (derive_seed(seed, "bk", s, i) for s in ("tr", "ts"))
                    train = enforce_ratio(d.subset(train_idx), phi, seed=train_seed)
                    test = enforce_ratio(d.subset(test_idx), delta, seed=test_seed)
                    kfold.append((train, [test], derive_seed(seed, "bk", "fit", i)))
                train, slots = downsampled(past_testing_pools(d, cfg.split, seed), ratios)
                disjoint_train, (disjoint_test,) = downsampled(
                    disjoint_class_pools(d, cfg.split, seed), ratios
                )
                split = time_aware_split(d, cfg.split, ratios, seed)
                rows = {
                    "kfold": kfold,
                    "past_testing": [(train, slots, derive_seed(seed, "past", "fit"))],
                    "disjoint_class_windows": [
                        (disjoint_train, [disjoint_test], derive_seed(seed, "disjoint", "fit"))
                    ],
                    "realistic": [
                        (split.train, split.test_slots, derive_seed(seed, "realistic", "fit"))
                    ],
                }
                for row, row_folds in rows.items():
                    f1s = []
                    for fold_train, tests, fit_seed in row_folds:
                        model = cfg.classifier.fit(fold_train, fit_seed)
                        pooled = sum((confusion_counts(model, t) for t in tests), Confusion())
                        f1s.append(prf1(pooled)[2])
                    cells[row, repr(phi), repr(delta), str(seed)] = repr(float(np.mean(f1s)))
    return cells


class TestBiasGridOracle:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "classifier",
        [{"kind": "linear_sgd", "epochs": 15}, {"kind": "knn", "k": 3}],
        ids=["sgd", "knn3"],
    )
    def test_cells_equal_per_cell_splits(self, tmp_path, classifier, workers):
        out = tmp_path / "out"
        blob = base_config(
            out, scenario="bias_grid", seeds=(3, 0), classifier=classifier, workers=workers
        )
        cfg = parse_config(blob)
        assert run_experiment(cfg) == 0
        with open(out / "bias_grid.csv", newline="") as fh:
            got = {
                (r["scenario"], r["phi"], r["delta"], r["seed"]): r["f1"]
                for r in csv.DictReader(fh)
            }
        assert got == oracle_bias_grid(cfg)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        blob1 = base_config(tmp_path / "a", seeds=(0, 1))
        blob2 = base_config(tmp_path / "b", seeds=(0, 1))
        run_experiment(parse_config(blob1))
        run_experiment(parse_config(blob2))
        d1, d2 = dir_digest(tmp_path / "a"), dir_digest(tmp_path / "b")
        assert d1 == d2

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_worker_pool_size_invariant(self, tmp_path, scenario):
        blob1 = base_config(tmp_path / "w1", scenario=scenario, seeds=(0, 1, 2))
        blob2 = base_config(tmp_path / "w8", scenario=scenario, seeds=(0, 1, 2), workers=8)
        run_experiment(parse_config(blob1))
        run_experiment(parse_config(blob2))
        assert dir_digest(tmp_path / "w1") == dir_digest(tmp_path / "w8")


def staged_tasks(outcomes: dict):
    """A stand-in ``_execute_task`` for a ``kfold`` run, whose task i is seed i.

    Task i returns ``outcomes[i]()`` when i is a key, else a score at once.
    """

    def execute(payload):
        _, task = payload
        seed = task[0]
        return task, outcomes[seed]() if seed in outcomes else 0.5

    return execute


def raiser(error: type, message: str):
    def fail():
        raise error(message)

    return fail


class TestFanOut:
    """A failure in any process ends the run as a serial run's failure would."""

    def run(self, tmp_path, monkeypatch, capsys, outcomes, workers):
        # Forked children inherit the stand-in.
        monkeypatch.setattr(cli, "_execute_task", staged_tasks(outcomes))
        blob = base_config(tmp_path / "out", scenario="kfold", seeds=tuple(range(8)),
                           workers=workers)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        code = main(["run", "--config", str(path)])
        assert not (tmp_path / "out").exists()
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "error,code,prefix",
        [(ConstraintViolationError, 3, "constraint violation"), (ConfigError, 2, "config error"),
         (Exception, 4, "error")],
        ids=["constraint", "config", "other"],
    )
    @pytest.mark.parametrize("index", [0, 1], ids=["parent_first", "child_first"])
    def test_a_failure_reads_the_same_at_any_worker_count(
        self, tmp_path, monkeypatch, capsys, error, code, prefix, index
    ):
        # Task 0 is the caller's first at every worker count; task 1 a child's first from 2 on.
        outcomes = {index: raiser(error, f"task {index} failed")}
        for workers in (1, 2, 8):
            got = self.run(tmp_path, monkeypatch, capsys, outcomes, workers)
            assert got == (code, f"{prefix}: task {index} failed\n")

    @pytest.mark.parametrize("first,second", [(3, 6), (2, 5)],
                             ids=["child_before_caller", "caller_before_child"])
    def test_the_lowest_failing_index_wins(self, tmp_path, monkeypatch, capsys, first, second):
        outcomes = {first: raiser(ConfigError, "first"),
                    second: raiser(ConstraintViolationError, "second")}
        for workers in (1, 2, 8):
            got = self.run(tmp_path, monkeypatch, capsys, outcomes, workers)
            assert got == (2, "config error: first\n")

    def test_a_killed_child_exits_4(self, tmp_path, monkeypatch, capsys):
        caller = os.getpid()

        def die():
            assert os.getpid() != caller, "task 1 must run in a child"
            os.kill(os.getpid(), signal.SIGKILL)

        code, err = self.run(tmp_path, monkeypatch, capsys, {1: die}, workers=2)
        assert code == 4
        assert err.startswith("error: worker process ended (killed by signal 9)")

    def test_without_fork_every_task_runs_in_process(self, tmp_path, monkeypatch):
        pids = []

        def record(payload):
            pids.append(os.getpid())
            return payload[1], 0.5

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "_execute_task", record)
        blob = base_config(tmp_path / "out", scenario="kfold", seeds=tuple(range(8)), workers=8)
        assert run_experiment(parse_config(blob)) == 0
        assert pids == [os.getpid()] * 8

    @pytest.mark.parametrize("what", ["result", "exception"])
    def test_an_unpicklable_outcome_exits_4(self, tmp_path, monkeypatch, capsys, what):
        def unpicklable():
            if what == "result":
                return lambda: None
            exc = Exception("holds a lambda")
            exc.hook = lambda: None
            raise exc

        code, err = self.run(tmp_path, monkeypatch, capsys, {1: unpicklable}, workers=2)
        assert code == 4
        assert err.startswith("error: the outcome of task 1 cannot be pickled: ")

    def test_a_float_fault_in_a_child_exits_4(self, tmp_path, monkeypatch, capsys):
        def overflow():
            return np.float64(1e308) * 10.0

        # As outside the test suite, a RuntimeWarning alone would not stop the run.
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code, err = self.run(tmp_path, monkeypatch, capsys, {1: overflow}, workers=2)
        assert code == 4
        assert err.startswith("error: overflow encountered")
        assert err.count("\n") == 1


class TestCliVerbs:
    def write_config(self, tmp_path, blob):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(blob))
        return str(p)

    def test_run_and_audit_and_plotdata(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = self.write_config(tmp_path, base_config(out, seeds=(0,)))
        assert main(["run", "--config", cfg_path]) == 0
        manifest = out / "split_manifest_seed0.json"
        assert main(["audit", "--manifest", str(manifest)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["C1"]["pass"]
        assert main(["plotdata", "--run-dir", str(out)]) == 0
        assert (out / "plot_decay_curves.csv").is_file()

    def test_audit_flags_violation_with_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = self.write_config(tmp_path, base_config(out, seeds=(0,)))
        main(["run", "--config", cfg_path])
        blob = json.loads((out / "split_manifest_seed0.json").read_text())
        # Date a training sample inside the test period.
        blob["train"][0]["timestamp"] = "2014-09-15"
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(blob))
        assert main(["audit", "--manifest", str(bad)]) == 3

    def test_missing_config_exit_2(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize(
        "row,message",
        [("a,not-a-date,0,1.0", "line 2: unparseable timestamp"),
         ("a,2014-01-05,7,1.0", "line 2: label must be 0 or 1"),
         ("a,2014-01-05,0,1e200", "line 2: |feature| exceeds")],
        ids=["bad_date", "label_7", "huge_feature"],
    )
    def test_malformed_dataset_exit_2(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"id,timestamp,label,f0\n{row}\n")
        blob = base_config(tmp_path / "out", seeds=(0,))
        blob["dataset"] = {"path": str(bad)}
        cfg_path = self.write_config(tmp_path, blob)
        assert main(["run", "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "bad_scores",
        [
            lambda X: np.full(len(X), np.nan),
            lambda X: np.full(len(X), 1.5),
            lambda X: np.full(len(X) + 1, 0.5),
        ],
        ids=["nan", "above_one", "wrong_length"],
    )
    def test_bad_model_output_exit_4(self, tmp_path, capsys, monkeypatch, bad_scores):
        from driftlab.classifiers import LinearModel

        monkeypatch.setattr(LinearModel, "scores", lambda self, X: bad_scores(X))
        blob = base_config(tmp_path / "out", seeds=(0,))
        assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 4
        assert "model error: LinearModel.scores returned" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["kfold", "bias_grid"])
    def test_unstratifiable_kfold_k_exit_2(self, tmp_path, scenario):
        blob = base_config(tmp_path / "out", scenario=scenario, seeds=(0,), kfold_k=500)
        assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 2

    @pytest.mark.parametrize(
        "scenario,code",
        [
            ("realistic", 2),
            ("past_testing", 2),
            ("disjoint_class_windows", 2),
            ("bias_grid", 2),
            ("kfold", 0),  # time-blind: the split windows do not apply
        ],
    )
    def test_data_ending_before_last_test_slot(self, tmp_path, scenario, code):
        blob = base_config(tmp_path / "out", scenario=scenario, seeds=(0,))
        blob["dataset"]["synthetic"]["months"] = 6  # the 6m test window starts in month 7
        assert main(["run", "--config", self.write_config(tmp_path, blob)]) == code
        # A failed run leaves no output directory.
        assert (tmp_path / "out").exists() == (code == 0)

    @pytest.mark.parametrize(
        "scenario,dropped,code",
        [
            # A test month without positives.
            ("realistic", ("2014-08-01", "2014-09-01", 1), 3),
            ("bias_grid", ("2014-08-01", "2014-09-01", 1), 3),
            # No positives before the training window's middle slot.
            ("disjoint_class_windows", ("2014-01-01", "2014-04-01", 1), 3),
            # An empty month in past_testing's test window.
            ("past_testing", ("2014-02-01", "2014-03-01", None), 3),
            # 10% of an 8-month training window leaves no 2-slot validation tail.
            ("tuning", None, 2),
        ],
        ids=["realistic", "bias_grid", "disjoint_class_windows", "past_testing", "tuning"],
    )
    def test_window_fault_exit_codes(self, tmp_path, scenario, dropped, code):
        d = generate(DriftSpec(months=12, samples_per_month=80, drift_velocity=0.25), seed=0)
        if dropped is not None:
            lo, hi, label = dropped
            t = d.times
            hit = (t >= np.datetime64(lo)) & (t < np.datetime64(hi))
            if label is not None:
                hit &= d.labels == label
            d = d.subset(np.flatnonzero(~hit))
        write_csv(d, str(tmp_path / "data.csv"))
        blob = base_config(tmp_path / "out", scenario=scenario, seeds=(0,))
        blob["dataset"] = {"path": str(tmp_path / "data.csv")}
        if scenario == "tuning":
            blob.update(scenario="realistic", tuning={"mu": 0.1, "validation_fraction": 0.1})
            blob["split"].update(train_window="8m", test_window="4m")
        cfg_path = self.write_config(tmp_path, blob)
        assert main(["run", "--config", cfg_path]) == code
        assert not (tmp_path / "out").exists()
        if scenario == "tuning":
            assert main(["tune", "--config", cfg_path]) == code
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stamp", ["2014-01", "NaT", "2014-01-05T10"])
    def test_audit_bad_manifest_timestamp_exit_2(self, tmp_path, stamp):
        out = tmp_path / "out"
        main(["run", "--config", self.write_config(tmp_path, base_config(out, seeds=(0,)))])
        blob = json.loads((out / "split_manifest_seed0.json").read_text())
        blob["test_slots"][0][0]["timestamp"] = stamp
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(blob))
        assert main(["audit", "--manifest", str(bad)]) == 2

    @pytest.mark.parametrize(
        "verb,corrupt,message",
        [
            ("audit", lambda manifest: [], "bad"),
            ("audit", lambda manifest: {**manifest, "train": 5}, "bad"),
            ("run", lambda cfg: {**cfg, "delay": "x"}, "bad"),
            ("run", lambda cfg: {**cfg, "split": {**cfg["split"], "origin": 5}}, "bad"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "linear_sgd", "epochs": "5"}},
             "bad"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "knn", "k": "3"}}, "bad"),
            ("run", lambda cfg: with_synthetic(cfg, months=12.0), "bad"),
            ("run", lambda cfg: with_synthetic(cfg, samples_per_month=80.5), "bad"),
            ("run", lambda cfg: with_synthetic(cfg, dim=2.5), "bad"),
            ("run", lambda cfg: with_synthetic(cfg, months=True), "bad"),
            ("run", lambda cfg: with_synthetic(cfg, drift_velocity=float("inf")), "bad"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "linear_sgd", "epochs": 10**400}},
             "bad"),
            ("run", lambda cfg: with_synthetic(cfg, months=10**400), "bad"),
            ("run", lambda cfg: with_synthetic(cfg, spread=1e308),
             "bad dataset.synthetic: spread must be"),
            ("run", lambda cfg: with_synthetic(cfg, drift_velocity=1e308),
             "bad dataset.synthetic: drift_velocity must be"),
            ("run", lambda cfg: with_synthetic(cfg, ratio_jitter=1e308),
             "bad dataset.synthetic: ratio_jitter must be"),
            ("run", lambda cfg: {**cfg, "dataset": {**cfg["dataset"], "format": "jsonl"}},
             "dataset 'format' applies to a 'path' only"),
            ("run", ragged_training_window, "10m is not a whole multiple of 3m"),
            ("run", ragged_retuned_window, "10m is not a whole multiple of 3m"),
            ("run", lambda cfg: with_ratios(cfg, per_slot_tolerance=float("nan")),
             "bad ratios: per_slot_tolerance must be"),
            ("run", lambda cfg: with_ratios(cfg, per_slot_tolerance=float("inf")),
             "bad ratios: per_slot_tolerance must be"),
            ("run", lambda cfg: with_ratios(cfg, per_slot_tolerance=True),
             "bad ratios: per_slot_tolerance must be"),
            ("run", lambda cfg: with_ratios(cfg, phi="0.1"), "bad ratios: phi must be"),
            ("run", lambda cfg: {**cfg, "tuning": {"e_max": "x"}}, "bad tuning: e_max must be"),
            ("run", lambda cfg: {**cfg, "tuning": {"e_max": float("nan")}},
             "bad tuning: e_max must be"),
            ("run", lambda cfg: {**cfg, "tuning": {"e_max": -1}}, "bad tuning: e_max must be"),
            ("run", lambda cfg: {**cfg, "tuning": {"target": ["f1"]}},
             "bad tuning: target must be"),
            ("run", lambda cfg: {**cfg, "tuning": {"sigma_hat": 0.2}},
             "tuning.sigma_hat 0.2 differs from ratios.sigma_hat 0.1"),
            ("run", lambda cfg: {**with_ratios(cfg, sigma_hat=0.7), "tuning": {}},
             "bad tuning: sigma_hat must be"),
            ("run", lambda cfg: {**cfg, "delay": {"kind": "active_learning", "al_budget": True}},
             "bad delay: al_budget must be"),
            ("run", lambda cfg: {**cfg, "delay": {"kind": "incremental", "retune_each_step": "no"}},
             "bad delay: retune_each_step must be"),
            ("run", lambda cfg: {**cfg, "delay": {"kind": "rejection", "refresh_threshold": 1}},
             "bad delay: refresh_threshold must be"),
            ("run", lambda cfg: {**cfg, "delay": {"kind": "active_learning", "al_budget": 0.25,
                                                  "retune_each_step": True}},
             "bad delay: retune_each_step only applies to incremental"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "knn", "k": 1001}},
             "k=1001 exceeds training size"),
            ("run", lambda cfg: {**cfg, "dataset": {"path": 5}}, "dataset_path must be"),
            ("run", lambda cfg: {**cfg, "dataset": {"path": "data.csv", "format": 5}},
             "dataset_format must be"),
            ("run", lambda cfg: {**cfg, "dataset": {**cfg["dataset"], "extra": 1}},
             "bad dataset: unknown keys ['extra']"),
            ("run", lambda cfg: {**cfg, "split": {**cfg["split"], "extra": 1}},
             "bad split: unknown keys ['extra']"),
            ("run", lambda cfg: {**cfg, "seeds": [-1]}, "seeds must be"),
            ("run", lambda cfg: {**cfg, "seeds": [2**63]}, "seeds must be"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "linear_sgd", "l2": 21}},
             "bad classifier: learning_rate * l2 must be < 2"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "linear_sgd", "l2": 100}},
             "bad classifier: learning_rate * l2 must be < 2"),
            ("run", lambda cfg: {**cfg, "classifier": {"kind": "linear_sgd", "learning_rate": 1e6}},
             "bad classifier: learning_rate * l2 must be < 2"),
            ("run", lambda cfg: {**cfg, "delay": {"kind": "active_learning",
                                                  "al_budget": [0.1, 0.1]}},
             "delay policies must be unique"),
            # A flag overrides the file's value even when falsy, and is checked like it.
            ("run --workers 0", lambda cfg: cfg, "workers must be"),
            ('run --out ""', lambda cfg: cfg, "output_dir must be"),
            ('run --seed ""', lambda cfg: cfg, "bad --seed list: ''"),
            ("run --workers 2", lambda cfg: [cfg], "config root must be an object"),
            ("run --seed 1", lambda cfg: "x", "config root must be an object"),
        ],
        ids=["manifest_list", "manifest_train_int", "delay_str", "split_origin_int",
             "sgd_epochs_str", "knn_k_str", "months_float", "samples_per_month_float",
             "dim_float", "months_bool", "drift_velocity_inf", "sgd_epochs_huge",
             "months_huge", "spread_huge", "drift_velocity_huge", "ratio_jitter_huge",
             "format_on_synthetic", "train_window_ragged_tuned", "train_window_ragged_retuned",
             "tolerance_nan", "tolerance_inf", "tolerance_bool", "phi_str", "e_max_str",
             "e_max_nan", "e_max_negative", "target_list", "sigma_hat_twice",
             "sigma_hat_inherited_above_half", "al_budget_bool",
             "retune_each_step_str", "refresh_threshold_int", "retune_each_step_al",
             "knn_k_above_training_size", "dataset_path_int",
             "dataset_format_int", "dataset_extra_key", "split_extra_key", "seed_negative",
             "seed_huge", "sgd_l2_21", "sgd_l2_100", "sgd_learning_rate_huge",
             "al_budget_repeated", "flag_workers_0", "flag_out_empty", "flag_seed_empty",
             "root_list_with_flag", "root_str_with_flag"],
    )
    def test_malformed_input_exit_2(self, tmp_path, capsys, verb, corrupt, message):
        blob = base_config(tmp_path / "out", seeds=(0,))
        if verb == "audit":
            assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 0
            manifest = json.loads((tmp_path / "out" / "split_manifest_seed0.json").read_text())
            bad = tmp_path / "bad_manifest.json"
            bad.write_text(json.dumps(corrupt(manifest)))
            argv = ["audit", "--manifest", str(bad)]
        else:
            argv = [*shlex.split(verb), "--config", self.write_config(tmp_path, corrupt(blob))]
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        if verb.startswith("run"):
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value", [("seeds", [True]), ("workers", True), ("kfold_k", True)]
    )
    def test_bool_as_integer_exit_2(self, tmp_path, capsys, key, value):
        blob = {**base_config(tmp_path / "out", scenario="past_testing", seeds=(0,)), key: value}
        assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_float_fault_exit_4(self, tmp_path, capsys):
        blob = base_config(tmp_path / "out", seeds=(0,))
        blob["classifier"] = {"kind": "linear_sgd", "learning_rate": 1e308, "l2": 0}
        # As outside the test suite, a RuntimeWarning alone would not stop the run.
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: overflow encountered")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bad_schema_exit_2(self, tmp_path):
        cfg_path = self.write_config(tmp_path, {"dataset": {}})
        assert main(["run", "--config", cfg_path]) == 2

    def test_generate_verb_round_trips(self, tmp_path):
        out_file = tmp_path / "synth.csv"
        rc = main(
            [
                "generate",
                "--months",
                "3",
                "--samples-per-month",
                "40",
                "--seed",
                "5",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        from driftlab.dataset import load_dataset

        d = load_dataset(str(out_file))
        assert len(d) == 120

    def test_generate_flags_are_drift_spec_fields(self, tmp_path):
        spec = DriftSpec(
            months=4,
            samples_per_month=30,
            dim=3,
            positive_ratio=0.2,
            ratio_jitter=0.01,
            drift_velocity=0.1,
            spread=0.8,
            family_churn=0.3,
            start=date(2015, 2, 28),
        )
        argv = ["generate", "--seed", "6", "--out", str(tmp_path / "cli.csv")]
        for name, value in vars(spec).items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        write_csv(generate(spec, seed=6), str(tmp_path / "lib.csv"))
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        # Defaults come from the dataclass; fields without one are required.
        assert main(["generate", "--months", "2", "--samples-per-month", "9",
                     "--out", str(tmp_path / "d.csv")]) == 0
        default = generate(DriftSpec(months=2, samples_per_month=9), seed=0)
        write_csv(default, str(tmp_path / "e.csv"))
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--months", "2", "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == 2

    def test_tune_verb(self, tmp_path):
        out = tmp_path / "out"
        blob = base_config(out, seeds=(0,), tuning={"mu": 0.1, "validation_fraction": 0.34})
        blob["split"]["train_window"] = "8m"
        blob["dataset"]["synthetic"]["months"] = 14
        cfg_path = self.write_config(tmp_path, blob)
        assert main(["tune", "--config", cfg_path]) == 0
        assert (out / "tuning_seed0.csv").is_file()

    def test_seed_override(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = self.write_config(tmp_path, base_config(out, seeds=(0, 1)))
        assert main(["run", "--config", cfg_path, "--seed", "7"]) == 0
        assert (out / "decay_seed7.csv").is_file()
        assert not (out / "decay_seed0.csv").exists()


class TestPlotData:
    def test_missing_dir_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot_data(str(tmp_path / "nope"))

    def test_empty_dir_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no recognized"):
            emit_plot_data(str(tmp_path))

    @pytest.mark.parametrize(
        "run_dir,message", [("nope", "does not exist"), (".", "no recognized")],
        ids=["missing", "empty"],
    )
    def test_bad_run_dir_exit_2(self, tmp_path, capsys, run_dir, message):
        assert main(["plotdata", "--run-dir", str(tmp_path / run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1

    def test_delay_series_per_budget(self, tmp_path):
        out = tmp_path / "out"
        blob = base_config(
            out, seeds=(0,), delay={"kind": "active_learning", "al_budget": [0.05, 0.25]}
        )
        run_experiment(parse_config(blob))
        emit_plot_data(str(out))
        text = (out / "plot_delay_curves.csv").read_text().splitlines()
        series = {line.rsplit(",", 1)[1] for line in text[1:]}
        assert len(series) == 2
