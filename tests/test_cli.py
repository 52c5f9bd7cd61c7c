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

from driftlab import cli, dataset, splits
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
from driftlab.dataset import (
    ConstraintViolationError,
    LabeledDataset,
    load_dataset,
    write_csv,
    write_jsonl,
)
from driftlab.delay import DelayPolicy
from driftlab.metrics import Confusion, confusion_counts, prf1, stratified_folds
from driftlab.rng import derive_rng, derive_seed
from driftlab.splits import (
    RatioSpec,
    disjoint_class_pools,
    enforce_ratio,
    past_testing_pools,
    time_aware_split,
)
from driftlab.synthgen import DriftSpec, generate
from driftlab.tuning import TuningConfig

from conftest import cut, downsampled, kfold_f1s


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


def run_argv(tmp: Path, blob: dict) -> list[str]:
    """``run`` on config ``blob``, written under ``tmp``."""
    (tmp / "cfg.json").write_text(json.dumps(blob))
    return ["run", "--config", str(tmp / "cfg.json")]


def put(path: Path, data: bytes | None) -> str:
    """Write ``data`` to ``path``, or make a directory there when ``data`` is None."""
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    return str(path)


def file_run_argv(tmp: Path, name: str, data: bytes | None) -> list[str]:
    """``run`` on the dataset file ``tmp/name`` holding ``data``, or on a directory there."""
    path = put(tmp / name, data)
    return run_argv(tmp, {**base_config(tmp / "out", seeds=(0,)), "dataset": {"path": path}})


def input_argv(tmp: Path, verb: str, data: bytes | None) -> list[str]:
    """``verb`` (a verb and its input flag) on ``put(tmp / "in", data)``."""
    return [*verb.split(), put(tmp / "in", data)]


DECAY_CSV = b"slot,timestamp,metric,mode,value\n0,2014-07-01,f1,point,0.5\n"


def plotdata_argv(tmp: Path, files: dict) -> list[str]:
    """``plotdata`` into ``tmp/out`` from a run directory of ``files``, each name
    mapped to its bytes, or to None for a directory of that name."""
    run = put(tmp / "run", None)
    for name, data in files.items():
        put(Path(run) / name, data)
    return ["plotdata", "--run-dir", run, "--out", str(tmp / "out")]


def jsonl_run_argv(tmp: Path, line: str) -> list[str]:
    good = '{"id": "a", "timestamp": "2014-01-01", "label": 0, "features": [1]}\n'
    return file_run_argv(tmp, "d.jsonl", (good + line + "\n").encode())


def config_run_argv(tmp: Path, edit) -> list[str]:
    """``run`` on the base config after ``edit(blob)``."""
    blob = base_config(tmp / "out", seeds=(0,))
    edit(blob)
    return run_argv(tmp, blob)


def audit_argv(tmp: Path, edit) -> list[str]:
    """``audit`` on a valid split manifest after ``edit(blob)``."""
    blob = base_config(tmp / "out")
    spec = splits.SplitSpec.from_dict(blob["split"])
    d = generate(DriftSpec(**blob["dataset"]["synthetic"]), seed=0)
    manifest = splits.split_to_manifest(time_aware_split(d, spec, RatioSpec(), seed=0))
    edit(manifest)
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    return ["audit", "--manifest", str(tmp / "manifest.json")]


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

    @pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "realistic"])
    def test_rejects_delay_outside_realistic(self, tmp_path, capsys, scenario):
        # Only realistic runs delay policies; elsewhere the section would be ignored.
        blob = base_config(tmp_path / "out", scenario=scenario)
        blob["delay"] = {"kind": "rejection"}
        with pytest.raises(ConfigError, match=f"^{scenario} does not combine"):
            parse_config(blob)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        assert main(["run", "--config", str(path)]) == 2
        assert scenario in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "realistic"])
    def test_run_rejects_tuning_outside_realistic(self, tmp_path, capsys, scenario):
        # Only realistic tunes phi; elsewhere run would ignore the section.
        blob = base_config(tmp_path / "out", scenario=scenario, tuning={"mu": 0.1})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        assert main(["run", "--config", str(path)]) == 2
        assert f"{scenario} does not use a tuning section" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scenario_flag_drops_a_tuned_config_out_of_realistic(self, tmp_path, capsys):
        tuning = {"mu": 0.1, "validation_fraction": 0.34}
        blob = base_config(tmp_path / "out", seeds=(0,), tuning=tuning)
        blob["split"]["train_window"] = "8m"
        blob["dataset"]["synthetic"]["months"] = 14
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        assert main(["run", "--config", str(path), "--scenario", "kfold"]) == 2
        assert "kfold does not use a tuning section" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # The tune verb still reads the section, whatever the scenario.
        path.write_text(json.dumps({**blob, "scenario": "kfold"}))
        assert main(["tune", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "tuning_seed0.csv").is_file()

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

    def test_bias_grid_fits_each_seed_in_one_lockstep_call(self, tmp_path, monkeypatch):
        log = tmp_path / "fit_many.log"
        fit_many = LinearSGDClassifier.fit_many

        def counting_fit_many(self, base, rows, seeds):
            # Appended to a file, so the calls of forked workers count too.
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{len(base)} {len(rows)}\n")
            return fit_many(self, base, rows, seeds)

        def fit(self, train, seed):
            raise AssertionError("bias_grid fit one model alone")

        monkeypatch.setattr(LinearSGDClassifier, "fit_many", counting_fit_many)
        monkeypatch.setattr(LinearSGDClassifier, "fit", fit)
        for workers in (1, 2):
            blob = base_config(tmp_path / f"w{workers}", scenario="bias_grid", seeds=(0, 1),
                               workers=workers)
            cfg = parse_config(blob)
            assert run_experiment(cfg) == 0
            streams = [len(generate(cfg.synthetic, seed=derive_seed(s, "dataset"))) for s in (0, 1)]
            # One call per seed, over its stream: 2 phis x (4 k-fold folds + 3 one-fold rows).
            calls = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
            assert calls == sorted((n, 2 * (4 + 3)) for n in streams)
            log.unlink()

    def test_bias_grid_deals_one_task_per_seed_or_per_row(self, tmp_path, monkeypatch):
        dealt = []
        fan_out = cli._fan_out

        def recording_fan_out(fn, items, workers):
            dealt.append([task for _, task in items])
            return fan_out(fn, items, workers)

        monkeypatch.setattr(cli, "_fan_out", recording_fan_out)
        for seeds, workers in [((0, 1), 1), ((0, 1), 2), ((0, 1, 2), 2)]:
            blob = base_config(tmp_path / f"s{len(seeds)}-w{workers}", scenario="bias_grid",
                               seeds=seeds, workers=workers)
            assert run_experiment(parse_config(blob)) == 0
        rows = tuple(cli.BIAS_GRID_ROWS)
        # Seeds that deal evenly over the workers get one task each, holding every row.
        per_seed = [(0, rows), (1, rows)]
        # Otherwise one task per (seed, row), row-outer: 4 rows x 3 seeds.
        per_row = [(seed, (row,)) for row in rows for seed in (0, 1, 2)]
        assert dealt == [per_seed, per_seed, per_row]

    def test_bias_grid_downsamples_each_side_once(self, tmp_path, monkeypatch):
        calls, kept, gathered = [], [], []
        subset = LabeledDataset.subset

        def counting_enforce_ratio(d, target, rows=None, **kwargs):
            calls.append((rows.tobytes(), target, kwargs["seed"]))
            kept.append(enforce_ratio(d, target, rows, **kwargs))
            return kept[-1]

        def counting_subset(d, indices):
            gathered.append(indices)
            return subset(d, indices)

        monkeypatch.setattr(cli, "enforce_ratio", counting_enforce_ratio)
        monkeypatch.setattr(LabeledDataset, "subset", counting_subset)
        blob = base_config(tmp_path / "out", scenario="bias_grid", seeds=(0, 1))
        assert run_experiment(parse_config(blob)) == 0
        # Per seed, 2 phis + 2 deltas per side: k-fold 4 x (1 + 1), past_testing
        # and realistic 1 + 6 slots, disjoint_class_windows 1 + 1.
        assert len(calls) == 2 * 2 * (4 * 2 + 7 + 7 + 2)
        assert len(set(calls)) == len(calls)
        # Only the test sides are gathered, each once per delta, as the rows the cut kept.
        assert len(gathered) == 2 * 2 * (4 + 6 + 6 + 1)
        assert all(any(rows is k for k in kept) for rows in gathered)


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
                    train = cut(d.subset(train_idx), phi, seed=train_seed)
                    test = cut(d.subset(test_idx), delta, seed=test_seed)
                    kfold.append((train, [test], derive_seed(seed, "bk", "fit", i)))
                train, slots = downsampled(d, past_testing_pools(d, cfg.split, seed), ratios)
                disjoint_train, (disjoint_test,) = downsampled(
                    d, disjoint_class_pools(d, cfg.split, seed), ratios
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


class TestKFoldOracle:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "classifier",
        [{"kind": "linear_sgd", "epochs": 15}, {"kind": "knn", "k": 5}],
        ids=["sgd", "knn"],
    )
    def test_scores_equal_the_fold_loop(self, tmp_path, classifier, workers):
        # phi and delta are far from the stream's own ratio, and k-fold ignores both.
        out = tmp_path / "out"
        blob = base_config(out, scenario="kfold", seeds=(3, 0), classifier=classifier,
                           workers=workers, ratios={"sigma_hat": 0.1, "phi": 0.5, "delta": 0.5})
        cfg = parse_config(blob)
        assert run_experiment(cfg) == 0
        means = {
            seed: float(np.mean(kfold_f1s(
                generate(cfg.synthetic, seed=derive_seed(seed, "dataset")),
                cfg.classifier, cfg.kfold_k, seed,
            )))
            for seed in (0, 3)
        }
        assert (out / "kfold.csv").read_text().splitlines() == [
            "seed,mean_f1", *(f"{seed},{mean!r}" for seed, mean in means.items())
        ]
        values = list(means.values())
        assert (out / "aggregate.csv").read_text().splitlines() == [
            "scenario,metric,mean,std,n_seeds",
            f"kfold,mean_f1,{float(np.mean(values))!r},{float(np.std(values))!r},2",
        ]


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

    @pytest.mark.parametrize("scenario,workers", [("realistic", 1), ("bias_grid", 2)])
    def test_parse_cache_is_transparent(self, tmp_path, monkeypatch, scenario, workers):
        # The cold run parses once and writes the sidecar (at workers 2, before
        # forking, so the workers read nothing); the warm run reads the sidecar.
        data = tmp_path / "data" / "d.csv"
        data.parent.mkdir()
        write_csv(generate(DriftSpec(months=12, samples_per_month=80), seed=0), str(data))
        blob = base_config(tmp_path / "cold", scenario=scenario, seeds=(0, 1), workers=workers)
        blob["dataset"] = {"path": str(data), "format": "csv"}
        blob["classifier"] = {"kind": "knn", "k": 3}
        parses = tmp_path / "parses"

        def counted(fh, _parse=dataset._load_csv):
            with open(parses, "a") as log:  # a file, so forked workers' parses count too
                log.write(f"{os.getpid()}\n")
            return _parse(fh)

        with monkeypatch.context() as m:
            m.setattr(dataset, "_load_csv", counted)
            assert run_experiment(parse_config(blob)) == 0
        assert parses.read_text() == f"{os.getpid()}\n"
        assert sorted(os.listdir(data.parent)) == ["d.csv", "d.csv.driftlab-cache"]
        sidecar = (data.parent / "d.csv.driftlab-cache").read_bytes()

        def no_parse(fh):
            raise AssertionError("parsed a file whose sidecar is valid")

        monkeypatch.setattr(dataset, "_load_csv", no_parse)
        assert run_experiment(parse_config({**blob, "output_dir": str(tmp_path / "warm")})) == 0
        assert dir_digest(tmp_path / "cold") == dir_digest(tmp_path / "warm")
        assert (data.parent / "d.csv.driftlab-cache").read_bytes() == sidecar

    def test_knn_run_does_not_depend_on_feature_scale(self, tmp_path):
        # Power-of-two scaling is exact, so exact distances, their ties and
        # the id order stay put. At 2**66 squared norms pass float32's range,
        # and at 2**-70 they fall below its subnormal steps.
        d = generate(DriftSpec(months=12, samples_per_month=40), seed=0)
        digests = []
        for i, scale in enumerate([1.0, 2.0**66, 2.0**-70]):
            run = tmp_path / f"scale{i}"
            run.mkdir()
            scaled = LabeledDataset(d.ids, d.timestamps, d.labels, d.features * scale)
            write_csv(scaled, str(run / "d.csv"))
            blob = {**base_config(run / "out", seeds=(0,)), "dataset": {"path": str(run / "d.csv")},
                    "classifier": {"kind": "knn", "k": 3}, "tuning": {"mu": 0.1},
                    "delay": {"kind": "rejection"}}
            # As outside the test suite, a float fault exits 4 rather than warning.
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                assert main(run_argv(run, blob)) == 0
            digest = dir_digest(run / "out")
            assert digest.pop("config_echo.json")
            digests.append(digest)
        assert digests[0] == digests[1] == digests[2]
        assert {"tuning_seed0.csv", "delay_rejection_slots_seed0.csv"} <= digests[0].keys()


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

    def odd_manifest(self, tmp_path, edit):
        """``audit``'s exit code on a run's manifest after ``edit``, and the edited manifest."""
        out = tmp_path / "out"
        main(["run", "--config", self.write_config(tmp_path, base_config(out, seeds=(0,)))])
        blob = json.loads((out / "split_manifest_seed0.json").read_text())
        edit(blob)
        bad = tmp_path / "odd_manifest.json"
        bad.write_text(json.dumps(blob))
        return main(["audit", "--manifest", str(bad)]), blob

    def test_audit_empty_test_slot_exit_2(self, tmp_path, capsys):
        code, _ = self.odd_manifest(tmp_path, lambda blob: blob["test_slots"][2].clear())
        assert code == 2
        assert capsys.readouterr().err == "config error: bad manifest: test slot 2 is empty\n"

    def test_audit_empty_train_exit_2(self, tmp_path, capsys):
        code, _ = self.odd_manifest(tmp_path, lambda blob: blob["train"].clear())
        assert code == 2
        assert capsys.readouterr().err == "config error: bad manifest: train is empty\n"

    def test_audit_test_sample_listed_under_train_exit_3(self, tmp_path, capsys):
        code, blob = self.odd_manifest(
            tmp_path, lambda blob: blob["train"].append(blob["test_slots"][1][0])
        )
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["C1"]["witnesses"][0]["train_id"] == blob["train"][-1]["id"]

    def test_audit_id_with_two_records_exit_2(self, tmp_path, capsys):
        def edit(blob):
            blob["train"].append(dict(blob["test_slots"][1][0], timestamp="2014-02-03"))

        code, blob = self.odd_manifest(tmp_path, edit)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad manifest: sample id {blob['train'][-1]['id']!r}")

    def test_realistic_run_audits_each_split_once(self, tmp_path, monkeypatch):
        calls = []
        run_all_checks = splits.run_all_checks

        def counting(split):
            calls.append(split)
            return run_all_checks(split)

        monkeypatch.setattr(splits, "run_all_checks", counting)
        blob = base_config(tmp_path / "out", seeds=(0, 1),
                           delay={"kind": "active_learning", "al_budget": [0.05, 0.2]})
        assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 0
        assert len(calls) == 2
        assert len(set(map(id, calls))) == 2

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

    def test_single_class_training_side_exit_3(self, tmp_path, capsys):
        # 2 positives and 36 negatives in the 12-month training window; phi 0.9
        # keeps round(2 * 0.1 / 0.9) = 0 negatives, so linear SGD sees one class.
        # Each of the 6 test months holds 1 positive and 9 negatives.
        months = [(m, 1 if m in (0, 6) else 0, 3) for m in range(12)]
        months += [(m, 1, 9) for m in range(12, 18)]
        ids, stamps, labels = [], [], []
        for m, n_pos, n_neg in months:
            day = date(2014 + m // 12, m % 12 + 1, 10)
            for i, label in enumerate([1] * n_pos + [0] * n_neg):
                ids.append(f"m{m:02d}s{i}")
                stamps.append(day)
                labels.append(label)
        feats = np.random.default_rng(0).normal(size=(len(ids), 2))
        write_csv(LabeledDataset(ids, stamps, labels, feats), str(tmp_path / "data.csv"))
        blob = base_config(tmp_path / "out", seeds=(0,))
        blob["dataset"] = {"path": str(tmp_path / "data.csv")}
        blob["split"].update(train_window="12m", test_window="6m")
        blob["ratios"]["phi"] = 0.9
        assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 3
        err = capsys.readouterr().err
        assert err == "constraint violation: training set has 2 positives / 0 negatives\n"
        assert not (tmp_path / "out").exists()

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
            # An output path that cannot be written is refused before any work starts.
            ("run", lambda cfg: {**cfg, "output_dir": "{tmp}/afile"},
             "output path {tmp}/afile is not a directory"),
            ("run", lambda cfg: {**cfg, "output_dir": "{tmp}/afile/out"},
             "output path {tmp}/afile/out lies under {tmp}/afile, which is not a directory"),
            ("run --out {tmp}/out/../afile", lambda cfg: cfg,
             "output path {tmp}/out/../afile is not a directory"),
            ("plotdata --run-dir {tmp}/out --out {tmp}/afile", None,
             "output path {tmp}/afile is not a directory"),
            ("audit --out {tmp}", lambda manifest: manifest, "output path {tmp} is a directory"),
            ("audit --out {tmp}/afile/report.json", lambda manifest: manifest,
             "output path {tmp}/afile/report.json lies under {tmp}/afile"),
            ("generate --months 12 --samples-per-month 20 --out {tmp}", None,
             "output path {tmp} is a directory"),
            ("generate --months 12 --samples-per-month 20 --out {tmp}/afile/x.csv", None,
             "output path {tmp}/afile/x.csv lies under {tmp}/afile"),
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
             "root_list_with_flag", "root_str_with_flag", "run_out_is_a_file",
             "run_out_under_a_file", "run_out_through_a_missing_dir", "plotdata_out_is_a_file",
             "audit_out_is_a_dir", "audit_out_under_a_file", "generate_out_is_a_dir",
             "generate_out_under_a_file"],
    )
    def test_malformed_input_exit_2(self, tmp_path, capsys, monkeypatch, verb, corrupt, message):
        blob = base_config(tmp_path / "out", seeds=(0,))
        (tmp_path / "afile").write_text("")
        verb, message = (text.replace("{tmp}", str(tmp_path)) for text in (verb, message))
        if verb.startswith(("audit", "plotdata")):
            assert main(["run", "--config", self.write_config(tmp_path, blob)]) == 0
        if verb.startswith("audit"):
            manifest = json.loads((tmp_path / "out" / "split_manifest_seed0.json").read_text())
            bad = tmp_path / "bad_manifest.json"
            bad.write_text(json.dumps(corrupt(manifest)))
            argv = ["audit", "--manifest", str(bad), *shlex.split(verb)[1:]]
        elif verb.startswith(("plotdata", "generate")):
            argv = shlex.split(verb)
        else:
            blob = json.loads(json.dumps(corrupt(blob)).replace("{tmp}", str(tmp_path)))
            argv = [*shlex.split(verb), "--config", self.write_config(tmp_path, blob)]
        ran = []
        execute = cli._execute_task
        monkeypatch.setattr(cli, "_execute_task", lambda task: ran.append(task) or execute(task))
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        if verb.startswith("run"):
            assert not (tmp_path / "out").exists()
        if message.startswith("output path"):
            assert ran == []
            assert (tmp_path / "afile").read_text() == ""

    # Every date read from outside is YYYY-MM-DD only, as on every Python (3.11's
    # date.fromisoformat alone also takes the basic and week forms), and every
    # label the int or text 0 or 1, not a bool or float equal to one, every id a
    # string or an integer (so JSON null cannot load as "None"); a dataset
    # file must be UTF-8, readable, and hold no field the csv module refuses.
    # Every file a verb reads (config, manifest, dataset, run artifact) must be
    # readable UTF-8, and a failed plotdata writes no table.
    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda tmp: file_run_argv(tmp, "d.csv",
                                       b"id,timestamp,label,f0\n\xff,2014-01-01,0,1\n"),
             "file is not UTF-8 text (invalid start byte)"),
            (lambda tmp: jsonl_run_argv(tmp, "5"), "line 2: not a JSON object"),
            (lambda tmp: jsonl_run_argv(tmp, "null"), "line 2: not a JSON object"),
            (lambda tmp: jsonl_run_argv(tmp, "[1]"), "line 2: not a JSON object"),
            (lambda tmp: jsonl_run_argv(tmp, '"x"'), "line 2: not a JSON object"),
            (lambda tmp: file_run_argv(tmp, "d.csv", None),
             "cannot read dataset file {tmp}/d.csv: Is a directory"),
            (lambda tmp: config_run_argv(tmp, lambda b: b["split"].update(origin="20140101")),
             "bad split: '20140101' is not a YYYY-MM-DD date"),
            (lambda tmp: config_run_argv(tmp, lambda b: b["split"].update(origin="2014-W02-3")),
             "bad split: '2014-W02-3' is not a YYYY-MM-DD date"),
            (lambda tmp: config_run_argv(
                tmp, lambda b: b["dataset"]["synthetic"].update(start="2014W023")),
             "bad dataset.synthetic: start must be a YYYY-MM-DD date, got '2014W023'"),
            (lambda tmp: ["generate", "--months", "2", "--samples-per-month", "5",
                          "--start", "2014W023", "--out", str(tmp / "x.csv")],
             "start must be a YYYY-MM-DD date, got '2014W023'"),
            (lambda tmp: audit_argv(tmp, lambda m: m["train"][0].update(label=1.7)),
             "bad manifest: label must be 0 or 1, got 1.7"),
            (lambda tmp: audit_argv(tmp, lambda m: m["train"][0].update(label="01")),
             "bad manifest: label must be 0 or 1, got '01'"),
            (lambda tmp: audit_argv(tmp, lambda m: m["test_slots"][0][0].update(
                timestamp="20140705")),
             "bad manifest: '20140705' is not a YYYY-MM-DD date"),
            (lambda tmp: audit_argv(tmp, lambda m: m["test_slots"][0][0].update(
                timestamp="2014-W27-6")),
             "bad manifest: '2014-W27-6' is not a YYYY-MM-DD date"),
            (lambda tmp: audit_argv(tmp, lambda m: m["spec"].update(origin="20140101")),
             "bad manifest: '20140101' is not a YYYY-MM-DD date"),
            (lambda tmp: audit_argv(tmp, lambda m: m["spec"].update(origin="2014W013")),
             "bad manifest: '2014W013' is not a YYYY-MM-DD date"),
            # After a quoted id over two lines, the long field's record starts on line 4.
            (lambda tmp: file_run_argv(
                tmp, "d.csv", b'id,timestamp,label,f0\n"a\nb",2014-01-01,0,1\n'
                + b"x" * 200_000 + b",2014-01-02,1,1\n"),
             "line 4: field larger than field limit (131072)"),
            (lambda tmp: file_run_argv(tmp, "d.csv", b"id,timestamp,label,f0," + b"x" * 200_000),
             "line 1: field larger than field limit (131072)"),
            *[(lambda tmp, v=v: jsonl_run_argv(
                  tmp, f'{{"id": "b", "timestamp": "2014-01-02", "label": {v}, "features": [1]}}'),
               f"line 2: label must be 0 or 1, got {v}")
              for v in ("true", "false", "1.0", "0.0")],
            *[(lambda tmp, v=v: audit_argv(tmp, lambda m: m["train"][0].update(label=v)),
               f"bad manifest: label must be 0 or 1, got {json.dumps(v)}")
              for v in (True, False, 1.0, 0.0)],
            *[(lambda tmp, v=v: jsonl_run_argv(
                  tmp, f'{{"id": {v}, "timestamp": "2014-01-02", "label": 1, "features": [1]}}'),
               f"line 2: id must be a string or an integer, got {v}")
              for v in ("null", "true", "[1]")],
            *[(lambda tmp, v=v: audit_argv(tmp, lambda m: m["train"][0].update(id=v)),
               f"bad manifest: id must be a string or an integer, got {json.dumps(v)}")
              for v in (None, True)],
            (lambda tmp: plotdata_argv(tmp, {"decay_seed0.csv": DECAY_CSV.replace(b"slot", b"k")}),
             "run artifact {tmp}/run/decay_seed0.csv has header "
             "['k', 'timestamp', 'metric', 'mode', 'value'], "
             "not ['slot', 'timestamp', 'metric', 'mode', 'value']"),
            (lambda tmp: plotdata_argv(tmp, {"decay_seed0.csv": DECAY_CSV,
                                             "tuning_seed0.csv": b"phi,aut,error\n0.1,\xff,0\n"}),
             "run artifact {tmp}/run/tuning_seed0.csv is not UTF-8 text (invalid start byte)"),
            (lambda tmp: plotdata_argv(tmp, {"decay_seed0.csv": None}),
             "cannot read run artifact {tmp}/run/decay_seed0.csv: Is a directory"),
            (lambda tmp: input_argv(tmp, "run --config", None),
             "cannot read config file {tmp}/in: Is a directory"),
            (lambda tmp: input_argv(tmp, "tune --config", None),
             "cannot read config file {tmp}/in: Is a directory"),
            (lambda tmp: input_argv(tmp, "audit --manifest", None),
             "cannot read manifest {tmp}/in: Is a directory"),
            (lambda tmp: input_argv(tmp, "run --config", b'{"scenario": "\xff"}'),
             "config file {tmp}/in is not UTF-8 text (invalid start byte)"),
            (lambda tmp: input_argv(tmp, "audit --manifest", b'{"train": "\xff"}'),
             "manifest {tmp}/in is not UTF-8 text (invalid start byte)"),
            (lambda tmp: jsonl_run_argv(
                tmp, '{"id": "b", "timestamp": null, "label": 1, "features": [1]}'),
             "line 2: unparseable timestamp 'null'"),
            (lambda tmp: audit_argv(tmp, lambda m: m["test_slots"][0][0].update(timestamp=None)),
             "bad manifest: 'null' is not a YYYY-MM-DD date"),
            (lambda tmp: config_run_argv(tmp, lambda b: b["split"].update(origin=None)),
             "bad split: 'null' is not a YYYY-MM-DD date"),
            (lambda tmp: plotdata_argv(tmp, {"decay_seed0.csv": DECAY_CSV + b"1,2014-08-01\n"}),
             "run artifact {tmp}/run/decay_seed0.csv line 3: "
             "the row's length differs from the header's 5 fields"),
            (lambda tmp: plotdata_argv(
                tmp, {"decay_seed0.csv": DECAY_CSV + b"1,2014-08-01,f1,point,0.5,9\n"}),
             "run artifact {tmp}/run/decay_seed0.csv line 3: "
             "the row's length differs from the header's 5 fields"),
            # plotdata reads only the header a run writes, in its order.
            (lambda tmp: plotdata_argv(tmp, {"decay_seed0.csv": DECAY_CSV.replace(
                b"slot,timestamp", b"timestamp,slot")}),
             "run artifact {tmp}/run/decay_seed0.csv has header "
             "['timestamp', 'slot', 'metric', 'mode', 'value'], "
             "not ['slot', 'timestamp', 'metric', 'mode', 'value']"),
            (lambda tmp: plotdata_argv(tmp, {"tuning_seed0.csv": b"phi,aut,error\n0.1,0.5,0.0\n"}),
             "run artifact {tmp}/run/tuning_seed0.csv has header "
             "['phi', 'aut', 'error'], not ['phi', 'aut', 'error', 'selected']"),
            # A JSON null, true or false in a config is reported as the file spells it.
            (lambda tmp: config_run_argv(tmp, lambda b: b["dataset"]["synthetic"].update(
                start=None)),
             "bad dataset.synthetic: start must be a YYYY-MM-DD date, got null"),
            (lambda tmp: config_run_argv(tmp, lambda b: b["dataset"]["synthetic"].update(
                dim=None)),
             "bad dataset.synthetic: dim must be a positive integer at most 1000, got null"),
            (lambda tmp: config_run_argv(tmp, lambda b: b["classifier"].update(epochs=True)),
             "bad classifier: epochs must be a positive integer at most 10000, got true"),
            (lambda tmp: config_run_argv(tmp, lambda b: b.update(
                delay={"kind": "incremental", "retune_each_step": None})),
             "bad delay: retune_each_step must be a boolean, got null"),
            (lambda tmp: config_run_argv(tmp, lambda b: b.update(seeds=[None])),
             "seeds must be a non-empty list of integers in [0, 2**63), got [null]"),
            (lambda tmp: config_run_argv(tmp, lambda b: b.update(classifier={"kind": None})),
             "bad classifier: kind must be 'linear_sgd' or 'knn', got null"),
            (lambda tmp: config_run_argv(tmp, lambda b: b.update(classifier={"k": 3})),
             "bad classifier: kind must be 'linear_sgd' or 'knn', but it is missing"),
            # The budget rule names the missing budget, not the one-kind rule it keeps.
            *[(lambda tmp, d=d: config_run_argv(tmp, lambda b: b.update(
                  delay={"kind": "active_learning", **d})),
               "bad delay: active_learning needs an al_budget, and it is missing or null")
              for d in ({"al_budget": [None]}, {"al_budget": None}, {})],
        ],
        ids=["csv_not_utf8", "jsonl_number", "jsonl_null", "jsonl_list", "jsonl_string",
             "dataset_path_is_a_dir", "split_origin_basic", "split_origin_week",
             "synthetic_start_week", "generate_start_week", "manifest_label_float",
             "manifest_label_01", "manifest_timestamp_basic", "manifest_timestamp_week",
             "manifest_origin_basic", "manifest_origin_week", "csv_field_over_limit",
             "csv_header_field_over_limit", "jsonl_label_true", "jsonl_label_false",
             "jsonl_label_1.0", "jsonl_label_0.0", "manifest_label_true",
             "manifest_label_false", "manifest_label_1.0", "manifest_label_0.0",
             "jsonl_id_null", "jsonl_id_true", "jsonl_id_list", "manifest_id_null",
             "manifest_id_true", "plotdata_column_missing", "plotdata_not_utf8",
             "plotdata_artifact_is_a_dir",
             "run_config_is_a_dir", "tune_config_is_a_dir", "audit_manifest_is_a_dir",
             "config_not_utf8", "manifest_not_utf8", "jsonl_timestamp_null",
             "manifest_timestamp_null", "split_origin_null", "plotdata_row_short",
             "plotdata_row_long", "plotdata_header_permuted", "plotdata_column_absent",
             "synthetic_start_null", "synthetic_dim_null", "classifier_epochs_true",
             "delay_retune_each_step_null", "seeds_null", "classifier_kind_null",
             "classifier_kind_missing", "al_budget_list_null", "al_budget_null",
             "al_budget_absent"],
    )
    def test_ill_formed_outside_input_exit_2(self, tmp_path, capsys, make, message):
        assert main(make(tmp_path)) == 2
        message = message.replace("{tmp}", str(tmp_path))
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "x.csv").exists()
        assert not list(tmp_path.glob("*.driftlab-cache*"))

    def test_file_outputs_make_their_missing_directories(self, tmp_path):
        out = tmp_path / "out"
        config = self.write_config(tmp_path, base_config(out, seeds=(0,)))
        assert main(["run", "--config", config]) == 0
        report = tmp_path / "new" / "report.json"
        manifest = str(out / "split_manifest_seed0.json")
        assert main(["audit", "--manifest", manifest, "--out", str(report)]) == 0
        assert json.loads(report.read_text())["C1"]["pass"]
        data = tmp_path / "other" / "data.csv"
        argv = ["generate", "--months", "12", "--samples-per-month", "20", "--out", str(data)]
        assert main(argv) == 0
        assert len(load_dataset(str(data))) == 12 * 20

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

    @pytest.mark.parametrize("name,writer",
                             [("d.csv", write_csv), ("d.jsonl", write_jsonl), ("d.ndjson", write_jsonl)])
    def test_generate_writes_the_format_its_suffix_names(self, tmp_path, name, writer):
        assert main(["generate", "--months", "2", "--samples-per-month", "9",
                     "--out", str(tmp_path / name)]) == 0
        writer(generate(DriftSpec(months=2, samples_per_month=9), seed=0), str(tmp_path / "lib"))
        assert (tmp_path / name).read_bytes() == (tmp_path / "lib").read_bytes()

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

    def test_failure_leaves_no_output_directory(self, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        out = tmp_path / "plots" / "out"
        assert main(["plotdata", "--run-dir", str(tmp_path / "run"), "--out", str(out)]) == 2
        assert "no recognized" in capsys.readouterr().err
        assert not (tmp_path / "plots").exists()

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
