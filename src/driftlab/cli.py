"""Config-driven experiment runner and the ``driftlab`` command-line verbs.

Verbs: ``run`` (execute an experiment config), ``audit`` (re-check the
three constraints on a saved split manifest), ``tune`` (training-ratio
grid search only), ``generate`` (synthetic dataset to CSV/JSONL),
``plotdata`` (reshape run artifacts into tidy plotting CSVs).

Exit codes, by kind: 0 ok; 2 bad input, any ``ConfigError`` (a config, a
flag, a file that is missing, unreadable or malformed, data too short for
its windows or folds); 3 a constraint the data cannot meet, any
``ConstraintViolationError`` (C1-C3, a window empty or lacking a class);
4 a model's output or any other runtime failure.

Scenarios mirror the classic bias table, whose rows live in one table,
``BIAS_GRID_ROWS``: ``realistic`` (constraint-clean time split),
``kfold`` (time-blind stratified k-fold), ``past_testing`` (train on the
latest window, test on the earliest — detecting the past) and
``disjoint_class_windows`` (classes drawn from non-overlapping periods).
Each row yields folds of raw sides (rows of the seed's stream and their
downsampling seed) and is scored by the mean over folds of the pooled F1.
``bias_grid`` crosses the rows with the training/testing ratio cells
(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9). A task holds one seed's
rows: all four when the seeds deal evenly over the workers
(``len(seeds) % workers == 0``, always so serially), else one. It cuts
each window once, downsamples each training side once per phi and each
test side once per delta, and fits every model of its rows in one
lockstep call; ``past_testing`` and ``disjoint_class_windows`` are the
same task on their one row with the single configured cell, and so is
``kfold`` on a row of its own, whose sides carry no downsampling seed and
so keep each fold's class ratio where the bias row enforces (phi, delta).
The standalone ``realistic`` scenario runs the full pipeline (tuning,
audit, decay curves, delay policies).

Every byte written is a pure function of (config, seeds): tasks fan out
over forked processes but results are merged and written in sorted order,
so worker count cannot change any output file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import sys
from dataclasses import MISSING, fields, replace
from datetime import date
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .classifiers import ModelOutputError, fit_models
from .config import SCENARIOS, ExperimentConfig, _drift_spec, _section, parse_config
from .dataset import (
    ConfigError,
    ConstraintViolationError,
    LabeledDataset,
    _format_of,
    load_dataset,
    write_csv,
    write_jsonl,
)
from .delay import DelayPolicy, DelayRunResult, initial_scores, run_policy
from .metrics import (
    METRIC_NAMES,
    Confusion,
    MetricCurve,
    SlotSeries,
    aut,
    confusion_counts,
    cumulative_estimates,
    point_estimates,
    prf1,
    stratified_folds,
)
from .rng import derive_rng, derive_seed
from .splits import (
    disjoint_class_pools,
    enforce_ratio,
    past_testing_pools,
    split_from_manifest,
    split_to_manifest,
    time_aware_pools,
    time_aware_split,
)
from .synthgen import DriftSpec, generate
from .tuning import TuningResult, tune_phi

__all__ = ["run_experiment", "emit_plot_data", "main"]

# bias_grid crosses every training ratio phi with every testing ratio delta.
BIAS_GRID_RATIOS = (0.1, 0.9)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRAINT = 3
EXIT_RUNTIME = 4


# ---------------------------------------------------------------------------
# Shared dataset / evaluation plumbing
# ---------------------------------------------------------------------------


def _dataset_for_seed(cfg: ExperimentConfig, seed: int) -> LabeledDataset:
    """The seed's dataset; a file dataset is the same for every seed."""
    key_seed = seed if cfg.synthetic is not None else None
    return _dataset(cfg.synthetic, cfg.dataset_path, cfg.dataset_format, key_seed)


@lru_cache(maxsize=None)
def _dataset(synthetic: DriftSpec | None, path: str | None, fmt: str | None, seed: int | None):
    """Built once per key; cleared when a verb returns, so a rewritten file is read again."""
    if synthetic is not None:
        return generate(synthetic, seed=derive_seed(seed, "dataset"))
    return _read("dataset file", path, lambda p: load_dataset(p, fmt))


def _read(what: str, path: str | Path, parse=lambda p: Path(p).read_text(encoding="utf-8")):
    """``parse(path)``, by default its UTF-8 text; each file fault is a ConfigError naming it."""
    try:
        return parse(path)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text ({exc.reason})") from None


def _tune(cfg: ExperimentConfig, d: LabeledDataset, seed: int) -> TuningResult:
    """tune_phi on the raw training window ``[origin, origin + W)``."""
    train_raw = d.between(cfg.split.origin, cfg.split.test_origin)
    return tune_phi(train_raw, cfg.classifier, cfg.tuning, cfg.split, seed)


def _task_realistic(cfg: ExperimentConfig, seed: int, rows: tuple) -> dict:
    d = _dataset_for_seed(cfg, seed)
    ratios = cfg.ratios
    tuning_result = None
    if cfg.tuning is not None:
        tuning_result = _tune(cfg, d, seed)
        ratios = replace(ratios, phi=tuning_result.phi_star)
    split = time_aware_split(d, cfg.split, ratios, seed)
    scores0 = initial_scores(split, cfg.classifier, seed)
    baseline = run_policy(split, cfg.classifier, DelayPolicy("none"), cfg.tuning, seed, scores0)
    delay_runs = [
        run_policy(split, cfg.classifier, policy, cfg.tuning, seed, scores0)
        for policy in cfg.delay_policies
    ]
    return {
        "split_manifest": split_to_manifest(split),
        "audit": {k: v.as_dict() for k, v in split.verdicts.items()},
        "baseline": baseline,
        "delay_runs": delay_runs,
        "tuning": tuning_result,
    }


# ---------------------------------------------------------------------------
# The bias table. Each row turns (dataset, config, seed) into folds of (train
# side, test sides, fit seed); a side is rows of the seed's stream with their
# downsampling seed, or None to keep its own class ratio. A cell scores the
# mean over folds of the F1 pooled across the fold's test sets.
# ---------------------------------------------------------------------------


def _kfold_row(stream: str, label: str, *, downsample: bool):
    """Time-blind stratified k-fold: the folds drawn from the ``stream`` seed
    stream, the fit seeds (and, when ``downsample``, each side's seed) from ``label``."""

    def row(d: LabeledDataset, cfg: ExperimentConfig, seed: int):
        def side(rows, part, i):
            return rows, derive_seed(seed, label, part, i) if downsample else None

        folds = stratified_folds(d.labels, cfg.kfold_k, derive_rng(seed, stream))
        return [
            (side(train, "tr", i), [side(test, "ts", i)], derive_seed(seed, label, "fit", i))
            for i, (train, test) in enumerate(folds)
        ]

    return row


def _windowed_row(pools, label: str):
    """The one-fold row of a :mod:`driftlab.splits` pool builder."""

    def row(d: LabeledDataset, cfg: ExperimentConfig, seed: int):
        train, tests = pools(d, cfg.split, seed)
        return [(train, tests, derive_seed(seed, label, "fit"))]

    return row


BIAS_GRID_ROWS = {
    "kfold": _kfold_row("bias_kfold", "bk", downsample=True),
    "past_testing": _windowed_row(past_testing_pools, "past"),
    "disjoint_class_windows": _windowed_row(disjoint_class_pools, "disjoint"),
    "realistic": _windowed_row(time_aware_pools, "realistic"),
}
# The ``kfold`` scenario's row: its own folds, each side at its own class ratio.
_ROWS = {**BIAS_GRID_ROWS, "kfold_natural": _kfold_row("kfold", "kfold", downsample=False)}


def _bias_f1s(cfg: ExperimentConfig, seed: int, rows: tuple, phis: tuple, deltas: tuple) -> dict:
    """``{(row, phi, delta): f1}`` over ``rows`` x ``phis`` x ``deltas``, each
    the row's mean over folds of the pooled F1.

    Each training side is downsampled once per phi, and every model of
    every row is fit in one :func:`~driftlab.classifiers.fit_models` call
    over the seed's stream. Only then, one row at a time, is each test side
    downsampled once per delta and scored by each of its fold's models. A
    side without a downsampling seed is used whole at every phi and delta.
    """
    d = _dataset_for_seed(cfg, seed)
    plans = [(row, _ROWS[row](d, cfg, seed)) for row in rows]
    train_rows, fit_seeds = [], []
    for _, folds in plans:
        for phi in phis:
            for (r, s), _, fit_seed in folds:
                train_rows.append(r if s is None else enforce_ratio(d, phi, r, seed=s))
                fit_seeds.append(fit_seed)
    models = fit_models(cfg.classifier, d, train_rows, fit_seeds)
    f1s = {}
    for row, folds in plans:
        test_sets = []
        for _, tests, _ in folds:
            test_sets.append({
                q: [d.subset(t if s is None else enforce_ratio(d, q, t, seed=s)) for t, s in tests]
                for q in deltas
            })
        for phi in phis:
            scores: dict[float, list[float]] = {q: [] for q in deltas}
            for sets in test_sets:
                model = next(models)
                for q in deltas:
                    pooled = sum((confusion_counts(model, t) for t in sets[q]), Confusion())
                    scores[q].append(prf1(pooled)[2])
            for q, fold_f1s in scores.items():
                f1s[row, phi, q] = float(np.mean(fold_f1s))
    return f1s


def _task_bias_cell(cfg: ExperimentConfig, seed: int, rows: tuple) -> float:
    """The one row's F1 at the configured (phi, delta) cell."""
    (f1,) = _bias_f1s(cfg, seed, rows, (cfg.ratios.phi,), (cfg.ratios.delta,)).values()
    return f1


def _execute_task(payload):
    """Run one ``(seed, rows)`` task of the config's scenario (see ``_SCENARIOS``)."""
    cfg, task = payload
    return task, _SCENARIOS[cfg.scenario][1](cfg, *task)


def _fan_out(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]`` over ``n = min(workers, len(items))`` processes.

    Item ``i`` runs in process ``i % n``: process 0 is the caller and the
    rest are forked children, so none sits idle. Each process stops at its
    first failure, and the lowest-index failure is raised, which is the one
    a serial run raises. Without ``os.fork`` everything runs in-process.
    """
    n = min(workers, len(items)) if hasattr(os, "fork") else 1
    children = []  # (first index, pid, read end of its pipe)
    done = []
    try:
        for p in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child_share(fn, items, p, n, write)
            os.close(write)
            children.append((p, pid, read))
        done = _share(fn, items, 0, n)
    finally:
        for p, pid, read in children:
            done += _collect(p, pid, read)
    done.sort(key=lambda entry: entry[0])
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for _, _, value in done]


def _share(fn, items: list, p: int, n: int) -> list:
    """``(i, True, fn(items[i]))`` for ``i = p, p + n, ...``, up to the first
    failure, which ends the list as ``(i, False, exception)``."""
    done = []
    for i in range(p, len(items), n):
        try:
            done.append((i, True, fn(items[i])))
        except Exception as exc:  # noqa: BLE001 - raised again by _fan_out
            done.append((i, False, exc))
            break
    return done


def _child_share(fn, items: list, p: int, n: int, write: int):
    """In a forked child: pickle process ``p``'s share into ``write`` and exit.

    ``os._exit`` keeps the child out of its caller's stack and exit
    handlers. An entry that cannot be pickled becomes a RuntimeError and
    ends the share.
    """
    code = 1
    try:
        done = _share(fn, items, p, n)
        try:
            payload = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - find the entry and report it
            for k, (i, _, value) in enumerate(done):
                try:
                    pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # noqa: BLE001
                    lost = RuntimeError(f"the outcome of task {i} cannot be pickled: {exc}")
                    done[k:] = [(i, False, lost)]
                    break
            payload = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _collect(p: int, pid: int, read: int) -> list:
    """Child ``pid``'s entries, read from its pipe before it is reaped.

    A child that sent nothing readable (it was killed, or crashed) counts
    as a failure of its first task, ``p``.
    """
    with open(read, "rb") as fh:
        payload = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not payload:
        how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
        problem = f"worker process ended ({how}) without sending its results"
    else:
        try:
            return pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - a cut-off or unreadable payload
            problem = f"cannot read a worker process's results: {exc}"
    return [(p, False, RuntimeError(problem))]


# ---------------------------------------------------------------------------
# Artifact writing (single-threaded, sorted, reproducible)
# ---------------------------------------------------------------------------


# Every file the verbs write into a directory: its name, with {seed} and {tag} (a
# delay policy's label, ":" as "_") to fill, and a CSV's header line (None for
# JSON). Writers take both from here; plotdata reads only files with this header.
ARTIFACTS = {
    "config_echo": ("config_echo.json", None),
    "audit": ("audit_seed{seed}.json", None),
    "split_manifest": ("split_manifest_seed{seed}.json", None),
    "tuning_result": ("tuning_seed{seed}.json", None),
    "decay": ("decay_seed{seed}.csv", "slot,timestamp,metric,mode,value"),
    "tuning": ("tuning_seed{seed}.csv", "phi,aut,error,selected"),
    "delay_summary": ("delay_summary_seed{seed}.csv", "policy,phi_mode,L,Q,AUT_F1"),
    "delay_slots": ("delay_{tag}_slots_seed{seed}.csv",
                    "slot,timestamp,labeled,rejected,f1,precision,recall"),
    "aggregate": ("aggregate.csv", "metric,mode,aut_mean,aut_std,n_seeds"),
    "kfold": ("kfold.csv", "seed,mean_f1"),
    "past_testing": ("past_testing.csv", "seed,pooled_f1"),
    "disjoint_class_windows": ("disjoint_class_windows.csv", "seed,pooled_f1"),
    "scalar_aggregate": ("aggregate.csv", "scenario,metric,mean,std,n_seeds"),
    "bias_grid": ("bias_grid.csv", "scenario,phi,delta,seed,f1"),
    "bias_grid_summary": ("bias_grid_summary.csv", "scenario,phi,delta,mean_f1,std_f1,n_seeds"),
    "plot_decay": ("plot_decay_curves.csv", "slot,metric,value,series"),
    "plot_tuning": ("plot_tuning_grid.csv", "phi,aut,error,series"),
    "plot_delay": ("plot_delay_curves.csv", "slot,metric,value,series"),
}


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv(out: Path, key: str, rows: list[list], **fill) -> None:
    """Artifact ``key``'s header, then ``rows``, in ``out`` under its name filled from ``fill``."""
    name, header = ARTIFACTS[key]
    _write_rows(out / name.format(**fill), header.split(","), rows)


def _write_json(out: Path, key: str, obj, indent: int | None = None, **fill) -> None:
    """Artifact ``key``: ``obj`` as JSON with sorted keys and no trailing newline."""
    with open(out / ARTIFACTS[key][0].format(**fill), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent))


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_realistic_artifacts(cfg: ExperimentConfig, out: Path, results: dict) -> None:
    agg: dict[tuple[str, str], list[float]] = {}
    for seed in cfg.seeds:
        res = results[seed, ("realistic",)]
        baseline: DelayRunResult = res["baseline"]
        curves = []
        for metric in METRIC_NAMES:
            curves.append(point_estimates(baseline.series, metric))
            curves.append(cumulative_estimates(baseline.series, metric))
        _write_curves(out, seed, baseline.series, curves)
        for curve in curves:
            agg.setdefault((curve.metric, curve.mode), []).append(aut(curve))
        _write_json(out, "audit", res["audit"], indent=2, seed=seed)
        _write_json(out, "split_manifest", res["split_manifest"], seed=seed)
        if res["tuning"] is not None:
            _write_tuning(out, seed, res["tuning"])
        if res["delay_runs"]:
            phi_mode = "phi_star" if cfg.tuning is not None else "sigma_hat"
            _write_delay_summary(out, seed, phi_mode, [baseline] + res["delay_runs"])
            for run in res["delay_runs"]:
                _write_delay_slots(out, seed, run)
    _write_summary(out, "aggregate", agg)


def _write_summary(out: Path, key: str, groups: dict[tuple, list[float]]) -> None:
    """One row per group in sorted order: the group (floats formatted), then mean, std and count."""
    _write_csv(out, key, [
        [*(_fmt(k) if isinstance(k, float) else k for k in group),
         _fmt(np.mean(vals)), _fmt(np.std(vals)), len(vals)]
        for group, vals in sorted(groups.items())
    ])


def _write_curves(out: Path, seed: int, series: SlotSeries, curves: list[MetricCurve]) -> None:
    """Each curve's per-slot values, then one AUT row per curve."""
    days = [t.isoformat() for t in series.slot_starts]
    rows = [[k, days[k], c.metric, c.mode, _fmt(v)] for c in curves for k, v in enumerate(c.values)]
    rows += [[c.area_label, "", c.metric, c.mode, _fmt(aut(c))] for c in curves]
    _write_csv(out, "decay", rows, seed=seed)


def _write_delay_summary(out: Path, seed: int, phi_mode: str, runs: list[DelayRunResult]) -> None:
    """One row per run: its policy, how phi was set, and the run's L, Q and AUT(F1)."""
    rows = [[r.policy.label, phi_mode, r.labeled, r.quarantined, _fmt(r.aut_f1)] for r in runs]
    _write_csv(out, "delay_summary", rows, seed=seed)


def _write_delay_slots(out: Path, seed: int, run: DelayRunResult) -> None:
    f1, precision, recall = (point_estimates(run.series, m).values for m in METRIC_NAMES)
    rows = [[k, t.isoformat(), run.per_slot_labeled[k], run.per_slot_rejected[k],
             _fmt(f1[k]), _fmt(precision[k]), _fmt(recall[k])]
            for k, t in enumerate(run.series.slot_starts)]
    _write_csv(out, "delay_slots", rows, seed=seed, tag=run.policy.label.replace(":", "_"))


def _write_tuning(out: Path, seed: int, result: TuningResult) -> None:
    rows = [[_fmt(g.phi), _fmt(g.aut), _fmt(g.error), int(g.selected)] for g in result.grid]
    _write_csv(out, "tuning", rows, seed=seed)
    _write_json(out, "tuning_result", result.as_dict(), seed=seed)


def _write_scalar(cfg: ExperimentConfig, out: Path, gathered: dict) -> None:
    """A scenario whose task gives one float per seed, reported under its file's second column."""
    by_seed = sorted((seed, v) for (seed, _), v in gathered.items())
    _write_csv(out, cfg.scenario, [[s, _fmt(v)] for s, v in by_seed])
    key = ARTIFACTS[cfg.scenario][1].split(",")[1]
    _write_summary(out, "scalar_aggregate", {(cfg.scenario, key): [v for _, v in by_seed]})


def _write_bias_grid(cfg: ExperimentConfig, out: Path, gathered: dict) -> None:
    cells = {
        (row, phi, delta, seed): f1
        for (seed, _), f1s in gathered.items()
        for (row, phi, delta), f1 in f1s.items()
    }
    rows = []
    summary: dict[tuple[str, float, float], list[float]] = {}
    for (row, phi, delta, seed), f1 in sorted(cells.items()):
        rows.append([row, _fmt(phi), _fmt(delta), seed, _fmt(f1)])
        summary.setdefault((row, phi, delta), []).append(f1)
    _write_csv(out, "bias_grid", rows)
    _write_summary(out, "bias_grid_summary", summary)


# Each scenario's rows, its task ``(cfg, seed, rows) -> result`` and its writer
# ``(cfg, out, {(seed, rows): result})``. The lambda looks the realistic writer up
# when called, so a wrapper set on the module (bench/tracing.py) is the one run.
_SCENARIOS = {
    "realistic": (("realistic",), _task_realistic, lambda *a: _write_realistic_artifacts(*a)),
    "kfold": (("kfold_natural",), _task_bias_cell, _write_scalar),
    "past_testing": (("past_testing",), _task_bias_cell, _write_scalar),
    "disjoint_class_windows": (("disjoint_class_windows",), _task_bias_cell, _write_scalar),
    "bias_grid": (
        tuple(BIAS_GRID_ROWS),
        partial(_bias_f1s, phis=BIAS_GRID_RATIOS, deltas=BIAS_GRID_RATIOS),
        _write_bias_grid,
    ),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured scenario for every seed and write artifacts.

    Returns 0 on success; raises ConfigError / ConstraintViolationError /
    other exceptions for the CLI to map onto exit codes.
    """
    if cfg.scenario != "realistic" and cfg.tuning is not None:
        # Only realistic tunes phi; the tune verb reads the section from any config.
        raise ConfigError(f"{cfg.scenario} does not use a tuning section")
    out = _output_path(cfg.output_dir, directory=True)
    rows, _, write = _SCENARIOS[cfg.scenario]
    # One task per seed when the seeds deal evenly over the workers; else one
    # per (seed, row), row-outer, so the big k-fold tasks go to different processes.
    groups = [rows] if len(cfg.seeds) % cfg.workers == 0 else [(row,) for row in rows]
    tasks = [(seed, group) for group in groups for seed in cfg.seeds]
    try:
        if cfg.dataset_path is not None:
            # Read here, so forked workers share the columns instead of each reading the file.
            _dataset_for_seed(cfg, cfg.seeds[0])
        gathered = dict(_fan_out(_execute_task, [(cfg, t) for t in tasks], cfg.workers))
    finally:
        _dataset.cache_clear()

    # Made only now, so a run that fails in a task leaves no directory.
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out, "config_echo", _config_echo(cfg), indent=2)
    write(cfg, out, gathered)
    return EXIT_OK


def _output_path(path: str, directory: bool) -> Path:
    """``path``, checked before any work starts to be writable as a directory or a file.

    An existing path must be of that kind, and the nearest existing
    ancestor must be a directory; the missing ones are made when the
    output is written. Anything else raises :class:`ConfigError`.
    """
    real = Path(path).resolve()
    if real.exists():
        if real.is_dir() != directory:
            raise ConfigError(f"output path {path} is {'not ' if directory else ''}a directory")
    else:
        ancestor = next(a for a in real.parents if a.exists())
        if not ancestor.is_dir():
            raise ConfigError(f"output path {path} lies under {ancestor}, which is not a directory")
    return Path(path)


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "dataset": (
            {"path": cfg.dataset_path, "format": cfg.dataset_format}
            if cfg.synthetic is None
            else {"synthetic": {**{k: str(v) if isinstance(v, date) else v for k, v in vars(cfg.synthetic).items()}}}
        ),
        "split": cfg.split.as_dict(),
        "ratios": vars(cfg.ratios),
        "classifier": cfg.classifier_echo,
        "scenario": cfg.scenario,
        "tuning": None if cfg.tuning is None else vars(cfg.tuning),
        "delay": [p.label for p in cfg.delay_policies],
        "seeds": list(cfg.seeds),
        "kfold_k": cfg.kfold_k,
    }


# ---------------------------------------------------------------------------
# plotdata: tidy CSVs (slot, metric, value, series) from run artifacts
# ---------------------------------------------------------------------------


# (artifact read, artifact written, row of (file stem, record) or None to skip the record)
_PLOT_TABLES = (
    ("decay", "plot_decay",
     lambda stem, r: None if r["slot"].startswith("AUT") else [
         r["slot"], r["metric"], r["value"],
         f"seed{stem.replace('decay_seed', '')}/{r['metric']}/{r['mode']}"]),
    ("tuning", "plot_tuning",
     lambda stem, r: [r["phi"], r["aut"], r["error"], f"seed{stem.replace('tuning_seed', '')}"]),
    ("delay_slots", "plot_delay",
     lambda stem, r: [
         r["slot"], "f1", r["f1"], stem.replace("delay_", "").replace("_slots_seed", "/seed")]),
)


def emit_plot_data(run_dir: str, out_dir: str | None = None) -> list[str]:
    src = Path(run_dir)
    if not src.is_dir():
        raise FileNotFoundError(f"run directory {run_dir} does not exist")
    dst = Path(out_dir) if out_dir else src
    tables = []
    for source, target, row_of in _PLOT_TABLES:
        name, header = ARTIFACTS[source]
        if files := sorted(src.glob(name.format(seed="*", tag="*"))):
            parse = partial(_plot_rows, header.split(","), row_of)
            tables.append((target, [r for f in files for r in _read("run artifact", f, parse)]))
    if not tables:
        raise FileNotFoundError(f"no recognized run artifacts under {run_dir}")
    # Made only now, so a run directory without readable artifacts leaves no output.
    dst.mkdir(parents=True, exist_ok=True)
    for target, rows in tables:
        _write_csv(dst, target, rows)
    return [str(dst / ARTIFACTS[target][0]) for target, _ in tables]


def _plot_rows(columns: list[str], row_of, path: Path) -> list[list]:
    """The rows ``row_of`` makes of the records of run artifact ``path``, headed by ``columns``."""
    stem = Path(path).stem
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, [])) != columns:
            raise ConfigError(f"run artifact {path} has header {header}, not {columns}")
        for cells in reader:
            if len(cells) != len(columns):
                raise ConfigError(f"run artifact {path} line {reader.line_num}: the row's "
                                  f"length differs from the header's {len(columns)} fields")
            rows.append(row_of(stem, dict(zip(columns, cells))))
    return [r for r in rows if r]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_config_file(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        blob = json.loads(_read("config file", path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ConfigError("config root must be an object")
    # Every flag given overrides its key, falsy or not, and the schema checks it.
    if getattr(overrides, "seed", None) is not None:
        try:
            blob["seeds"] = [int(s) for s in overrides.seed.split(",")]
        except ValueError:
            raise ConfigError(f"bad --seed list: {overrides.seed!r}") from None
    for flag, key in (("out", "output_dir"), ("scenario", "scenario"), ("workers", "workers")):
        if getattr(overrides, flag, None) is not None:
            blob[key] = getattr(overrides, flag)
    return parse_config(blob)


def _cmd_run(args: argparse.Namespace) -> int:
    return run_experiment(_load_config_file(args.config, args))


def _cmd_audit(args: argparse.Namespace) -> int:
    out = _output_path(args.out, directory=False) if args.out else None
    manifest = _read("manifest", args.manifest)
    verdicts = _section("manifest", lambda: split_from_manifest(json.loads(manifest))).verdicts
    report = {k: v.as_dict() for k, v in verdicts.items()}
    text = json.dumps(report, sort_keys=True, indent=2)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if not all(v.passed for v in verdicts.values()):
        failed = sorted(k for k, v in verdicts.items() if not v.passed)
        print(f"constraint violation: {failed}", file=sys.stderr)
        return EXIT_CONSTRAINT
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config, args)
    if cfg.tuning is None:
        raise ConfigError("tune verb needs a 'tuning' section in the config")
    out = _output_path(cfg.output_dir, directory=True)
    try:
        results = [(seed, _tune(cfg, _dataset_for_seed(cfg, seed), seed)) for seed in cfg.seeds]
    finally:
        _dataset.cache_clear()
    out.mkdir(parents=True, exist_ok=True)
    for seed, result in results:
        _write_tuning(out, seed, result)
        print(f"seed {seed}: phi_star={result.phi_star} aut={result.best_aut:.4f}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = _drift_spec(**{f.name: getattr(args, f.name) for f in fields(DriftSpec)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _output_path(args.out, directory=False)
    d = generate(spec, seed=args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    (write_jsonl if _format_of(args.out) == "jsonl" else write_csv)(d, args.out)
    print(f"wrote {len(d)} samples to {args.out}")
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.out:
        _output_path(args.out, directory=True)
    try:
        written = emit_plot_data(args.run_dir, args.out)
    except FileNotFoundError as exc:  # no run directory, or no artifacts in it
        raise ConfigError(str(exc)) from None
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Time-aware, ratio-aware evaluation of binary classifiers under drift.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", help="comma-separated seed list override")
    p_run.add_argument("--out", help="output directory override")
    p_run.add_argument("--scenario", choices=SCENARIOS)
    p_run.add_argument("--workers", type=int)
    p_run.set_defaults(func=_cmd_run)

    p_audit = sub.add_parser("audit", help="run C1/C2/C3 checks on a split manifest")
    p_audit.add_argument("--manifest", required=True)
    p_audit.add_argument("--out", help="write the JSON report here instead of stdout")
    p_audit.set_defaults(func=_cmd_audit)

    p_tune = sub.add_parser("tune", help="training-ratio grid search only")
    p_tune.add_argument("--config", required=True)
    p_tune.add_argument("--seed", help="comma-separated seed list override")
    p_tune.add_argument("--out", help="output directory override")
    p_tune.set_defaults(func=_cmd_tune)

    p_gen = sub.add_parser("generate", help="emit a synthetic drifting dataset")
    # One flag per DriftSpec field; argparse runs ``type`` on string defaults too.
    for f in fields(DriftSpec):
        kind = f.metadata["rule"].kind
        given = {"required": True} if f.default is MISSING else {"default": str(f.default)}
        given["type"] = kind if kind in (int, float) else str
        p_gen.add_argument("--" + f.name.replace("_", "-"), **given)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_plot = sub.add_parser("plotdata", help="tidy plotting CSVs from run artifacts")
    p_plot.add_argument("--run-dir", required=True)
    p_plot.add_argument("--out")
    p_plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A float fault ends the verb with exit 4 instead of a warning beside exit 0.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstraintViolationError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ModelOutputError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
