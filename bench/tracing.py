"""Span recorder that wraps driftlab's entry points from outside the package.

``install()`` replaces each function or method named in ``TARGETS`` with a
wrapper that records a span (group, start, end, parent, counts) in memory.
Functions are replaced in every loaded ``driftlab`` module that holds them,
because the modules import each other's functions by name. Nothing under
``src/`` is edited. ``dump()`` writes the spans out as JSON, and
``layer_metrics()`` reduces one run's spans to the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because a traced run is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, group). The group names the layer metric a span feeds.
TARGETS = (
    ("driftlab.synthgen", "generate", "synthgen.generate"),
    ("driftlab.dataset", "load_dataset", "dataset.load"),
    ("driftlab.dataset", "LabeledDataset.between", "dataset.window"),
    ("driftlab.dataset", "LabeledDataset.subset", "dataset.window"),
    ("driftlab.dataset", "concat", "dataset.window"),
    ("driftlab.splits", "time_aware_split", "splits.split"),
    ("driftlab.splits", "enforce_ratio", "splits.enforce_ratio"),
    ("driftlab.splits", "run_all_checks", "splits.audit"),
    ("driftlab.splits", "split_to_manifest", "cli.write"),
    ("driftlab.tuning", "tune_phi", "tuning.tune_phi"),
    ("driftlab.classifiers", "LinearSGDClassifier.fit", "classifiers.fit"),
    ("driftlab.classifiers", "KNNClassifier.fit", "classifiers.fit"),
    ("driftlab.classifiers", "LinearModel.scores", "classifiers.scores"),
    ("driftlab.classifiers", "KNNModel.scores", "classifiers.scores"),
    ("driftlab.metrics", "slot_series", "metrics"),
    ("driftlab.metrics", "confusion_counts", "metrics"),
    ("driftlab.metrics", "aut", "metrics"),
    ("driftlab.metrics", "cumulative_estimates", "metrics"),
    ("driftlab.delay", "run_policy", "delay.run_policy"),
    ("driftlab.cli", "main", "cli.main"),
    ("driftlab.cli", "_execute_task", "cli.task"),
    ("driftlab.cli", "_write_realistic_artifacts", "cli.write"),
    ("driftlab.cli", "_write_rows", "cli.write"),
)

# Groups whose self time is summed into the traced-wall coverage check;
# everything else (the root ``cli.main`` and ``cli.task``) is unattributed.
LAYER_TIME_GROUPS = (
    "synthgen.generate",
    "dataset.load",
    "dataset.window",
    "splits.split",
    "splits.enforce_ratio",
    "splits.audit",
    "tuning.tune_phi",
    "classifiers.fit",
    "classifiers.scores",
    "metrics",
    "delay.run_policy",
    "cli.write",
)


def _rows(args, kwargs, out):
    return {"rows": len(out)}


def _fit_counts(args, kwargs, out):
    clf, train, seed = args[0], args[1], args[2] if len(args) > 2 else kwargs["seed"]
    return {
        "rows": len(train),
        "epochs": getattr(clf, "epochs", 0),
        "key": hash((train.ids, int(seed))),
    }


def _linear_scores(args, kwargs, out):
    return {"rows": len(out), "train_rows": 0}


def _knn_scores(args, kwargs, out):
    return {"rows": len(out), "train_rows": len(args[0]._X)}


def _policy_kind(args, kwargs, out):
    policy = args[2] if len(args) > 2 else kwargs["policy"]
    return {"kind": policy.kind}


def _grid_points(args, kwargs, out):
    return {"points": len(out.grid)}


COUNTERS = {
    "generate": _rows,
    "load_dataset": _rows,
    "LabeledDataset.subset": _rows,
    "concat": _rows,
    "LinearSGDClassifier.fit": _fit_counts,
    "KNNClassifier.fit": _fit_counts,
    "LinearModel.scores": _linear_scores,
    "KNNModel.scores": _knn_scores,
    "run_policy": _policy_kind,
    "tune_phi": _grid_points,
}

_spans: list[list] = []
_stack: list[int] = []


def _wrap(fn, name: str, group: str):
    counter = COUNTERS.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [group, name, 0.0, 0.0, _stack[-1] if _stack else -1, None]
        _stack.append(len(_spans))
        _spans.append(span)
        span[2] = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[3] = clock()
            _stack.pop()
        if counter is not None:
            span[5] = counter(args, kwargs, out)
        return out

    return wrapper


def resolve(module: str, attr: str):
    """(owner, leaf name, current value) of a target; raises if it is gone."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if leaf not in vars(owner):
        raise AttributeError(f"traced entry point {module}.{attr} no longer exists")
    return owner, leaf, vars(owner)[leaf]


def install() -> None:
    """Wrap every target; a missing target raises AttributeError."""
    for module, attr, group in TARGETS:
        owner, leaf, original = resolve(module, attr)
        wrapper = _wrap(original, attr, group)
        setattr(owner, leaf, wrapper)
        if owner is sys.modules[module]:
            for name, mod in list(sys.modules.items()):
                if name.startswith("driftlab") and mod is not owner:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_spans, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced run."""
    self_s = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start

    def of(group):
        return [(s, self_s[i]) for i, s in enumerate(spans) if s[0] == group]

    def total(group):
        return sum(t for _, t in of(group))

    def count(group, key):
        return sum(s[5][key] for s, _ in of(group) if s[5] is not None)

    loads = of("dataset.load")
    load_s = sum(t for _, t in loads)
    fits = of("classifiers.fit")
    fit_s = total("classifiers.fit")
    knn = [(s, t) for s, t in of("classifiers.scores") if s[1] == "KNNModel.scores"]
    knn_s = sum(t for _, t in knn)
    dist_evals = sum(s[5]["rows"] * s[5]["train_rows"] for s, _ in knn)
    row_epochs = sum(s[5]["rows"] * s[5]["epochs"] for s, _ in fits)

    # Every run_policy fits one model before its slot loop, and rejection
    # fits one more for its threshold; the remaining direct fits retrain.
    policies = [i for i, s in enumerate(spans) if s[0] == "delay.run_policy"]
    retrains = 0
    for i in policies:
        direct_fits = sum(1 for s in spans if s[4] == i and s[0] == "classifiers.fit")
        retrains += direct_fits - 1 - (spans[i][5]["kind"] == "rejection")

    roots = [i for i, s in enumerate(spans) if s[4] < 0]
    wall = sum(spans[i][3] - spans[i][2] for i in roots)
    covered = sum(total(g) for g in LAYER_TIME_GROUPS)

    return {
        "synthgen.generate.calls": len(of("synthgen.generate")),
        "synthgen.generate.s": total("synthgen.generate"),
        "dataset.load.s": load_s,
        "dataset.load.rows_per_s": count("dataset.load", "rows") / load_s if loads else 0.0,
        "dataset.window.calls": len(of("dataset.window")),
        "dataset.window.s": total("dataset.window"),
        "dataset.rows_copied": count("dataset.window", "rows"),
        "splits.split.s": total("splits.split"),
        "splits.enforce_ratio.calls": len(of("splits.enforce_ratio")),
        "splits.enforce_ratio.s": total("splits.enforce_ratio"),
        "splits.audit.calls": len(of("splits.audit")),
        "splits.audit.s": total("splits.audit"),
        "tuning.tune_phi.s": total("tuning.tune_phi"),
        "tuning.grid_points": count("tuning.tune_phi", "points"),
        "classifiers.fit.calls": len(fits),
        "classifiers.fit.s": fit_s,
        "classifiers.fit.row_epochs_per_s": row_epochs / fit_s if row_epochs else 0.0,
        "classifiers.fit.unique_frac": (
            len({s[5]["key"] for s, _ in fits}) / len(fits) if fits else 0.0
        ),
        "classifiers.scores.calls": len(of("classifiers.scores")),
        "classifiers.scores.rows": count("classifiers.scores", "rows"),
        "classifiers.scores.s": total("classifiers.scores"),
        "classifiers.knn.dist_evals": dist_evals,
        "classifiers.knn.dist_evals_per_s": dist_evals / knn_s if dist_evals else 0.0,
        "metrics.s": total("metrics"),
        "delay.run_policy.calls": len(policies),
        "delay.retrains": retrains,
        "delay.self_s": total("delay.run_policy"),
        "cli.tasks": len(of("cli.task")),
        "cli.write.s": total("cli.write"),
        "trace_coverage_frac": covered / wall if wall else 0.0,
    }
