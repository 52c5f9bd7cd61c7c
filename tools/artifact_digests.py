"""Print a SHA-256 digest of every file a fixed list of ``driftlab`` calls writes.

A change that must keep every output byte is checked by running this once
against each source tree and diffing the two listings:

    PYTHONPATH=<parent checkout>/src python3 tools/artifact_digests.py > before.txt
    PYTHONPATH=src python3 tools/artifact_digests.py > after.txt
    diff before.txt after.txt

The calls cover the three benchmark configs at seeds 0 and 1 (bias-grid at
``workers`` 1 and 2); bias-grid with one seed at ``workers`` 4, with three
seeds at ``workers`` 2 and with kNN on a CSV file at ``workers`` 2; the
``kfold``, ``past_testing`` and ``disjoint_class_windows`` scenarios, and
``kfold`` with kNN at ``workers`` 2; tuned ``rejection`` with
``refresh_threshold`` and ``incremental`` with ``retune_each_step``, each
with linear SGD and with kNN (at seeds 0 and 1); kNN and
linear SGD active learning at two budgets each; and the ``tune``,
``plotdata``, ``audit --out`` and ``generate`` verbs. They run in-process
through ``driftlab.cli.main`` from inside the work directory with relative
paths, so no absolute path reaches an artifact. Each output line is
``<sha256>  <path>``, the path relative to the work directory, for every
file in it (the configs written here too) but the parse-cache sidecars
``*.driftlab-cache`` that ``load_dataset`` writes beside each CSV input: a
sidecar's key holds a digest of ``dataset.py``, so its bytes change with every
edit there while no output does.

``--dir DIR`` works in DIR, which must not exist, and keeps it; by default a
temporary directory is used and removed. Exits 1, naming the call, when a
call does not exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from driftlab.cli import main as driftlab_main

# The benchmark's stream and split (bench/run.py); samples per month vary by workload.
STREAM = {"months": 36, "dim": 20, "drift_velocity": 0.02, "family_churn": 0.02}
SPLIT = {"origin": "2014-01-01", "train_window": "12m", "test_window": "24m", "slot_width": "1m"}
TUNING = {"mu": 0.1, "e_max": 0.0}
# A smaller stream for the scenarios and policies the benchmark does not run.
SMALL = {"synthetic": {"months": 24, "samples_per_month": 60, "dim": 8, "drift_velocity": 0.05}}
SMALL_SPLIT = {**SPLIT, "test_window": "12m"}


def _config(name: str, **fields) -> str:
    """Write ``<name>/config.json`` with output to ``<name>/out``; return its path."""
    Path(name).mkdir()
    path = f"{name}/config.json"
    blob = {"split": SPLIT, "output_dir": f"{name}/out", **fields}
    Path(path).write_text(json.dumps(blob, indent=2), encoding="utf-8")
    return path


def _generate(path: str, seed: int, samples_per_month: int) -> list[str]:
    argv = ["generate", "--out", path, "--seed", str(seed)]
    stream = {**STREAM, "samples_per_month": samples_per_month}
    for key, value in stream.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def calls() -> list[list[str]]:
    """Write each call's config, and return every call in the order to run them."""
    out = []
    for seed in (0, 1):
        name = f"realistic-sgd-s{seed}"
        cfg = _config(name, dataset={"synthetic": {**STREAM, "samples_per_month": 110}},
                      classifier={"kind": "linear_sgd"}, tuning=TUNING,
                      delay={"kind": "active_learning", "al_budget": 0.05}, seeds=[seed])
        out.append(["run", "--config", cfg])
    for seed in (0, 1):
        name = f"realistic-knn-s{seed}"
        cfg = _config(name, dataset={"path": f"{name}/input.csv", "format": "csv"},
                      classifier={"kind": "knn", "k": 5}, tuning=TUNING,
                      delay={"kind": "rejection"}, seeds=[seed])
        out += [_generate(f"{name}/input.csv", seed, 120), ["run", "--config", cfg]]
    for seed in (0, 1):
        for workers in (1, 2):
            cfg = _config(f"bias-grid-s{seed}-w{workers}", scenario="bias_grid",
                          dataset={"synthetic": {**STREAM, "samples_per_month": 60}},
                          classifier={"kind": "linear_sgd", "epochs": 20},
                          seeds=[2 * seed, 2 * seed + 1], workers=workers)
            out.append(["run", "--config", cfg])
    # Seeds that do not deal evenly over the workers run one task per (seed, row).
    for seeds, workers in (([0], 4), ([0, 1, 2], 2)):
        cfg = _config(f"bias-grid-{len(seeds)}seeds-w{workers}", scenario="bias_grid",
                      dataset={"synthetic": {**STREAM, "samples_per_month": 60}},
                      classifier={"kind": "linear_sgd", "epochs": 20},
                      seeds=seeds, workers=workers)
        out.append(["run", "--config", cfg])
    # kNN has no fit_many, so its models are fit one at a time.
    name = "bias-grid-knn"
    cfg = _config(name, scenario="bias_grid", dataset={"path": f"{name}/input.csv"},
                  classifier={"kind": "knn", "k": 5}, seeds=[0, 1], workers=2)
    out += [_generate(f"{name}/input.csv", 0, 60), ["run", "--config", cfg]]
    for scenario in ("kfold", "past_testing", "disjoint_class_windows"):
        cfg = _config(scenario, dataset=SMALL, split=SMALL_SPLIT, scenario=scenario, seeds=[0, 1])
        out.append(["run", "--config", cfg])
    cfg = _config("knn-kfold", dataset=SMALL, split=SMALL_SPLIT, scenario="kfold",
                  classifier={"kind": "knn", "k": 5}, seeds=[0, 1], workers=2)
    out.append(["run", "--config", cfg])
    policies = {
        "rejection-refresh": ({"kind": "linear_sgd"},
                              {"kind": "rejection", "refresh_threshold": True}),
        "incremental-retune": ({"kind": "linear_sgd"},
                               {"kind": "incremental", "retune_each_step": True}),
        "knn-active-learning": ({"kind": "knn", "k": 5},
                                {"kind": "active_learning", "al_budget": [0.05, 0.2]}),
        # Two policies share one split, and an SGD model depends on its pool's order.
        "sgd-active-learning": ({"kind": "linear_sgd"},
                                {"kind": "active_learning", "al_budget": [0.05, 0.2]}),
    }
    for name, (classifier, delay) in policies.items():
        cfg = _config(name, dataset=SMALL, split=SMALL_SPLIT, classifier=classifier,
                      tuning=TUNING, delay=delay, seeds=[0])
        out.append(["run", "--config", cfg])
    # The same two rare branches with kNN, whose bytes are pinned, under a ceiling
    # that some phi meets, so each retune can pick a phi of its own.
    for name, delay in (("knn-rejection-refresh", policies["rejection-refresh"][1]),
                        ("knn-incremental-retune", policies["incremental-retune"][1])):
        cfg = _config(name, dataset=SMALL, split=SMALL_SPLIT, classifier={"kind": "knn", "k": 5},
                      tuning={"mu": 0.1}, delay=delay, seeds=[0, 1])
        out.append(["run", "--config", cfg])
    run = "realistic-sgd-s0"
    Path("verbs").mkdir()
    out += [
        ["tune", "--config", f"{run}/config.json", "--out", "verbs/tune"],
        ["plotdata", "--run-dir", f"{run}/out", "--out", "verbs/plotdata"],
        ["audit", "--manifest", f"{run}/out/split_manifest_seed0.json",
         "--out", "verbs/audit.json"],
    ]
    return out


def digests(root: Path) -> list[str]:
    """``<sha256>  <relative path>`` of every file under ``root`` but the sidecars,
    sorted by that path as a posix string (so ``x-y/f`` comes before ``x/f``)."""
    names = sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                   if p.is_file() and not p.name.endswith(".driftlab-cache"))
    return [f"{hashlib.sha256((root / n).read_bytes()).hexdigest()}  {n}" for n in names]


def run_all(work: Path) -> int:
    """Run every call inside ``work``, then print the digests; 1 if a call fails."""
    home = os.getcwd()
    os.chdir(work)
    try:
        for argv in calls():
            # The verbs' progress lines would mix into the listing.
            with contextlib.redirect_stdout(io.StringIO()):
                code = driftlab_main(argv)
            if code != 0:
                print(f"driftlab {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
    finally:
        os.chdir(home)
    print("\n".join(digests(work)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", help="work here (must not exist) and keep the files")
    args = parser.parse_args(argv)
    if args.dir is not None:
        work = Path(args.dir)
        work.mkdir(parents=True)
        return run_all(work.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        return run_all(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
