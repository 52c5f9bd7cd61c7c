"""The package loads a module only when one of its names is used, and a run loads no
process pool, nor a module that only another verb uses."""

import itertools
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = ("concurrent.futures", "multiprocessing")


def loaded_after(code: str, cwd: Path, watched: tuple[str, ...]) -> list[str]:
    """Which of ``watched`` a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    report = f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))"
    probe = f"{code}\nimport json, sys\n{report}"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module_of_it_nor_numpy(tmp_path):
    # Each public name is imported from its module on first use.
    modules = pkgutil.iter_modules([str(ROOT / "src" / "driftlab")])
    watched = tuple(f"driftlab.{m.name}" for m in modules) + ("numpy",)
    assert loaded_after("import driftlab", tmp_path, watched) == []
    assert "driftlab.metrics" in loaded_after("from driftlab import aut", tmp_path, watched)


def test_importing_the_cli_skips_the_pool_calendar_and_masked_arrays(tmp_path):
    watched = POOL + ("calendar", "numpy.ma")
    assert loaded_after("import driftlab.cli", tmp_path, watched) == []


def run_config(tmp_path: Path, **extra) -> str:
    """Code that runs a tiny synthetic experiment in ``tmp_path`` and asserts exit 0."""
    config = {
        "dataset": {"synthetic": {"months": 8, "samples_per_month": 40, "drift_velocity": 0.25}},
        "split": {"origin": "2014-01-01", "train_window": "4m", "test_window": "4m",
                  "slot_width": "1m"},
        "classifier": {"kind": "linear_sgd", "epochs": 3},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
        **extra,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return "import driftlab.cli\nassert driftlab.cli.main(['run', '--config', 'config.json']) == 0"


def test_a_serial_run_skips_the_pool_and_masked_arrays(tmp_path):
    # Every classifier under every delay kind, tuned. Rejection takes the Q3 of
    # its mistakes' probabilities, where np.quantile would import numpy.ma
    # through np.unique. At spread 2 the classes overlap enough for both
    # classifiers to make validation mistakes, so a threshold is taken.
    synthetic = {"months": 8, "samples_per_month": 40, "drift_velocity": 0.25, "spread": 2.0}
    classifiers = {"sgd": {"kind": "linear_sgd", "epochs": 3}, "knn": {"kind": "knn", "k": 3}}
    delays = {"rejection": {"kind": "rejection"},
              "rejection_refresh": {"kind": "rejection", "refresh_threshold": True},
              "incremental": {"kind": "incremental"},
              "active_learning": {"kind": "active_learning", "al_budget": 0.1}}
    loaded = {}
    for (c, classifier), (k, delay) in itertools.product(classifiers.items(), delays.items()):
        case = tmp_path / f"{c}-{k}"
        case.mkdir()
        run = run_config(case, dataset={"synthetic": synthetic}, classifier=classifier,
                         delay=delay, tuning={"mu": 0.1, "validation_fraction": 0.5})
        loaded[case.name] = loaded_after(run, case, POOL + ("numpy.ma",))
    assert loaded == dict.fromkeys(loaded, [])


def test_neither_the_cli_nor_an_active_learning_run_loads_fractions(tmp_path):
    # The labeling count is an exact decimal ceiling taken in integers.
    watched = ("fractions", "decimal")
    assert loaded_after("import driftlab.cli", tmp_path, watched) == []
    run = run_config(tmp_path, delay={"kind": "active_learning", "al_budget": [0.07, 1e-05]})
    assert loaded_after(run, tmp_path, watched) == []


def test_a_forked_bias_grid_run_skips_the_pool(tmp_path):
    run = run_config(tmp_path, scenario="bias_grid", seeds=[0, 1], workers=2)
    assert loaded_after(run, tmp_path, POOL) == []
