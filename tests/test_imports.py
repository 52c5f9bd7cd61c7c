"""A run loads no process pool, and no module that only another verb uses."""

import json
import os
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
    run = run_config(tmp_path, tuning={"mu": 0.1, "validation_fraction": 0.5},
                     delay={"kind": "active_learning", "al_budget": 0.1})
    assert loaded_after(run, tmp_path, POOL + ("numpy.ma",)) == []


def test_a_forked_bias_grid_run_skips_the_pool(tmp_path):
    run = run_config(tmp_path, scenario="bias_grid", seeds=[0, 1], workers=2)
    assert loaded_after(run, tmp_path, POOL) == []
