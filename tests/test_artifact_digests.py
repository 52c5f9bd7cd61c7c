"""``tools/artifact_digests.py`` runs its whole call list and lists every file it wrote."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lists_every_file_it_wrote(tmp_path):
    work = tmp_path / "work"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--dir", str(work)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    listed = dict(line.split("  ", 1)[::-1] for line in proc.stdout.splitlines())
    written = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
    assert list(listed) == written
    for name, digest in listed.items():
        assert digest == hashlib.sha256((work / name).read_bytes()).hexdigest()
    # One output of each kind of call.
    for name in [
        "realistic-sgd-s1/out/delay_summary_seed1.csv",
        "realistic-knn-s0/input.csv",
        "bias-grid-s1-w2/out/bias_grid_summary.csv",
        "kfold/out/aggregate.csv",
        "knn-active-learning/out/delay_active_learning_0.2_slots_seed0.csv",
        "verbs/tune/tuning_seed0.json",
        "verbs/plotdata/plot_delay_curves.csv",
        "verbs/audit.json",
    ]:
        assert name in listed
