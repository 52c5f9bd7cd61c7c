"""``tools/artifact_digests.py`` runs its whole call list, lists every file it wrote, and
writes the pinned bytes for every kNN output."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every kNN output is pinned to the bytes in knn_artifact_digests.txt. Linear SGD's
# weights come from BLAS products, which are not known to match across CPUs.
PINNED = (
    "realistic-knn-s0/", "realistic-knn-s1/", "bias-grid-knn/", "knn-kfold/",
    "knn-active-learning/", "knn-rejection-refresh/", "knn-incremental-retune/",
)


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
    pinned = (ROOT / "tests" / "knn_artifact_digests.txt").read_text(encoding="utf-8")
    expected = dict(line.split("  ", 1)[::-1] for line in pinned.splitlines())
    assert {name: d for name, d in listed.items() if name.startswith(PINNED)} == expected
    # One output of each kind of call.
    for name in [
        "realistic-sgd-s1/out/delay_summary_seed1.csv",
        "realistic-knn-s0/input.csv",
        "bias-grid-s1-w2/out/bias_grid_summary.csv",
        "kfold/out/aggregate.csv",
        "knn-active-learning/out/delay_active_learning_0.2_slots_seed0.csv",
        "sgd-active-learning/out/delay_summary_seed0.csv",
        "verbs/tune/tuning_seed0.json",
        "verbs/plotdata/plot_delay_curves.csv",
        "verbs/audit.json",
    ]:
        assert name in listed


def test_listing_sorts_by_posix_path(tmp_path):
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ROOT / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name in ("x/f", "x-y/f"):
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).write_bytes(name.encode())
    # "-" sorts before "/", while the path part "x" sorts before "x-y".
    assert [line.split("  ", 1)[1] for line in tool.digests(tmp_path)] == ["x-y/f", "x/f"]
