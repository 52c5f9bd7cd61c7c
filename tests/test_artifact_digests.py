"""``tools/artifact_digests.py`` runs its whole call list, lists every file it wrote but
the parse-cache sidecars, and writes the pinned bytes for every one of them."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from driftlab.cli import ARTIFACTS

ROOT = Path(__file__).resolve().parent.parent
# Every output is pinned to the bytes in artifact_digests.txt, linear SGD's
# included, although its weights come from BLAS products. Those bytes were
# identical with OpenBLAS forced to each of five cores (SkylakeX, Haswell,
# Sandybridge, Nehalem, Katmai) and with numpy's SIMD dispatch cut from X86_V4
# to X86_V3 and to X86_V2. Not checked: other numpy or OpenBLAS versions,
# another libm, a non-x86 CPU.


@pytest.fixture(scope="module")
def tool_run(tmp_path_factory):
    """The tool's work directory, kept, and its finished process."""
    work = tmp_path_factory.mktemp("digests") / "work"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--dir", str(work)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    return work, proc


def test_lists_every_file_it_wrote(tool_run):
    work, proc = tool_run
    assert proc.returncode == 0, proc.stderr
    listed = dict(line.split("  ", 1)[::-1] for line in proc.stdout.splitlines())
    written = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
    assert list(listed) == [name for name in written if not name.endswith(".driftlab-cache")]
    for name, digest in listed.items():
        assert digest == hashlib.sha256((work / name).read_bytes()).hexdigest()
    pinned = (ROOT / "tests" / "artifact_digests.txt").read_text(encoding="utf-8")
    assert listed == dict(line.split("  ", 1)[::-1] for line in pinned.splitlines())


def test_every_output_is_in_the_artifact_table(tool_run):
    # Every file run, tune and plotdata write has one name in the table (aggregate.csv
    # has one name and two headers), a CSV's first line is its entry's header, and
    # every entry is written by some call.
    work, proc = tool_run
    assert proc.returncode == 0, proc.stderr
    outputs = [*work.glob("*/out"), work / "verbs" / "tune", work / "verbs" / "plotdata"]
    seen = set()
    for f in (f for out in outputs for f in out.iterdir()):
        named = [entry for entry in ARTIFACTS.values()
                 if fnmatchcase(f.name, entry[0].format(seed="*", tag="*"))]
        assert len({name for name, _ in named}) == 1, f
        first = f.read_text(encoding="utf-8").split("\n", 1)[0] if f.suffix == ".csv" else None
        headed = [entry for entry in named if entry[1] == first]
        assert len(headed) == 1, (f, first)
        seen.add(headed[0])
    assert seen == set(ARTIFACTS.values())


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
