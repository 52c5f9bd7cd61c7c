"""Every entry point the benchmark's span recorder wraps still exists.

``bench/tracing.py`` patches driftlab functions by name; renaming or
deleting one would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _ in tracing.TARGETS], ids=lambda v: str(v)
)
def test_traced_entry_point_resolves(module, attr):
    _, _, target = tracing.resolve(module, attr)
    assert callable(target)
