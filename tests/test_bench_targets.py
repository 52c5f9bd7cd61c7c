"""Every entry point the benchmark's span recorder wraps still exists.

``bench/tracing.py`` patches driftlab functions by name, and its counters
read attributes of their arguments; renaming or deleting one would
otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from driftlab.classifiers import KNNModel

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


def test_knn_scores_counter_reads_the_training_rows():
    n = 7
    X = np.arange(2.0 * n).reshape(n, 2)
    model = KNNModel(X, np.arange(n) % 2, tuple(f"s{i}" for i in range(n)), 3)
    Q = X[:4] + 0.5
    counts = tracing.COUNTERS["KNNModel.scores"]((model, Q), {}, model.scores(Q))
    assert counts == {"rows": 4, "train_rows": n}
