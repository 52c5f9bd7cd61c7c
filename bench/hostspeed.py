"""Host-speed reference: a fixed kernel timed around every measured run.

On a shared host the same run can take up to 1.7x longer in one phase than
in another, and a phase can last minutes, so a median over one 30-second
window still follows the host. The benchmark therefore times this kernel
just before and just after each run and reports the run's wall time
scaled to a fixed host speed:

    normalised_s = wall_s * REF_NOMINAL_S / mean(ref_before_s, ref_after_s)

The kernel is the benchmark's own code, never driftlab's, so a change to
the program cannot move it. It mixes the kinds of work driftlab runs:
short numpy calls on small arrays driven from a Python loop (kNN scoring,
mini-batch SGD) and plain interpreter work.

Start-up time follows another part of the host (process creation, file
reads), which the kernel does not track. Set-up times are therefore scaled
the same way by ``spawn_reference_s``: a fresh interpreter importing numpy,
driftlab's one dependency, and nothing of driftlab.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# The kernel's median time on the 2-core reference machine (see README.md).
# A normalised time is in seconds at the host speed where the kernel takes
# this long.
REF_NOMINAL_S = 0.02
# The same for spawn_reference_s.
SPAWN_NOMINAL_S = 0.15

_RNG = np.random.default_rng(20180720)
_POINTS = _RNG.standard_normal((1500, 20))
_QUERIES = _RNG.standard_normal((200, 20))
_LABELS = (_POINTS[:, 0] > 0).astype(float)
_ORDER = _RNG.permutation(len(_POINTS))


def reference_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for x in _QUERIES:  # kNN scoring
        diff = _POINTS - x
        d2 = np.einsum("ij,ij->i", diff, diff)
        acc += float(d2[np.argpartition(d2, 4)[:5]].mean())
    w = np.zeros(_POINTS.shape[1])
    for i in range(0, 2 * len(_ORDER), 32):  # two epochs of mini-batch SGD
        batch = _ORDER[i % len(_ORDER) : i % len(_ORDER) + 32]
        xb = _POINTS[batch]
        p = 1.0 / (1.0 + np.exp(-(xb @ w)))
        w -= 0.1 * (xb.T @ (p - _LABELS[batch])) / len(batch)
    counts: dict[int, int] = {}
    for i in range(20000):  # interpreter work
        counts[i % 97] = counts.get(i % 97, 0) + i
    if acc < 0 or not counts or not np.isfinite(w).all():
        raise RuntimeError("reference kernel computed nonsense")
    return time.perf_counter() - start


def spawn_reference_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def normalise(
    wall_s: float, ref_before_s: float, ref_after_s: float, nominal_s: float = REF_NOMINAL_S
) -> float:
    """``wall_s`` scaled to the host speed at which the reference takes ``nominal_s``."""
    return wall_s * nominal_s / (0.5 * (ref_before_s + ref_after_s))
