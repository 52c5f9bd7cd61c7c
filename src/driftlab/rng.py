"""Deterministic random-stream derivation shared by every module.

All randomness in driftlab flows from a single user-supplied integer seed
through :func:`derive_rng`. A stream is named by a path of labels such as
``("split", "test", 3)``; the labels are folded through SHA-256 into a
numpy ``SeedSequence``, so identical ``(seed, labels)`` reproduce the same
PCG64 stream on any platform, at any worker-pool size, in any call order.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_rng", "derive_seed"]


def _fold(label: object) -> int:
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *labels: object) -> np.random.Generator:
    """PCG64 generator for the stream named by ``labels`` under ``seed``."""
    entropy = [int(seed)] + [_fold(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *labels: object, bound: int = 2**31) -> int:
    """Integer seed in ``[0, bound)`` drawn from the stream named by ``labels``."""
    return int(derive_rng(seed, *labels).integers(bound))
