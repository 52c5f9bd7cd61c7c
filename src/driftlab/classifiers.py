"""Trainable probabilistic scorers and the interface the framework is generic over.

A classifier is anything with ``fit(train, seed) -> TrainedModel``; a
trained model maps feature rows to posterior probabilities of the positive
class in [0, 1]. Predicted label is 1 iff score >= 0.5 (ties go positive).
Two reference implementations with different inductive biases ship here:
a logistic-loss linear model trained by seeded mini-batch SGD, and a
k-nearest-neighbour voter with deterministic id tie-breaking.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .dataset import LabeledDataset
from .rng import derive_rng

__all__ = [
    "ModelMeta",
    "TrainedModel",
    "Classifier",
    "LinearSGDClassifier",
    "KNNClassifier",
    "LinearModel",
    "KNNModel",
    "SingleClassTrainingError",
    "score",
    "predict",
    "confidence",
    "score_dataset",
    "predict_dataset",
    "logistic_loss_and_grad",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


class SingleClassTrainingError(ValueError):
    """Training set contains only one class."""


@dataclass(frozen=True)
class ModelMeta:
    """Provenance recorded at fit time."""

    train_ratio: float
    n_samples: int
    seed: int


class TrainedModel(abc.ABC):
    """Immutable fitted model; scoring is reentrant and thread-safe."""

    meta: ModelMeta

    @abc.abstractmethod
    def scores(self, features: np.ndarray) -> np.ndarray:
        """Posterior probability of the positive class per row, in [0, 1]."""

    @abc.abstractmethod
    def to_dict(self) -> dict: ...

    def score_one(self, features: np.ndarray) -> float:
        return float(self.scores(np.asarray(features, dtype=float)[None, :])[0])


@runtime_checkable
class Classifier(Protocol):
    def fit(self, train: LabeledDataset, seed: int) -> TrainedModel: ...


def score(model: TrainedModel, features: np.ndarray) -> float:
    return model.score_one(features)


def predict(model: TrainedModel, features: np.ndarray) -> int:
    return 1 if score(model, features) >= 0.5 else 0


def confidence(model: TrainedModel, features: np.ndarray) -> float:
    """Distance of the score from maximal uncertainty: |score - 0.5| in [0, 0.5]."""
    return abs(score(model, features) - 0.5)


def score_dataset(model: TrainedModel, d: LabeledDataset) -> np.ndarray:
    return model.scores(d.features)


def predict_dataset(model: TrainedModel, d: LabeledDataset) -> np.ndarray:
    return (score_dataset(model, d) >= 0.5).astype(np.int64)


def _require_both_classes(train: LabeledDataset) -> None:
    if train.n_positive == 0 or train.n_negative == 0:
        raise SingleClassTrainingError(
            f"training set has {train.n_positive} positives / {train.n_negative} negatives"
        )


# ---------------------------------------------------------------------------
# Logistic-loss linear model
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss + (l2/2)||w||^2 and its exact gradient.

    Kept separate from the SGD loop so the gradient can be checked against
    finite differences.
    """
    z = X @ w + b
    # log(1 + exp(-m)) with m = (2y-1)z, stable via logaddexp.
    margins = np.where(y == 1, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * l2 * float(w @ w)
    resid = _sigmoid(z) - y
    dw = X.T @ resid / len(y) + l2 * w
    db = float(np.mean(resid))
    return loss, dw, db


class LinearModel(TrainedModel):
    def __init__(self, w: np.ndarray, b: float, meta: ModelMeta) -> None:
        self.w = np.asarray(w, dtype=float).copy()
        self.w.setflags(write=False)
        self.b = float(b)
        self.meta = meta

    def scores(self, features: np.ndarray) -> np.ndarray:
        s = _sigmoid(np.asarray(features, dtype=float) @ self.w + self.b)
        return np.clip(s, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "linear_sgd",
            "w": self.w.tolist(),
            "b": self.b,
            "meta": vars(self.meta),
        }


@dataclass(frozen=True)
class LinearSGDClassifier:
    """Logistic regression fit by seeded mini-batch SGD.

    The seed drives only the per-epoch shuffle; weights start at zero, so
    fit is a pure function of (train, seed). batch_size is an internal
    vectorization knob, not a modelling choice.
    """

    learning_rate: float = 0.1
    epochs: int = 40
    l2: float = 1e-4
    batch_size: int = 64

    def fit(self, train: LabeledDataset, seed: int) -> LinearModel:
        _require_both_classes(train)
        X = train.features
        y = train.labels.astype(float)
        n, dim = X.shape
        w = np.zeros(dim)
        b = 0.0
        rng = derive_rng(seed, "linear_sgd")
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                z = X[batch] @ w + b
                resid = _sigmoid(z) - y[batch]
                w -= self.learning_rate * (X[batch].T @ resid / len(batch) + self.l2 * w)
                b -= self.learning_rate * float(np.mean(resid))
        meta = ModelMeta(train.positive_ratio, n, seed)
        return LinearModel(w, b, meta)


# ---------------------------------------------------------------------------
# k-nearest-neighbour voter
# ---------------------------------------------------------------------------


class KNNModel(TrainedModel):
    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        ids: tuple[str, ...],
        k: int,
        meta: ModelMeta,
    ) -> None:
        self._X = np.asarray(features, dtype=float)
        self._y = np.asarray(labels, dtype=np.int64)
        self._ids = ids
        # Lexicographic rank of each training id; breaks distance ties.
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[order] = np.arange(len(ids))
        self.k = k
        self.meta = meta

    def _neighbours(self, x: np.ndarray) -> np.ndarray:
        diff = self._X - x
        d2 = np.einsum("ij,ij->i", diff, diff)
        k = self.k
        if k >= len(d2):
            return np.arange(len(d2))
        part = np.argpartition(d2, k - 1)[:k]
        kth = d2[part].max()
        cand = np.flatnonzero(d2 <= kth)
        if len(cand) > k:
            order = np.lexsort((self._id_rank[cand], d2[cand]))
            cand = cand[order[:k]]
        return cand

    def scores(self, features: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        return np.array([self._y[self._neighbours(x)].mean() for x in X])

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "knn",
            "k": self.k,
            "ids": list(self._ids),
            "labels": self._y.tolist(),
            "features": self._X.tolist(),
            "meta": vars(self.meta),
        }


@dataclass(frozen=True)
class KNNClassifier:
    """Majority-vote scorer: score = positive fraction among k nearest points."""

    k: int = 5

    def fit(self, train: LabeledDataset, seed: int) -> KNNModel:
        if self.k % 2 == 0:
            raise ValueError(f"k must be odd, got {self.k}")
        if self.k > len(train):
            raise ValueError(f"k={self.k} exceeds training size {len(train)}")
        meta = ModelMeta(train.positive_ratio, len(train), seed)
        return KNNModel(train.features, train.labels, train.ids, self.k, meta)


# ---------------------------------------------------------------------------
# Serialization (JSON, versioned; not bit-exact across format versions)
# ---------------------------------------------------------------------------


def save_model(model: TrainedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)


def load_model(path: str) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    version = blob.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    meta = ModelMeta(**blob["meta"])
    if blob["kind"] == "linear_sgd":
        return LinearModel(np.array(blob["w"]), blob["b"], meta)
    if blob["kind"] == "knn":
        return KNNModel(
            np.array(blob["features"]),
            np.array(blob["labels"]),
            tuple(blob["ids"]),
            blob["k"],
            meta,
        )
    raise ValueError(f"unknown model kind {blob['kind']!r}")
