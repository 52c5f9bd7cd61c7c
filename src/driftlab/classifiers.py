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
import math
import numbers
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .dataset import LabeledDataset
from .rng import derive_rng

__all__ = [
    "TrainedModel",
    "Classifier",
    "LinearSGDClassifier",
    "KNNClassifier",
    "LinearModel",
    "KNNModel",
    "SingleClassTrainingError",
    "ModelOutputError",
    "score_rows",
    "score_dataset",
    "predict_dataset",
    "logistic_loss_and_grad",
]


class SingleClassTrainingError(ValueError):
    """Training set contains only one class."""


class ModelOutputError(ValueError):
    """A model returned something other than one finite score in [0, 1] per row."""


class TrainedModel(abc.ABC):
    """Immutable fitted model; scoring is reentrant and thread-safe."""

    @abc.abstractmethod
    def scores(self, features: np.ndarray) -> np.ndarray:
        """Posterior probability of the positive class per row, in [0, 1]."""


@runtime_checkable
class Classifier(Protocol):
    def fit(self, train: LabeledDataset, seed: int) -> TrainedModel: ...


def score_rows(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """``model.scores(features)``, checked to hold one finite score in [0, 1] per row.

    Every score the framework thresholds passes through here, so a faulty
    third-party model fails loudly instead of turning into a quiet metric.
    """
    s = np.asarray(model.scores(features))
    name = type(model).__name__
    if s.shape != (len(features),):
        raise ModelOutputError(
            f"{name}.scores returned shape {s.shape} for {len(features)} rows"
        )
    bad = np.flatnonzero(~((s >= 0.0) & (s <= 1.0)))
    if len(bad):
        raise ModelOutputError(
            f"{name}.scores returned {s[bad[0]]} at row {bad[0]}; "
            "scores must be finite and in [0, 1]"
        )
    return s


def score_dataset(model: TrainedModel, d: LabeledDataset) -> np.ndarray:
    return score_rows(model, d.features)


def predict_dataset(model: TrainedModel, d: LabeledDataset) -> np.ndarray:
    return (score_dataset(model, d) >= 0.5).astype(np.int64)


def _require_both_classes(train: LabeledDataset) -> None:
    if train.n_positive == 0 or train.n_negative == 0:
        raise SingleClassTrainingError(
            f"training set has {train.n_positive} positives / {train.n_negative} negatives"
        )


def _is_number(value: object, integral: bool) -> bool:
    """A finite real (an int if ``integral``) within float range; bools and strings are not."""
    kind = numbers.Integral if integral else numbers.Real
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _check_param(name: str, value: object, integral: bool = False, zero_ok: bool = False) -> None:
    """Reject a hyperparameter that is not a number above zero (or at zero, if allowed)."""
    if not _is_number(value, integral) or not (value >= 0 if zero_ok else value > 0):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {sign} {'integer' if integral else 'number'}, "
                         f"got {value!r}")


# ---------------------------------------------------------------------------
# Logistic-loss linear model
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function with one ``exp`` per element and no overflow.

    With e = exp(-|z|), this is 1 / (1 + exp(-z)) for z >= 0 and
    exp(z) / (1 + exp(z)) for z < 0, the same operations on the same
    operands as the two-branch form, so the bits are the same.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    def __init__(self, w: np.ndarray, b: float) -> None:
        self.w = np.asarray(w, dtype=float).copy()
        self.w.setflags(write=False)
        self.b = float(b)

    def scores(self, features: np.ndarray) -> np.ndarray:
        s = _sigmoid(np.asarray(features, dtype=float) @ self.w + self.b)
        return np.clip(s, 0.0, 1.0)


@dataclass(frozen=True)
class LinearSGDClassifier:
    """Logistic regression fit by seeded mini-batch SGD.

    The seed drives only the per-epoch shuffle; weights start at zero, so
    fit is a pure function of (train, seed). batch_size is an internal
    vectorization knob, not a modelling choice.

    Bit-identity contract: ``w`` and ``b`` equal, bit for bit, those of the
    plain loop that gathers ``X[batch]`` and ``y[batch]`` for every
    mini-batch, uses the two-branch logistic function and takes the bias
    step from ``np.mean(resid)``. The loop here changes only where the
    operands live (one permuted copy per epoch, batches as views) and how
    many numpy calls compute the same values; every update keeps its
    operations and their order. Tests compare it with that loop by ``==``.
    """

    learning_rate: float = 0.1
    epochs: int = 40
    l2: float = 1e-4
    batch_size: int = 64

    def __post_init__(self) -> None:
        _check_param("learning_rate", self.learning_rate)
        _check_param("epochs", self.epochs, integral=True)
        _check_param("l2", self.l2, zero_ok=True)
        _check_param("batch_size", self.batch_size, integral=True)

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
            # One contiguous copy per epoch; each batch is then a view.
            Xp, yp = X[order], y[order]
            for start in range(0, n, self.batch_size):
                Xb = Xp[start : start + self.batch_size]
                m = len(Xb)
                z = Xb @ w + b
                resid = _sigmoid(z) - yp[start : start + m]
                w -= self.learning_rate * (Xb.T @ resid / m + self.l2 * w)
                # np.mean is this same reduction followed by the same division.
                b -= self.learning_rate * (float(np.add.reduce(resid)) / m)
        return LinearModel(w, b)


# ---------------------------------------------------------------------------
# k-nearest-neighbour voter
# ---------------------------------------------------------------------------


# Rows per query block: each block holds at most this many expanded distances
# (128 KB of float64), whatever the training size.
_KNN_BLOCK_DISTANCES = 2**14


class KNNModel(TrainedModel):
    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        ids: tuple[str, ...],
        k: int,
    ) -> None:
        self._X = np.asarray(features, dtype=float)
        self._y = np.asarray(labels, dtype=np.int64)
        # Lexicographic rank of each training id; breaks distance ties.
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[order] = np.arange(len(ids))
        self._sq_norms = np.einsum("ij,ij->i", self._X, self._X)
        self._max_norm = float(np.sqrt(self._sq_norms.max(initial=0.0)))
        self.k = k

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Positive fraction among each row's k nearest training points.

        Neighbours are the k smallest exact squared distances
        ``(t - q)·(t - q)``, ties broken by ascending id. A block of query
        rows first gets all its distances from one matrix product; that
        estimate only picks candidates, and the exact form ranks them, so a
        row's score does not depend on the block it was scored in.
        """
        Q = np.atleast_2d(np.asarray(features, dtype=float))
        rows = max(1, _KNN_BLOCK_DISTANCES // len(self._X))
        out = np.empty(len(Q))
        for start in range(0, len(Q), rows):
            out[start : start + rows] = self._block_scores(Q[start : start + rows])
        return out

    def _block_scores(self, Q: np.ndarray) -> np.ndarray:
        n_train, dim = self._X.shape
        k = min(self.k, n_train)
        q_sq = np.einsum("ij,ij->i", Q, Q)
        # q_sq - 2g + sq_norms, built in the product's buffer: a + (-2g)
        # rounds exactly as a - 2g, and the additions keep their order.
        approx = Q @ self._X.T
        approx *= -2.0
        approx += q_sq[:, None]
        approx += self._sq_norms
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # Candidate margin. With u = eps/2 and gamma_n = n*u / (1 - n*u),
        # S = (|q| + max|t|)^2 bounds |q|^2 + 2|q.t| + |t|^2. The squared
        # norms and the dot product each carry at most gamma_d relative
        # error (|q.t| <= |q||t|), and the two additions add gamma_2, so
        # the expansion is within gamma_(d+2) * S of the true distance. The
        # exact form rounds each difference and square once and adds d
        # terms, so it is within gamma_(d+2) * S of it too. Every estimate
        # is thus within delta = 2 * gamma_(d+2) * S of the exact value it
        # stands for. A true neighbour's exact value is <= the exact k-th
        # value, which is <= kth + delta, so its estimate is <= kth + 2 *
        # delta, about 2 * (d+2) * eps * S. The margin takes four times
        # that, covering the rounding of S, of the norms and of kth +
        # margin, plus an absolute term for gradual underflow. Under
        # overflow the bound is inf or nan, and "not above the bound"
        # keeps every training row.
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        margin = 8.0 * (dim + 4) * (eps * (np.sqrt(q_sq) + self._max_norm) ** 2 + tiny)
        far = np.greater(approx, (kth + margin)[:, None])
        row, col = np.nonzero(np.logical_not(far, out=far))
        diff = self._X[col] - Q[row]
        exact = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((self._id_rank[col], exact, row))
        row, col = row[order], col[order]
        # Keep the first k candidates of each row (rows are contiguous now).
        first = np.searchsorted(row, row, side="left")
        keep = np.arange(len(row)) - first < k
        votes = np.bincount(row[keep], weights=self._y[col[keep]], minlength=len(Q))
        return votes / k


@dataclass(frozen=True)
class KNNClassifier:
    """Majority-vote scorer: score = positive fraction among k nearest points."""

    k: int = 5

    def __post_init__(self) -> None:
        if not _is_number(self.k, integral=True) or self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be a positive odd integer, got {self.k!r}")

    def fit(self, train: LabeledDataset, seed: int) -> KNNModel:
        if self.k > len(train):
            raise ValueError(f"k={self.k} exceeds training size {len(train)}")
        return KNNModel(train.features, train.labels, train.ids, self.k)

