"""Trainable probabilistic scorers and the interface the framework is generic over.

A classifier is anything with ``fit(train, seed) -> TrainedModel``; a
trained model maps feature rows to posterior probabilities of the positive
class in [0, 1]. Predicted label is 1 iff score >= 0.5 (ties go positive).
A classifier may also offer ``fit_many(base, rows, seeds)``, equal bit for
bit to one ``fit`` per ``base.subset(rows[k])``; :func:`fit_models` uses it
when present and falls back to ``fit`` otherwise.
Two reference implementations with different inductive biases ship here:
a logistic-loss linear model trained by seeded mini-batch SGD, and a
k-nearest-neighbour voter with deterministic id tie-breaking.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .dataset import LabeledDataset, check_fields, rule
from .rng import derive_rng

__all__ = [
    "TrainedModel",
    "Classifier",
    "LinearSGDClassifier",
    "KNNClassifier",
    "LinearModel",
    "KNNModel",
    "SingleClassTrainingError",
    "TrainingSizeError",
    "ModelOutputError",
    "score_rows",
    "score_dataset",
    "predict_dataset",
    "fit_models",
]


class SingleClassTrainingError(ValueError):
    """Training set contains only one class."""


class TrainingSizeError(ValueError):
    """Training set has fewer rows than the classifier needs (kNN's k)."""


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


def _require_both_classes(labels: np.ndarray) -> None:
    n_positive = int(np.add.reduce(labels))
    if n_positive == 0 or n_positive == len(labels):
        raise SingleClassTrainingError(
            f"training set has {n_positive} positives / {len(labels) - n_positive} negatives"
        )


# ---------------------------------------------------------------------------
# Logistic-loss linear model
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow, in a new array.

    With e = exp(-|z|), this is 1 / (1 + exp(-z)) for z >= 0 and
    exp(z) / (1 + exp(z)) for z < 0: the numerator exp(min(z, 0)) is
    exactly 1 or exactly e. These are the same operations on the same
    operands as the two-branch form, so the bits are the same.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    num = np.minimum(z, 0.0)
    np.exp(num, out=num)
    num /= e
    return num


class LinearModel(TrainedModel):
    def __init__(self, w: np.ndarray, b: float) -> None:
        self.w = np.asarray(w, dtype=float).copy()
        self.w.setflags(write=False)
        self.b = float(b)

    def scores(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(np.asarray(features, dtype=float) @ self.w + self.b)


@dataclass(frozen=True)
class LinearSGDClassifier:
    """Logistic regression fit by seeded mini-batch SGD.

    The seed drives only the per-epoch shuffle; weights start at zero, so
    fit is a pure function of (train, seed). batch_size is an internal
    vectorization knob, not a modelling choice.

    Bit-identity contract: ``w`` and ``b`` equal, bit for bit, those of the
    plain loop that gathers ``X[batch]`` and ``y[batch]`` for every
    mini-batch, uses the two-branch logistic function and takes the bias
    step from ``np.mean(resid)``. :meth:`_sgd` changes only where the
    operands live (gathered per epoch or per step, stacked across models)
    and how many numpy calls compute the same values; every update keeps
    its operations and their order. Tests compare it with that loop by
    ``==``, and :meth:`fit_many` with :meth:`fit` on each subset.
    """

    learning_rate: float = field(default=0.1, metadata=rule(float, gt=0))
    # A fit's work grows with epochs.
    epochs: int = field(default=40, metadata=rule(int, gt=0, le=10_000))
    l2: float = field(default=1e-4, metadata=rule(float, ge=0))
    batch_size: int = field(default=64, metadata=rule(int, gt=0))

    def __post_init__(self) -> None:
        check_fields(self)
        # Each step scales w by (1 - learning_rate * l2) before the loss
        # gradient; at a product of 2 or more that factor is <= -1 and the
        # weights grow without bound.
        if self.learning_rate * self.l2 >= 2:
            raise ValueError(
                f"learning_rate * l2 must be < 2, got {self.learning_rate} * {self.l2}"
            )

    def fit(self, train: LabeledDataset, seed: int) -> LinearModel:
        _require_both_classes(train.labels)
        ((w, b),) = self._sgd(train.features, train.labels, [np.arange(len(train))], [seed])
        return LinearModel(w, b)

    def fit_many(
        self, base: LabeledDataset, rows: Sequence[np.ndarray], seeds: Sequence[int]
    ) -> list[LinearModel]:
        """``[self.fit(base.subset(r), s) for r, s in zip(rows, seeds)]``, bit for bit.

        Each ``rows[k]`` holds distinct indices into ``base``. The models
        train in lockstep, but no model's training rows are copied out of
        ``base``: each mini-batch is gathered when it is stepped.
        """
        rows = [np.asarray(r, dtype=np.intp) for r in rows]
        if len(rows) != len(seeds):
            raise ValueError(f"{len(rows)} row sets for {len(seeds)} seeds")
        for r in rows:
            if len(r) and (r.min() < 0 or r.max() >= len(base)):
                raise IndexError(f"row index out of range for {len(base)} rows")
            _require_both_classes(base.labels[r])
        return [LinearModel(w, b) for w, b in self._sgd(base.features, base.labels, rows, seeds)]

    def _sgd(
        self, X: np.ndarray, labels: np.ndarray, rows: list[np.ndarray], seeds: Sequence[int]
    ) -> list[tuple[np.ndarray, float]]:
        """``(w, b)`` of one model per (rows, seed), trained on ``X[rows[k]]``.

        Models are sorted by size, largest first, so at step ``s`` of an
        epoch the ones with a full batch left form a prefix. A prefix of two
        or more advances in one stacked step; every other batch (the only
        model's, or a model's last, partial one) is stepped alone. A lone
        model gathers its epoch's rows once and steps views of them.
        """
        if not rows:
            return []
        y = labels.astype(float)
        bs = self.batch_size
        by_size = sorted(range(len(rows)), key=lambda k: len(rows[k]), reverse=True)
        sizes = [len(rows[k]) for k in by_size]
        rngs = [derive_rng(seeds[k], "linear_sgd") for k in by_size]
        W = np.zeros((len(rows), X.shape[1]))
        B = np.zeros(len(rows))
        G = np.zeros((len(rows), sizes[0]), dtype=np.intp)
        lone = len(rows) == 1
        for _ in range(self.epochs):
            for j, k in enumerate(by_size):
                np.take(rows[k], rngs[j].permutation(sizes[j]), out=G[j, : sizes[j]])
            if lone:
                Xp, yp = X.take(G[0], axis=0, mode="clip"), y.take(G[0], mode="clip")
            full = len(rows)
            for s in range(0, sizes[0], bs):
                while full and sizes[full - 1] < s + bs:
                    full -= 1
                if full > 1:
                    idx = G[:full, s : s + bs]
                    self._step_many(W[:full], B[:full], X.take(idx, axis=0, mode="clip"),
                                    y.take(idx, mode="clip"))
                for j in range(full if full > 1 else 0, len(rows)):
                    end = min(s + bs, sizes[j])
                    if end <= s:
                        break
                    if lone:
                        Xb, yb = Xp[s:end], yp[s:end]
                    else:
                        idx = G[j, s:end]
                        Xb, yb = X.take(idx, axis=0, mode="clip"), y.take(idx, mode="clip")
                    B[j] = self._step(W[j], float(B[j]), Xb, yb)
        # argsort of the size order is its inverse: model k's position in W.
        return [(W[j], float(B[j])) for j in np.argsort(by_size)]

    def _step(self, w: np.ndarray, b: float, Xb: np.ndarray, yb: np.ndarray) -> float:
        """One model's update on one batch: ``w`` in place, the new bias returned."""
        m = len(Xb)
        z = Xb @ w
        z += b
        resid = _sigmoid(z)
        resid -= yb
        grad = Xb.T @ resid
        grad /= m
        grad += self.l2 * w
        grad *= self.learning_rate
        w -= grad
        # np.mean is this same reduction followed by the same division.
        return b - self.learning_rate * (float(np.add.reduce(resid)) / m)

    def _step_many(self, W: np.ndarray, B: np.ndarray, Xb: np.ndarray, yb: np.ndarray) -> None:
        """:meth:`_step` for each model ``i`` on batch ``Xb[i]``, with ``W`` and ``B`` in place.

        Each stacked product runs the BLAS call of the one-model step on
        the same operand layout, and the elementwise calls apply the same
        operations to every element, so each model gets the same bits.
        """
        m = Xb.shape[1]
        z = np.matmul(Xb, W[:, :, None])[:, :, 0]
        z += B[:, None]
        resid = _sigmoid(z)
        resid -= yb
        grad = np.matmul(Xb.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]
        grad /= m
        grad += self.l2 * W
        grad *= self.learning_rate
        W -= grad
        step = np.add.reduce(resid, axis=1)
        step /= m
        step *= self.learning_rate
        B -= step


def fit_models(
    clf: Classifier, base: LabeledDataset, rows: Sequence[np.ndarray], seeds: Sequence[int]
) -> Iterator[TrainedModel]:
    """One model per (rows, seed), each as if fit on ``base.subset(rows[k])``.

    A classifier with ``fit_many`` trains them all in one call; any other
    is fit on one subset at a time, as the models are consumed.
    """
    fit_many = getattr(clf, "fit_many", None)
    if fit_many is not None:
        return iter(fit_many(base, rows, seeds))
    return (clf.fit(base.subset(r), s) for r, s in zip(rows, seeds))


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
        rows first gets every distance less the row's ``q·q`` from one
        matrix product; that estimate only picks candidates, and the exact
        form ranks them where a row has more than k, so a row's score does
        not depend on the block it was scored in.
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
        # |t|^2 - 2q.t, in the product's buffer. It differs from the squared
        # distance by |q|^2, the same for the whole row, so it ranks the
        # training rows alike. Doubling q is exact.
        approx = (-2.0 * Q) @ self._X.T
        approx += self._sq_norms
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # Candidate margin. With u = eps/2 and gamma_n = n*u / (1 - n*u),
        # S = (|q| + max|t|)^2 bounds |q|^2 + 2|q.t| + |t|^2. The product
        # carries at most gamma_d * 2|q||t| error (|q.t| <= |q||t|) and the
        # squared norm gamma_d * |t|^2; the one addition adds u, so the
        # estimate is within gamma_(d+1) * S of |q - t|^2 - |q|^2. The exact
        # form rounds each difference and square once and adds d terms, so
        # it is within gamma_(d+2) * S of |q - t|^2. So every estimate is
        # within delta = (gamma_(d+1) + gamma_(d+2)) * S of the exact value
        # it stands for, less the row's |q|^2. A true neighbour's exact value
        # is <= the exact k-th value, which is <= kth + |q|^2 + delta, so its
        # estimate is <= kth + 2 * delta, about (2d+3) * eps * S. Adding
        # |q|^2 as well, as the full expansion does, would need
        # 2 * (d+2) * eps * S, so dropping it loosens nothing. The margin
        # takes over four times the bound, covering the rounding of S, of the
        # norms and of kth + margin (|kth| is about S at most), plus an
        # absolute term for gradual underflow. Under overflow the bound is
        # inf or nan, and "not above the bound" keeps every training row.
        q_sq = np.einsum("ij,ij->i", Q, Q)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        margin = 8.0 * (dim + 4) * (eps * (np.sqrt(q_sq) + self._max_norm) ** 2 + tiny)
        far = np.greater(approx, (kth + margin)[:, None])
        row, col = np.divmod(np.flatnonzero(np.logical_not(far, out=far)), n_train)
        # A row's candidates hold every training row whose exact distance is
        # at most its k-th, ties included, so a row with exactly k candidates
        # votes with all of them. Only rows with more are ranked exactly.
        rerank = np.bincount(row, minlength=len(Q))[row] > k
        votes = np.bincount(row, weights=self._y[col] * ~rerank, minlength=len(Q))
        if rerank.any():
            row, col = row[rerank], col[rerank]
            diff = self._X[col] - Q[row]
            exact = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((self._id_rank[col], exact, row))
            row, col = row[order], col[order]
            # Keep the first k candidates of each row (rows are contiguous now).
            first = np.searchsorted(row, row, side="left")
            keep = np.arange(len(row)) - first < k
            votes += np.bincount(row[keep], weights=self._y[col[keep]], minlength=len(Q))
        return votes / k


@dataclass(frozen=True)
class KNNClassifier:
    """Majority-vote scorer: score = positive fraction among k nearest points."""

    k: int = field(default=5, metadata=rule(int, gt=0, odd=True))

    def __post_init__(self) -> None:
        check_fields(self)

    def fit(self, train: LabeledDataset, seed: int) -> KNNModel:
        if self.k > len(train):
            raise TrainingSizeError(f"k={self.k} exceeds training size {len(train)}")
        return KNNModel(train.features, train.labels, train.ids, self.k)

