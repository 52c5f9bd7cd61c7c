"""Trainable probabilistic scorers and the interface the framework is generic over.

A classifier is anything with ``fit(train, seed) -> TrainedModel``; a
trained model maps feature rows to posterior probabilities of the positive
class in [0, 1], labeled by :func:`predicted_labels`.
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

from .dataset import ConfigError, EmptySlotError, LabeledDataset, check_fields, rule
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
    "predicted_labels",
    "predict_dataset",
    "fit_models",
]


class SingleClassTrainingError(EmptySlotError):
    """Training set contains only one class."""


class TrainingSizeError(ConfigError):
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


def predicted_labels(scores) -> np.ndarray:
    """The one label rule: 1 iff the score is >= 0.5, so a tie goes positive."""
    return (np.asarray(scores) >= 0.5).astype(np.int64)


def predict_dataset(model: TrainedModel, d: LabeledDataset) -> np.ndarray:
    return predicted_labels(score_dataset(model, d))


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


def _sgd_steps(w: np.ndarray, b: float, Xp: np.ndarray, yp: np.ndarray,
               spans: Sequence[tuple[int, int]], learning_rate: float, l2: float) -> float:
    """One model's updates on the batches ``Xp[s:e]``, ``yp[s:e]`` of ``spans``, in order.

    ``w`` is updated in place and the final bias returned. Each product is
    ``ndarray.dot``, which makes the BLAS call of ``@`` with less dispatch.
    """
    for s, e in spans:
        Xb = Xp[s:e]
        m = e - s
        z = Xb.dot(w)
        z += b
        resid = _sigmoid(z)
        resid -= yp[s:e]
        grad = Xb.T.dot(resid)
        grad /= m
        grad += l2 * w
        grad *= learning_rate
        w -= grad
        # np.mean is this same reduction followed by the same division.
        b = b - learning_rate * (float(np.add.reduce(resid)) / m)
    return b


@dataclass(frozen=True)
class LinearSGDClassifier:
    """Logistic regression fit by seeded mini-batch SGD.

    The seed drives only the per-epoch shuffle; weights start at zero, so
    fit is a pure function of (train, seed). batch_size is the number of
    rows per mini-batch step, so it is part of the model: the same train
    and seed fit at another batch size give other weights.

    Bit-identity contract: ``w`` and ``b`` equal, bit for bit, those of the
    plain loop that gathers ``X[batch]`` and ``y[batch]`` for every
    mini-batch, uses the two-branch logistic function and takes the bias
    step from ``np.mean(resid)``. :meth:`_sgd` changes only where the
    operands live (gathered per epoch or per step, stacked across models)
    and how many numpy calls compute the same values; every update keeps
    its operations and their order, whether one model takes it in
    :func:`_sgd_steps` or several take it together in :meth:`_step_many`.
    Tests compare it with that loop by ``==``, and :meth:`fit_many` with
    :meth:`fit` on each subset.
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

        One model gathers each epoch's rows once, in shuffled order, and
        :func:`_sgd_steps` runs the epoch's batches as views of them.
        Several models are sorted by size, largest first, so at each step
        of an epoch their batch lengths never grow down the order, and
        models whose batches have the same length sit next to each other.
        Each such run of two or more (the full batches, and the equal tails
        of equal-size models) advances in one :meth:`_step_many`; a batch
        whose length no other model's shares is gathered and stepped alone.
        """
        if not rows:
            return []
        y = labels.astype(float)
        bs, lr, l2 = self.batch_size, self.learning_rate, self.l2
        if len(rows) == 1:
            (r,), (seed,) = rows, seeds
            rng = derive_rng(seed, "linear_sgd")
            spans = [(s, min(s + bs, len(r))) for s in range(0, len(r), bs)]
            w, b = np.zeros(X.shape[1]), 0.0
            for _ in range(self.epochs):
                order = r.take(rng.permutation(len(r)))
                b = _sgd_steps(w, b, X.take(order, axis=0, mode="clip"),
                               y.take(order, mode="clip"), spans, lr, l2)
            return [(w, b)]

        by_size = sorted(range(len(rows)), key=lambda k: len(rows[k]), reverse=True)
        sizes = [len(rows[k]) for k in by_size]
        # Per step: its start and its runs (first, stop, batch length) of models.
        plan = []
        for s in range(0, sizes[0], bs):
            lengths = [min(bs, n - s) for n in sizes if n > s]
            runs, i = [], 0
            while i < len(lengths):
                e = i + 1
                while e < len(lengths) and lengths[e] == lengths[i]:
                    e += 1
                runs.append((i, e, lengths[i]))
                i = e
            plan.append((s, runs))
        rngs = [derive_rng(seeds[k], "linear_sgd") for k in by_size]
        W = np.zeros((len(rows), X.shape[1]))
        B = np.zeros(len(rows))
        G = np.zeros((len(rows), sizes[0]), dtype=np.intp)
        for _ in range(self.epochs):
            for j, k in enumerate(by_size):
                np.take(rows[k], rngs[j].permutation(sizes[j]), out=G[j, : sizes[j]])
            for s, runs in plan:
                for i, e, m in runs:
                    if e - i > 1:
                        idx = G[i:e, s : s + m]
                        self._step_many(W[i:e], B[i:e], X.take(idx, axis=0, mode="clip"),
                                        y.take(idx, mode="clip"))
                    else:
                        idx = G[i, s : s + m]
                        B[i] = _sgd_steps(W[i], float(B[i]), X.take(idx, axis=0, mode="clip"),
                                          y.take(idx, mode="clip"), ((0, m),), lr, l2)
        # argsort of the size order is its inverse: model k's position in W.
        return [(W[j], float(B[j])) for j in np.argsort(by_size)]

    def _step_many(self, W: np.ndarray, B: np.ndarray, Xb: np.ndarray, yb: np.ndarray) -> None:
        """:func:`_sgd_steps` for each model ``i`` on batch ``Xb[i]``, with ``W`` and ``B`` in place.

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


# Rows per query block: each block holds at most this many estimates (128 KB
# of float32, twice that in float64), whatever the training size.
_KNN_BLOCK_DISTANCES = 2**15
# The candidate margin's constants for each estimate dtype.
_EPS_TINY = {np.dtype(t): (float(np.finfo(t).eps), float(np.finfo(t).tiny)) for t in (np.float32, float)}
# The S range of a float32 estimate: at its low end the margin's absolute term
# equals its relative one, and at its high end S * (d + 4) still fits.
_F32_LOW = float(np.finfo(np.float32).tiny / np.finfo(np.float32).eps)
_F32_MAX = float(np.finfo(np.float32).max)


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
        max_sq = self._sq_norms.max(initial=0.0)
        self._max_norm = float(np.sqrt(max_sq))
        self.k = k
        # Made now for the smallest S, max|t|^2; float64 may follow later.
        self._by_dtype: dict[np.dtype, np.ndarray] = {}
        self._expanded(max_sq, max_sq)

    def _expanded(self, S_min, S_max) -> np.ndarray:
        """C-ordered ``[X^T; |t|^2]``, float32 if every S is in its range, else float64.

        The top is tested as a quotient: ``S_max * (d + 4)`` can overflow.
        Made on first need; threads that race there only build equal copies.
        """
        f32 = _F32_LOW <= S_min and S_max <= _F32_MAX / (self._X.shape[1] + 4)
        dtype = np.dtype(np.float32 if f32 else float)
        M = self._by_dtype.get(dtype)
        if M is None:
            M = np.empty((self._X.shape[1] + 1, len(self._X)), dtype)
            M[:-1], M[-1] = self._X.T, self._sq_norms
            self._by_dtype[dtype] = M
        return M

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Positive fraction among each row's k nearest training points.

        Neighbours are the k smallest exact squared distances
        ``(t - q)·(t - q)``, ties broken by ascending id. A block of query
        rows first gets every distance less the row's ``q·q`` from one
        matrix product, float32 where the values allow; that estimate only
        picks candidates, and the exact form ranks them where a row has more
        than k, so a row's score does not depend on the block it was scored in.
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
        S = (np.sqrt(np.einsum("ij,ij->i", Q, Q)) + self._max_norm) ** 2
        M = self._expanded(S.min(), S.max())
        # |t|^2 - 2q.t as the one product [-2q, 1] . [t; |t|^2]. It differs
        # from the squared distance by |q|^2, the same for the whole row, so
        # it ranks the training rows alike. Doubling q is exact.
        A = np.empty((len(Q), dim + 1), M.dtype)
        np.multiply(Q, -2.0, out=A[:, :-1])
        A[:, -1] = 1.0
        approx = A @ M
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # Candidate margin. Let u be the estimate dtype's unit roundoff (eps/2;
        # float64's is no larger) and gamma_n = n*u / (1 - n*u). S bounds
        # |q|^2 + 2|q.t| + |t|^2. Rounding -2q and t to the dtype moves each
        # product by gamma_2 relative at most, and |t|^2 (float64, then rounded)
        # by gamma_(d+1), so the d + 1 terms hold at most (1 + gamma_(d+1)) * S
        # and the product, in any order, adds gamma_(d+1) times that: each
        # estimate is within gamma_(2d+2) * S of |q - t|^2 - |q|^2. The exact
        # float64 form is within gamma_(d+2) * S of |q - t|^2. With delta the
        # sum of the two, a true neighbour's exact value is <= the exact k-th
        # <= kth + |q|^2 + delta, so its estimate is <= kth + 2*delta, about
        # (3d + 4) * eps * S. The margin is over 2.6 times that, covering S,
        # the margin and kth + margin formed in float64; the bound is then
        # rounded up to the dtype. Underflow adds at most u * tiny per product
        # and per cast, times an operand of at most 2 * sqrt(S) for a cast
        # input: within the absolute term while S <= 1/u^2, far under eps * S
        # past it. Under float64 overflow the bound is inf or nan, and "not
        # above the bound" keeps every training row.
        eps, tiny = _EPS_TINY[M.dtype]
        margin = 8.0 * (dim + 4) * (eps * S + tiny)
        bound = np.nextafter((kth + margin).astype(M.dtype, copy=False), np.inf)
        far = np.greater(approx, bound[:, None])
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

