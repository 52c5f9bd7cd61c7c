from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import classifiers
from driftlab.classifiers import (
    _KNN_BLOCK_DISTANCES,
    KNNClassifier,
    KNNModel,
    LinearSGDClassifier,
    ModelOutputError,
    SingleClassTrainingError,
    TrainedModel,
    _sgd_steps,
    _sigmoid,
    fit_models,
    predict_dataset,
    predicted_labels,
    score_dataset,
)
from driftlab.dataset import LabeledDataset
from driftlab.rng import derive_rng

from conftest import blob_dataset


def tiny_dataset(features, labels, ids=None):
    n = len(labels)
    ids = ids or [f"s{i}" for i in range(n)]
    stamps = [date(2014, 1, 1)] * n
    return LabeledDataset(ids, stamps, labels, np.asarray(features, dtype=float))


class TestLinearSGD:
    def test_separable_blobs_high_accuracy(self):
        d = blob_dataset(100, 100, seed=1, pos_center=(4.0, 4.0))
        model = LinearSGDClassifier().fit(d, seed=0)
        acc = float(np.mean(predict_dataset(model, d) == d.labels))
        assert acc >= 0.95

    def test_no_signal_scores_near_half(self):
        d = tiny_dataset([[1.0, 2.0]] * 40, [0, 1] * 20)
        model = LinearSGDClassifier().fit(d, seed=0)
        s = score_dataset(model, d)
        assert np.all(np.abs(s - 0.5) < 0.05)

    def test_determinism_bit_identical(self):
        d = blob_dataset(60, 40, seed=2)
        m1 = LinearSGDClassifier().fit(d, seed=7)
        m2 = LinearSGDClassifier().fit(d, seed=7)
        assert m1.b == m2.b
        np.testing.assert_array_equal(m1.w, m2.w)

    def test_single_class_rejected(self):
        d = tiny_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(SingleClassTrainingError):
            LinearSGDClassifier().fit(d, seed=0)

    def test_gradient_matches_finite_differences(self):
        # One _sgd_steps span moves (w, b) by -learning_rate times the gradient of the
        # mean logistic loss + (l2/2)||w||^2, checked by central differences.
        def loss(w, b, X, y, l2):
            z = X @ w + b
            return float(np.mean(np.logaddexp(0.0, np.where(y == 1, -z, z)))) + 0.5 * l2 * (w @ w)

        rng = np.random.default_rng(11)
        for _ in range(5):
            n, d = 12, 4
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            clf = LinearSGDClassifier(learning_rate=0.1, l2=0.01)
            w_new = w.copy()
            b_new = _sgd_steps(w_new, b, X, y, [(0, n)], clf.learning_rate, clf.l2)
            dw, db = (w - w_new) / clf.learning_rate, (b - b_new) / clf.learning_rate
            eps = 1e-6
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                num = (loss(wp, b, X, y, clf.l2) - loss(wm, b, X, y, clf.l2)) / (2 * eps)
                assert num == pytest.approx(dw[j], rel=1e-5, abs=1e-8)
            num = (loss(w, b + eps, X, y, clf.l2) - loss(w, b - eps, X, y, clf.l2)) / (2 * eps)
            assert num == pytest.approx(db, rel=1e-5, abs=1e-8)

    def test_scores_within_unit_interval(self):
        d = blob_dataset(50, 50, seed=5, pos_center=(50.0, 50.0), spread=0.1)
        model = LinearSGDClassifier(learning_rate=1.0, epochs=100).fit(d, seed=0)
        s = model.scores(np.array([[1e6, 1e6], [-1e6, -1e6]]))
        assert np.all((s >= 0.0) & (s <= 1.0))

    @pytest.mark.parametrize(
        "params",
        [
            {"epochs": "5"},
            {"epochs": 0},
            {"epochs": 2.0},
            {"batch_size": True},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": "0.1"},
            {"l2": -1e-4},
            {"l2": float("inf")},
        ],
        ids=repr,
    )
    def test_bad_params_rejected_at_construction(self, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            LinearSGDClassifier(**params)

    def test_zero_l2_and_integer_rate_accepted(self):
        clf = LinearSGDClassifier(learning_rate=1, l2=0)
        assert (clf.learning_rate, clf.l2) == (1, 0)

    def test_l2_shrink_factor_above_minus_one_accepted(self):
        # learning_rate * l2 = 1.9: each step scales w by -0.9, heavy but convergent.
        assert LinearSGDClassifier(l2=19).l2 == 19
        with pytest.raises(ValueError, match=r"learning_rate \* l2 must be < 2"):
            LinearSGDClassifier(l2=20)


def two_branch_sigmoid(z):
    """The logistic function as two masked branches, one exp each."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def per_batch_sgd(clf, X, y, seed):
    """Reference SGD loop: gathers every mini-batch, two-branch sigmoid, np.mean."""
    n, dim = X.shape
    w = np.zeros(dim)
    b = 0.0
    rng = derive_rng(seed, "linear_sgd")
    for _ in range(clf.epochs):
        order = rng.permutation(n)
        for start in range(0, n, clf.batch_size):
            batch = order[start : start + clf.batch_size]
            z = X[batch] @ w + b
            resid = two_branch_sigmoid(z) - y[batch]
            w -= clf.learning_rate * (X[batch].T @ resid / len(batch) + clf.l2 * w)
            b -= clf.learning_rate * float(np.mean(resid))
    return w, b


@st.composite
def sgd_cases(draw):
    """Training set and classifier for the bit-identity property.

    n sits below, at, on a multiple of, or off a multiple of batch_size;
    each feature column has its own scale in [1e-3, 1e4]; positives are
    either the minority or the majority class.
    """
    batch_size = draw(st.sampled_from([3, 16, 64]))
    shape = draw(st.sampled_from(["below", "at", "multiple", "ragged"]))
    if shape == "below":
        n = draw(st.integers(2, batch_size - 1))
    elif shape == "at":
        n = batch_size
    else:
        n = batch_size * draw(st.integers(2, 8))
        n += draw(st.integers(1, batch_size - 1)) if shape == "ragged" else 0
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-3.0, 4.0, size=dim)
    X = rng.normal(size=(n, dim)) * scales + draw(st.sampled_from([0.0, 1.0]))
    positive_share = draw(st.sampled_from([0.1, 0.9]))
    y = (rng.random(n) < positive_share).astype(int)
    y[:2] = (0, 1) if positive_share < 0.5 else (1, 0)
    clf = LinearSGDClassifier(
        learning_rate=draw(st.sampled_from([0.01, 0.1, 1.0])),
        epochs=draw(st.integers(1, 6)),
        l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
        batch_size=batch_size,
    )
    return tiny_dataset(X, y), clf, draw(st.integers(0, 2**31 - 1))


class TestSGDBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(sgd_cases())
    def test_fit_equals_per_batch_loop(self, case):
        d, clf, seed = case
        model = clf.fit(d, seed)
        w, b = per_batch_sgd(clf, d.features, d.labels.astype(float), seed)
        assert model.w.tolist() == w.tolist()
        assert model.b == b

    def test_default_settings_equal_per_batch_loop(self):
        d = blob_dataset(150, 50, seed=3)
        clf = LinearSGDClassifier()
        model = clf.fit(d, 5)
        w, b = per_batch_sgd(clf, d.features, d.labels.astype(float), 5)
        assert model.w.tolist() == w.tolist()
        assert model.b == b

    def test_sigmoid_matches_two_branch_bit_for_bit(self):
        mags = [0.0, 1e-300, 40.0, 745.0, 1e308]
        z = np.array([m for v in mags for m in (v, -v)])
        got, expected = _sigmoid(z), two_branch_sigmoid(z)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


@st.composite
def lockstep_cases(draw):
    """A base dataset, ragged row sets into it, one seed per set, and a classifier.

    Each row set's size sits below, at or above batch_size (batch_size 1
    included), each holds both classes, and feature columns have scales
    from 0.1 to 10.
    """
    batch_size = draw(st.sampled_from([1, 2, 5, 16]))
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 4 * batch_size + 8
    X = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-1.0, 1.0, size=dim)
    y = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(int)
    y[:2] = (0, 1)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(["below", "at", "above"]))
        if shape == "below" and batch_size > 2:
            size = draw(st.integers(2, batch_size - 1))
        elif shape == "above" or batch_size == 1:
            size = draw(st.integers(batch_size + 1, n))
        else:
            size = max(batch_size, 2)
        # Rows 0 and 1 (one of each class) plus a random draw of the rest, shuffled.
        r = np.concatenate([[0, 1], rng.choice(np.arange(2, n), size=size - 2, replace=False)])
        rows.append(rng.permutation(r))
    clf = LinearSGDClassifier(
        learning_rate=draw(st.sampled_from([0.01, 0.1, 1.0])),
        epochs=draw(st.integers(1, 3)),
        l2=draw(st.sampled_from([0.0, 1e-4, 0.05])),
        batch_size=batch_size,
    )
    seeds = [draw(st.integers(0, 2**31 - 1)) for _ in rows]
    return tiny_dataset(X, y), rows, seeds, clf


def record_steps(monkeypatch):
    """Every SGD step taken from now on, as (models stepped together, batch length)."""
    steps = []
    one, many = classifiers._sgd_steps, LinearSGDClassifier._step_many

    def sgd_steps(w, b, Xp, yp, spans, *rest):
        steps.extend((1, e - s) for s, e in spans)
        return one(w, b, Xp, yp, spans, *rest)

    def step_many(self, W, B, Xb, yb):
        steps.append((len(W), Xb.shape[1]))
        many(self, W, B, Xb, yb)

    monkeypatch.setattr(classifiers, "_sgd_steps", sgd_steps)
    monkeypatch.setattr(LinearSGDClassifier, "_step_many", step_many)
    return steps


class TestFitMany:
    @settings(max_examples=80, deadline=None)
    @given(lockstep_cases())
    def test_equals_fit_on_each_subset(self, case):
        base, rows, seeds, clf = case
        many = clf.fit_many(base, rows, seeds)
        assert len(many) == len(rows)
        for model, r, seed in zip(many, rows, seeds):
            one = clf.fit(base.subset(r), seed)
            assert model.w.tolist() == one.w.tolist()
            assert model.b == one.b

    @settings(max_examples=60, deadline=None)
    @given(
        models=st.integers(1, 6),
        batch=st.integers(1, 70),
        dim=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_step_equals_one_model_steps(self, models, batch, dim, seed):
        rng = np.random.default_rng(seed)
        Xb = rng.normal(size=(models, batch, dim)) * 10.0 ** rng.uniform(-1.0, 1.0, size=dim)
        yb = (rng.random((models, batch)) < 0.3).astype(float)
        W, B = rng.normal(size=(models, dim)), rng.normal(size=models)
        clf = LinearSGDClassifier(l2=0.01)
        expected = []
        for i in range(models):
            w = W[i].copy()
            b = _sgd_steps(w, float(B[i]), Xb[i], yb[i], [(0, batch)], clf.learning_rate, clf.l2)
            expected.append((w.tolist(), b))
        clf._step_many(W, B, Xb, yb)
        assert [(w.tolist(), b) for w, b in zip(W, B.tolist())] == expected

    @pytest.mark.parametrize(
        "shared, expected",
        [
            # Three sets of 10 share their one, partial batch; the set of 23 steps alone.
            (10, {(1, 16), (3, 10), (1, 7)}),
            # Sets of 16 fill exactly one batch, stacked with the 23-row set's first.
            (16, {(4, 16), (1, 7)}),
            # Sets of 37 end on equal tails of 5; the 23-row set's tail of 7 is its own.
            (37, {(4, 16), (3, 16), (1, 7), (3, 5)}),
        ],
        ids=["below", "at", "off_multiple"],
    )
    def test_equal_batch_lengths_stack(self, monkeypatch, shared, expected):
        base = blob_dataset(60, 60, seed=6)
        rng = np.random.default_rng(shared)
        # Three sets of one size and one set of 23, each with both classes.
        rows = [np.r_[rng.choice(60, size=n // 2, replace=False),
                      60 + rng.choice(60, size=n - n // 2, replace=False)]
                for n in (shared, 23, shared, shared)]
        seeds = [4, 5, 6, 7]
        clf = LinearSGDClassifier(epochs=3, batch_size=16)
        steps = record_steps(monkeypatch)
        many = clf.fit_many(base, rows, seeds)
        assert set(steps) == expected
        for model, r, seed in zip(many, rows, seeds):
            one = clf.fit(base.subset(r), seed)
            assert model.w.tolist() == one.w.tolist()
            assert model.b == one.b

    def test_equal_size_sets_take_no_one_model_step(self, monkeypatch):
        # Three 70-row sets at batch_size 16: four full batches and a tail of 6
        # per epoch, every one of them stepped for all three models at once.
        base = blob_dataset(120, 120, seed=7)
        rows = [np.arange(k, 210, 3) for k in range(3)]
        clf = LinearSGDClassifier(epochs=3, batch_size=16)
        steps = record_steps(monkeypatch)
        clf.fit_many(base, rows, [1, 2, 3])
        assert steps == ([(3, 16)] * 4 + [(3, 6)]) * 3

    def test_single_class_row_set_rejected_like_fit(self):
        base = tiny_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1])
        clf = LinearSGDClassifier(epochs=1)
        with pytest.raises(SingleClassTrainingError):
            clf.fit(base.subset([1, 2]), 0)
        with pytest.raises(SingleClassTrainingError):
            clf.fit_many(base, [[0, 1], [1, 2]], [0, 0])

    def test_no_row_sets_no_models(self):
        base = tiny_dataset([[0.0], [1.0]], [0, 1])
        assert LinearSGDClassifier().fit_many(base, [], []) == []


class TestFitModels:
    def test_fit_only_classifier_fit_on_each_subset(self):
        base = blob_dataset(30, 30, seed=4)
        rows = [np.arange(0, 60, 2), np.arange(1, 60, 3)]
        fitted = []

        class FitOnly:
            def fit(self, train, seed):
                fitted.append((train.ids, seed))
                return KNNClassifier(k=3).fit(train, seed)

        models = fit_models(FitOnly(), base, rows, [5, 6])
        assert fitted == []  # fit lazily, one model at a time
        assert len(list(models)) == 2
        assert fitted == [(base.subset(r).ids, s) for r, s in zip(rows, [5, 6])]

    @pytest.mark.parametrize("clf", [KNNClassifier(k=3), LinearSGDClassifier(epochs=1)],
                             ids=["fit_only", "fit_many"])
    def test_negative_row_rejected_on_both_paths(self, clf):
        base = blob_dataset(40, 40, seed=4)
        rows = [np.r_[np.arange(10), -1]]
        with pytest.raises(IndexError, match="row index out of range for 80 rows"):
            list(fit_models(clf, base, rows, [0]))


class TestKNN:
    def test_query_on_training_point(self):
        d = tiny_dataset([[0.0, 0.0], [5.0, 5.0]], [0, 1])
        model = KNNClassifier(k=1).fit(d, seed=0)
        assert model.scores(np.array([[5.0, 5.0], [0.0, 0.0]])).tolist() == [1.0, 0.0]

    def test_equidistant_tie_broken_by_smaller_id(self):
        d = tiny_dataset([[1.0, 0.0], [-1.0, 0.0]], [1, 0], ids=["b", "a"])
        model = KNNClassifier(k=1).fit(d, seed=0)
        # Query at the origin: both neighbours at distance 1; "a" wins.
        assert model.scores(np.array([[0.0, 0.0]])).tolist() == [0.0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        d = tiny_dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, size=50).tolist())
        model = KNNClassifier(k=3).fit(d, seed=0)
        queries = rng.normal(size=(20, 3))
        for q, got in zip(queries, model.scores(queries)):
            dist = np.array([float(((f - q) ** 2).sum()) for f in d.features])
            order = sorted(range(50), key=lambda i: (dist[i], d.ids[i]))
            expected = float(np.mean([d.labels[i] for i in order[:3]]))
            assert got == expected

    def test_training_order_permutation_invariant(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30).tolist()
        d = tiny_dataset(X, y)
        perm = rng.permutation(30)
        d_shuffled = d.subset(perm)
        m1 = KNNClassifier(k=3).fit(d, seed=0)
        m2 = KNNClassifier(k=3).fit(d_shuffled, seed=0)
        q = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(m1.scores(q), m2.scores(q))

    @pytest.mark.parametrize("k", [2, -1, 0, "3", 3.0, True])
    def test_bad_k_rejected_at_construction(self, k):
        with pytest.raises(ValueError, match="positive odd integer"):
            KNNClassifier(k=k)

    def test_k_validation(self):
        d = tiny_dataset([[0.0], [1.0], [2.0]], [0, 1, 0])
        with pytest.raises(ValueError, match="odd"):
            KNNClassifier(k=2).fit(d, seed=0)
        with pytest.raises(ValueError, match="odd"):
            KNNClassifier(k=-1).fit(d, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            KNNClassifier(k=5).fit(d, seed=0)


def knn_oracle(X, y, ids, k, q):
    """Per-row reference: the k smallest exact squared distances, ties by id."""
    diff = X - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = sorted(range(len(X)), key=lambda i: (d2[i], ids[i]))
    return float(np.mean(y[order[:k]]))


@st.composite
def knn_cases(draw):
    """Training set, queries, k and an overflow flag, built to stress the candidate margin.

    ``grid`` features are small integers (many exact distance ties);
    ``offset`` shifts them, or tiny Gaussian steps, by 1e4, where the
    expanded estimate |t|^2 - 2 q.t cancels almost every digit, and
    ``far_offset`` by 1e8, where its rounding error exceeds the gaps
    between distances. ``overflow`` magnitudes run from 1e154 to 1e300,
    where squared norms overflow and every training row stays a
    candidate. ``subnormal`` features sit near 1e-310, where every product
    underflows, and ``gradual`` near 1e-160, where products are subnormal
    and carry absolute error. Two kinds sit at the ends of the float32
    estimate's range, each from its band's inner end to a drawn magnitude:
    ``f32_overflow`` from 1e18 to 1e40, finite in float64 but past
    float32's range in the cast or the product, and ``f32_underflow`` from
    1e-18 down to 1e-45, normal in float64 but subnormal or zero in
    float32. Training rows are duplicated, k may equal the training size,
    and query counts are 1 or span blocks.
    """
    dim = draw(st.integers(1, 4))
    kind = draw(
        st.sampled_from(
            ["grid", "offset_grid", "offset_normal", "far_offset", "normal", "overflow",
             "subnormal", "gradual", "f32_overflow", "f32_underflow"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # The f32 kinds' decimal exponents, from the band's inner end to a drawn reach.
    if kind == "f32_overflow":
        low, high = 18.0, draw(st.floats(18, 40))
    else:
        low, high = draw(st.floats(-45, -18)), -18.0

    def rows(m):
        if kind == "normal":
            return rng.normal(size=(m, dim))
        if kind == "offset_normal":
            return 1e4 + 1e-3 * rng.normal(size=(m, dim))
        if kind == "far_offset":
            return 1e8 + 1e-3 * rng.normal(size=(m, dim))
        if kind == "overflow":
            sign = rng.choice([-1.0, 1.0], size=(m, dim))
            return sign * 10.0 ** rng.uniform(154, 300, size=(m, dim))
        if kind == "subnormal":
            return 1e-310 * rng.normal(size=(m, dim))
        if kind == "gradual":
            return 1e-160 * rng.normal(size=(m, dim))
        if kind.startswith("f32"):
            sign = rng.choice([-1.0, 1.0], size=(m, dim))
            return sign * 10.0 ** rng.uniform(low, high, size=(m, dim))
        grid = rng.integers(-2, 3, size=(m, dim)).astype(float)
        return grid + 1e4 if kind == "offset_grid" else grid

    base = rows(draw(st.integers(1, 25)))
    n_dup = draw(st.sampled_from([0, 5, 1500]))
    X = np.concatenate([base, base[rng.integers(0, len(base), size=n_dup)]])
    n = len(X)
    y = rng.integers(0, 2, size=n)
    ids = tuple(f"s{v}" for v in rng.permutation(n))
    k = min(draw(st.sampled_from([1, 3, 5, n])), n)
    block_rows = max(1, _KNN_BLOCK_DISTANCES // n)
    m = 1 if draw(st.booleans()) else block_rows + draw(st.integers(1, 2 * block_rows))
    Q = rows(m)
    # Queries that sit exactly on training rows: zero distances and ties.
    on_train = rng.integers(0, m, size=m // 3)
    Q[on_train] = X[rng.integers(0, n, size=len(on_train))]
    return X, y, ids, k, Q, kind == "overflow"


class TestKNNExactness:
    @settings(max_examples=75, deadline=None)
    @given(knn_cases())
    def test_equals_per_row_oracle(self, case):
        X, y, ids, k, Q, overflow = case
        # Overflow draws overflow the squared norms on purpose.
        faults = dict(over="ignore", invalid="ignore") if overflow else {}
        with np.errstate(**faults):
            model = KNNModel(X, y, ids, k)
            got = model.scores(Q)
            expected = [knn_oracle(X, y, ids, k, q) for q in Q]
            assert got.tolist() == expected
            # A row's score does not depend on the rows scored with it.
            for i in range(0, len(Q), max(1, len(Q) // 7)):
                assert model.scores(Q[i : i + 1])[0] == got[i]


def count_lexsorts(monkeypatch):
    """Calls to ``np.lexsort``, the re-rank of rows with more than k candidates."""
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    return calls


class TestKNNPaths:
    def test_exactly_k_candidates_skip_the_rerank(self, monkeypatch, scale=1.0):
        X = np.arange(10.0)[:, None] * scale
        y = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0])
        ids = tuple(f"s{i}" for i in range(10))
        Q = np.array([[0.1], [4.3], [9.2]]) * scale
        calls = count_lexsorts(monkeypatch)
        got = KNNModel(X, y, ids, 3).scores(Q)
        assert calls == []
        assert got.tolist() == [knn_oracle(X, y, ids, 3, q) for q in Q] == [2 / 3, 1 / 3, 1 / 3]

    # At 2**66 the squared norms pass float32's range, and at 2**-70 the
    # distances sit far below its subnormal steps: the float64 estimate there
    # keeps as few candidates as float32's does at unit scale.
    @pytest.mark.parametrize("scale", [2.0**66, 2.0**-70], ids=["2**66", "2**-70"])
    def test_float32_range_ends_keep_exactly_k_candidates(self, monkeypatch, scale):
        self.test_exactly_k_candidates_skip_the_rerank(monkeypatch, scale)

    def test_duplicates_at_the_kth_distance_rerank_by_id(self, monkeypatch):
        # Rows 1-3 repeat one point at distance 1; k=3 keeps two, the smaller
        # ids "a" and "b", so the vote is rows 0, 2 and 3.
        X = np.array([[0.0], [1.0], [1.0], [1.0], [5.0]])
        y = np.array([1, 1, 0, 1, 1])
        ids = ("e", "c", "a", "b", "d")
        calls = count_lexsorts(monkeypatch)
        got = KNNModel(X, y, ids, 3).scores(np.array([[0.0]]))
        assert calls == [4]
        assert got.tolist() == [knn_oracle(X, y, ids, 3, np.array([0.0]))] == [2 / 3]

    def test_float32_cancellation_keeps_the_exact_nearest(self):
        # Near 1e4 the float32 estimate |t|^2 - 2q.t is off by units, more
        # than the gaps between these distances; a margin sized by float64's
        # eps would drop the nearest row, b.
        X = 1e4 + np.array([[-4.0], [0.0], [2.0]])
        y = np.array([0, 1, 0])
        q = np.array([1e4 + 0.25])
        got = KNNModel(X, y, ("a", "b", "c"), 1).scores(q[None, :])
        assert got.tolist() == [knn_oracle(X, y, ("a", "b", "c"), 1, q)] == [1.0]

    def test_gradual_underflow_keeps_the_exact_nearest(self):
        # At this scale every product rounds to a whole subnormal step. The
        # estimate puts row 1 first (0 steps against 1) and the exact form
        # row 0 (0 steps against 1); only the margin's absolute term keeps
        # row 0 a candidate.
        b = 2.0**-540
        X = np.array([[-6 * b], [4 * b]])
        y = np.array([1, 0])
        q = np.array([-2 * b])
        got = KNNModel(X, y, ("a", "b"), 1).scores(q[None, :])
        assert got.tolist() == [knn_oracle(X, y, ("a", "b"), 1, q)] == [1.0]


class StubModel(TrainedModel):
    def __init__(self, out):
        self.out = out

    def scores(self, features):
        return self.out


class TestScoreGuard:
    d = tiny_dataset([[0.0], [1.0], [2.0]], [0, 1, 0])

    @pytest.mark.parametrize(
        "out,message",
        [
            (np.array([0.2, np.nan, 0.4]), "nan at row 1"),
            (np.array([0.2, 1.5, 0.4]), "1.5 at row 1"),
            (np.array([-0.1, 0.5, 0.4]), "-0.1 at row 0"),
            (np.array([0.2, 0.4]), r"shape \(2,\) for 3 rows"),
            (np.array([[0.2, 0.4, 0.5]]), r"shape \(1, 3\) for 3 rows"),
        ],
        ids=["nan", "above_one", "negative", "short", "two_dim"],
    )
    def test_bad_output_raises(self, out, message):
        with pytest.raises(ModelOutputError, match=message):
            score_dataset(StubModel(out), self.d)
        with pytest.raises(ModelOutputError):
            predict_dataset(StubModel(out), self.d)

    def test_valid_output_passes_through(self):
        out = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(score_dataset(StubModel(out), self.d), out)


class TestPredictedLabels:
    def test_a_tie_at_one_half_goes_positive(self):
        # 0.5 - 2**-53 is the largest double below 0.5.
        labels = predicted_labels([0.0, 0.5 - 2**-53, 0.5, 1.0])
        assert labels.tolist() == [0, 0, 1, 1]
        assert labels.dtype == np.int64
