import hashlib

import numpy as np
import pytest

from evodial import default_ontology, default_template_text, parse_template
from evodial.batch_rl import (FittedQConfig, fit_action_classifier,
                              fitted_q_iteration)
from evodial.core import CORPUS_REWARDS
from evodial.corpus_io import ResamplePlan, resample_splits
from evodial.simulator import make_synthetic_corpus
from evodial.trees import (EmptyTrainingSet, ExtraTreesClassifier,
                           ExtraTreesRegressor, FeatureArityMismatch, _dedup)
from support import dedup_by_unique


def test_single_sample_predicts_constant():
    model = ExtraTreesRegressor(n_trees=10, seed=0).fit([[0.3, 0.7]], [4.2])
    grid = np.random.default_rng(0).random((20, 2))
    assert np.allclose(model.predict(grid), 4.2)


def test_identity_function_recovery():
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    y = x.ravel()
    model = ExtraTreesRegressor(n_trees=100, seed=1).fit(x, y)
    mse = float(np.mean((model.predict(x) - y) ** 2))
    assert mse <= 1e-2


def test_duplicated_dataset_gives_identical_predictions():
    rng = np.random.default_rng(2)
    X = rng.random((60, 4))
    y = rng.random(60)
    grid = rng.random((30, 4))
    base = ExtraTreesRegressor(n_trees=25, seed=7).fit(X, y).predict(grid)
    doubled = ExtraTreesRegressor(n_trees=25, seed=7).fit(
        np.vstack([X, X]), np.concatenate([y, y])).predict(grid)
    assert np.array_equal(base, doubled)


def test_dedup_matches_first_seen_loop():
    rng = np.random.default_rng(21)
    X = rng.integers(0, 3, (200, 2)).astype(np.float64)
    y = rng.integers(0, 2, 200).astype(np.float64)
    seen: dict[tuple, int] = {}
    for row, target in zip(X, y):
        key = (*row, target)
        seen[key] = seen.get(key, 0) + 1
    Xy, w = _dedup(X, y)
    assert [tuple(row) for row in Xy] == list(seen)
    assert w.tolist() == list(seen.values())


def test_dedup_matches_structured_unique_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # few distinct values, both zeros and one-ulp neighbours, so rows repeat
    values = st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), -2.5,
                              1e300, -1e-300])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(shape=st.tuples(st.integers(1, 40), st.integers(1, 4)),
                      data=st.data())
    def check(shape, data):
        n, f = shape
        X = np.array(data.draw(st.lists(values, min_size=n * f,
                                        max_size=n * f))).reshape(n, f)
        y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        got, want = _dedup(X, y), dedup_by_unique(X, y)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    check()


def test_fit_is_deterministic_per_seed():
    rng = np.random.default_rng(3)
    X = rng.random((80, 3))
    y = rng.random(80)
    grid = rng.random((20, 3))
    a = ExtraTreesRegressor(n_trees=15, seed=5).fit(X, y).predict(grid)
    b = ExtraTreesRegressor(n_trees=15, seed=5).fit(X, y).predict(grid)
    c = ExtraTreesRegressor(n_trees=15, seed=6).fit(X, y).predict(grid)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_regressor_interpolates_step_function():
    rng = np.random.default_rng(4)
    X = rng.random((300, 2))
    y = (X[:, 0] > 0.5).astype(float) * 10.0
    model = ExtraTreesRegressor(n_trees=60, seed=8).fit(X, y)
    pred = model.predict(np.array([[0.1, 0.5], [0.9, 0.5]]))
    assert pred[0] < 1.0 and pred[1] > 9.0


def test_classifier_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    X = rng.random((200, 3))
    y = (X[:, 0] * 3).astype(int).clip(0, 2)
    clf = ExtraTreesClassifier(n_trees=40, seed=9).fit(X, y)
    proba = clf.predict_proba(rng.random((50, 3)))
    assert proba.min() >= 0.0
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)


def test_classifier_learns_separable_labels():
    rng = np.random.default_rng(6)
    X = rng.random((400, 2))
    y = (X[:, 0] > 0.5).astype(int)
    clf = ExtraTreesClassifier(n_trees=50, seed=10).fit(X, y)
    X_test = rng.random((200, 2))
    acc = float((clf.predict(X_test) == (X_test[:, 0] > 0.5)).mean())
    assert acc >= 0.95


def test_empty_training_set_rejected():
    with pytest.raises(EmptyTrainingSet):
        ExtraTreesRegressor(n_trees=3).fit(np.zeros((0, 2)), np.zeros(0))


def test_feature_arity_checked_on_predict():
    model = ExtraTreesRegressor(n_trees=3, seed=0).fit([[0.0, 1.0]], [1.0])
    with pytest.raises(FeatureArityMismatch):
        model.predict(np.zeros((4, 3)))


def test_unfitted_predict_rejected():
    with pytest.raises(RuntimeError):
        ExtraTreesRegressor(n_trees=3).predict(np.zeros((1, 2)))


def test_constant_features_become_leaf():
    X = np.full((40, 3), 0.5)
    y = np.arange(40, dtype=float)
    model = ExtraTreesRegressor(n_trees=5, seed=1).fit(X, y)
    assert np.allclose(model.predict(X[:4]), y.mean())


def test_one_ulp_feature_span_splits_without_crash():
    # min + r * span rounds up to max for most draws when the span is one ulp
    X = [[1.0]] * 3 + [[np.nextafter(1.0, 2.0)]] * 3
    y = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    for seed in range(50):
        model = ExtraTreesRegressor(1, n_min=2, seed=seed).fit(X, y)
        assert np.array_equal(model.predict(X), y)


# ---------------------------------------------------------------------------
# Pinned tree bytes.  The digests below were recorded before the node kernel
# was rewritten; every later kernel must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _tree_digest(ensemble) -> str:
    h = hashlib.sha256()
    for tree in ensemble._trees:
        for name in ("feature", "threshold", "left", "right", "value"):
            h.update(getattr(tree, name).tobytes())
    return h.hexdigest()


def _pin_data():
    """Seeded rows with duplicates, a -0.0/0.0 column, twin binary columns
    (whose candidate costs tie), a one-ulp column and a coarse grid column."""
    rng = np.random.default_rng(2024)
    n = 240
    X = np.empty((n, 6))
    X[:, 0] = rng.random(n)
    X[:, 1] = rng.integers(0, 2, n)
    X[:, 2] = X[:, 1]
    X[:, 3] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    X[rng.random(n) < 0.3, 3] = 1.0
    X[:, 4] = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    X[:, 5] = rng.integers(0, 4, n) / 4.0
    y = np.round(3.0 * X[:, 0] + X[:, 1] - X[:, 5] + rng.normal(0, 0.3, n), 1)
    y[rng.random(n) < 0.2] = -0.0
    labels = (2 * X[:, 1] + (X[:, 5] > 0.4) + (X[:, 4] > 1.0)).astype(int) % 4
    dup = rng.integers(0, n, 80)
    X_dup = X[dup]
    X_dup[:, 3] = np.where(X_dup[:, 3] == 0.0, -X_dup[:, 3], X_dup[:, 3])
    y_dup = np.where(y[dup] == 0.0, -y[dup], y[dup])  # equal to y[dup]
    return (np.vstack([X, X_dup]), np.concatenate([y, y_dup]),
            np.concatenate([labels, labels[dup]]))


# (n_trees, k_features, n_min, seed): sha256 of every tree's arrays
PINNED_REGRESSION = {
    (3, None, 2, 0):
        "3586b1ddd28440034af77da0a340af2f819d1e0115f2fd18c5ed0e7a8b822aa9",
    (3, 1, 2, 1):
        "d7d22468434c4dcd33c40f209e35c99d080295a90feda7ab21d0bf3998d2d1ef",
    (2, 6, 5, 2):
        "b7235001d45bfa5e92fd363c285280e393552366418242efdb234c1194be62a7",
    (4, 3, 3, (4, 1)):
        "60d095b56e302fb24fe81ffb3f505fa71c1e5589ac9870ba4ea066466a24a877",
}
PINNED_CLASSIFICATION = {
    (3, None, 2, 0):
        "de4564a46d59d5b6fc2bc31aa14ae978fd9c1da5520b04e84e7b672dcb51417d",
    (3, 1, 2, 1):
        "419b170b59632493d01bce279ab5c9a71b00b76ab0d76be7e121bd2474275c2d",
    (2, 6, 5, 2):
        "128e98659265e93035b6ed96dbdc536679727d0ac9965750a4e865f0ad69ba08",
    (4, 3, 3, (4, 1)):
        "34157dcad71be62e8254d263493635e74766dff87382597281e5097792a42558",
}
# fitted-Q's last regressor and the behaviour classifier on a train split
PINNED_FQE_SPLIT = [
    "f622c2438e252f438562c7362c451b300032781115e14fed02aa567e9f60ea7f",
    "a1f549432214167168b4375d57a427117e5bde210190651b81f7b3acb99c822d",
]


@pytest.mark.parametrize("key", list(PINNED_REGRESSION))
def test_regression_tree_bytes_are_pinned(key):
    X, y, _ = _pin_data()
    n_trees, k, n_min, seed = key
    model = ExtraTreesRegressor(n_trees, k, n_min, seed=seed).fit(X, y)
    assert _tree_digest(model) == PINNED_REGRESSION[key]


@pytest.mark.parametrize("key", list(PINNED_CLASSIFICATION))
def test_classification_tree_bytes_are_pinned(key):
    X, _, labels = _pin_data()
    n_trees, k, n_min, seed = key
    model = ExtraTreesClassifier(n_trees, k, n_min, seed=seed).fit(X, labels)
    assert _tree_digest(model) == PINNED_CLASSIFICATION[key]


def test_fqe_sized_fit_on_a_synthetic_corpus_split_is_pinned():
    # the benchmark's FQE ensemble: 3 trees, n_min 6, on a train split
    ast = parse_template(
        default_template_text().replace("Offer(filter=p3)", "Offer"))
    corpus = make_synthetic_corpus(ast, (0.3, 0.8, 0.5), default_ontology(),
                                   60, seed=7, rewards=CORPUS_REWARDS,
                                   epsilon=0.25)
    train, _ = resample_splits(corpus, ResamplePlan(1, seed=3))[0]
    cfg = FittedQConfig(l_max=3, gamma=0.9, trees=3, n_min=6, seed=1)
    reg = fitted_q_iteration(train, cfg).regressor  # targets read q_matrix
    clf = fit_action_classifier(train, cfg)
    assert [_tree_digest(reg), _tree_digest(clf)] == PINNED_FQE_SPLIT


def test_empty_classification_set_rejected():
    with pytest.raises(EmptyTrainingSet):
        ExtraTreesClassifier(3).fit(np.zeros((0, 2)), np.zeros(0, int))


@pytest.mark.parametrize("X, y", [
    ([[0.0], [1.0], [2.0]], [0.0, np.nan, 1.0]),
    ([[0.0], [np.inf], [2.0]], [0.0, 1.0, 1.0]),
    ([[0.0], [np.nan], [2.0]], [0.0, 1.0, 1.0]),
    ([[0.0], [1.0], [2.0]], [0.0, -np.inf, 1.0]),
])
def test_non_finite_training_values_rejected(X, y):
    with pytest.raises(ValueError, match="finite"):
        ExtraTreesRegressor(3).fit(X, y)
    if np.isfinite(y).all():
        with pytest.raises(ValueError, match="finite"):
            ExtraTreesClassifier(3).fit(X, [0, 1, 1])


@pytest.mark.parametrize("labels", [[0.5, 1.7], [0, 1.5], [-1, 0]])
def test_non_integer_class_labels_rejected(labels):
    with pytest.raises(ValueError, match="non-negative integers"):
        ExtraTreesClassifier(3).fit([[0.0], [1.0]], labels)


def test_integral_float_class_labels_accepted():
    clf = ExtraTreesClassifier(3, n_min=2, seed=0).fit([[0.0], [1.0]],
                                                       [0.0, 1.0])
    assert clf.predict([[0.0], [1.0]]).tolist() == [0, 1]
