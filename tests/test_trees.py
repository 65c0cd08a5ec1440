import numpy as np
import pytest

from evodial.trees import (EmptyTrainingSet, ExtraTreesClassifier,
                           ExtraTreesRegressor, FeatureArityMismatch, _dedup)


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
    Xu, yu, w = _dedup(X, y)
    assert [(*row, target) for row, target in zip(Xu, yu)] == list(seen)
    assert w.tolist() == list(seen.values())


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
