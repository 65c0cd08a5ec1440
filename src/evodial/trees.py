"""Extremely randomized tree ensembles, regression and classification.

Each tree is grown on the full sample set.  At every node a fixed number of
candidate splits is drawn: a random subset of the non-constant features, each
with one threshold drawn uniformly between that feature's node-local min and
max.  The candidate with the lowest weighted child impurity (variance for
regression, Gini for classification) wins; leaves store mean targets or class
proportions.  Splitting stops below ``n_min`` distinct samples or on pure
targets.

Trees actually grow on the deduplicated rows with multiplicity weights.
Uniformly duplicating the training set doubles every weight, and doubling is
exact in floating point, so every weighted statistic (and therefore the whole
seeded ensemble) is bit-identical on duplicated data.  Randomness is consumed
per node, never per sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EmptyTrainingSet(Exception):
    pass


class FeatureArityMismatch(Exception):
    pass


@dataclass
class _FlatTree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # (nodes,) regression, (nodes, classes) classification


def _apply(tree: _FlatTree, X: np.ndarray) -> np.ndarray:
    """Leaf index for every row; level-synchronous descent."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        rows = np.nonzero(feat >= 0)[0]
        if rows.size == 0:
            return node
        at = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])


def _dedup(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique (features, target) rows plus multiplicities, in first-seen order."""
    stacked = np.ascontiguousarray(np.column_stack([X, y.astype(np.float64)]))
    flat = stacked.view([("", stacked.dtype)] * stacked.shape[1]).ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    order = first[by_first]
    remap = np.empty(len(first), dtype=np.int64)  # sorted pos -> dense id
    remap[by_first] = np.arange(len(first))
    counts = np.bincount(remap[inverse], minlength=len(order)).astype(np.float64)
    return X[order], y[order], counts


def _grow(X: np.ndarray, y: np.ndarray, w: np.ndarray, k_features: int,
          n_min: int, rng: np.random.Generator,
          n_classes: int | None) -> _FlatTree:
    classify = n_classes is not None
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    values: list = []
    y_onehot = None
    if classify:
        y_onehot = np.zeros((len(y), n_classes))
        y_onehot[np.arange(len(y)), y] = 1.0

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        values.append(None)
        return len(feature) - 1

    def leaf_value(idx):
        wsub = w[idx]
        total = wsub.sum()
        if classify:
            return wsub @ y_onehot[idx] / total
        return float((wsub * y[idx]).sum() / total)

    def split_costs(idx, Xsub, feats, thresholds):
        """Weighted child impurity for every candidate in one matrix pass."""
        masks = Xsub[:, feats] <= thresholds  # (rows, candidates)
        wsub = w[idx]
        wm = wsub[:, None] * masks
        n_left = wm.sum(axis=0)
        n = wsub.sum()
        n_right = n - n_left
        if classify:
            counts_l = wm.T @ y_onehot[idx]  # (candidates, classes)
            counts_r = wsub @ y_onehot[idx] - counts_l
            gini_l = 1.0 - (counts_l ** 2).sum(axis=1) / n_left ** 2
            gini_r = 1.0 - (counts_r ** 2).sum(axis=1) / n_right ** 2
            return (n_left * gini_l + n_right * gini_r) / n, masks
        wy = wsub * y[idx]
        wy2 = wy * y[idx]
        sum_l = masks.T @ wy
        sum2_l = masks.T @ wy2
        var_l = sum2_l / n_left - (sum_l / n_left) ** 2
        var_r = (wy2.sum() - sum2_l) / n_right - \
            ((wy.sum() - sum_l) / n_right) ** 2
        return (n_left * var_l + n_right * var_r) / n, masks

    root = new_node()
    stack: list[tuple[int, np.ndarray]] = [(root, np.arange(len(y)))]
    while stack:
        node, idx = stack.pop()
        ysub = y[idx]
        pure = (ysub == ysub[0]).all()
        # idx holds distinct rows, so multiplicity cannot manufacture splits
        if len(idx) < n_min or pure:
            values[node] = leaf_value(idx)
            continue
        Xsub = X[idx]
        mins = Xsub.min(axis=0)
        maxs = Xsub.max(axis=0)
        usable = np.nonzero(maxs > mins)[0]
        if usable.size == 0:
            values[node] = leaf_value(idx)
            continue
        k = min(k_features, usable.size)
        candidates = rng.choice(usable, size=k, replace=False)
        lo, hi = mins[candidates], maxs[candidates]
        thresholds = lo + rng.random(k) * (hi - lo)
        # min + r*span can round up to max when the span is a few ulps; the
        # right child would then be empty.  min still splits off min's rows.
        thresholds = np.where(thresholds < hi, thresholds, lo)
        costs, masks = split_costs(idx, Xsub, candidates, thresholds)
        pick = int(costs.argmin())
        feature[node] = int(candidates[pick])
        threshold[node] = float(thresholds[pick])
        mask = masks[:, pick]
        lchild = new_node()
        rchild = new_node()
        left[node] = lchild
        right[node] = rchild
        # left-first depth-first order keeps rng consumption deterministic
        stack.append((rchild, idx[~mask]))
        stack.append((lchild, idx[mask]))

    if classify:
        value = np.zeros((len(feature), n_classes))
        for i, v in enumerate(values):
            if v is not None:
                value[i] = v
    else:
        value = np.array([v if v is not None else 0.0 for v in values])
    return _FlatTree(np.asarray(feature, dtype=np.int64),
                     np.asarray(threshold),
                     np.asarray(left, dtype=np.int64),
                     np.asarray(right, dtype=np.int64),
                     value)


def _default_k(n_features: int) -> int:
    return max(1, round(math.sqrt(n_features)))


class _Ensemble:
    def __init__(self, n_trees: int = 100, k_features: int | None = None,
                 n_min: int = 5, seed: int | tuple = 0):
        if n_trees < 1:
            raise ValueError("need at least one tree")
        if n_min < 2:
            raise ValueError("n_min must be >= 2")
        self.n_trees = n_trees
        self.k_features = k_features
        self.n_min = n_min
        self.seed = seed
        self._trees: list[_FlatTree] | None = None
        self._n_features: int | None = None

    def _seed_entropy(self, tree_index: int) -> list[int]:
        base = list(self.seed) if isinstance(self.seed, tuple) else [self.seed]
        return base + [tree_index]

    def _fit(self, X, y, n_classes):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise EmptyTrainingSet("need a non-empty 2-d sample matrix")
        if len(X) != len(y):
            raise FeatureArityMismatch("X and y lengths differ")
        self._n_features = X.shape[1]
        k = self.k_features or _default_k(X.shape[1])
        Xu, yu, w = _dedup(X, y)
        if n_classes is not None:
            yu = yu.astype(np.int64)
        self._trees = [
            _grow(Xu, yu, w, k, self.n_min,
                  np.random.default_rng(np.random.SeedSequence(self._seed_entropy(i))),
                  n_classes)
            for i in range(self.n_trees)
        ]
        return self

    def _check_input(self, X) -> np.ndarray:
        if self._trees is None:
            raise RuntimeError("ensemble is not fitted")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise FeatureArityMismatch(
                f"expected {self._n_features} features, got {X.shape}")
        return X


class ExtraTreesRegressor(_Ensemble):
    def fit(self, X, y) -> "ExtraTreesRegressor":
        y = np.ascontiguousarray(y, dtype=np.float64)
        return self._fit(X, y, None)

    def predict(self, X) -> np.ndarray:
        X = self._check_input(X)
        out = np.zeros(X.shape[0])
        for tree in self._trees:
            out += tree.value[_apply(tree, X)]
        return out / len(self._trees)


class ExtraTreesClassifier(_Ensemble):
    def fit(self, X, y, n_classes: int | None = None) -> "ExtraTreesClassifier":
        y = np.ascontiguousarray(y, dtype=np.int64)
        if len(y) and y.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        self.n_classes = n_classes if n_classes is not None else int(y.max()) + 1
        if len(y) and y.max() >= self.n_classes:
            raise ValueError("class label outside the declared range")
        return self._fit(X, y, self.n_classes)

    def predict_proba(self, X) -> np.ndarray:
        X = self._check_input(X)
        out = np.zeros((X.shape[0], self.n_classes))
        for tree in self._trees:
            out += tree.value[_apply(tree, X)]
        return out / len(self._trees)

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)
