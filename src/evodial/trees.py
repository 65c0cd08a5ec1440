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

Exactness rules for the node kernel.  Every tree array of a seeded fit must
stay bit-identical across kernel changes, so each node draws in the same
depth-first order (candidate features by ``rng.choice``, then thresholds by
``rng.random``), and:

* weight sums and class counts are order-free: the weights are integer
  multiplicities, so node totals, the left/right totals, leaf totals and the
  classifier's class counts are exact integers however they are summed, and
  a child's total may be carried from its parent's pick;
* elementwise products are the same before or after a gather, so ``w * y``
  and ``w * y * y`` (``w * onehot`` for the classifier) are formed once per
  tree;
* the regression sums are not order-free: ``masks.T @ wy`` and
  ``masks.T @ wy2`` keep their operands (the boolean ``(rows, candidates)``
  mask, which ``Xsub[:, candidates]`` makes F-ordered, so that ``masks.T``
  is C-contiguous, and contiguous per-node gathers), and the node and leaf
  sums of ``wy`` stay numpy's pairwise ``add.reduce`` of those gathers;
  other layouts or groupings (``reduceat``, stacked matmuls) flip bits;
* candidate thresholds (``lo + u * (hi - lo)``, or ``lo`` where that
  reaches ``hi``) and candidate costs repeat numpy's elementwise operations
  in Python floats (``x * x`` for ``x ** 2``), and the pick is ``argmin``'s
  first minimum;
* prediction only compares, so rows may be routed in any grouping, while
  each row keeps its tree-by-tree ``+=`` order.  One descent routes every
  (tree, row) pair of an ensemble through its trees packed into one set of
  node arrays (``_mean_leaf_value``); the leaf values are then added one
  tree at a time.
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


# Levels a descent takes between two compactions of its unfinished
# (tree, row) pairs; a pair that reaches a leaf stays there meanwhile.
_LEVELS_PER_SWEEP = 6
# (tree, row) pairs per descent: a descent holds about ten arrays of its
# pair count, so this bounds its memory whatever the tree and row counts.
_PAIRS_PER_DESCENT = 8192


def _mean_leaf_value(trees: list[_FlatTree], X: np.ndarray) -> np.ndarray:
    """Each row's leaf values summed tree by tree, over the tree count.

    The trees are packed into one set of node arrays, so that one
    level-synchronous descent routes every (tree, row) pair.  ``child``
    holds each node's right, then left child, indexed by ``x <= threshold``
    (NaN compares false and goes right, as in a per-tree descent).  Both
    children of a leaf are the leaf itself, so a pair that reached one
    stays there whatever its comparison (feature -1 reads another value of
    ``X``).  The packing is redone per call, so a fitted ensemble holds its
    nodes once.  The rows descend in blocks of ``_PAIRS_PER_DESCENT``
    pairs.  ``X`` must be C-contiguous.
    """
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "left", "right", "value"))
    leaf = feature < 0
    shift = np.repeat(roots, sizes)
    child = np.column_stack([right + shift, left + shift])
    child[leaf] = np.arange(len(leaf))[leaf, None]
    child = child.ravel()

    n, width = X.shape
    flat = X.ravel()
    out = np.zeros((n,) + value.shape[1:])
    step = max(1, _PAIRS_PER_DESCENT // len(trees))
    for start in range(0, n, step):
        rows = min(step, n - start)
        node = np.repeat(roots, rows)
        pairs = np.flatnonzero(~leaf[node])
        at = node[pairs]
        offset = (start + pairs % rows) * width  # of each pair's row in flat
        while pairs.size:
            for _ in range(_LEVELS_PER_SWEEP):
                go_left = flat[offset + feature[at]] <= threshold[at]
                at = child[2 * at + go_left]
            node[pairs] = at
            live = ~leaf[at]
            pairs, at, offset = pairs[live], at[live], offset[live]
        block = out[start:start + rows]
        for leaves in node.reshape(len(trees), rows):
            block += value[leaves]
    return out / len(trees)


def _dedup(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows of ``[X | y]`` (the target as the last column) plus
    their multiplicities, in first-seen order.

    Rows group by float equality (``-0.0`` joins ``0.0``); each group keeps
    its first row.  A stable sort puts every group in one run, first row
    first.
    """
    stacked = np.column_stack([X, y]).astype(np.float64, copy=False)
    order = np.lexsort(stacked.T)
    ordered = stacked[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.logical_or.reduce(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    del ordered
    bounds = starts.nonzero()[0]
    counts = np.diff(bounds, append=len(order)).astype(np.float64)
    first = order[bounds]
    by_first = first.argsort()
    return stacked[first[by_first]], counts[by_first]


def _grow(Xy: np.ndarray, w: np.ndarray, k_features: int, n_min: int,
          rng: np.random.Generator, n_classes: int | None) -> _FlatTree:
    """One tree on the distinct rows ``Xy`` (targets in the last column, so
    that one min/max pass also finds pure nodes) with weights ``w``."""
    classify = n_classes is not None
    minimum, maximum, add = np.minimum.reduce, np.maximum.reduce, np.add.reduce
    y = Xy[:, -1]
    if classify:
        # per-row weighted one-hot labels; every class count is an integer
        wy = np.zeros((len(y), n_classes))
        wy[np.arange(len(y)), y.astype(np.int64)] = w
        root = add(wy)
    else:
        wy = w * y
        wy2 = wy * y
        root = None
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    values: list[float] = [0.0]  # regression leaves
    leaves: list[int] = []  # classification leaves and their proportions
    proportions: list[np.ndarray] = []
    # (node, distinct rows, their total weight, class counts)
    stack = [(0, np.arange(len(y)), float(add(w)), root)]
    while stack:
        node, idx, n, counts = stack.pop()
        # idx holds distinct rows, so multiplicity cannot manufacture splits
        if len(idx) >= n_min:
            Xsub = Xy[idx]
            mins = minimum(Xsub)
            maxs = maximum(Xsub)
            spread = maxs > mins
            usable = spread[:-1].nonzero()[0]
            if spread[-1] and usable.size:
                k = min(k_features, usable.size)
                candidates = rng.choice(usable, size=k, replace=False)
                chosen = candidates.tolist()
                lows, highs = mins.tolist(), maxs.tolist()
                thresholds = []
                for f, u in zip(chosen, rng.random(k).tolist()):
                    lo, hi = lows[f], highs[f]
                    t = lo + u * (hi - lo)
                    # min + r*span can round up to max when the span is a
                    # few ulps; the right child would then be empty.  min
                    # still splits off min's rows.
                    thresholds.append(t if t < hi else lo)
                masks = Xsub[:, candidates] <= thresholds  # (rows, candidates)
                if classify:
                    counts_l = masks.T @ wy[idx]  # (candidates, classes)
                    counts_r = counts - counts_l
                    n_left = add(counts_l, axis=1)
                    sq_l = add(counts_l * counts_l, axis=1)
                    sq_r = add(counts_r * counts_r, axis=1)
                    pick = _pick_gini(n_left.tolist(), sq_l.tolist(),
                                      sq_r.tolist(), n)
                    child_counts = counts_l[pick], counts_r[pick]
                else:
                    n_left = w[idx] @ masks
                    wy_sub, wy2_sub = wy[idx], wy2[idx]
                    pick = _pick_variance(n_left.tolist(),
                                          (masks.T @ wy_sub).tolist(),
                                          (masks.T @ wy2_sub).tolist(), n,
                                          float(add(wy_sub)),
                                          float(add(wy2_sub)))
                    child_counts = None, None
                feature[node] = chosen[pick]
                threshold[node] = thresholds[pick]
                lchild = len(feature)
                left[node] = lchild
                right[node] = lchild + 1
                feature += (-1, -1)
                threshold += (0.0, 0.0)
                left += (-1, -1)
                right += (-1, -1)
                values += (0.0, 0.0)
                mask = masks[:, pick]
                n_l = float(n_left[pick])
                # left-first depth-first order keeps rng consumption
                # deterministic
                stack.append((lchild + 1, idx[~mask], n - n_l,
                              child_counts[1]))
                stack.append((lchild, idx[mask], n_l, child_counts[0]))
                continue
        if classify:
            leaves.append(node)
            proportions.append(counts / n)
        else:
            values[node] = float(add(wy[idx])) / n

    if classify:
        value = np.zeros((len(feature), n_classes))
        value[leaves] = proportions
    else:
        value = np.array(values)
    return _FlatTree(np.asarray(feature, dtype=np.int64),
                     np.asarray(threshold),
                     np.asarray(left, dtype=np.int64),
                     np.asarray(right, dtype=np.int64),
                     value)


def _pick_variance(n_left, sum_l, sum2_l, n, total, total2) -> int:
    """Index of the candidate with the least weighted child variance.

    Each cost repeats the elementwise numpy expression of the weighted
    variances in Python floats (``x * x`` for numpy's ``x ** 2``), and the
    pick is ``argmin``'s: the first NaN (``w * y * y`` can overflow to
    infinity), else the first minimum.
    """
    best, pick = math.inf, 0
    for j, (nl, sl, s2l) in enumerate(zip(n_left, sum_l, sum2_l)):
        nr = n - nl
        ml = sl / nl
        mr = (total - sl) / nr
        cost = (nl * (s2l / nl - ml * ml)
                + nr * ((total2 - s2l) / nr - mr * mr)) / n
        if cost < best:
            best, pick = cost, j
        elif cost != cost:
            return j
    return pick


def _pick_gini(n_left, sq_l, sq_r, n) -> int:
    """Index of the candidate with the least weighted child Gini impurity
    (``sq_*``: sums of squared class counts), the first on ties.  The
    counts are integers and both children non-empty, so no cost is NaN."""
    best, pick = math.inf, 0
    for j, (nl, sl, sr) in enumerate(zip(n_left, sq_l, sq_r)):
        nr = n - nl
        cost = (nl * (1.0 - sl / (nl * nl)) + nr * (1.0 - sr / (nr * nr))) / n
        if cost < best:
            best, pick = cost, j
    return pick


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

    def _fit(self, X, y, classify: bool, n_classes: int | None = None):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise EmptyTrainingSet("need a non-empty 2-d sample matrix")
        if y.ndim != 1 or len(X) != len(y):
            raise FeatureArityMismatch("need one target per sample row")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("samples and targets must be finite")
        if classify:
            if (y != np.floor(y)).any() or y.min() < 0:
                raise ValueError("class labels must be non-negative integers")
            self.n_classes = n_classes if n_classes is not None \
                else int(y.max()) + 1
            if y.max() >= self.n_classes:
                raise ValueError("class label outside the declared range")
        self._n_features = X.shape[1]
        k = self.k_features or _default_k(X.shape[1])
        Xy, w = _dedup(X, y)
        self._trees = [
            _grow(Xy, w, k, self.n_min,
                  np.random.default_rng(np.random.SeedSequence(self._seed_entropy(i))),
                  self.n_classes if classify else None)
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
        return self._fit(X, y, False)

    def predict(self, X) -> np.ndarray:
        return _mean_leaf_value(self._trees, self._check_input(X))


class ExtraTreesClassifier(_Ensemble):
    def fit(self, X, y, n_classes: int | None = None) -> "ExtraTreesClassifier":
        return self._fit(X, y, True, n_classes)

    def predict_proba(self, X) -> np.ndarray:
        return _mean_leaf_value(self._trees, self._check_input(X))

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)
