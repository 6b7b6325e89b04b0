"""Gradient-boosted regression trees, squared loss, fully deterministic.

Small by design: depth-capped exact greedy trees, no subsampling, no
randomness, so identical data always yields identical models. The split
search is batched across features on presorted index matrices, and the
presort is shared across boosting rounds since every round fits the same
rows. Every leaf may hold a single row.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1


class RegressionTree:
    """Exact greedy CART regression tree on dense float features."""

    def __init__(self, max_depth: int = 3):
        self.max_depth = max_depth
        # parallel node arrays; children index into the same arrays
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self._arrays = None
        self._train_pred = None

    def _new_node(self, value: float) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        return len(self.value) - 1

    def _best_split(self, X, y, order):
        """Best (feature, threshold) by SSE over the node's presorted
        index matrix ``order`` (features x samples), or None.

        Ties resolve to the lowest feature index, then the earliest split
        position, keeping fits deterministic.
        """
        d, n = order.shape
        if n < 2:
            return None
        Xs = np.take_along_axis(X.T, order, axis=1)
        ys = y[order]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys * ys, axis=1)
        total_sum = csum[:, -1:]
        total_sq = csq[:, -1:]
        ks = np.arange(1, n, dtype=np.float64)
        left_sum = csum[:, :-1]
        left_sq = csq[:, :-1]
        sse = (left_sq - left_sum * left_sum / ks) + (
            (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (n - ks)
        )
        valid = Xs[:, :-1] < Xs[:, 1:]
        if not valid.any():
            return None
        sse = np.where(valid, sse, np.inf)
        flat = int(np.argmin(sse))
        j, pos = divmod(flat, sse.shape[1])
        thr = 0.5 * (float(Xs[j, pos]) + float(Xs[j, pos + 1]))
        return float(sse[j, pos]), int(j), thr

    def fit(self, X: np.ndarray, y: np.ndarray, base_order: np.ndarray | None = None):
        """Fit and return the tree's predictions on the training rows."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if base_order is None:
            base_order = np.argsort(X, axis=0, kind="mergesort").T
        self._train_pred = np.empty(y.size)
        self._grow(X, y, base_order, depth=0)
        self._freeze()
        return self._train_pred

    def _grow(self, X, y, order, depth: int) -> int:
        rows = order[0]
        n = rows.size
        mean = float(y[rows].mean()) if n else 0.0
        node = self._new_node(mean)
        if depth >= self.max_depth or n < 2:
            self._train_pred[rows] = mean
            return node
        split = self._best_split(X, y, order)
        if split is None:
            self._train_pred[rows] = mean
            return node
        sse, j, thr = split
        node_sse = float(np.sum((y[rows] - mean) ** 2))
        if not sse < node_sse - 1e-12:  # no real improvement
            self._train_pred[rows] = mean
            return node
        go_left = X[:, j] <= thr
        mask = go_left[order]
        n_left = int(mask[0].sum())
        left_order = order[mask].reshape(order.shape[0], n_left)
        right_order = order[~mask].reshape(order.shape[0], n - n_left)
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self._grow(X, y, left_order, depth + 1)
        self.right[node] = self._grow(X, y, right_order, depth + 1)
        return node

    def _freeze(self):
        self._arrays = (
            np.asarray(self.feature, dtype=np.intp),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.intp),
            np.asarray(self.right, dtype=np.intp),
            np.asarray(self.value, dtype=np.float64),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        feature, threshold, left, right, value = self._arrays
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        for _ in range(self.max_depth):
            f = feature[node]
            internal = f != _LEAF
            if not internal.any():
                break
            fx = X[rows, np.where(internal, f, 0)]
            go_left = fx <= threshold[node]
            nxt = np.where(go_left, left[node], right[node])
            node = np.where(internal, nxt, node)
        return value[node]


class GradientBoostedRegressor:
    """Least-squares boosting of shallow regression trees."""

    def __init__(self, n_trees: int = 50, max_depth: int = 3,
                 learning_rate: float = 0.1):
        if n_trees < 1 or n_trees > 50:
            raise ValueError("n_trees must be in [1, 50]")
        if max_depth < 1 or max_depth > 3:
            raise ValueError("max_depth must be in [1, 3]")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.base: float = 0.0
        self.trees: list[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.base = float(y.mean())
        self.trees = []
        base_order = np.argsort(X, axis=0, kind="mergesort").T
        pred = np.full(y.shape, self.base)
        for _ in range(self.n_trees):
            residual = y - pred
            if float(np.max(np.abs(residual))) < 1e-14:
                break
            tree = RegressionTree(max_depth=self.max_depth)
            train_pred = tree.fit(X, residual, base_order)
            pred = pred + self.learning_rate * train_pred
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        pred = np.full(X.shape[0], self.base)
        for tree in self.trees:
            pred = pred + self.learning_rate * tree.predict(X)
        return pred
