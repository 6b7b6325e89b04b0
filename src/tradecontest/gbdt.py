"""Gradient-boosted regression trees, squared loss, fully deterministic.

Small by design: least-squares boosting (Friedman, 2001) of depth-capped
exact greedy trees, no subsampling, no randomness, so identical data
always yields identical models. Every leaf may hold a single row.

A fit costs numpy passes over (features x rows) arrays, so the code keeps
their number per node low. Every boosting round fits the same rows, so an
ensemble sorts them once per feature, and each tree's root starts from
that index matrix, the sorted values and the mask of tied neighbours. A
node's search gathers y and y*y in each feature's order, takes two
cumulative sums and evaluates the SSE of every split position in place.
A split partitions the index matrix and the sorted values with one
boolean mask, so no node sorts or gathers X again, and children that will
be leaves get only the row set they read. The SSE is the same expression,
evaluated in the same order, as the plain search kept as a reference in
``tests/test_prediction.py``: every split, threshold and leaf value is
bit-identical to it.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1


def _presort(X: np.ndarray):
    """What every tree of an ensemble reads of its training rows ``X``: the
    feature-major copy of ``X``, each feature's stable sort of the rows as
    an index matrix (features x rows), the sorted values in the same
    layout, and where adjacent sorted values tie (no split falls there)."""
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(X, axis=0, kind="mergesort").T
    Xs = np.take_along_axis(Xt, order, axis=1)
    return Xt, order, Xs, _tied(Xs)


def _tied(Xs: np.ndarray) -> np.ndarray:
    return ~(Xs[:, :-1] < Xs[:, 1:])


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

    def _new_node(self, value: float) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        return len(self.value) - 1

    def fit(self, presort, y: np.ndarray) -> np.ndarray:
        """Fit to ``y`` on the rows that ``presort`` (``_presort(X)``)
        describes, and return the tree's predictions on those rows."""
        Xt, order, Xs, tied = presort
        pred = np.empty(y.size)
        # k and n - k of every split position are slices of one arange
        counts = np.arange(y.size + 1, dtype=np.float64)
        self._grow((Xt, y, y * y, counts, pred), order, Xs, tied, depth=0)
        return pred

    @staticmethod
    def _best_split(y, y2, counts, order, Xs, tied):
        """Best (SSE, feature, threshold) over the node's presorted index
        matrix ``order`` and sorted values ``Xs`` (features x rows). A
        position between tied values has SSE inf, so when every position
        ties the SSE returned is inf.

        Ties resolve to the lowest feature index, then the earliest split
        position, keeping fits deterministic. Its temporaries are freed
        when it returns, before the node recurses.
        """
        n = order.shape[1]
        csum = y[order].cumsum(axis=1)
        csq = y2[order].cumsum(axis=1)
        left_sum = csum[:, :-1]
        left_sq = csq[:, :-1]
        # (left_sq - left_sum**2 / k) + ((total_sq - left_sq) - right_sum**2 / (n - k)),
        # in place but in this order, so every bit matches that expression
        sse = left_sum * left_sum
        sse /= counts[1:n]
        np.subtract(left_sq, sse, out=sse)
        right = csum[:, -1:] - left_sum
        right *= right
        right /= counts[n - 1:0:-1]
        right_sq = csq[:, -1:] - left_sq
        right_sq -= right
        sse += right_sq
        np.copyto(sse, np.inf, where=tied)
        j, pos = divmod(int(sse.argmin()), n - 1)
        return float(sse[j, pos]), j, 0.5 * (float(Xs[j, pos]) + float(Xs[j, pos + 1]))

    def _grow(self, data, order, Xs, tied, depth: int) -> int:
        """Grow the subtree of the rows in ``order``; ``tied`` is
        ``_tied(Xs)`` when the caller already has it, else None."""
        _, y, y2, counts, pred = data
        rows = order[0]
        n = rows.size
        y_node = y[rows]
        # the sum and divide of ndarray.mean, without its Python wrapper
        mean = float(np.add.reduce(y_node) / n) if n else 0.0
        node = self._new_node(mean)
        if depth < self.max_depth and n >= 2:
            sse, j, thr = self._best_split(
                y, y2, counts, order, Xs, _tied(Xs) if tied is None else tied)
            dev = y_node - mean
            dev *= dev
            if sse < float(np.add.reduce(dev)) - 1e-12:  # a real improvement
                self._split(node, data, order, Xs, j, thr, depth)
                return node
        pred[rows] = mean
        return node

    def _split(self, node: int, data, order, Xs, j: int, thr: float, depth: int):
        """Split ``node`` on feature ``j`` at ``thr`` and grow both children."""
        if depth + 1 == self.max_depth:  # the children are leaves: they read only order[0]
            order, Xs = order[:1], Xs[:1]
        Xt = data[0]
        d, n = order.shape
        mask = (Xt[j] <= thr)[order]
        left = order[mask]
        n_left = left.size // d
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self._grow(
            data, left.reshape(d, n_left), Xs[mask].reshape(d, n_left), None, depth + 1)
        mask = ~mask
        self.right[node] = self._grow(
            data, order[mask].reshape(d, n - n_left), Xs[mask].reshape(d, n - n_left), None,
            depth + 1)


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
        self._pack()

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.base = float(y.mean())
        self.trees = []
        presort = _presort(X)
        pred = np.full(y.shape, self.base)
        for _ in range(self.n_trees):
            residual = y - pred
            if float(np.max(np.abs(residual))) < 1e-14:
                break
            tree = RegressionTree(max_depth=self.max_depth)
            train_pred = tree.fit(presort, residual)
            pred = pred + self.learning_rate * train_pred
            self.trees.append(tree)
        self._pack()
        return self

    def _pack(self):
        """One flat set of node arrays for all trees. A tree's child indices
        are offset by where its nodes start, and a leaf is its own left and
        right child on feature 0, so every row walks every tree at once."""
        roots, feature, left, right, threshold, value = [], [], [], [], [], []
        for tree in self.trees:
            start = len(value)
            roots.append(start)
            for k, f in enumerate(tree.feature):
                leaf = f == _LEAF
                feature.append(0 if leaf else f)
                left.append(start + (k if leaf else tree.left[k]))
                right.append(start + (k if leaf else tree.right[k]))
            threshold += tree.threshold
            value += tree.value
        self._nodes = (np.asarray(roots, dtype=np.intp), np.asarray(feature, dtype=np.intp),
                       np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp),
                       np.asarray(threshold, dtype=np.float64),
                       np.asarray(value, dtype=np.float64))

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        roots, feature, left, right, threshold, value = self._nodes
        rows = np.arange(X.shape[0])
        node = np.repeat(roots[:, None], X.shape[0], axis=1)  # trees x rows
        for _ in range(self.max_depth):
            go_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        # added tree by tree, as a loop over the trees' own predictions would
        pred = np.full(X.shape[0], self.base)
        for v in value[node]:
            pred = pred + self.learning_rate * v
        return pred
