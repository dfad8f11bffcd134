"""The one CART tree, shared by the forest surrogates and the toy bot.

On 0/1 labels a node with i rows and a positives has Gini cost 2·a(i−a)/i,
twice its sum of squared errors (SSE). So the SSE tree makes rpart's Gini
splits, its leaf means are class probabilities, and cp keeps its meaning.
"""

from __future__ import annotations

import numpy as np


class _CartReg:
    """Binary regression tree splitting on weighted variance reduction.

    Array-coded nodes (feature < 0 marks a leaf) so batch prediction is a
    short vectorized loop over depth. Leaf predictions are exact leaf means.
    A node splits when it is shallower than `max_depth`, holds `min_split`
    and 2 × `min_leaf` rows whose targets differ, and its best split (children
    of `min_leaf` rows or more) cuts the SSE by `cp` × the root SSE or more.
    """

    def __init__(self, min_leaf: int = 5, max_depth: int = 20, split_features: int = 0,
                 min_split: int = 0, cp: float = 0.0):
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.split_features = split_features  # 0 means all features
        self.min_split = min_split
        self.cp = cp

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._nodes: list[list] = []  # [feature, threshold, left, right, value] per node
        self._min_gain = self.cp * float((y * y).sum() - y.sum() ** 2 / y.size)  # cp x root SSE
        self._build(X, y, np.arange(X.shape[0]), 0, rng)
        feature, threshold, left, right, value = zip(*self._nodes)
        del self._nodes
        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.value = np.array(value)
        return self

    def _build(self, X, y, idx, depth, rng) -> int:
        y_node = y[idx]
        node = len(self._nodes)
        self._nodes.append([-1, 0.0, -1, -1, float(y_node.mean())])
        n = idx.size
        if (depth >= self.max_depth or n < max(self.min_split, 2 * self.min_leaf)
                or y_node.min() == y_node.max()):
            return node
        feats = range(X.shape[1])
        if self.split_features and rng is not None and self.split_features < len(feats):
            feats = np.sort(rng.choice(len(feats), size=self.split_features, replace=False))
        best = None  # (sse, feature, threshold, order, split_pos)
        for f in feats:
            order = np.argsort(X[idx, f], kind="stable")
            xs = X[idx[order], f]
            ys = y_node[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys * ys)
            total, total_sq = csum[-1], csq[-1]
            pos = np.arange(self.min_leaf, n - self.min_leaf + 1)
            pos = pos[xs[pos - 1] < xs[pos]]
            if pos.size == 0:
                continue
            left_sum, left_sq = csum[pos - 1], csq[pos - 1]
            right_sum, right_sq = total - left_sum, total_sq - left_sq
            sse = (left_sq - left_sum ** 2 / pos) + (right_sq - right_sum ** 2 / (n - pos))
            j = int(np.argmin(sse))
            if best is None or sse[j] < best[0]:
                i = int(pos[j])
                # halving first keeps the midpoint of values near the float maximum finite
                best = (float(sse[j]), int(f), xs[i - 1] / 2.0 + xs[i] / 2.0, order, i)
        # total and total_sq hold the node's sums; a split never raises the SSE,
        # so the clamp only drops rounding below zero
        if best is None or max(total_sq - total ** 2 / n - best[0], 0.0) < self._min_gain:
            return node
        _, f, thr, order, i = best
        self._nodes[node][:2] = f, thr
        self._nodes[node][2] = self._build(X, y, idx[order[:i]], depth + 1, rng)
        self._nodes[node][3] = self._build(X, y, idx[order[i:]], depth + 1, rng)
        return node

    def predict(self, X):
        pos = np.zeros(X.shape[0], dtype=np.int32)
        row_ids = np.arange(X.shape[0])
        for _ in range(self.max_depth + 1):
            feats = self.feature[pos]
            at_leaf = feats < 0
            if at_leaf.all():
                break
            go_left = X[row_ids, np.maximum(feats, 0)] <= self.threshold[pos]
            nxt = np.where(go_left, self.left[pos], self.right[pos])
            pos = np.where(at_leaf, pos, nxt)
        return self.value[pos]
