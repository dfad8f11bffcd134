"""The one CART grower, shared by the forest surrogates and the toy bot.

On 0/1 labels a node with i rows and a positives has Gini cost 2·a(i−a)/i,
twice its sum of squared errors (SSE). So the SSE tree makes rpart's Gini
splits, its leaf means are class probabilities, and cp keeps its meaning.

`grow` fits many trees at once, each on its own sample of rows: the
bootstraps of a forest, the training sets of CV folds, or one tree. It
steps every tree in lockstep: in a step each tree visits its next nodes in
preorder (left subtree before right) up to one that needs a split search.
So a tree that subsamples features draws its subsets from its own
generator in the same order as a tree grown alone, and every tree is
bit-identical to the tree grown alone. The split searches of a step run
at once on padded (nodes, features, rows) arrays: a stable argsort and a
`cumsum` along the rows give each node the prefix sums, and so the
rounding and the tie order, of a search over that node's rows alone.

The grown trees are array-coded (`_Trees`): the node arrays of all trees
concatenated in tree order, children as indices into them, one root per
tree. A leaf has feature −1; every node keeps the mean of its rows. These
arrays are the fitted model: `_Trees(**trees.arrays())` rebuilds it, and
`_Trees.predict`, the mean over the trees of each row's leaf value, makes
one tree or a forest a regressor.

The split thresholds of each column cut the feature space into cells, and
trees are constant on each cell: rows in one cell reach the same leaf in
every tree. `_Trees.predict` therefore walks the first row of each distinct
cell of a batch and gives its sum to the cell's other rows, which is
bit-identical to walking them all. A random search draws many candidates
into few cells (a one-parameter slice falls into at most one cell per
interval between that column's thresholds), so most rows are never walked.
The thresholds are derived from the node arrays, not stored with them.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

_GROW_CHUNK = 1 << 14  # elements of one padded (nodes, features, rows) search block
_PREDICT_CHUNK = 1 << 13  # (tree, row) pairs walked at once


class _Trees:
    """Array-coded trees: concatenated node arrays and one root per tree.

    The arrays must code trees in preorder: equal lengths, roots that
    strictly increase and lie in range, the children of each inner node
    after it and before the next tree's root, and no NaN threshold at an
    inner node. So every walk ends within its tree's nodes, and arrays read
    from outside (a cache file) raise ValueError rather than loop.
    """

    def __init__(self, feature, threshold, left, right, value, roots):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=float)
        self.roots = np.asarray(roots, dtype=np.int32)
        nodes = self.feature.shape
        if self.roots.ndim != 1 or self.roots.size == 0:
            raise ValueError("trees need a flat array of at least one root")
        if len(nodes) != 1 or any(getattr(self, name).shape != nodes
                                  for name in ("threshold", "left", "right", "value")):
            raise ValueError("node arrays must be flat and of one length")
        if self.roots[0] < 0 or self.roots[-1] >= nodes[0] or np.any(np.diff(self.roots) <= 0):
            raise ValueError("roots must strictly increase and index the nodes")
        inner = np.flatnonzero(self.feature >= 0)
        # the end of each inner node's tree: the next tree's root, or the node count
        end = np.append(self.roots[1:], nodes[0])[np.searchsorted(self.roots, inner,
                                                                   side="right") - 1]
        for child in (self.left[inner], self.right[inner]):
            if np.any((child <= inner) | (child >= end)):
                raise ValueError("children must follow their node within its tree")
        if np.any(np.isnan(self.threshold[inner])):
            raise ValueError("inner nodes need thresholds that are not NaN")

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name)
                for name in ("feature", "threshold", "left", "right", "value", "roots")}

    @functools.cached_property
    def _cuts(self) -> list[tuple[int, np.ndarray]]:
        """(column, its sorted distinct thresholds) for each column some node splits on."""
        inner = self.feature >= 0
        pairs = np.unique(np.column_stack([self.feature[inner], self.threshold[inner]]), axis=0)
        columns, starts = np.unique(pairs[:, 0], return_index=True)
        return list(zip(columns.astype(int).tolist(), np.split(pairs[:, 1], starts[1:])))

    def leaves(self, X: np.ndarray, trees: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The leaf that row `rows[i]` of `X` reaches in tree `trees[i]`, for every i.

        Only the (tree, row) pairs still at an inner node take another step.
        """
        flat, offset = X.ravel(), rows * X.shape[1]
        node = self.roots[trees]
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            go_left = flat[offset[active] + self.feature[at]] <= self.threshold[at]
            node[active] = at = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[at] >= 0]
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean over the trees of each row's leaf value, summed in tree order.

        The thresholds of a column (its cuts) cut its axis into intervals,
        and the cuts of all columns cut the feature space into cells. Two rows
        in one cell take the same side of every threshold, so they reach the
        same leaf in every tree: only the first row of each distinct cell is
        walked, and its sum is given to every row of the cell. A row's
        interval on a column is the number of cuts below its value
        (`searchsorted`, left side), since a row goes left at a node when its
        value is at most the threshold; NaN sorts above every cut and, like
        +inf, goes right everywhere, and -0.0 compares as 0.0. So the result
        is bit-identical to walking every row.

        The sum starts from 0.0 and adds one tree at a time, as a loop over
        the trees would, so a leaf of -0.0 predicts +0.0. At most
        `_PREDICT_CHUNK` (tree, row) pairs are walked at once.
        """
        X = np.ascontiguousarray(X, dtype=float)
        n_trees, n = self.roots.size, X.shape[0]
        # each row's cell, numbered densely after each column, and the first row of each cell
        cell = np.zeros(n, dtype=np.intp)
        for column, cuts in self._cuts:
            cell = np.unique(cell * (cuts.size + 1) + np.searchsorted(cuts, X[:, column]),
                             return_inverse=True)[1]
        first = np.unique(cell, return_index=True)[1]
        sums = np.empty(first.size)
        step = max(1, _PREDICT_CHUNK // n_trees)
        for start in range(0, first.size, step):
            rows = first[start:start + step]
            trees = np.repeat(np.arange(n_trees), rows.size)
            vals = self.value[self.leaves(X, trees, np.tile(rows, n_trees))]
            vals = vals.reshape(n_trees, rows.size)
            vals[0] += 0.0  # the sum's 0.0 start: a -0.0 leaf adds as +0.0
            sums[start:start + rows.size] = np.cumsum(vals, axis=0)[-1]
        return (sums / n_trees)[cell]


def grow(
    X: np.ndarray,
    y: np.ndarray,
    samples: Sequence[np.ndarray],
    rngs: Optional[Sequence[np.random.Generator]] = None,
    *,
    min_leaf: int = 5,
    max_depth: int = 20,
    split_features: int = 0,
    min_split: int = 0,
    cp: float = 0.0,
) -> _Trees:
    """Grow one regression tree per sample of rows of (X, y), in lockstep.

    Tree t is fit on rows `samples[t]`, in that order and with repeats. A
    node splits when it is shallower than `max_depth`, holds `min_split`
    and 2 × `min_leaf` rows whose targets differ, and its best split
    (children of `min_leaf` rows or more, cut at the halved midpoint of
    two neighbouring distinct values) cuts the SSE by `cp` × the tree's
    root SSE or more; the first best (feature, position) wins. The cut is
    measured against the node sums of the last feature searched. With
    `rngs` and 0 < `split_features` < columns, each splitting node searches
    `split_features` columns drawn from its tree's generator.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    cols = X.shape[1]
    ranks = _ranks(X)
    X_padded = np.vstack([X, np.full((1, cols), np.nan)])
    y_padded = np.append(y, 0.0)
    subsample = bool(split_features) and rngs is not None and split_features < cols
    every_column = np.arange(cols)
    min_rows = max(min_split, 2 * min_leaf)
    # the nodes of all trees in visit order, as flat lists of numbers: many
    # small lists alive for the whole fit would cost the garbage collector
    owner, feature, threshold, left, right, value = [], [], [], [], [], []
    # per tree, the nodes still to visit, next on top:
    # (rows, depth, parent, side, mean of y over rows, whether to search a split)
    stacks = []
    min_gain = []
    for sample in samples:
        rows = np.asarray(sample, dtype=np.intp)
        ys = y[rows]
        min_gain.append(cp * float((ys * ys).sum() - ys.sum() ** 2 / ys.size))
        search = max_depth > 0 and rows.size >= min_rows and ys.min() != ys.max()
        # np.add.reduce(ys) / n is ys.mean(), without the call overhead
        stacks.append([(rows, 0, -1, 0, float(np.add.reduce(ys) / rows.size), search)])
    live = list(range(len(samples)))
    while live:
        splitting = []  # (tree, node, rows, depth)
        columns = []
        for t in live:
            stack = stacks[t]
            while stack:  # visit nodes up to the next one that searches a split
                rows, depth, parent, side, mean, search = stack.pop()
                if parent >= 0:
                    (right if side else left)[parent] = len(owner)
                owner.append(t)
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(mean)
                if search:
                    splitting.append((t, len(owner) - 1, rows, depth))
                    if subsample:
                        drawn = rngs[t].choice(cols, size=split_features, replace=False)
                        drawn.sort()
                        columns.append(drawn)
                    else:
                        columns.append(every_column)
                    break
        if not splitting:
            break
        size = np.array([rows.size for _, _, rows, _ in splitting])
        columns = np.array(columns)
        # largest nodes first, so that each block pads its rows to a near width
        by_size, start = np.argsort(-size, kind="stable"), 0
        while start < by_size.size:
            chosen = by_size[start:start + max(1, _GROW_CHUNK // (columns.shape[1]
                                                                   * size[by_size[start]]))]
            start += chosen.size
            batch = [splitting[s] for s in chosen]
            (found, column, at, cut_at, sorted_y, sorted_rows, tot, tot_sq, sse,
             left_constant, right_constant) = _best_splits(
                X_padded, ranks, y_padded, batch, size[chosen], columns[chosen], min_leaf)
            for c, (t, node, rows, depth) in enumerate(batch):
                if not found[c]:
                    continue
                n = rows.size
                # the cut is never below 0, so only a bar above 0 (cp > 0) can refuse it;
                # the node sums are numpy scalars, squared as numpy squares a scalar
                if min_gain[t] > 0 and max(tot_sq[c] - tot[c] ** 2 / n - sse[c], 0.0) < min_gain[t]:
                    continue
                i = at[c]
                feature[node], threshold[node] = column[c], cut_at[c]
                deeper = depth + 1 < max_depth
                stacks[t].append((sorted_rows[c, i:n].copy(), depth + 1, node, 1,
                                  float(np.add.reduce(sorted_y[c, i:n]) / (n - i)),
                                  deeper and n - i >= min_rows and not right_constant[c]))
                stacks[t].append((sorted_rows[c, :i].copy(), depth + 1, node, 0,
                                  float(np.add.reduce(sorted_y[c, :i]) / i),
                                  deeper and i >= min_rows and not left_constant[c]))
        live = [t for t in live if stacks[t]]
    # each tree's nodes together, in tree order and within a tree in preorder
    order = np.argsort(owner, kind="stable")
    moved = np.empty_like(order)
    moved[order] = np.arange(order.size)
    left, right = np.array(left)[order], np.array(right)[order]
    roots = np.searchsorted(np.array(owner)[order], np.arange(len(samples)))
    return _Trees(np.array(feature)[order], np.array(threshold)[order],
                  np.where(left >= 0, moved[left], -1), np.where(right >= 0, moved[right], -1),
                  np.array(value)[order], roots)


def _ranks(X: np.ndarray) -> np.ndarray:
    """Each column's values as dense ranks (equal values share one), and a pad row.

    Sorting ranks orders rows as sorting the values does. NaN and the pad
    row, the last row, take the dtype's largest rank, so they sort last; a
    stable sort of int16 ranks is a radix sort.
    """
    dtype = np.int16 if X.shape[0] < np.iinfo(np.int16).max else np.int32
    ranks = np.full((X.shape[0] + 1, X.shape[1]), np.iinfo(dtype).max, dtype=dtype)
    for c in range(X.shape[1]):
        known = ~np.isnan(X[:, c])
        ranks[:-1][known, c] = np.unique(X[known, c], return_inverse=True)[1]
    return ranks


def _best_splits(X, ranks, y, batch, size, columns, min_leaf):
    """The best split of each node of `batch`, searched over its `columns` row.

    The last row of X (NaN), of `ranks` (`_ranks` of the other rows) and of
    y (0.0) pads the nodes' rows to one width. Per node: whether any split is
    allowed; the best column; the left child's row count; the threshold;
    the node's targets and rows sorted on the best column; the node sum and
    sum of squares of the last column searched; the split SSE; and whether
    each child's targets are constant.
    """
    nodes, k = columns.shape
    width = int(size.max())
    index = np.full((nodes, width), ranks.shape[0] - 1, dtype=np.intp)
    for s, (_, _, rows, _) in enumerate(batch):
        index[s, :rows.size] = rows
    # a stable sort keeps each node's NaN rows before its padding, so its rows
    # are ordered as a stable argsort of its own values orders them
    unsorted = ranks[index[:, None, :], columns[:, :, None]]  # (nodes, k, width)
    order = np.argsort(unsorted, axis=2, kind="stable")
    node, last = np.arange(nodes), size - 1
    ranked = unsorted.ravel()[order + (np.arange(nodes * k) * width).reshape(nodes, k, 1)]
    ys = y[index].ravel()[order + (node * width)[:, None, None]]
    csum = np.cumsum(ys, axis=2)
    csq = np.cumsum(ys * ys, axis=2)
    total = csum[node, :, last]
    total_sq = csq[node, :, last]
    # the SSE of a cut after each position j: j + 1 rows go left; a cut is
    # allowed between distinct values with at least min_leaf rows a side
    pos = np.arange(1, width)
    left_sum, left_sq = csum[:, :, :-1], csq[:, :, :-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sse = left_sq - left_sum ** 2 / pos
        sse += ((total_sq[:, :, None] - left_sq)
                - (total[:, :, None] - left_sum) ** 2 / (size[:, None, None] - pos))
    band = (pos >= min_leaf) & (pos <= size[:, None] - min_leaf)
    valid = ((ranked[:, :, :-1] < ranked[:, :, 1:])
             & (ranked[:, :, 1:] != np.iinfo(ranked.dtype).max)  # no value is less than NaN
             & band[:, None, :])
    sse[~valid] = np.inf
    at = np.argmin(sse, axis=2)  # first minimum, as over the valid cuts alone
    least = sse.reshape(nodes * k, -1)[np.arange(nodes * k), at.ravel()].reshape(nodes, k)
    has = valid.any(axis=2)
    # the first column with the least SSE wins, as in a scan that takes a later
    # column only when its SSE is strictly less; so a NaN wins only when first
    first = np.argmax(has, axis=1)
    key = np.where(has & ~np.isnan(least), least, np.inf)
    f = np.argmin(key, axis=1)
    f = np.where((key[node, f] == np.inf) | np.isnan(least[node, first]), first, f)
    at = at[node, f] + 1
    column = columns[node, f]
    sorted_y = ys[node, f]
    sorted_rows = index.ravel()[order[node, f] + (node * width)[:, None]]
    with np.errstate(invalid="ignore"):  # a node without a cut has no threshold to mind
        # halved first: the midpoint of values near the float maximum stays finite
        threshold = (X[sorted_rows[node, at - 1], column] / 2.0
                     + X[sorted_rows[node, at], column] / 2.0)
    # a child is constant when no two neighbouring sorted targets differ (a NaN differs)
    changes = np.zeros((nodes, width), dtype=np.intp)
    np.cumsum(sorted_y[:, 1:] != sorted_y[:, :-1], axis=1, out=changes[:, 1:])
    return (has.any(axis=1).tolist(), column.tolist(), at.tolist(),
            threshold.tolist(), sorted_y, sorted_rows, total[:, k - 1], total_sq[:, k - 1],
            least[node, f].tolist(), (changes[node, at - 1] == 0).tolist(),
            (changes[node, last] == changes[node, at]).tolist())

