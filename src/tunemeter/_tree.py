"""The one CART grower, shared by the forest surrogates and the toy bot.

On 0/1 labels a node with i rows and a positives has Gini cost 2·a(i−a)/i,
twice its sum of squared errors (SSE). So the SSE tree makes rpart's Gini
splits, its leaf means are class probabilities, and cp keeps its meaning.

`grow` fits many trees at once, each on its own sample of rows: the
bootstraps of a forest, the training sets of CV folds, or one tree. It
steps every tree in lockstep, and every tree is bit-identical to the tree
grown alone. A tree that subsamples features (a forest's) steps once per
split search: in a step it visits its next nodes in preorder (left subtree
before right) up to one that searches, so it takes its column subsets in
the order a tree grown alone draws them. It draws them in bulk, few
`Generator.integers` calls per tree that consume its generator exactly as
one `Generator.choice` call per search would (`_subsets`), and may leave
the generator past the draws it used. A tree that draws nothing (CART)
steps once per level: every open node searches in the same step. Either
way the nodes are put in preorder at the end, by their paths from the
root. The split searches of a step run at once on padded (nodes, features,
rows) arrays: a stable argsort and a `cumsum` along the rows give each
node the prefix sums, and so the rounding and the tie order, of a search
over that node's rows alone.

The grown trees are array-coded (`_Trees`): the node arrays of all trees
concatenated in tree order, each in preorder, and one root per tree. A
leaf has feature −1; every node keeps the mean of its rows. Preorder fixes
the children, so they are derived, not stored. These four arrays are the
fitted model: `_Trees(**trees.arrays())` rebuilds it, and
`_Trees.predict`, the mean over the trees of each row's leaf value, makes
one tree or a forest a regressor. The mask scorer below is the one reader
of fitted trees, for `predict` and for the bot's CART folds.

The split thresholds of each column cut the feature space into cells, and
trees are constant on each cell: rows in one cell reach the same leaf in
every tree. `_Trees.predict` therefore scores the first row of each distinct
cell of a batch and gives its sum to the cell's other rows, which is
bit-identical to scoring them all. A random search draws many candidates
into few cells (a one-parameter slice falls into at most one cell per
interval between that column's thresholds), so most rows are never scored.

A row is scored without a walk, by leaf bitmasks (QuickScorer: Lucchese et
al., "QuickScorer: a Fast Algorithm to Rank Documents with Additive
Ensembles of Regression Trees", SIGIR 2015). In strict preorder a tree's
leaves come left to right, and the leaf a row reaches is the leftmost one
outside the left subtrees of the nodes where it goes right. Each inner node
has a mask with the bits of its left subtree's leaves cleared. For each
interval between a column's thresholds, the masks of that column's nodes
whose threshold lies below the interval are ANDed in advance, one table row
per interval; so a row costs one lookup and one AND per split column, and
the lowest bit left standing is its leaf. The intervals come from one
`searchsorted` per column (`_intervals`), and `_cells` makes the cell codes
of `predict` from them; the bot's CART folds score every test row, so they
take the intervals alone.

The masks are as wide as the largest tree's leaves, as in V-QuickScorer
(Lucchese et al., "Exploiting CPU SIMD Extensions to Speed-up Document
Scoring with Tree Ensembles", SIGIR 2016): uint8 up to 8 leaves, then
uint16, uint32 and uint64, and several uint64 words beyond 64 leaves. A
mask becomes a leaf value in one table lookup: in uint8 the mask itself
indexes its tree's table, which holds the value of each mask's lowest set
bit; in wider types the position of that bit, read from its de Bruijn
hash, indexes the tree's leaf values. The values of a chunk of cells
come out as (trees, rows), and the sum adds them one tree at a time along
the contiguous row axis. The thresholds and the tables are derived from
the node arrays, not stored with them.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

_GROW_CHUNK = 1 << 14  # elements of one padded (nodes, features, rows) search block
_PREDICT_CHUNK = 1 << 13  # (tree, row) pairs scored at once
_FIRST_DRAW = 1 << 9  # most bounded integers in a tree's first bulk draw of column subsets
_ALL = np.uint64(2 ** 64 - 1)
_LOW = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)  # k lowest bits set
_MASK_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
# the position of the lowest set bit of each byte (of 0: 0)
_LOWEST_BIT = np.array([(k & -k).bit_length() - 1 if k else 0 for k in range(256)],
                       dtype=np.intp)


def _de_bruijn(dtype, multiplier: int) -> tuple:
    """1, a de Bruijn multiplier and its shift in `dtype`, and the positions they map to.

    Times the multiplier, with the product wrapping, and shifted right, each
    power of two 2^b of the type gives a distinct number below the type's
    width; `positions` maps it back to b. Every scalar has the mask type, so
    numpy 1.x and 2.x compute in it alike.
    """
    width = np.iinfo(dtype).bits
    shift = width - width.bit_length() + 1
    positions = np.empty(width, dtype=np.intp)
    positions[[((multiplier << b) % (1 << width)) >> shift for b in range(width)]] = range(width)
    return dtype(1), dtype(multiplier), dtype(shift), positions


_DE_BRUIJN = {np.uint16: _de_bruijn(np.uint16, 0x0F65),
              np.uint32: _de_bruijn(np.uint32, 0x077CB531),
              np.uint64: _de_bruijn(np.uint64, 0x03F79D71B4CB0A89)}


def _int32(name: str, values) -> np.ndarray:
    """`values` as int32, or ValueError when they are not integers or int32 cannot hold them."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu" or not np.array_equal(array.astype(np.int32), array):
        raise ValueError(f"{name} must be integers that int32 holds")
    return array.astype(np.int32)


class _Trees:
    """Array-coded trees: concatenated node arrays, each tree in preorder, one root per tree.

    Node v splits on column `feature[v]` at `threshold[v]`, or is a leaf
    (feature −1); `value[v]` is the mean of its rows. Preorder fixes the
    children, so they are derived, not stored: an inner node's left child
    is the next node and its right child (`right`; −1 at a leaf) the first
    node after its left subtree. Arrays of unequal length, `feature` or
    `roots` that are not integers int32 holds, roots that do not start at
    node 0 and strictly increase within the nodes, a NaN threshold at an
    inner node, or a root's run of nodes (up to the next root) that is not
    exactly one tree raise ValueError. So a tree's leaves come left to
    right, an inner node's mask clears a run of its own tree's leaves, and
    a cache file cannot make the mask scorer read another tree's leaf.
    """

    def __init__(self, feature, threshold, value, roots):
        self.feature = _int32("feature", feature)
        self.threshold = np.asarray(threshold, dtype=float)
        self.value = np.asarray(value, dtype=float)
        self.roots = _int32("roots", roots)
        nodes = self.feature.shape
        if self.roots.ndim != 1 or self.roots.size == 0:
            raise ValueError("trees need a flat array of at least one root")
        if len(nodes) != 1 or self.threshold.shape != nodes or self.value.shape != nodes:
            raise ValueError("node arrays must be flat and of one length")
        if self.roots[0] != 0 or self.roots[-1] >= nodes[0] or np.any(np.diff(self.roots) <= 0):
            raise ValueError("roots must start at node 0, strictly increase and index the nodes")
        split = self.feature >= 0
        if np.any(np.isnan(self.threshold[split])):
            raise ValueError("inner nodes need thresholds that are not NaN")
        # count[i]: inner nodes less leaves before node i. A run of nodes is one
        # tree in preorder exactly when the count after each node stays at or
        # above the count at the run's start up to its last node, where it falls
        # below. The left subtree of an inner node v, from v + 1, then ends just
        # before the first node after v whose count is count[v]: its right child
        step = np.where(split, 1, -1)
        count = np.cumsum(step) - step
        size = np.diff(np.append(self.roots, nodes[0]))
        below = count + step < np.repeat(count[self.roots], size)
        if not np.array_equal(np.flatnonzero(below), self.roots + size - 1):
            raise ValueError("each root's run of nodes must be exactly one tree in preorder")
        by_count = np.argsort(count, kind="stable")
        after = np.empty_like(by_count)  # the next node in count order, -1 after the last
        after[by_count] = np.append(by_count[1:], -1)
        self.right = np.where(split, after, -1).astype(np.int32)

    def arrays(self) -> dict[str, np.ndarray]:
        """The node arrays that rebuild the trees; the children are derived from them."""
        return {name: getattr(self, name) for name in ("feature", "threshold", "value", "roots")}

    def _leaf_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The leaves in node order (each tree's left to right) and each tree's first one."""
        leaves = np.flatnonzero(self.feature < 0)
        return leaves, np.searchsorted(leaves, self.roots)

    @functools.cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each tree's full mask, and the table and per-tree offsets that values a mask.

        Masks take the narrowest unsigned type that holds the largest tree's
        leaves, one bit a leaf (uint8 up to 8 leaves, then uint16, uint32 and
        uint64); beyond 64 leaves, bit i % 64 of uint64 word i // 64 stands
        for leaf i. Up to 64 leaves a tree's full mask has only its own
        leaves' bits set, so in uint8 a tree of k leaves has masks below 2^k,
        and its slice of the table, from its offset, holds for each such mask
        the value of the leaf of its lowest set bit: 2^k values, sized to the
        tree. In wider types the table holds the trees' leaf values in node
        order, from each tree's first leaf, and a mask is valued by the
        position of its lowest set bit. Tree 0's values have 0.0 added, so a
        sum over the trees that starts from tree 0 starts from 0.0: a -0.0
        leaf adds as +0.0.
        """
        leaves, first = self._leaf_nodes()
        n_leaves = np.diff(np.append(first, leaves.size))
        most = int(n_leaves.max())
        dtype = next(d for d in _MASK_TYPES if np.iinfo(d).bits >= min(most, 64))
        if most > 64:
            top = np.full((self.roots.size, -(-most // 64)), _ALL)
        else:
            top = _LOW[n_leaves][:, None].astype(dtype)
        if dtype == np.uint8:
            size = np.left_shift(1, n_leaves)
            offset = np.cumsum(size) - size
            tree = np.repeat(np.arange(self.roots.size), size)
            table = self.value[leaves[first[tree] + _LOWEST_BIT[np.arange(size.sum())
                                                                - offset[tree]]]]
        else:
            table, offset = self.value[leaves], first
        table[:np.append(offset, table.size)[1]] += 0.0  # tree 0's values
        return top, table, offset

    @functools.cached_property
    def _cuts(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(column, its cuts, its mask table) for each column some node splits on.

        A column's cuts are its sorted distinct thresholds. An inner node's
        mask is its tree's full mask (`_lookup`) with the bits of the leaves
        of its left subtree cleared. The masks are in the narrowest unsigned
        type that holds the largest tree's leaves (V-QuickScorer: Lucchese et
        al., SIGIR 2016): a table of uint8 masks is an eighth of one of
        uint64 words. Row j of a column's table, of shape (cuts + 1, trees,
        words), holds per tree the AND of the masks of the nodes on that
        column whose threshold is one of the first j cuts: the nodes a value
        above exactly j cuts passes to the right. Row 0 holds the full masks.
        `_intervals` gives each row its interval, the row of the table it takes.
        """
        inner = np.flatnonzero(self.feature >= 0)
        if not inner.size:
            return []
        top = self._lookup[0]
        # inner nodes by (column, threshold), the nodes of one cut in node order, so in tree order
        nodes = inner[np.lexsort((self.threshold[inner], self.feature[inner]))]
        feature, threshold = self.feature[nodes], self.threshold[nodes]
        new_cut = np.ones(nodes.size, dtype=bool)
        new_cut[1:] = (feature[1:] != feature[:-1]) | (threshold[1:] != threshold[:-1])
        tree = np.searchsorted(self.roots, nodes, side="right") - 1
        leaves, first = self._leaf_nodes()
        before = np.searchsorted(leaves, np.arange(self.feature.size + 1))  # leaves before node i
        # the left subtree of node v holds the leaves from node v + 1 up to its right child
        bit = 64 * np.arange(top.shape[1])
        lo = np.clip((before[nodes + 1] - first[tree])[:, None] - bit, 0, 64)
        hi = np.clip((before[self.right[nodes]] - first[tree])[:, None] - bit, 0, 64)
        masks = (_LOW[lo] | ~_LOW[hi]).astype(top.dtype) & top[tree]
        # the nodes of one tree at one cut are neighbours: AND each run of them
        cut = np.cumsum(new_cut) - 1  # each node's cut, numbered over all columns
        run = np.flatnonzero(new_cut | np.append(True, tree[1:] != tree[:-1]))
        per_cut = np.repeat(top[None], cut[-1] + 1, axis=0)
        per_cut[cut[run], tree[run]] = np.bitwise_and.reduceat(masks, run, axis=0)
        column, cuts = feature[new_cut], threshold[new_cut]
        out, start = [], 0
        for end in [*(np.flatnonzero(np.diff(column)) + 1).tolist(), cuts.size]:
            table = np.empty((end - start + 1, *top.shape), dtype=top.dtype)
            table[0] = top
            np.bitwise_and.accumulate(per_cut[start:end], axis=0, out=table[1:])
            out.append((int(column[start]), cuts[start:end], table))
            start = end
        return out

    def _leaf_values(self, intervals: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
        """The value of the leaf each of `rows` reaches in each tree, as (trees, rows).

        `intervals` holds each row's interval on each column of `_cuts` (from
        `_intervals`). A row goes right at a node exactly when the node's
        threshold is below its value, so ANDing the table rows its intervals
        pick clears, per tree, the leaves of every left subtree the row
        passes by; the lowest bit left standing is the leaf it reaches
        (QuickScorer: Lucchese et al., SIGIR 2015). One lookup in `_lookup`'s
        table values it: by the mask itself in uint8, else by the position
        of its lowest set bit, read from the de Bruijn hash of that bit alone.
        """
        top, table, offset = self._lookup
        masks = np.repeat(top[None], rows.size, axis=0)  # (rows, trees, words)
        for (_, _, cuts_table), interval in zip(self._cuts, intervals):
            np.bitwise_and(masks, cuts_table[interval[rows]], out=masks)
        if top.dtype == np.uint8:
            key = masks[:, :, 0]
        else:
            # the first word with a set bit: the exit leaf's bit is never cleared
            one, multiplier, shift, positions = _DE_BRUIJN[top.dtype.type]
            key = None
            for word in reversed(range(top.shape[1])):
                bits = masks[:, :, word]
                low = bits & (~bits + one)  # the lowest set bit alone
                at = positions[(low * multiplier) >> shift] + np.intp(64 * word)
                key = at if key is None else np.where(low != 0, at, key)
        return np.take(table, (key + offset).T)  # (trees, rows), C order

    def _intervals(self, X: np.ndarray) -> list[np.ndarray]:
        """Each row's interval on each column of `_cuts`: the number of the
        column's cuts below the row's value (`searchsorted`, left side)."""
        return [np.searchsorted(cuts, X[:, column]) for column, cuts, _ in self._cuts]

    def _cells(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Each row's cell, numbered densely in order, the first row of each cell, and
        each row's interval on each column of `_cuts` (`_intervals`).

        The intervals, in `_cuts` order, are the digits of one mixed-radix
        int64 code (radix: cuts + 1), so the codes order the cells as the
        tuples of intervals do, and one `np.unique` numbers them. Before a
        digit that could overflow int64, the code is replaced by its dense
        rank, which keeps the order.
        """
        intervals = self._intervals(X)
        code = np.zeros(X.shape[0], dtype=np.int64)
        size = 1  # every code so far is below it
        for (_, cuts, _), interval in zip(self._cuts, intervals):
            radix = cuts.size + 1
            if size * radix > 1 << 63:
                distinct, code = np.unique(code, return_inverse=True)
                size = distinct.size
            code = code * radix + interval
            size *= radix
        _, first, cell = np.unique(code, return_index=True, return_inverse=True)
        return cell, first, intervals

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean over the trees of each row's leaf value, summed in tree order.

        The thresholds of a column (its cuts) cut its axis into intervals,
        and the cuts of all columns cut the feature space into cells. Two rows
        in one cell take the same side of every threshold, so they reach the
        same leaf in every tree: only the first row of each distinct cell is
        scored, and its sum is given to every row of the cell. `_cells` finds
        each row's interval on each column with one `searchsorted` and numbers
        the cells; the scorer (`_leaf_values`) ANDs the mask table rows the
        first rows' intervals pick and turns each (row, tree) mask into its
        leaf value with one lookup. A row goes left at a node when its value
        is at most the threshold, so the result is bit-identical to walking
        every row through every tree. NaN sorts above every cut and, like
        +inf, goes right everywhere, and -0.0 compares as 0.0, as in a walk.

        The sum starts from 0.0 (`_lookup` adds it to tree 0's values) and
        adds one tree at a time, as a loop over the trees would, so a leaf
        of -0.0 predicts +0.0. Each tree's values of a chunk are one
        contiguous row, so the adds run along it (`np.add.reduce` over axis
        0, which adds row after row; a lone row would be summed pairwise
        instead, so it is accumulated). At most `_PREDICT_CHUNK` (tree, row)
        pairs are scored at once.
        """
        X = np.ascontiguousarray(X, dtype=float)
        n_trees = self.roots.size
        cell, first, intervals = self._cells(X)
        sums = np.empty(first.size)
        step = max(1, _PREDICT_CHUNK // n_trees)
        for start in range(0, first.size, step):
            vals = self._leaf_values(intervals, first[start:start + step])
            sums[start:start + vals.shape[1]] = (np.add.reduce(vals, axis=0) if vals.shape[1] > 1
                                                 else np.cumsum(vals)[-1:])
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
    measured against the node sums of the last feature searched.

    With `rngs` and 0 < `split_features` < columns, each splitting node
    searches `split_features` columns drawn from its tree's generator, the
    subset `Generator.choice` would draw there, sorted. A tree then steps
    one split search at a time, in preorder, taking its subsets in the
    order a tree grown alone draws them; they come from few bulk draws
    (`_subsets`), which may advance its generator past the draws its
    searches use. Other trees draw nothing and step one level at a time:
    every open node searches in the same step. Either way the nodes are
    put in preorder at the end, by their paths from the root.
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
    owner, depths, codes, feature, threshold, value = [], [], [], [], [], []
    # per tree, the nodes still to visit, next on top: (rows, depth, mean of y
    # over rows, whether to search a split, path code: 1 at the root, 2c and
    # 2c + 1 at the children of the node of code c)
    stacks = []
    min_gain = []
    # per tree that subsamples, its column subsets in the order it searches
    subsets = []
    for t, sample in enumerate(samples):
        rows = np.asarray(sample, dtype=np.intp)
        ys = y[rows]
        min_gain.append(cp * float((ys * ys).sum() - ys.sum() ** 2 / ys.size))
        search = max_depth > 0 and rows.size >= min_rows and ys.min() != ys.max()
        # np.add.reduce(ys) / n is ys.mean(), without the call overhead
        stacks.append([(rows, 0, float(np.add.reduce(ys) / rows.size), search, 1)])
        # a tree whose root does not search draws nothing; one that does makes
        # fewer than rows // min_leaf searches, as every leaf holds min_leaf
        # rows or more and one that searched holds twice that
        subsets.append(_subsets(rngs[t], cols, split_features,
                                rows.size // max(min_leaf, 1) - 1)
                       if subsample and search else None)
    live = list(range(len(samples)))
    while live:
        splitting = []  # (tree, node, rows, depth)
        columns = []
        for t in live:
            stack = stacks[t]
            while stack:  # visit nodes up to the next one that searches a split, or all
                rows, depth, mean, search, code = stack.pop()
                owner.append(t)
                depths.append(depth)
                codes.append(code)
                feature.append(-1)
                threshold.append(0.0)
                value.append(mean)
                if search:
                    splitting.append((t, len(owner) - 1, rows, depth))
                    if subsample:
                        columns.append(next(subsets[t]))
                        break
        if not splitting:
            break
        size = np.array([rows.size for _, _, rows, _ in splitting])
        columns = (np.array(columns) if subsample
                   else np.broadcast_to(every_column, (len(splitting), cols)))
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
                stacks[t].append((sorted_rows[c, i:n].copy(), depth + 1,
                                  float(np.add.reduce(sorted_y[c, i:n]) / (n - i)),
                                  deeper and n - i >= min_rows and not right_constant[c],
                                  2 * codes[node] + 1))
                stacks[t].append((sorted_rows[c, :i].copy(), depth + 1,
                                  float(np.add.reduce(sorted_y[c, :i]) / i),
                                  deeper and i >= min_rows and not left_constant[c],
                                  2 * codes[node]))
        live = [t for t in live if stacks[t]]
    # each tree's nodes together, in tree order and within a tree in preorder:
    # by path, a node before its subtree and a left subtree before a right
    # one. Shifted to the greatest depth, a node's code is the least of its
    # subtree's, shared only with the nodes on its leftmost path, which come
    # later by depth. Codes of paths longer than 62 steps are Python integers
    depth = np.array(depths)
    deepest = int(depth.max())
    code = np.array(codes, dtype=np.int64 if deepest < 63 else object)
    tree = np.array(owner)
    order = np.lexsort((depth, code << (deepest - depth), tree))
    roots = np.searchsorted(tree[order], np.arange(len(samples)))
    return _Trees(np.array(feature)[order], np.array(threshold)[order],
                  np.array(value)[order], roots)


@functools.lru_cache(maxsize=64)
def _bounds(cols: int, k: int, count: int) -> np.ndarray:
    """The exclusive upper bounds of `count` successive `choice(cols, k, replace=False)` draws.

    Each draw takes Floyd's k bounded integers, below cols − k + 1 up to below
    cols, then k − 1 for its shuffle, below k down to below 2. Cached, so read-only.
    """
    bounds = np.tile(np.r_[cols - k + 1:cols + 1, k:1:-1], count)
    bounds.flags.writeable = False
    return bounds


def _subsets(rng: np.random.Generator, cols: int, k: int, most: int):
    """Yield the sorted subsets that successive `rng.choice(cols, k, replace=False)` draw.

    `Generator.choice` without replacement draws a subset by Floyd's
    algorithm (Bentley and Floyd, "A sample of brilliance", CACM 1987): for
    i < k, an integer v at most cols − k + i, taken unless an earlier pick
    holds it, when cols − k + i is taken instead. It then shuffles the k
    picks with k − 1 more draws. Every draw is bounded by Lemire's method
    (Lemire, "Fast random integer generation in an interval", ACM TOMACS
    2019), as `Generator.integers` draws, so one `integers` call over the
    repeated bounds (`_bounds`) consumes the stream exactly as that many
    `choice` calls do. The first call draws up to `most` subsets (fewer
    when they would take more than `_FIRST_DRAW` integers), each later one
    twice as many as the one before; each subset is rebuilt from its Floyd
    draws when it is taken, and the shuffle draws only advance the stream.
    (Beyond 10,000 columns `choice` may shuffle a range instead; these
    subsets are then as uniform, but not its own.)
    """
    first, count = cols - k, max(1, min(most, _FIRST_DRAW // (2 * k - 1)))
    while True:
        bounds = _bounds(cols, k, count)
        # one integer takes numpy's scalar path: the same draw, at a fifth of the cost
        values = (rng.integers(0, bounds).tolist() if bounds.size > 1
                  else [int(rng.integers(0, cols))])
        count *= 2
        for start in range(0, len(values), 2 * k - 1):
            picked = []
            for i, v in enumerate(values[start:start + k]):
                picked.append(first + i if v in picked else v)
            picked.sort()
            yield picked


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

