"""The CART grower: against a plain Gini tree grown in exact arithmetic, against
the recursive one-tree builder it replaced, and trees grown together against
trees grown alone."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bruteforce import parse_preorder_trees, walk_trees
from tunemeter import _tree, metadata
from tunemeter._tree import _Trees, grow
from tunemeter.surrogate import _fit_regressor
from tunemeter.metadata import ToyLearnerSpec, _fold_probabilities

NEAR = 1e-9  # relative distance below which two gains count as tied


def _gini(labels) -> Fraction:
    n, a = len(labels), sum(labels)
    return Fraction(2 * a * (n - a), n)


def _near(a: Fraction, b: Fraction) -> bool:
    return abs(a - b) <= NEAR * max(abs(a), abs(b))


def gini_tree(X, y, cp, maxdepth, minbucket, minsplit):
    """rpart's Gini tree, node by node: leaf probabilities of the rows of `X` it predicts.

    A node splits when it is shallower than maxdepth, holds at least minsplit
    and 2 * minbucket rows of both classes, and its best split keeps
    minbucket rows per child and gains at least cp * root impurity. The
    first best split in (feature, position) order wins. Examples with a near
    tie between the two best gains, or between the best gain and the cp
    bar, are rejected.
    """
    cp_bar = Fraction(cp) * _gini(y)

    def grow(rows, depth):
        labels = [y[r] for r in rows]
        prob = sum(labels) / len(labels)
        if (depth >= maxdepth or len(rows) < max(minsplit, 2 * minbucket)
                or min(labels) == max(labels)):
            return prob
        node = _gini(labels)
        splits = []
        for f in range(len(X[0])):
            order = sorted(rows, key=lambda r: X[r][f])
            for i in range(minbucket, len(rows) - minbucket + 1):
                lo, hi = X[order[i - 1]][f], X[order[i]][f]
                if lo < hi:
                    left, right = [y[r] for r in order[:i]], [y[r] for r in order[i:]]
                    splits.append((node - _gini(left) - _gini(right), f, (lo + hi) / 2.0))
        if not splits:
            return prob
        best = max(splits, key=lambda s: s[0])
        gains = sorted((s[0] for s in splits), reverse=True)
        assume(len(gains) == 1 or not _near(gains[0], gains[1]))
        assume(not _near(best[0], cp_bar))
        if best[0] < cp_bar:
            return prob
        _, f, thr = best
        return (f, thr, grow([r for r in rows if X[r][f] <= thr], depth + 1),
                grow([r for r in rows if X[r][f] > thr], depth + 1))

    tree = grow(list(range(len(y))), 0)

    def predict(x):
        node = tree
        while isinstance(node, tuple):
            f, thr, left, right = node
            node = left if x[f] <= thr else right
        return node

    return predict


values = st.one_of(st.integers(0, 3).map(float), st.floats(-5.0, 5.0, width=32))


@st.composite
def labelled_rows(draw):
    p = draw(st.integers(1, 3))
    n = draw(st.integers(4, 30))
    X = draw(st.lists(st.lists(values, min_size=p, max_size=p), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return X, y


class TestCartMatchesGiniOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        data=labelled_rows(),
        queries=st.lists(st.lists(values, min_size=3, max_size=3), max_size=10),
        cp=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
        maxdepth=st.integers(1, 6),
        minbucket=st.integers(1, 6),
        minsplit=st.integers(1, 20),
    )
    def test_probabilities_match(self, data, queries, cp, maxdepth, minbucket, minsplit):
        X, y = data
        rows = X + [q[:len(X[0])] for q in queries]
        oracle = gini_tree(X, y, cp, maxdepth, minbucket, minsplit)
        params = {"cp": cp, "maxdepth": maxdepth, "minbucket": minbucket, "minsplit": minsplit}
        got, = _fold_probabilities(ToyLearnerSpec("cart_classifier"), params, np.array(rows),
                                   np.array(y + [0] * len(queries)),
                                   [np.arange(len(X))], [np.arange(len(rows))])
        assert got.tolist() == [oracle(x) for x in rows]


@st.composite
def cart_folds(draw):
    """Labelled rows and query rows, F ≥ 2 folds of training and test rows, CART
    parameters, and a chunk of (tree, row) pairs, mostly small enough to split the test rows."""
    X, y = draw(labelled_rows())
    n, p = len(y), len(X[0])
    queries = draw(st.lists(st.lists(values, min_size=p, max_size=p), max_size=10))
    rows = st.integers(0, n + len(queries) - 1)
    folds = draw(st.integers(2, 5))
    train = [np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
             for _ in range(folds)]
    test = [np.array(draw(st.lists(rows, min_size=1, max_size=15))) for _ in range(folds)]
    params = dict(cp=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
                  maxdepth=draw(st.integers(1, 8)), minbucket=draw(st.integers(1, 6)),
                  minsplit=draw(st.integers(1, 20)))
    chunk = draw(st.sampled_from([1, folds + 1, 3 * folds, _tree._PREDICT_CHUNK]))
    return np.array(X + queries), np.array(y + [0] * len(queries)), train, test, params, chunk


class TestCartFolds:
    @settings(max_examples=200, deadline=None)
    @given(case=cart_folds())
    def test_each_fold_scores_in_its_own_tree_grown_alone(self, case):
        X, y, train, test, params, chunk = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(metadata, "_PREDICT_CHUNK", chunk)
            got = _fold_probabilities(ToyLearnerSpec("cart_classifier"), params, X, y,
                                      train, test)
        assert len(got) == len(test)
        for probs, sample, rows in zip(got, train, test):
            alone = grow(X, y, [sample], min_leaf=params["minbucket"],
                         max_depth=params["maxdepth"], min_split=params["minsplit"],
                         cp=params["cp"])
            (leaves,) = walk_trees(alone.feature, alone.threshold, alone.roots, X[rows])
            assert probs.tobytes() == alone.value[leaves].tobytes()


def test_threshold_between_neighbours_near_float_maximum():
    X = np.array([[1e308], [1.7e308]])
    with np.errstate(over="raise"):
        tree = grow(X, np.array([0.0, 1.0]), [np.arange(2)], min_leaf=1)
    assert 1e308 <= tree.threshold[0] < 1.7e308
    assert tree.predict(X).tolist() == [0.0, 1.0]


def reference_tree(X, y, rng=None, min_leaf=5, max_depth=20, split_features=0, min_split=0,
                   cp=0.0):
    """One tree grown by recursion, node by node and column by column.

    The grower's reference: (feature, threshold, left, right, value) arrays
    in preorder, the arithmetic of a per-node search.
    """
    nodes = []
    min_gain = cp * float((y * y).sum() - y.sum() ** 2 / y.size)

    def build(idx, depth):
        y_node = y[idx]
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(y_node.mean())])
        n = idx.size
        if depth >= max_depth or n < max(min_split, 2 * min_leaf) or y_node.min() == y_node.max():
            return node
        feats = range(X.shape[1])
        if split_features and rng is not None and split_features < len(feats):
            feats = np.sort(rng.choice(len(feats), size=split_features, replace=False))
        best = None
        for f in feats:
            order = np.argsort(X[idx, f], kind="stable")
            xs, ys = X[idx[order], f], y_node[order]
            csum, csq = np.cumsum(ys), np.cumsum(ys * ys)
            total, total_sq = csum[-1], csq[-1]
            pos = np.arange(min_leaf, n - min_leaf + 1)
            pos = pos[xs[pos - 1] < xs[pos]]
            if pos.size == 0:
                continue
            left_sum, left_sq = csum[pos - 1], csq[pos - 1]
            sse = ((left_sq - left_sum ** 2 / pos)
                   + ((total_sq - left_sq) - (total - left_sum) ** 2 / (n - pos)))
            j = int(np.argmin(sse))
            if best is None or sse[j] < best[0]:
                i = int(pos[j])
                best = (float(sse[j]), int(f), xs[i - 1] / 2.0 + xs[i] / 2.0, order, i)
        if best is None or max(total_sq - total ** 2 / n - best[0], 0.0) < min_gain:
            return node
        _, f, thr, order, i = best
        nodes[node][:2] = f, thr
        nodes[node][2] = build(idx[order[:i]], depth + 1)
        nodes[node][3] = build(idx[order[i:]], depth + 1)
        return node

    build(np.arange(y.size), 0)
    feature, threshold, left, right, value = zip(*nodes)
    return (np.array(feature, dtype=np.int32), np.array(threshold),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32), np.array(value))


def tree_arrays(trees, t):
    """Tree t of grown trees as (feature, threshold, left, right, value), children local.

    The children are parsed from tree t's node arrays (`parse_preorder_trees`).
    """
    bounds = [*trees.roots.tolist(), trees.feature.size]
    a, b = bounds[t], bounds[t + 1]
    local = [np.array(c, dtype=np.int32)
             for c in parse_preorder_trees((trees.feature[a:b] >= 0).tolist(), [0])]
    return trees.feature[a:b], trees.threshold[a:b], *local, trees.value[a:b]


def same_bits(a, b):
    return len(a) == len(b) and all(
        x.dtype == z.dtype and x.tobytes() == z.tobytes() for x, z in zip(a, b))


@st.composite
def growth(draw):
    """Rows with ties, samples of them with repeats, tree parameters and generator seeds."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p), min_size=n, max_size=n)))
    targets = draw(st.sampled_from([st.integers(0, 1).map(float), st.floats(-3.0, 3.0)]))
    y = np.array(draw(st.lists(targets, min_size=n, max_size=n)))
    samples = [np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
               for _ in range(draw(st.integers(1, 5)))]
    params = dict(min_leaf=draw(st.integers(1, 4)), max_depth=draw(st.integers(0, 8)),
                  split_features=draw(st.integers(0, p)), min_split=draw(st.integers(0, 12)),
                  cp=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2))))
    seed = draw(st.integers(0, 2 ** 32))
    return X, y, samples, params, seed


def generators(seed, count):
    return [np.random.default_rng([seed, t]) for t in range(count)]


class TestLockstepGrowth:
    @settings(max_examples=150, deadline=None)
    @given(case=growth())
    def test_trees_grown_together_equal_trees_grown_alone(self, case):
        X, y, samples, params, seed = case
        together = grow(X, y, samples, generators(seed, len(samples)), **params)
        for t, sample in enumerate(samples):
            alone = grow(X, y, [sample], generators(seed, len(samples))[t:t + 1], **params)
            assert same_bits(tree_arrays(together, t), tree_arrays(alone, 0))

    @settings(max_examples=150, deadline=None)
    @given(case=growth())
    def test_each_tree_equals_the_recursive_build(self, case):
        X, y, samples, params, seed = case
        together = grow(X, y, samples, generators(seed, len(samples)), **params)
        for t, (sample, rng) in enumerate(zip(samples, generators(seed, len(samples)))):
            assert same_bits(tree_arrays(together, t),
                             reference_tree(X[sample], y[sample], rng, **params))

    @pytest.mark.parametrize("y", [[0.0] * 6 + [1.0] * 6, [0, 1, 0, 1, 0, 0] + [1.0] * 6,
                                   [1.0] * 6 + [0, 1, 0, 1, 0, 0]])
    def test_a_child_with_one_target_is_a_leaf(self, y):
        X, y = np.arange(12.0)[:, None], np.array(y)
        grown = grow(X, y, [np.arange(12)], min_leaf=2)
        assert same_bits(tree_arrays(grown, 0), reference_tree(X, y, min_leaf=2))

    def test_search_blocks_split_without_changing_trees(self, monkeypatch):
        rng = np.random.default_rng(5)
        X, y = np.round(rng.normal(size=(90, 5)), 1), rng.normal(size=90)
        samples = [rng.integers(0, 90, size=90) for _ in range(12)]
        whole = grow(X, y, samples, generators(1, 12), split_features=2, min_leaf=2)
        monkeypatch.setattr(_tree, "_GROW_CHUNK", 50)
        blocks = grow(X, y, samples, generators(1, 12), split_features=2, min_leaf=2)
        assert all(same_bits(tree_arrays(whole, t), tree_arrays(blocks, t)) for t in range(12))

    def test_search_blocks_split_a_level_without_changing_trees(self, monkeypatch):
        # trees that draw no columns search a whole level at once; blocks of
        # 50 elements split each level's nodes over many searches
        rng = np.random.default_rng(5)
        X, y = np.round(rng.normal(size=(90, 5)), 1), rng.normal(size=90)
        samples = [rng.integers(0, 90, size=90) for _ in range(12)]
        whole = grow(X, y, samples, split_features=0, min_leaf=2)
        monkeypatch.setattr(_tree, "_GROW_CHUNK", 50)
        blocks = grow(X, y, samples, split_features=0, min_leaf=2)
        for t, sample in enumerate(samples):
            reference = reference_tree(X[sample], y[sample], min_leaf=2)
            assert same_bits(tree_arrays(whole, t), reference)
            assert same_bits(tree_arrays(blocks, t), reference)

    def test_a_tree_that_draws_nothing_searches_once_per_level(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(256, 2)), rng.normal(size=256)
        calls = []

        def counting(*args):
            calls.append(len(args[3]))  # the nodes of one padded search
            return best_splits(*args)

        best_splits = _tree._best_splits
        monkeypatch.setattr(_tree, "_best_splits", counting)
        grown = grow(X, y, [np.arange(256)], min_leaf=1)
        reference = reference_tree(X, y, min_leaf=1)
        assert same_bits(tree_arrays(grown, 0), reference)
        # distinct rows: every node of two rows or more splits, so the nodes that
        # search are the inner nodes, and their levels are the searches
        feature, _, left, right, _ = reference
        depth = np.zeros(feature.size, dtype=int)
        for v in np.flatnonzero(feature >= 0):
            depth[[left[v], right[v]]] = depth[v] + 1
        levels = np.unique(depth[feature >= 0])
        assert len(calls) == levels.size < sum(calls) == np.count_nonzero(feature >= 0)

    def test_trees_deeper_than_62_levels_keep_preorder(self):
        # each split cuts off the largest target alone, so the first tree is a
        # chain 79 splits deep whose path codes outgrow int64
        X, y = np.arange(80.0)[:, None], 3.0 ** np.arange(80)
        samples = [np.arange(80), np.arange(30)]
        grown = grow(X, y, samples, min_leaf=1, max_depth=100)
        assert np.count_nonzero(grown.feature[:grown.roots[1]] >= 0) == 79
        for t, sample in enumerate(samples):
            assert same_bits(tree_arrays(grown, t),
                             reference_tree(X[sample], y[sample], min_leaf=1, max_depth=100))


@pytest.mark.parametrize("cols", range(2, 13))
def test_bulk_subset_draws_are_numpy_choice_draws(cols, monkeypatch):
    # a first draw large enough for every count, so it draws exactly `count`
    monkeypatch.setattr(_tree, "_FIRST_DRAW", 1 << 12)
    for k in range(1, cols):
        for seed in range(50):
            count = 1 + seed % 40
            rng, twin = np.random.default_rng([seed, cols, k]), np.random.default_rng([seed, cols, k])
            drawn = list(itertools.islice(_tree._subsets(rng, cols, k, count), count))
            assert drawn == [np.sort(twin.choice(cols, k, replace=False)).tolist()
                             for _ in range(count)]
            assert rng.random() == twin.random()


def test_later_bulk_draws_double():
    # draws of 1, 2 and 4 subsets: four taken, seven drawn
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    drawn = list(itertools.islice(_tree._subsets(rng, 9, 3, 1), 4))
    expected = [np.sort(twin.choice(9, 3, replace=False)).tolist() for _ in range(7)]
    assert drawn == expected[:4]
    assert rng.random() == twin.random()


def tree_order_sum(trees, X):
    """Each row's mean leaf value, every row walked through every tree, summed in tree order."""
    acc = np.zeros(X.shape[0])
    for leaves in walked_leaves(trees, X, np.arange(X.shape[0])):
        acc += trees.value[leaves]
    return acc / trees.roots.size


def first_row_of_each_cell(trees, X):
    """The first row of each class of rows that take the same side of every threshold."""
    inner = trees.feature >= 0
    sides = X[:, trees.feature[inner]] <= trees.threshold[inner]
    if not sides.shape[1]:
        return np.arange(min(X.shape[0], 1))
    return np.sort(np.unique(sides, axis=0, return_index=True)[1])


def counted_intervals(trees, X):
    """Each row's interval on each column of `_cuts`: the number of cuts its value is not at most."""
    return [(~(X[:, column, None] <= cuts)).sum(axis=1) for column, cuts, _ in trees._cuts]


def densified_cells(trees, X):
    """Each row's cell and each cell's first row, the cells numbered densely after every column."""
    cell = np.zeros(X.shape[0], dtype=np.intp)
    for (_, cuts, _), interval in zip(trees._cuts, counted_intervals(trees, X)):
        cell = np.unique(cell * (cuts.size + 1) + interval, return_inverse=True)[1]
    return cell, np.unique(cell, return_index=True)[1]


def combs(thresholds, values):
    """One tree per column: a chain of splits on it, each with a leaf on its left."""
    feature, threshold, value, roots = [], [], [], []
    for column, (cuts, leaf_values) in enumerate(zip(thresholds, values)):
        roots.append(len(feature))
        for t in cuts:
            feature += [column, -1]
            threshold += [t, 0.0]
        feature.append(-1)
        threshold.append(0.0)
        value += [v for leaf in leaf_values[:-1] for v in (0.0, leaf)] + [leaf_values[-1]]
    return _Trees(feature, threshold, value, roots)


class ScoredRows:
    """Patches `_Trees._leaf_values` to record the rows it scores and its (tree, row) pairs."""

    def __init__(self, monkeypatch):
        self.rows, self.sizes = [], []
        leaf_values = _Trees._leaf_values

        def recording(trees, intervals, rows):
            self.rows.extend(rows.tolist())
            self.sizes.append(trees.roots.size * rows.size)
            return leaf_values(trees, intervals, rows)
        monkeypatch.setattr(_Trees, "_leaf_values", recording)


def unique_cuts(trees):
    """Each split column's sorted distinct thresholds, by `np.unique` over the pairs."""
    inner = trees.feature >= 0
    pairs = np.unique(np.column_stack([trees.feature[inner], trees.threshold[inner]]), axis=0)
    columns, starts = np.unique(pairs[:, 0], return_index=True)
    return list(zip(columns.astype(int).tolist(),
                    [c.tolist() for c in np.split(pairs[:, 1], starts[1:])]))


def exit_leaves(trees, X, rows):
    """The leaf each of `rows` reaches in each tree by masks, as (trees, rows).

    The masks score a copy of the trees whose every node's value is its
    number, so the values they look up are the leaves.
    """
    numbered = _Trees(**{**trees.arrays(), "value": np.arange(trees.feature.size, dtype=float)})
    values = numbered._leaf_values(numbered._intervals(X), rows)
    assert values.flags.c_contiguous and values.shape == (trees.roots.size, rows.size)
    return values.astype(np.int64)


def walked_leaves(trees, X, rows):
    """The leaf each of `rows` reaches in each tree, walked node by node, as (trees, rows)."""
    return walk_trees(trees.feature, trees.threshold, trees.roots, X[rows])


def queries_around(trees, X):
    """Every value of X's columns, each threshold and its neighbours, ±0.0, ±inf and NaN."""
    pools = []
    for c in range(X.shape[1]):
        cuts = trees.threshold[trees.feature == c]
        pools.append(np.unique(np.concatenate([
            X[:, c], cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
            [-0.0, 0.0, -np.inf, np.inf, np.nan]])))
    return pools


@st.composite
def fitted_trees_and_queries(draw):
    """A forest or a single cart_reg tree and queries on and around its thresholds.

    Query values come from the training values, the thresholds and their
    floating-point neighbours, ±0.0, ±inf and NaN; rows repeat, and a
    constant training column is one that no tree splits on.
    """
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p), min_size=n, max_size=n)))
    if draw(st.booleans()):
        X = np.hstack([X, np.full((n, 1), 1.0)])
    y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        trees = _fit_regressor("forest_reg", X, y, seed=draw(st.integers(0, 99)),
                               n_trees=draw(st.integers(1, 8)))
    else:
        trees = _fit_regressor("cart_reg", X, y)
    pools = [pool.tolist() for pool in queries_around(trees, X)]
    distinct = [[draw(st.sampled_from(pool)) for pool in pools]
                for _ in range(draw(st.integers(0, 12)))]
    repeats = draw(st.lists(st.integers(0, max(len(distinct) - 1, 0)),
                            max_size=20 if distinct else 0))
    queries = np.array(distinct + [distinct[r] for r in repeats]).reshape(-1, X.shape[1])
    return trees, queries


class TestForestPredict:
    @settings(max_examples=300, deadline=None)
    @given(case=fitted_trees_and_queries())
    def test_cells_predict_as_every_row_walked(self, case):
        trees, queries = case
        expected = tree_order_sum(trees, queries)
        with pytest.MonkeyPatch.context() as monkeypatch:
            scored = ScoredRows(monkeypatch)
            got = trees.predict(queries)
        assert got.tobytes() == expected.tobytes()
        cell, first, intervals = trees._cells(queries)
        assert same_bits((cell, first), densified_cells(trees, queries))
        assert same_bits(intervals, counted_intervals(trees, queries))
        # only the first row of each cell is scored, once and in every tree
        assert sorted(scored.rows) == first_row_of_each_cell(trees, queries).tolist()
        assert sum(scored.sizes) == trees.roots.size * len(scored.rows)
        rows = np.arange(queries.shape[0])
        assert np.array_equal(exit_leaves(trees, queries, rows), walked_leaves(trees, queries, rows))
        assert [(c, cuts.tolist()) for c, cuts, _ in trees._cuts] == unique_cuts(trees)

    def test_a_batch_that_varies_one_column_walks_one_row_per_interval(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, y = rng.uniform(0, 1, size=(80, 4)), rng.normal(size=80)
        forest = _fit_regressor("forest_reg", X, y, seed=2, n_trees=20)
        queries = np.tile(X[0], (10_000, 1))
        queries[:, 2] = rng.uniform(-0.5, 1.5, size=10_000)
        cuts = np.unique(forest.threshold[forest.feature == 2]).size
        assert 0 < cuts < 100
        scored = ScoredRows(monkeypatch)
        forest.predict(queries)
        assert scored.sizes and sum(scored.sizes) <= 20 * (cuts + 1)

    def test_mean_is_the_tree_order_sum_of_leaf_values(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(60, 3)), rng.normal(size=60)
        forest = _fit_regressor("forest_reg", X, y, seed=4, n_trees=9)
        queries = rng.normal(size=(37, 3))
        queries = np.vstack([queries, queries[::3]])  # 37 cells of 50 rows
        expected = tree_order_sum(forest, queries)
        monkeypatch.setattr(_tree, "_PREDICT_CHUNK", 20)  # two rows of 9 trees at once
        scored = ScoredRows(monkeypatch)
        assert forest.predict(queries).tobytes() == expected.tobytes()
        assert scored.sizes == [2 * 9] * 18 + [9]
        # the sum starts from 0.0, so leaves of -0.0 predict +0.0, for one tree too
        for roots in ([0], [0, 1]):
            stumps = _Trees([-1] * len(roots), [0.0] * len(roots), [-0.0] * len(roots), roots)
            assert stumps.predict(queries).tobytes() == np.zeros(50).tobytes()

    @pytest.mark.parametrize("queries", [[[0.0]], [[1.0]], [[0.0], [1.0], [0.0]]])
    def test_many_trees_sum_in_tree_order_for_one_row_and_many(self, queries):
        # 101 stumps on one column: in tree order 1e16 absorbs every 1.0, summed pairwise not
        n = 101
        left = [1e16] + [1.0] * (n - 2) + [-1e16]
        right = [-1e16] + [1.0] * (n - 2) + [1e16]
        assert np.sum(left) != 0.0 and np.sum(right) != 0.0
        stumps = _Trees([0, -1, -1] * n, [0.5, 0.0, 0.0] * n,
                        [v for pair in zip(left, right) for v in (0.0, *pair)], 3 * np.arange(n))
        queries = np.array(queries)
        got = stumps.predict(queries)
        assert got.tobytes() == tree_order_sum(stumps, queries).tobytes()
        assert got.tolist() == [0.0] * queries.shape[0]

    def test_seeded_forest_is_pinned(self):
        # digests of the trees and predictions of the recursive per-tree builder;
        # a duplicate column ties the splits on it, which the sorted draw breaks
        rng = np.random.default_rng(2024)
        X = np.round(rng.uniform(0, 3, size=(40, 6)), 1)
        X[:, 4] = X[:, 1]
        y = np.sin(X[:, 0] * 2) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, 40)
        forest = _fit_regressor("forest_reg", X, y, seed=3, n_trees=7)
        queries = np.round(rng.uniform(-0.5, 3.5, size=(25, 6)), 2)
        digest = hashlib.sha256()
        for t in range(7):
            for a in tree_arrays(forest, t):
                digest.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
        assert [len(tree_arrays(forest, t)[0]) for t in range(7)] == [11, 11, 9, 11, 11, 11, 11]
        assert digest.hexdigest() == (
            "d65e73639dfcc643bda531e9d679cb1112cba62a53962145039938fa91e6c5c3")
        predicted = forest.predict(np.vstack([X, queries]))
        assert float(predicted[0]).hex() == "0x1.7778aaa0c8530p-1"
        assert hashlib.sha256(predicted.astype("<f8").tobytes()).hexdigest() == (
            "c79e9aa7c1986c63e4819c7ec3a6ea8a9e837a7d4b3a3790d3f4a3812830814b")


class TestCellCodes:
    """Cells from one mixed-radix code equal the cells densified after every column."""

    @pytest.mark.parametrize("seed", range(3))
    def test_codes_past_int64_densify_in_order(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        columns = 12
        thresholds = [np.sort(rng.choice(np.linspace(-1.0, 1.0, 401), int(rng.integers(90, 110)),
                                         replace=False)) for _ in range(columns)]
        values = [rng.normal(size=cuts.size + 1) for cuts in thresholds]
        trees = combs(thresholds, values)
        assert len(trees._cuts) == columns
        assert np.prod([float(cuts.size + 1) for _, cuts, _ in trees._cuts]) > 2.0 ** 63
        # rows on, between and beyond the thresholds; a third of them repeat earlier rows
        X = rng.choice(np.linspace(-1.2, 1.2, 481), size=(600, columns))
        X = np.vstack([X, X[rng.integers(0, 600, 300)]])
        X[rng.integers(0, 900, 50), rng.integers(0, columns, 50)] = np.nan
        expected = densified_cells(trees, X)
        assert np.unique(expected[0]).size < X.shape[0]
        assert same_bits(trees._cells(X)[:2], expected)
        got = trees.predict(X)
        assert got.tobytes() == tree_order_sum(trees, X).tobytes()
        monkeypatch.setattr(_Trees, "_cells", lambda trees, X: (*densified_cells(trees, X),
                                                                counted_intervals(trees, X)))
        assert got.tobytes() == trees.predict(X).tobytes()


def leaf_count(trees):
    bounds = [*trees.roots.tolist(), trees.feature.size]
    return [int((trees.feature[a:b] < 0).sum()) for a, b in zip(bounds, bounds[1:])]


def assert_predicts_as_walked(trees, X):
    """Every combination of two columns' query values predicts as the tree-order sum."""
    pools = queries_around(trees, X)
    grid = np.array(np.meshgrid(*pools[:2], indexing="ij")).reshape(2, -1).T
    queries = np.tile(X[:1], (grid.shape[0], 1))
    queries[:, :2] = grid
    rows = np.arange(queries.shape[0])
    assert np.array_equal(exit_leaves(trees, queries, rows), walked_leaves(trees, queries, rows))
    assert trees.predict(queries).tobytes() == tree_order_sum(trees, queries).tobytes()


WIDTHS = {8: (np.uint8, 1), 9: (np.uint16, 1), 16: (np.uint16, 1), 17: (np.uint32, 1),
          32: (np.uint32, 1), 33: (np.uint64, 1), 64: (np.uint64, 1), 65: (np.uint64, 2)}


def assert_mask_type(trees, dtype, words):
    """Full masks and every column's table in `dtype`, `words` of it per tree."""
    top = trees._lookup[0]
    assert top.dtype == dtype and top.shape == (trees.roots.size, words)
    assert all(table.dtype == dtype and table.shape[1:] == top.shape
               for _, _, table in trees._cuts)


def training_rows(n, seed):
    rng = np.random.default_rng(seed)
    # distinct values on both sides of 0.0, the 2nd column coarse so it ties
    X = np.column_stack([rng.permutation(np.linspace(-1.0, 1.0, n)),
                         np.round(rng.uniform(-1.0, 1.0, n), 1)])
    return X, rng.normal(size=n)


def assert_a_tree_of_n_leaves_predicts_as_walked(n):
    X, y = training_rows(n, n)
    tree = grow(X[:, :1], y, [np.arange(n)], min_leaf=1, max_depth=n)
    assert leaf_count(tree) == [n]
    assert_mask_type(tree, *WIDTHS[n])
    assert_predicts_as_walked(tree, np.hstack([X[:, :1], X[:, :1]]))


class TestManyLeaves:
    """Trees of more than 64 leaves take several mask words per tree."""

    rows = staticmethod(training_rows)

    def test_a_tree_of_three_words(self):
        X, y = self.rows(1000, 1)
        tree = _fit_regressor("cart_reg", X, y)
        assert leaf_count(tree)[0] >= 129
        assert_mask_type(tree, np.uint64, -(-leaf_count(tree)[0] // 64))
        assert_predicts_as_walked(tree, X)

    @pytest.mark.parametrize("n", [64, 65])
    def test_a_tree_of_64_or_65_leaves(self, n):
        assert_a_tree_of_n_leaves_predicts_as_walked(n)

    def test_a_forest_whose_trees_straddle_64_leaves(self):
        X, y = self.rows(140, 3)
        sizes = [40, 63, 64, 65, 66, 129, 140]
        forest = grow(X, y, [np.arange(k) for k in sizes], min_leaf=1, max_depth=140)
        assert leaf_count(forest) == sizes
        assert_mask_type(forest, np.uint64, 3)
        assert_predicts_as_walked(forest, X)


class TestMaskWidths:
    """Masks take the narrowest unsigned type that holds the largest tree's leaves."""

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33])
    def test_a_tree_of_n_leaves(self, n):
        assert_a_tree_of_n_leaves_predicts_as_walked(n)

    @pytest.mark.parametrize("n", sorted(WIDTHS))
    def test_a_forest_whose_largest_tree_has_n_leaves(self, n):
        X, y = training_rows(n, n + 1)
        sizes = [n // 2, n, 2, n - 1]
        forest = grow(X, y, [np.arange(k) for k in sizes], min_leaf=1, max_depth=n)
        assert leaf_count(forest) == sizes
        assert_mask_type(forest, *WIDTHS[n])
        assert_predicts_as_walked(forest, X)

    def test_a_forest_whose_trees_straddle_8_leaves(self):
        X, y = training_rows(9, 3)
        sizes = [1, 3, 8, 9, 5]
        forest = grow(X, y, [np.arange(k) for k in sizes], min_leaf=1, max_depth=9)
        assert leaf_count(forest) == sizes
        assert_mask_type(forest, np.uint16, 1)
        assert_predicts_as_walked(forest, X)


@pytest.mark.parametrize("seed", range(5))
def test_cuts_of_random_forests_are_the_unique_reference(seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(200, 5)), int(rng.integers(0, 3)))
    forest = _fit_regressor("forest_reg", X, rng.normal(size=200), seed=seed, n_trees=30)
    assert [(c, cuts.tolist()) for c, cuts, _ in forest._cuts] == unique_cuts(forest)
    assert all(table.shape[:2] == (cuts.size + 1, 30) for _, cuts, table in forest._cuts)


def preorder_tree(draw, most):
    """The inner/leaf pattern of one random tree in preorder, of at most `most` splits."""
    inner, open_nodes = [], 1
    while open_nodes:
        split = sum(inner) < most and draw(st.booleans())
        inner.append(split)
        open_nodes += 1 if split else -1
    return inner


@st.composite
def inner_patterns(draw):
    """Inner/leaf patterns and root lists: forests in preorder, forests with one node
    flipped or one root moved, and random patterns with random roots."""
    kind = draw(st.sampled_from(["forest", "flipped", "moved", "random"]))
    if kind == "random":
        inner = draw(st.lists(st.booleans(), max_size=20))
        n = len(inner)
        roots = draw(st.one_of(
            st.lists(st.integers(-1, n), max_size=4),
            st.sets(st.integers(1, max(n - 1, 1)), max_size=3).map(lambda r: [0, *sorted(r)])))
        return inner, roots
    inner, roots = [], []
    for _ in range(draw(st.integers(1, 4))):
        roots.append(len(inner))
        inner += preorder_tree(draw, draw(st.integers(0, 6)))
    if kind == "flipped":
        v = draw(st.integers(0, len(inner) - 1))
        inner[v] = not inner[v]
    elif kind == "moved":
        roots[draw(st.integers(0, len(roots) - 1))] = draw(st.integers(-1, len(inner)))
    return inner, roots


class TestNodeArrays:
    """Node arrays that are not trees in preorder raise instead of scoring a wrong leaf."""

    # two trees of three nodes: a split at the root and two leaves
    GOOD = dict(feature=[0, -1, -1, 0, -1, -1], threshold=[0.5, 0, 0, 0.2, 0, 0],
                value=[0.0, 1.0, 2.0, 0.0, 3.0, 4.0], roots=[0, 3])

    def test_preorder_trees_are_accepted(self):
        trees = _Trees(**self.GOOD)
        assert trees.right.tolist() == [2, -1, -1, 5, -1, -1]
        assert trees.predict(np.array([[0.1], [0.3], [0.9]])).tolist() == [2.0, 2.5, 3.0]

    def test_a_right_child_after_a_split_left_subtree_is_derived(self):
        # node 1 splits into nodes 2 and 3, so the root's right child is node 4
        trees = _Trees([0, 0, -1, -1, -1], [0.5, 0.2, 0, 0, 0], [0.0, 0.0, 1.0, 2.0, 3.0], [0])
        assert trees.right.tolist() == [4, 3, -1, -1, -1]
        assert trees.predict(np.array([[0.1], [0.3], [0.9]])).tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("change", [
        {"threshold": [0.5, 0, 0, np.nan, 0, 0]},
        {"value": [0.0, 1.0, 2.0, 0.0, 3.0]},
        {"feature": [[0, -1, -1, 0, -1, -1]]},
        {"roots": [3, 0]}, {"roots": [0, 0]}, {"roots": [0, 6]}, {"roots": [-1, 3]},
        {"roots": []}, {"roots": [[0, 3]]},
        {"roots": [1, 3]},  # a node before the first tree
        {"roots": [0, 2]},  # a root inside the first tree
        {"roots": [0]},  # one root for two trees: the run goes on after its tree ends
        {"feature": [-1, -1, -1, 0, -1, -1]},  # the first run ends after one leaf
        {"feature": [0, 0, -1, 0, -1, -1]},  # the first run ends inside its tree
        {"feature": [0, -1, -1, 0, -1, 0]},  # the last run ends inside its tree
        # not integers, or integers that int32 would wrap or truncate
        {"feature": [0.7, -1, -1, 0, -1, -1]},
        {"feature": [2 ** 32, -1, -1, 0, -1, -1]},
        {"feature": np.array([0, 2 ** 64 - 1, 2 ** 64 - 1, 0, 2 ** 64 - 1, 2 ** 64 - 1],
                             dtype=np.uint64)},
        {"feature": [True, False, False, True, False, False]},
        {"roots": [0.0, 3.0]}, {"roots": [0, 3 + 2 ** 32]},
    ])
    def test_arrays_that_are_not_preorder_trees_raise(self, change):
        with pytest.raises(ValueError):
            _Trees(**{**self.GOOD, **change})

    def test_a_split_without_children_raises_before_any_walk(self):
        with pytest.raises(ValueError):
            _Trees([0], [0.5], [1.0], [0])

    @settings(max_examples=400, deadline=None)
    @given(case=inner_patterns())
    def test_accepts_exactly_the_parsed_trees_with_their_children(self, case):
        inner, roots = case
        n = len(inner)
        parsed = parse_preorder_trees(inner, roots)
        arrays = dict(feature=np.where(inner, 0, -1).astype(np.int64), threshold=np.full(n, 0.5),
                      value=np.zeros(n), roots=np.array(roots, dtype=np.int64))
        if parsed is None:
            with pytest.raises(ValueError):
                _Trees(**arrays)
        else:
            trees = _Trees(**arrays)
            assert trees.right.tolist() == parsed[1]
            assert trees.right.dtype == np.int32

    @settings(max_examples=100, deadline=None)
    @given(case=fitted_trees_and_queries())
    def test_fitted_trees_rebuild_from_their_arrays(self, case):
        trees, queries = case
        assert sorted(trees.arrays()) == ["feature", "roots", "threshold", "value"]
        parsed = parse_preorder_trees((trees.feature >= 0).tolist(), trees.roots.tolist())
        assert trees.right.tolist() == parsed[1]
        rebuilt = _Trees(**trees.arrays())
        assert rebuilt.predict(queries).tobytes() == trees.predict(queries).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=growth())
    def test_grown_trees_rebuild_from_their_arrays(self, case):
        X, y, samples, params, seed = case
        trees = grow(X, y, samples, generators(seed, len(samples)), **params)
        parsed = parse_preorder_trees((trees.feature >= 0).tolist(), trees.roots.tolist())
        assert trees.right.tolist() == parsed[1]
        rebuilt = _Trees(**trees.arrays())
        rows = np.arange(X.shape[0])
        assert same_bits([rebuilt.predict(X), walked_leaves(rebuilt, X, rows)],
                         [trees.predict(X), walked_leaves(trees, X, rows)])
