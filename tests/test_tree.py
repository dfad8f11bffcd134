"""The CART grower: against a plain Gini tree grown in exact arithmetic, against
the recursive one-tree builder it replaced, and trees grown together against
trees grown alone."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tunemeter import _tree
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
    """Tree t of grown trees as (feature, threshold, left, right, value), children local."""
    bounds = [*trees.roots.tolist(), trees.feature.size]
    a, b = bounds[t], bounds[t + 1]
    local = [np.where(c[a:b] >= 0, c[a:b] - a, -1).astype(np.int32)
             for c in (trees.left, trees.right)]
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


def tree_order_sum(trees, X):
    """Each row's mean leaf value, every row walked through every tree, summed in tree order."""
    acc = np.zeros(X.shape[0])
    for t in range(trees.roots.size):
        acc += trees.value[trees.leaves(X, np.full(X.shape[0], t), np.arange(X.shape[0]))]
    return acc / trees.roots.size


def first_row_of_each_cell(trees, X):
    """The first row of each class of rows that take the same side of every threshold."""
    inner = trees.feature >= 0
    sides = X[:, trees.feature[inner]] <= trees.threshold[inner]
    if not sides.shape[1]:
        return np.arange(min(X.shape[0], 1))
    return np.sort(np.unique(sides, axis=0, return_index=True)[1])


class WalkedRows:
    """Patches `_Trees.leaves` to record the rows and the pair counts of every walk."""

    def __init__(self, monkeypatch):
        self.rows, self.sizes = [], []
        leaves = _Trees.leaves

        def recording(trees, X, tree_ids, rows):
            self.rows.extend(rows.tolist())
            self.sizes.append(rows.size)
            return leaves(trees, X, tree_ids, rows)
        monkeypatch.setattr(_Trees, "leaves", recording)


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
    pools = []
    for c in range(X.shape[1]):
        cuts = trees.threshold[trees.feature == c]
        pools.append(np.unique(np.concatenate([
            X[:, c], cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
            [-0.0, 0.0, -np.inf, np.inf, np.nan]])).tolist())
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
            walked = WalkedRows(monkeypatch)
            got = trees.predict(queries)
        assert got.tobytes() == expected.tobytes()
        # each walk holds every tree of its rows, and only the first row of each cell walks
        assert sorted(set(walked.rows)) == first_row_of_each_cell(trees, queries).tolist()
        assert len(walked.rows) == trees.roots.size * len(set(walked.rows))

    def test_a_batch_that_varies_one_column_walks_one_row_per_interval(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, y = rng.uniform(0, 1, size=(80, 4)), rng.normal(size=80)
        forest = _fit_regressor("forest_reg", X, y, seed=2, n_trees=20)
        queries = np.tile(X[0], (10_000, 1))
        queries[:, 2] = rng.uniform(-0.5, 1.5, size=10_000)
        cuts = np.unique(forest.threshold[forest.feature == 2]).size
        assert 0 < cuts < 100
        walked = WalkedRows(monkeypatch)
        forest.predict(queries)
        assert sum(walked.sizes) <= 20 * (cuts + 1)

    def test_mean_is_the_tree_order_sum_of_leaf_values(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(60, 3)), rng.normal(size=60)
        forest = _fit_regressor("forest_reg", X, y, seed=4, n_trees=9)
        queries = rng.normal(size=(37, 3))
        queries = np.vstack([queries, queries[::3]])  # 37 cells of 50 rows
        expected = tree_order_sum(forest, queries)
        monkeypatch.setattr(_tree, "_PREDICT_CHUNK", 20)  # two rows per walk
        walked = WalkedRows(monkeypatch)
        assert forest.predict(queries).tobytes() == expected.tobytes()
        assert walked.sizes == [2 * 9] * 18 + [9]
        # the sum starts from 0.0, so leaves of -0.0 predict +0.0, for one tree too
        for roots in ([0], [0, 1]):
            stumps = _Trees([-1, -1], [0.0, 0.0], [-1, -1], [-1, -1], [-0.0, -0.0], roots)
            assert stumps.predict(queries).tobytes() == np.zeros(50).tobytes()

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


class TestNodeArrays:
    """Node arrays that are not trees in preorder raise instead of walking forever."""

    # two trees of three nodes: a split at the root and two leaves
    GOOD = dict(feature=[0, -1, -1, 0, -1, -1], threshold=[0.5, 0, 0, 0.2, 0, 0],
                left=[1, -1, -1, 4, -1, -1], right=[2, -1, -1, 5, -1, -1],
                value=[0.0, 1.0, 2.0, 0.0, 3.0, 4.0], roots=[0, 3])

    def test_preorder_trees_are_accepted(self):
        trees = _Trees(**self.GOOD)
        assert trees.predict(np.array([[0.1], [0.3], [0.9]])).tolist() == [2.0, 2.5, 3.0]

    @pytest.mark.parametrize("change", [
        {"right": [2, -1, -1, 1, -1, -1]},  # backwards
        {"right": [3, -1, -1, 5, -1, -1]},  # into the next tree
        {"right": [2, -1, -1, 6, -1, -1]},  # past the end
        {"threshold": [0.5, 0, 0, np.nan, 0, 0]},
        {"value": [0.0, 1.0, 2.0, 0.0, 3.0]},
        {"feature": [[0, -1, -1, 0, -1, -1]]},
        {"roots": [3, 0]}, {"roots": [0, 0]}, {"roots": [0, 6]}, {"roots": [-1, 3]},
        {"roots": []}, {"roots": [[0, 3]]},
    ])
    def test_arrays_that_are_not_preorder_trees_raise(self, change):
        with pytest.raises(ValueError):
            _Trees(**{**self.GOOD, **change})

    def test_a_node_that_is_its_own_child_raises_before_any_walk(self):
        with pytest.raises(ValueError):
            _Trees([0], [0.5], [0], [0], [1.0], [0])
