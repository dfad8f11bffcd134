"""The bot's CART learner against a plain Gini tree grown in exact arithmetic."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from tunemeter._tree import _CartReg
from tunemeter.metadata import ToyLearnerSpec, _build_learner

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
        tree = _build_learner(ToyLearnerSpec("cart_classifier"), params)
        got = tree.fit(np.array(X), np.array(y)).predict(np.array(rows))
        assert got.tolist() == [oracle(x) for x in rows]


def test_threshold_between_neighbours_near_float_maximum():
    X = np.array([[1e308], [1.7e308]])
    with np.errstate(over="raise"):
        tree = _CartReg(min_leaf=1).fit(X, np.array([0.0, 1.0]))
    assert 1e308 <= tree.threshold[0] < 1.7e308
    assert tree.predict(X).tolist() == [0.0, 1.0]
