"""Independent brute-force enumerator for discrete risk tables.

Pure dict-and-tuple reimplementation of every tunability quantity, used as
the oracle against the optimization engine. Works on unconditional
discrete spaces where a configuration is just the tuple of chosen levels,
iterated in declaration-order lexicographic (itertools.product) order with
first-found tie-breaking. The grid, encoding and tree oracles below are as
plain: `walk_trees` walks rows node by node through trees whose children
`parse_preorder_trees` derives by recursive descent.
"""

import itertools


def all_cells(space):
    supports = []
    for p in space.params:
        if p.kind == "integer":
            supports.append(list(range(int(p.lower), int(p.upper) + 1)))
        elif p.kind in ("discrete", "logical"):
            supports.append(list(p.levels))
        else:
            raise ValueError("brute force covers discrete/integer spaces only")
    return [tuple(combo) for combo in itertools.product(*supports)]


def bf_min(table, cells):
    best_key, best_risk = None, None
    for cell in cells:
        r = table[cell]
        if best_risk is None or r < best_risk:
            best_key, best_risk = cell, r
    return best_key, best_risk


def bf_defaults(tables, cells, agg=None):
    """Cell minimizing the aggregated risk over datasets (default: mean)."""
    if agg is None:
        agg = lambda vals: sum(vals) / len(vals)
    best_key, best_val = None, None
    for cell in cells:
        v = agg([t[cell] for t in tables])
        if best_val is None or v < best_val:
            best_key, best_val = cell, v
    return best_key, best_val


def bf_slice(cells, ref, free):
    """Cells agreeing with the reference everywhere outside `free` indexes."""
    keep = []
    for cell in cells:
        if all(cell[i] == ref[i] for i in range(len(ref)) if i not in free):
            keep.append(cell)
    return keep


def bf_algorithm_tunability(table, cells, ref):
    _, best = bf_min(table, cells)
    return table[ref] - best


def bf_param_tunability(table, cells, ref, i):
    key, best = bf_min(table, bf_slice(cells, ref, {i}))
    return key, table[ref] - best


def bf_pair_tunability(table, cells, ref, i1, i2):
    key, best = bf_min(table, bf_slice(cells, ref, {i1, i2}))
    _, r1 = bf_min(table, bf_slice(cells, ref, {i1}))
    _, r2 = bf_min(table, bf_slice(cells, ref, {i2}))
    d = table[ref] - best
    gain = min(r1, r2) - best
    return key, d, gain


def grid_cells(space, levels, fixed):
    """Every grid cell as (values, active), by products rather than recursion.

    The unconditional parameters run through itertools.product in
    declaration order; under each of their combinations the conditional
    parameters run through a second product, each over its grid when its
    parent's value activates it and over its one fixed or placeholder value
    otherwise. Pinned parameters take their one fixed value.
    """
    from tunemeter.hyperspace import grid_values

    def support(p):
        return [fixed[p.name]] if p.name in fixed else grid_values(p, levels)

    roots = [p for p in space.params if p.condition is None]
    children = [p for p in space.params if p.condition is not None]
    cells = []
    for root_values in itertools.product(*(support(p) for p in roots)):
        values = dict(zip((p.name for p in roots), root_values))
        on = [values[c.condition.parent] in c.condition.values for c in children]
        active = {**{p.name: True for p in roots}, **{c.name: a for c, a in zip(children, on)}}
        child_supports = [support(c) if a else [fixed.get(c.name, c.placeholder())]
                          for c, a in zip(children, on)]
        for child_values in itertools.product(*child_supports):
            cells.append(({**values, **dict(zip((c.name for c in children), child_values))},
                          active))
    return cells


def encode_rows(space, configs):
    """Encoded rows built one configuration and one cell at a time from the dicts.

    The column layout of `surrogate.ConfigEncoder.build(space)`: a numeric
    parameter's value, or its midpoint when inactive, plus an activity column
    when conditional; a one-hot over a level parameter's levels, plus an
    inactive column when conditional.
    """
    import numpy as np

    width = sum((1 if p.kind in ("numeric", "integer") else len(p.levels)) + p.is_conditional
                for p in space.params)
    out = np.zeros((len(configs), width))
    for r, c in enumerate(configs):
        col = 0
        for p in space.params:
            active = c.active.get(p.name, False)
            if p.kind in ("numeric", "integer"):
                out[r, col] = float(c.values[p.name]) if active else float(p.placeholder())
                col += 1
                if p.is_conditional:
                    out[r, col] = 1.0 if active else 0.0
                    col += 1
            else:
                if active:
                    out[r, col + p.levels.index(c.values[p.name])] = 1.0
                elif p.is_conditional:
                    out[r, col + len(p.levels)] = 1.0
                col += len(p.levels) + p.is_conditional
    return out


def parse_preorder_trees(inner, roots):
    """Each root's run of nodes parsed as one tree in preorder, by recursive descent.

    `inner[v]` says whether node v splits; the run of a root ends at the next
    root or after the last node. A node consumes itself and, when inner, its
    left subtree and then its right one. Returns the (left, right) child
    lists, -1 at a leaf, or None when the roots do not start at node 0 and
    strictly increase within the nodes, or a run ends before or after its tree.
    """
    n = len(inner)
    if not roots or roots[0] != 0 or roots[-1] >= n or any(
            a >= b for a, b in zip(roots, roots[1:])):
        return None
    left, right = [-1] * n, [-1] * n

    def subtree(v, end):
        """The node after the subtree from node v, or None when the run ends inside it."""
        if v >= end:
            return None
        if not inner[v]:
            return v + 1
        after_left = subtree(v + 1, end)
        if after_left is None:
            return None
        left[v], right[v] = v + 1, after_left
        return subtree(after_left, end)

    for root, end in zip(roots, [*roots[1:], n]):
        if subtree(root, end) != end:
            return None
    return left, right


def walk_trees(feature, threshold, roots, X):
    """The node each row of X stops at in each tree, walked node by node, as (trees, rows).

    The children come from `parse_preorder_trees` over the node arrays, not
    from any child array of the trees under test. A row goes left at a node
    when its value is at most the threshold, and right otherwise (NaN goes
    right). Node arrays that are not trees in preorder raise ValueError.
    """
    import numpy as np

    feature, threshold = np.asarray(feature), np.asarray(threshold)
    parsed = parse_preorder_trees((feature >= 0).tolist(), np.asarray(roots).tolist())
    if parsed is None:
        raise ValueError("node arrays are not trees in preorder")
    left, right = (np.array(c, dtype=np.intp) for c in parsed)
    X = np.asarray(X, dtype=float)
    n_trees, n_rows = len(roots), X.shape[0]
    node = np.repeat(np.asarray(roots, dtype=np.intp), n_rows)
    row = np.tile(np.arange(n_rows), n_trees)
    active = np.flatnonzero(feature[node] >= 0)  # the (tree, row) pairs still at a split
    while active.size:
        at = node[active]
        go_left = X[row[active], feature[at]] <= threshold[at]
        node[active] = at = np.where(go_left, left[at], right[at])
        active = active[feature[at] >= 0]
    return node.reshape(n_trees, n_rows)


def elastic_net_descent(Xs, ys, alpha, lam, tests, iterations=500, step=0.1):
    """The stacked elastic-net descent run for all its steps, with no early stop.

    The arithmetic of `metadata._ElasticNetLogReg`, expression for
    expression: each fold standardized by its own `_Standardizer` and padded
    with zero rows to the longest fold, residuals of the padding masked, and
    each proximal step a gradient step, then soft thresholding and a shrink.
    Returns the (folds, p) weights, the (folds,) intercepts and each fold's
    probabilities for its rows of `tests`.
    """
    import numpy as np

    from tunemeter.metadata import _Standardizer

    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    Xs = [np.asarray(X, dtype=float) for X in Xs]
    scalers = [_Standardizer(X) for X in Xs]
    sizes = np.array([X.shape[0] for X in Xs])
    Z = np.zeros((len(Xs), int(sizes.max()), Xs[0].shape[1]))
    Y = np.zeros(Z.shape[:2])
    mask = np.zeros(Z.shape[:2])
    for f, (X, y) in enumerate(zip(Xs, ys)):
        Z[f, :sizes[f]] = scalers[f](X)
        Y[f, :sizes[f]] = y
        mask[f, :sizes[f]] = 1.0
    Zt = Z.transpose(0, 2, 1)
    n = sizes.astype(float)
    w = np.zeros((len(Xs), Z.shape[2]))
    b = np.zeros(len(Xs))
    thr = step * lam * alpha
    shrink = 1.0 + step * lam * (1.0 - alpha)
    for _ in range(iterations):
        resid = (sigmoid((Z @ w[:, :, None])[:, :, 0] + b[:, None]) - Y) * mask
        w = w - step * (Zt @ resid[:, :, None])[:, :, 0] / n[:, None]
        b = b - step * (resid.sum(axis=1) / n)
        w = np.sign(w) * np.maximum(np.abs(w) - thr, 0.0) / shrink
    probs = [sigmoid(scaler(np.asarray(X, dtype=float)) @ w[f] + b[f])
             for f, (scaler, X) in enumerate(zip(scalers, tests))]
    return w, b, probs
