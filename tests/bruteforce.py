"""Independent brute-force enumerator for discrete risk tables.

Pure dict-and-tuple reimplementation of every tunability quantity, used as
the oracle against the optimization engine. Works on unconditional
discrete spaces where a configuration is just the tuple of chosen levels,
iterated in declaration-order lexicographic (itertools.product) order with
first-found tie-breaking.
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
