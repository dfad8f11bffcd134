import numpy as np

from tunemeter.hyperspace import DatasetInfo, make_configuration, parse_space
from tunemeter.metadata import ExperimentRow, MetaDataset
from tunemeter.surrogate import ConfigEncoder


class TablePredictor:
    """Risk lookup over a discrete space, keyed by encoded configuration rows."""

    def __init__(self, space, table):
        self.encoder = ConfigEncoder.build(space)
        configs = [make_configuration(space, {name: v for name, v in zip(space.names, cell)
                                              if v is not None}) for cell in table]
        rows = self.encoder.encode_configs(configs)
        self.table = {row.tobytes(): risk for row, risk in zip(rows, table.values())}

    def predict_encoded(self, X):
        return np.array([self.table[row.tobytes()] for row in X])


class FunctionPredictor:
    """Risk as a function of one numeric parameter."""

    def __init__(self, space, fn, param="x"):
        self.encoder = ConfigEncoder.build(space)
        self.column = self.encoder.columns.index(param)
        self.fn = fn

    def predict_encoded(self, X):
        return np.array([self.fn(v) for v in X[:, self.column].tolist()], dtype=float)


def integer_grid_space(sizes, algorithm="table"):
    """Space of integer parameters p0..p_{k-1} with ranges [0, size-1]."""
    params = [
        {"name": f"p{i}", "kind": "integer", "lower": 0, "upper": int(size) - 1}
        for i, size in enumerate(sizes)
    ]
    return parse_space({"algorithm": algorithm, "params": params})


def random_table(space, rng):
    """Random risk table over every cell of a discrete space."""
    from bruteforce import all_cells

    return {cell: float(rng.uniform(0, 1)) for cell in all_cells(space)}


def numeric_space(lower=0.0, upper=1.0, name="x", algorithm="toy"):
    return parse_space({
        "algorithm": algorithm,
        "params": [{"name": name, "kind": "numeric", "lower": lower, "upper": upper}],
    })


def meta_from_values(space, per_dataset, measures=("brier",), n=50, p=4):
    """Build a MetaDataset from {dataset_id: [(values_dict, measures_dict), ...]}."""
    infos = [DatasetInfo(ds_id, n=n, p=p) for ds_id in per_dataset]
    rows = []
    for ds_id, records in per_dataset.items():
        for values, meas in records:
            rows.append(ExperimentRow(ds_id, make_configuration(space, values), dict(meas)))
    return MetaDataset(
        algorithm=space.algorithm,
        space=space,
        dataset_infos=infos,
        rows=rows,
        measures=tuple(measures),
    )


def smooth_sine_meta(n_rows=200, seed=0, span=6.283185307179586):
    """Noiseless smooth target on one numeric column, stored as a brier measure."""
    space = numeric_space(0.0, span)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, span, n_rows)
    records = [({"x": float(x)}, {"brier": 0.5 + 0.5 * float(np.sin(x))}) for x in xs]
    return meta_from_values(space, {"d0": records})
