"""Per-dataset regression surrogates: configuration in, estimated risk out.

Each surrogate is fit on the meta-data rows of one (dataset, measure) pair
with targets already oriented as risks. Numeric parameters become one
feature column on the untransformed scale (plus an activity indicator when
conditional); discrete parameters are one-hot encoded with an extra
"inactive" level when conditional. Inactive numeric cells are imputed with
the bounds midpoint.

Five regressor kinds are provided: a constant mean, least squares,
distance-weighted nearest neighbors, a variance-reduction regression tree
(the CART tree the toy bot also trains), and a bagged forest of such trees
with per-split feature subsampling. A fitted regressor is its arrays:
`type(reg)(**reg.arrays())` rebuilds it and `reg.predict(X)` maps encoded
rows to risks, so only fitting (`_fit_regressor`) tells the kinds apart.
Both tree kinds are `_tree._Trees` from `_tree.grow`, a forest's bootstraps
grown in one lockstep call; their predict scores one row per cell of the
grid cut by the trees' thresholds, by ANDing precomputed leaf bitmasks
instead of walking the trees (QuickScorer), so repeated and near candidates
cost little. The interval each row falls in on each split column numbers
the cells and picks the bitmasks, so a column is searched once per batch.
The bitmasks are as narrow as the largest tree's leaves allow (uint8 up to
8 leaves, then 16, 32 and 64 bits, and several 64-bit words beyond; as in
V-QuickScorer), and one table lookup per (cell, tree) gives the leaf value:
indexed by the bitmask itself up to 8 leaves, by its lowest set bit beyond.
The nearest neighbors regressor standardizes its columns and finds
neighbors with the toy bot's `_Standardizer` and `_nearest`; selection CV
splits rows with the bot's `stratified_folds`.

A `SurrogateModel` is a `tunability` predictor: a search encodes its
candidates once with the `ConfigEncoder` its surrogates share, and each
surrogate scores that matrix with `predict_encoded`.

The surrogate cache stores a regressor's arrays as `.npz` beside a header
and rebuilds the regressor from them without unpickling. Format 5 stores
trees as `feature`, `threshold`, `value` and `roots`; children are derived.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._rng import derive_rng
from ._tree import _Trees, grow
from .hyperspace import Configuration, SearchSpace, _Block
from .metadata import ExperimentRow, MetaDataset, _nearest, _Standardizer, stratified_folds
from .metrics import MeasureSpec, kendall_tau, r_squared, to_risk

# fixed tie-break order for selection, best candidate first
KIND_ORDER = ("forest_reg", "cart_reg", "knn_reg", "linear", "constant")
# hashed into every cache key and stored in every cache file; bump it when
# the stored arrays change
_CACHE_FORMAT = 5


# -- encoding --------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigEncoder:
    """Maps configurations of one space to a fixed numeric feature layout."""

    space: SearchSpace
    columns: tuple[str, ...]

    @classmethod
    def build(cls, space: SearchSpace) -> "ConfigEncoder":
        cols = []
        for p in space.params:
            if p.kind in ("numeric", "integer"):
                cols.append(p.name)
                if p.is_conditional:
                    cols.append(f"{p.name}__active")
            else:
                for level in p.levels:
                    cols.append(f"{p.name}={level}")
                if p.is_conditional:
                    cols.append(f"{p.name}=__inactive__")
        return cls(space=space, columns=tuple(cols))

    def encode_configs(self, configs: Sequence[Configuration] | _Block) -> np.ndarray:
        """One encoded row per configuration, built a parameter column at a time.

        The encoder reads a candidate block (`hyperspace._Block`): the one
        `tunability.minimize` takes from its distinct rows, or the one
        `_Block.of` builds from plain configurations, where a missing flag
        reads as inactive. A numeric cell is its value, or the midpoint when
        inactive; a level cell is a one-hot over the levels, or over the
        extra inactive column. An unconditional parameter that is flagged
        inactive or has no flag, and an active value that is not one of its
        parameter's levels, raise ValueError naming the parameter.
        """
        block = configs if isinstance(configs, _Block) else _Block.of(self.space, configs)
        out = np.zeros((block.n, len(self.columns)))
        col = 0
        for p in self.space.params:
            values, on = block.values[p.name], block.active[p.name]
            if not p.is_conditional and not on.all():
                raise ValueError(f"unconditional parameter {p.name!r} is inactive or has no "
                                 f"flag in row {int(np.argmin(on))}")
            if p.kind in ("numeric", "integer"):
                numbers = values.astype(float, copy=False)
                out[:, col] = np.where(on, numbers, float(p.placeholder()))
                col += 1
                if p.is_conditional:
                    out[:, col] = on
                    col += 1
                continue
            hot = out[:, col:col + len(p.levels)]
            for j, level in enumerate(p.levels):
                hot[:, j] = on & (values == level)
            stray = on & ~hot.any(axis=1)
            if stray.any():
                r = int(np.argmax(stray))
                raise ValueError(f"parameter {p.name!r}: value {values[r]!r} in row {r} "
                                 f"is not one of its levels")
            col += len(p.levels)
            if p.is_conditional:
                out[:, col] = ~on
                col += 1
        return out


@dataclass
class EncodedMatrix:
    """Feature matrix, risk targets and the encoder that produced them."""

    features: np.ndarray
    targets: np.ndarray
    encoder: ConfigEncoder

    @property
    def columns(self) -> tuple[str, ...]:
        return self.encoder.columns


def encode(space: SearchSpace, rows: Sequence[ExperimentRow], measure: str) -> EncodedMatrix:
    """Encode experiment rows for one dataset; targets are oriented risks."""
    if not rows:
        raise ValueError("cannot encode an empty row list")
    encoder = ConfigEncoder.build(space)
    spec = MeasureSpec(measure)
    features = encoder.encode_configs([r.config for r in rows])
    targets = np.array([to_risk(r.measures[measure], spec) for r in rows])
    return EncodedMatrix(features=features, targets=targets, encoder=encoder)


# -- regressors ------------------------------------------------------------------

class _ConstantReg:
    def __init__(self, value):
        self.value = float(value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"value": np.array(self.value)}

    def predict(self, X):
        return np.full(X.shape[0], self.value)


class _LinearReg:
    def __init__(self, beta):
        self.beta = np.asarray(beta, dtype=float)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"beta": self.beta}

    def predict(self, X):
        # a sum along each row, not a BLAS product, which may round a row differently
        # in a batch than alone: a search reads its risks from one batch
        return (X * self.beta[1:]).sum(axis=1) + self.beta[0]


class _KnnReg:
    """Inverse-distance weighted neighbors on standardized columns.

    A query that coincides with training rows gets the mean target of the
    coinciding rows, the limit of the weighting scheme.
    """

    def __init__(self, X, y, k):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if np.ndim(k) or np.asarray(k).dtype.kind not in "iu" or k < 1:
            raise ValueError(f"k={k} is not an integer >= 1")
        self.k = int(k)
        if self.k > self.X.shape[0]:
            raise ValueError(f"k={self.k} exceeds {self.X.shape[0]} training rows")
        self._standardize = _Standardizer(self.X)
        self._scaled = self._standardize(self.X)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"k": np.array(self.k), "X": self.X, "y": self.y}

    def predict(self, X):
        index, dk = _nearest(self._scaled, self._standardize(X), self.k)
        yk = self.y[index]
        exact = dk <= 0.0
        with np.errstate(divide="ignore"):
            w = np.where(exact, 0.0, 1.0 / dk)
        plain = (w * yk).sum(axis=1) / np.maximum(w.sum(axis=1), 1e-300)
        exact_mean = np.where(exact, yk, 0.0).sum(axis=1) / np.maximum(exact.sum(axis=1), 1)
        return np.where(exact.any(axis=1), exact_mean, plain)


# the class that rebuilds each kind from its arrays; SURROGATE_KINDS keeps this order
_REGRESSORS = {"constant": _ConstantReg, "linear": _LinearReg, "knn_reg": _KnnReg,
               "cart_reg": _Trees, "forest_reg": _Trees}
SURROGATE_KINDS = tuple(_REGRESSORS)
# the one parameter a kind takes, if any
_PARAMETER = {"knn_reg": "k", "forest_reg": "n_trees"}


def _fit_regressor(kind: str, X: np.ndarray, y: np.ndarray, seed: int = 0, **params):
    """Fit one regressor kind on (X, y); the only place that branches on the kind.

    knn_reg takes an integer k >= 1 (default 7), forest_reg n_trees >= 1 (default 100).
    A forest's tree t draws its bootstrap and then its feature subsets, a
    third of the columns per split, from `derive_rng(seed, "tree", t)`.
    """
    if kind not in _REGRESSORS:
        raise ValueError(f"unknown surrogate kind {kind!r}")
    for name in params:
        if name != _PARAMETER.get(kind):
            raise ValueError(f"the {kind} surrogate takes no parameter {name!r}")
    n, cols = X.shape
    if kind == "constant":
        return _ConstantReg(np.mean(y))
    if kind == "linear":
        if n < cols + 1:
            raise ValueError(f"linear surrogate needs >= {cols + 1} rows, got {n}")
        beta, *_ = np.linalg.lstsq(np.hstack([np.ones((n, 1)), X]), y, rcond=None)
        return _LinearReg(beta)
    if kind == "knn_reg":
        return _KnnReg(X, y, params.get("k", 7))
    if kind == "cart_reg":
        return grow(X, y, [np.arange(n)])
    n_trees = params.get("n_trees", 100)
    if n_trees < 1:
        raise ValueError(f"the {kind} surrogate needs n_trees >= 1, got {n_trees}")
    rngs = [derive_rng(seed, "tree", t) for t in range(n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    return grow(X, y, boots, rngs, split_features=max(1, cols // 3))


@dataclass
class SurrogateModel:
    """A fitted risk estimator for one (dataset, measure) pair."""

    kind: str
    dataset_id: str
    measure: str
    encoder: ConfigEncoder
    regressor: object

    def predict(self, config: Configuration) -> float:
        return float(self.predict_encoded(self.encoder.encode_configs([config]))[0])

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        return self.regressor.predict(X)


def fit_surrogate(
    kind: str,
    matrix: EncodedMatrix,
    seed: int = 0,
    dataset_id: str = "",
    measure: str = "",
    **params,
) -> SurrogateModel:
    """Fit one regressor kind on an encoded matrix.

    Extra keyword parameters reach the regressor: k for knn_reg, n_trees for
    forest_reg; any other raises ValueError.
    """
    reg = _fit_regressor(kind, matrix.features, matrix.targets, seed, **params)
    return SurrogateModel(
        kind=kind, dataset_id=dataset_id, measure=measure, encoder=matrix.encoder, regressor=reg
    )


# -- comparing surrogate kinds -----------------------------------------------------

@dataclass
class SurrogateCell:
    dataset_id: str
    kind: str
    mean_r2: float
    mean_tau: float
    folds_completed: int


@dataclass
class SurrogateEvalReport:
    """Cross-validated R2 and Kendall tau per (dataset, kind), plus means."""

    cells: list[SurrogateCell]
    reps: int
    folds: int

    def mean_by_kind(self) -> dict[str, tuple[float, float]]:
        """Average the per-dataset means per kind (NaN-safe for tau)."""
        out = {}
        for kind in dict.fromkeys(c.kind for c in self.cells):
            r2s = [c.mean_r2 for c in self.cells if c.kind == kind]
            taus = [c.mean_tau for c in self.cells if c.kind == kind and not np.isnan(c.mean_tau)]
            out[kind] = (
                float(np.mean(r2s)),
                float(np.mean(taus)) if taus else float("nan"),
            )
        return out


def evaluate_surrogates(
    meta: MetaDataset,
    measure: str,
    kinds: Sequence[str] = SURROGATE_KINDS,
    reps: int = 10,
    folds: int = 10,
    seed: int = 0,
) -> SurrogateEvalReport:
    """Repeated k-fold CV of every candidate kind on every dataset.

    The folds are `stratified_folds` of one class; fewer than 2 folds, or
    fewer rows than folds on a dataset, raise ValueError. Meta-data that
    fails `MetaDataset.validate` raises MetaFormatError first.
    """
    meta.validate()
    cells = []
    for ds in meta.dataset_infos:
        rows = meta.rows_for(ds.id)
        if len(rows) < folds:
            raise ValueError(
                f"dataset {ds.id!r}: {len(rows)} rows is fewer than {folds} folds"
            )
        matrix = encode(meta.space, rows, measure)
        scores: dict[str, list[tuple[float, float]]] = {k: [] for k in kinds}
        for rep in range(reps):
            rng = derive_rng(seed, "surrogate-cv", ds.id, rep)
            for test_idx in stratified_folds(np.zeros(len(rows)), folds, rng):
                mask = np.ones(len(rows), dtype=bool)
                mask[test_idx] = False
                train = EncodedMatrix(matrix.features[mask], matrix.targets[mask], matrix.encoder)
                actual = matrix.targets[test_idx]
                if actual.size < 2 or np.ptp(actual) == 0:
                    continue
                for kind in kinds:
                    model = fit_surrogate(kind, train, seed=seed, dataset_id=ds.id,
                                          measure=measure)
                    predicted = model.predict_encoded(matrix.features[test_idx])
                    scores[kind].append(
                        (r_squared(actual, predicted), kendall_tau(actual, predicted))
                    )
        for kind in kinds:
            pairs = scores[kind]
            r2s = [a for a, _ in pairs]
            taus = [b for _, b in pairs if not np.isnan(b)]
            cells.append(SurrogateCell(
                dataset_id=ds.id,
                kind=kind,
                mean_r2=float(np.mean(r2s)) if r2s else float("nan"),
                mean_tau=float(np.mean(taus)) if taus else float("nan"),
                folds_completed=len(pairs),
            ))
    return SurrogateEvalReport(cells=cells, reps=reps, folds=folds)


def select_surrogate(report: SurrogateEvalReport) -> str:
    """Highest mean R2; ties broken by mean tau, then by the fixed kind order.

    Kinds whose mean R2 is NaN (no fold could be scored) rank last; a report
    in which no kind has a finite mean R2 raises ValueError.
    """
    means = report.mean_by_kind()
    if not means:
        raise ValueError("empty report")
    if not any(np.isfinite(r2) for r2, _ in means.values()):
        raise ValueError("no surrogate kind has a finite mean R2: no CV fold could be scored")

    def sort_key(kind: str):
        r2, tau = means[kind]
        order = KIND_ORDER.index(kind) if kind in KIND_ORDER else len(KIND_ORDER)
        tau_key = -np.inf if np.isnan(tau) else tau
        return (bool(np.isnan(r2)), 0.0 if np.isnan(r2) else -r2, -tau_key, order)

    return min(means, key=sort_key)


# -- pipeline helpers ---------------------------------------------------------------

def fit_all_surrogates(
    meta: MetaDataset,
    measure: str,
    kind: str = "forest_reg",
    seed: int = 0,
    cache_dir: Optional[Path] = None,
    **params,
) -> dict[str, SurrogateModel]:
    """One fitted surrogate per dataset, optionally cached on disk.

    A cache file is an `.npz` of the regressor's arrays beside its kind,
    dataset, measure and cache format; it is read without unpickling, and
    the encoder is rebuilt from `meta.space`; a file that does not fit it
    raises ValueError naming the file. Meta-data that fails
    `MetaDataset.validate` raises MetaFormatError first.
    """
    meta.validate()
    out = {}
    for ds in meta.dataset_infos:
        rows = meta.rows_for(ds.id)
        matrix = encode(meta.space, rows, measure)
        if cache_dir is not None:
            key = _cache_key(meta.algorithm, ds.id, measure, kind, seed, params, matrix)
            path = Path(cache_dir) / f"{key}.npz"
            if path.exists():
                reg = _load_cached(path, kind, ds.id, measure, len(matrix.columns))
                out[ds.id] = SurrogateModel(kind=kind, dataset_id=ds.id, measure=measure,
                                            encoder=matrix.encoder, regressor=reg)
                continue
        model = fit_surrogate(kind, matrix, seed=seed, dataset_id=ds.id,
                              measure=measure, **params)
        if cache_dir is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                np.savez(fh, **_cache_header(kind, ds.id, measure),
                         **model.regressor.arrays())
            tmp.replace(path)
        out[ds.id] = model
    return out


def _cache_header(kind: str, dataset_id: str, measure: str) -> dict[str, np.ndarray]:
    return {"kind": np.array(kind), "dataset": np.array(dataset_id),
            "measure": np.array(measure), "format": np.array(_CACHE_FORMAT)}


def _load_cached(path: Path, kind: str, dataset_id: str, measure: str, columns: int):
    """The regressor stored at `path`, refused unless it is the requested surrogate
    and its trees split only on the encoder's `columns` columns."""
    refused = ValueError(f"cache file {path} does not hold the {kind} surrogate "
                         f"for dataset {dataset_id!r} and measure {measure!r}")
    arrays = {}
    try:
        stored = np.load(path, allow_pickle=False)
        if not isinstance(stored, np.ndarray):  # an .npz archive, not a lone .npy array
            with stored:
                arrays = {name: stored[name] for name in stored.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise refused from exc
    header = _cache_header(kind, dataset_id, measure)
    if any(name not in arrays or not np.array_equal(arrays.pop(name), value)
           for name, value in header.items()):
        raise refused
    try:
        reg = _REGRESSORS[kind](**arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise refused from exc
    if isinstance(reg, _Trees) and np.any(reg.feature >= columns):
        raise refused
    return reg


def _cache_key(algorithm, dataset_id, measure, kind, seed, params, matrix) -> str:
    h = hashlib.sha256()
    h.update(repr((_CACHE_FORMAT, algorithm, dataset_id, measure, kind, seed,
                   sorted(params.items()))).encode())
    h.update(matrix.features.tobytes())
    h.update(matrix.targets.tobytes())
    return h.hexdigest()[:32]
