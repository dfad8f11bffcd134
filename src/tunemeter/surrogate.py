"""Per-dataset regression surrogates: configuration in, estimated risk out.

Each surrogate is fit on the meta-data rows of one (dataset, measure) pair
with targets already oriented as risks. Numeric parameters become one
feature column on the untransformed scale (plus an activity indicator when
conditional); discrete parameters are one-hot encoded with an extra
"inactive" level when conditional. Inactive numeric cells are imputed with
the bounds midpoint.

Five interchangeable regressor kinds are provided: a constant mean, least
squares, distance-weighted nearest neighbors, a variance-reduction
regression tree, and a bagged forest of such trees with per-split feature
subsampling.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._rng import derive_rng
from .hyperspace import Configuration, SearchSpace
from .metadata import ExperimentRow, MetaDataset
from .metrics import MeasureSpec, kendall_tau, r_squared, to_risk

SURROGATE_KINDS = ("constant", "linear", "knn_reg", "cart_reg", "forest_reg")
# fixed tie-break order for selection, best candidate first
KIND_ORDER = ("forest_reg", "cart_reg", "knn_reg", "linear", "constant")
# hashed into every cache key; bump it when pickled models change shape
_CACHE_FORMAT = 1


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

    def encode_configs(self, configs: Sequence[Configuration]) -> np.ndarray:
        out = np.zeros((len(configs), len(self.columns)))
        col = 0
        for p in self.space.params:
            if p.kind in ("numeric", "integer"):
                mid = p.placeholder()
                out[:, col] = [
                    float(c.values[p.name]) if c.active.get(p.name, False) else float(mid)
                    for c in configs
                ]
                col += 1
                if p.is_conditional:
                    out[:, col] = [1.0 if c.active.get(p.name, False) else 0.0 for c in configs]
                    col += 1
            else:
                index = {level: i for i, level in enumerate(p.levels)}
                n_levels = len(p.levels) + (1 if p.is_conditional else 0)
                for r, c in enumerate(configs):
                    if c.active.get(p.name, False):
                        out[r, col + index[c.values[p.name]]] = 1.0
                    else:
                        out[r, col + len(p.levels)] = 1.0
                col += n_levels
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
    def fit(self, X, y, rng=None):
        self.value = float(np.mean(y))
        return self

    def predict(self, X):
        return np.full(X.shape[0], self.value)


class _LinearReg:
    def fit(self, X, y, rng=None):
        n, cols = X.shape
        if n < cols + 1:
            raise ValueError(f"linear surrogate needs >= {cols + 1} rows, got {n}")
        design = np.hstack([np.ones((n, 1)), X])
        self.beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        return self

    def predict(self, X):
        return np.hstack([np.ones((X.shape[0], 1)), X]) @ self.beta


class _KnnReg:
    """Inverse-distance weighted neighbors on standardized columns.

    A query that coincides with training rows gets the mean target of the
    coinciding rows, the limit of the weighting scheme.
    """

    CHUNK = 4096

    def __init__(self, k: int = 7):
        self.k = k

    def fit(self, X, y, rng=None):
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds {X.shape[0]} training rows")
        self._mu = X.mean(axis=0)
        sd = X.std(axis=0)
        self._sd = np.where(sd > 0, sd, 1.0)
        self._X = (X - self._mu) / self._sd
        self._y = np.asarray(y, dtype=float)
        return self

    def predict(self, X):
        Xs = (X - self._mu) / self._sd
        k = min(self.k, self._X.shape[0])
        out = np.empty(Xs.shape[0])
        for start in range(0, Xs.shape[0], self.CHUNK):
            chunk = Xs[start:start + self.CHUNK]
            d = np.sqrt(((chunk[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2))
            order = np.argsort(d, axis=1, kind="stable")[:, :k]
            dk = np.take_along_axis(d, order, axis=1)
            yk = self._y[order]
            exact = dk <= 0.0
            with np.errstate(divide="ignore"):
                w = 1.0 / dk
            has_exact = exact.any(axis=1)
            w_safe = np.where(exact, 0.0, w)
            plain = (w_safe * yk).sum(axis=1) / np.maximum(w_safe.sum(axis=1), 1e-300)
            n_exact = exact.sum(axis=1)
            exact_mean = (np.where(exact, yk, 0.0).sum(axis=1)
                          / np.maximum(n_exact, 1))
            out[start:start + self.CHUNK] = np.where(has_exact, exact_mean, plain)
        return out


class _CartReg:
    """Binary regression tree splitting on weighted variance reduction.

    Array-coded nodes (feature < 0 marks a leaf) so batch prediction is a
    short vectorized loop over depth. Leaf predictions are exact leaf means.
    """

    def __init__(self, min_leaf: int = 5, max_depth: int = 20, split_features: int = 0):
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.split_features = split_features  # 0 means all features

    def fit(self, X, y, rng=None):
        self._features: list[int] = []
        self._thresholds: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._values: list[float] = []
        self._build(X, y, np.arange(X.shape[0]), 0, rng)
        self.feature = np.array(self._features, dtype=np.int32)
        self.threshold = np.array(self._thresholds)
        self.left = np.array(self._left, dtype=np.int32)
        self.right = np.array(self._right, dtype=np.int32)
        self.value = np.array(self._values)
        return self

    def _new_node(self, value: float) -> int:
        node = len(self._values)
        self._features.append(-1)
        self._thresholds.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._values.append(value)
        return node

    def _candidate_features(self, n_cols: int, rng) -> np.ndarray:
        if self.split_features and rng is not None and self.split_features < n_cols:
            feats = rng.choice(n_cols, size=self.split_features, replace=False)
            return np.sort(feats)
        return np.arange(n_cols)

    def _build(self, X, y, idx, depth, rng) -> int:
        y_node = y[idx]
        node = self._new_node(float(y_node.mean()))
        n = idx.size
        if depth >= self.max_depth or n < 2 * self.min_leaf or y_node.min() == y_node.max():
            return node
        best = None  # (sse, feature, threshold, order, split_pos)
        for f in self._candidate_features(X.shape[1], rng):
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
                best = (float(sse[j]), int(f), (xs[i - 1] + xs[i]) / 2.0, order, i)
        if best is None:
            return node
        _, f, thr, order, i = best
        left_idx, right_idx = idx[order[:i]], idx[order[i:]]
        self._features[node] = f
        self._thresholds[node] = thr
        self._left[node] = self._build(X, y, left_idx, depth + 1, rng)
        self._right[node] = self._build(X, y, right_idx, depth + 1, rng)
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


class _ForestReg:
    """Bagging of regression trees with per-split feature subsampling."""

    def __init__(self, n_trees: int = 100, min_leaf: int = 5, max_depth: int = 20):
        self.n_trees = n_trees
        self.min_leaf = min_leaf
        self.max_depth = max_depth

    def fit(self, X, y, rng=None, seed: int = 0):
        n, cols = X.shape
        split_features = max(1, cols // 3)
        self.trees = []
        for t in range(self.n_trees):
            tree_rng = derive_rng(seed, "tree", t)
            boot = tree_rng.integers(0, n, size=n)
            tree = _CartReg(self.min_leaf, self.max_depth, split_features)
            tree.fit(X[boot], y[boot], rng=tree_rng)
            self.trees.append(tree)
        return self

    def predict(self, X):
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / self.n_trees


@dataclass
class SurrogateModel:
    """A fitted risk estimator for one (dataset, measure) pair."""

    kind: str
    dataset_id: str
    measure: str
    encoder: ConfigEncoder
    regressor: object

    def predict(self, config: Configuration) -> float:
        return float(self.predict_many([config])[0])

    def predict_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        return self.predict_encoded(self.encoder.encode_configs(configs))

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

    Extra keyword parameters reach the regressor (k for knn_reg; n_trees,
    min_leaf, max_depth for the trees).
    """
    if kind not in SURROGATE_KINDS:
        raise ValueError(f"unknown surrogate kind {kind!r}")
    X, y = matrix.features, matrix.targets
    if kind == "constant":
        reg = _ConstantReg().fit(X, y)
    elif kind == "linear":
        reg = _LinearReg().fit(X, y)
    elif kind == "knn_reg":
        reg = _KnnReg(k=params.get("k", 7)).fit(X, y)
    elif kind == "cart_reg":
        reg = _CartReg(
            min_leaf=params.get("min_leaf", 5), max_depth=params.get("max_depth", 20)
        ).fit(X, y)
    else:
        reg = _ForestReg(
            n_trees=params.get("n_trees", 100),
            min_leaf=params.get("min_leaf", 5),
            max_depth=params.get("max_depth", 20),
        ).fit(X, y, seed=seed)
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
    chosen: Optional[str] = None

    def kinds(self) -> list[str]:
        seen = []
        for c in self.cells:
            if c.kind not in seen:
                seen.append(c.kind)
        return seen

    def mean_by_kind(self) -> dict[str, tuple[float, float]]:
        """Average the per-dataset means per kind (NaN-safe for tau)."""
        out = {}
        for kind in self.kinds():
            r2s = [c.mean_r2 for c in self.cells if c.kind == kind]
            taus = [c.mean_tau for c in self.cells if c.kind == kind and not np.isnan(c.mean_tau)]
            out[kind] = (
                float(np.mean(r2s)),
                float(np.mean(taus)) if taus else float("nan"),
            )
        return out


def _kfold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def evaluate_surrogates(
    meta: MetaDataset,
    measure: str,
    kinds: Sequence[str] = SURROGATE_KINDS,
    reps: int = 10,
    folds: int = 10,
    seed: int = 0,
) -> SurrogateEvalReport:
    """Repeated k-fold CV of every candidate kind on every dataset."""
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
            for test_idx in _kfold_indices(len(rows), folds, rng):
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
    """Highest mean R2; ties broken by mean tau, then by the fixed kind order."""
    means = report.mean_by_kind()
    if not means:
        raise ValueError("empty report")

    def sort_key(kind: str):
        r2, tau = means[kind]
        order = KIND_ORDER.index(kind) if kind in KIND_ORDER else len(KIND_ORDER)
        tau_key = -np.inf if np.isnan(tau) else tau
        return (-r2, -tau_key, order)

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
    """One fitted surrogate per dataset, optionally cached on disk."""
    out = {}
    for ds in meta.dataset_infos:
        rows = meta.rows_for(ds.id)
        matrix = encode(meta.space, rows, measure)
        if cache_dir is not None:
            key = _cache_key(meta.algorithm, ds.id, measure, kind, seed, params, matrix)
            path = Path(cache_dir) / f"{key}.pkl"
            if path.exists():
                out[ds.id] = _load_cached(path, kind, ds.id, measure)
                continue
        model = fit_surrogate(kind, matrix, seed=seed, dataset_id=ds.id,
                              measure=measure, **params)
        if cache_dir is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                pickle.dump(model, fh)
            tmp.replace(path)
        out[ds.id] = model
    return out


def _load_cached(path: Path, kind: str, dataset_id: str, measure: str) -> SurrogateModel:
    """The pickled model at `path`, refused unless it is the requested surrogate."""
    with open(path, "rb") as fh:
        model = pickle.load(fh)
    if not (isinstance(model, SurrogateModel) and model.kind == kind
            and model.dataset_id == dataset_id and model.measure == measure):
        raise ValueError(f"cache file {path} does not hold the {kind} surrogate "
                         f"for dataset {dataset_id!r} and measure {measure!r}")
    return model


def _cache_key(algorithm, dataset_id, measure, kind, seed, params, matrix) -> str:
    h = hashlib.sha256()
    h.update(repr((_CACHE_FORMAT, algorithm, dataset_id, measure, kind, seed,
                   sorted(params.items()))).encode())
    h.update(matrix.features.tobytes())
    h.update(matrix.targets.tobytes())
    return h.hexdigest()[:32]
