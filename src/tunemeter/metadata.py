"""Hyperparameter experiment logs: generation, persistence, toy learners.

A meta-dataset is the training material for surrogates: per dataset, a list
of (configuration, measured performances) records. At desk scale the records
come from a built-in random bot that samples configurations uniformly and
scores three cheap deterministic learners (nearest neighbors, elastic-net
logistic regression, a classification tree) on synthetic datasets via
stratified cross-validation.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import json

import numpy as np

from ._rng import _parallel_map, derive_rng, stable_hash
from .hyperspace import (
    Configuration,
    DatasetInfo,
    SearchSpace,
    bundled_space,
    effective_values,
    parse_space,
    sample_configuration,
    serialize_space,
    validate_configuration,
)
from .metrics import MEASURES, accuracy, auc, brier

logger = logging.getLogger(__name__)

TOY_LEARNER_KINDS = ("knn_classifier", "elasticnet_logreg", "cart_classifier")
_LEARNER_ALGORITHM = {
    "knn_classifier": "kknn",
    "elasticnet_logreg": "glmnet",
    "cart_classifier": "rpart",
}


class MetaFormatError(ValueError):
    """Raised when a meta-data file does not match its declared schema."""


# -- core records ----------------------------------------------------------------

@dataclass
class ExperimentRow:
    """One experiment: a configuration and its measured performances."""

    dataset_id: str
    config: Configuration
    measures: dict[str, float]


@dataclass
class MetaDataset:
    """All experiment rows for one algorithm over several datasets."""

    algorithm: str
    space: SearchSpace
    dataset_infos: list[DatasetInfo]
    rows: list[ExperimentRow]
    measures: tuple[str, ...] = MEASURES
    seed: Optional[int] = None

    @property
    def dataset_ids(self) -> list[str]:
        return [ds.id for ds in self.dataset_infos]

    def rows_for(self, dataset_id: str) -> list[ExperimentRow]:
        return [r for r in self.rows if r.dataset_id == dataset_id]

    def validate(self) -> None:
        known = set(self.dataset_ids)
        seen = set()
        for i, row in enumerate(self.rows):
            if row.dataset_id not in known:
                raise MetaFormatError(f"row {i}: unknown dataset {row.dataset_id!r}")
            seen.add(row.dataset_id)
            for m in self.measures:
                if m not in row.measures:
                    raise MetaFormatError(f"row {i}: missing measure {m!r}")
                if not math.isfinite(row.measures[m]):
                    raise MetaFormatError(f"row {i}: non-finite value for measure {m!r}")
            violations = validate_configuration(self.space, row.config)
            if violations:
                raise MetaFormatError(f"row {i}: invalid configuration: {violations[0]}")
        missing = known - seen
        if missing:
            raise MetaFormatError(f"datasets without rows: {', '.join(sorted(missing))}")


# -- synthetic datasets ----------------------------------------------------------

@dataclass
class LabeledDataset:
    """Feature matrix, binary labels and the size facts learners need."""

    X: np.ndarray
    y: np.ndarray
    info: DatasetInfo


def make_synthetic_dataset(
    family: str, n: int, p: int, separation: float, seed: int
) -> LabeledDataset:
    """Deterministic balanced binary dataset.

    gaussian_blobs: unit-variance normal clouds whose class means are
    `separation` apart along the first two coordinates. xor_rotated: a
    four-cluster XOR layout rotated by 45 degrees, linearly inseparable
    for any separation. Remaining coordinates are pure noise.
    """
    if family not in ("gaussian_blobs", "xor_rotated"):
        raise ValueError(f"unknown dataset family {family!r}")
    if n < 20 or p < 2:
        raise ValueError("need n >= 20 and p >= 2")
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    y = np.array([0] * (n - n_pos) + [1] * n_pos, dtype=int)
    X = rng.standard_normal((n, p))
    if family == "gaussian_blobs":
        shift = separation / math.sqrt(2.0)
        X[y == 1, 0] += shift
        X[y == 1, 1] += shift
    else:
        half = separation / 2.0
        corner = rng.integers(0, 2, size=n)
        # class 0 sits on (+,+)/(-,-) corners, class 1 on (+,-)/(-,+)
        sx = np.where(corner == 0, half, -half)
        sy = np.where((corner == 0) == (y == 0), half, -half)
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        X[:, 0] += c * sx - s * sy
        X[:, 1] += s * sx + c * sy
    order = rng.permutation(n)
    X, y = X[order], y[order]
    ds_id = f"{family}_{n}x{p}_sep{separation:g}_seed{seed}"
    return LabeledDataset(X, y, DatasetInfo(ds_id, n=n, p=p))


# -- toy learners ----------------------------------------------------------------

@dataclass(frozen=True)
class ToyLearnerSpec:
    """A built-in stand-in learner and its default CV fold count."""

    kind: str
    folds: int = 10

    def __post_init__(self):
        if self.kind not in TOY_LEARNER_KINDS:
            raise ValueError(f"unknown toy learner {self.kind!r}")

    @property
    def algorithm(self) -> str:
        """Name of the bundled search space this learner consumes."""
        return _LEARNER_ALGORITHM[self.kind]

    def space(self) -> SearchSpace:
        return bundled_space(self.algorithm)


class _KnnClassifier:
    def __init__(self, k: int):
        self.k = int(k)

    def fit(self, X, y):
        self._X = np.asarray(X, dtype=float)
        self._y = np.asarray(y, dtype=float)
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        d = np.sqrt(((X[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2))
        k = min(self.k, self._X.shape[0])
        # stable sort keeps ties in training order
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        return self._y[order].mean(axis=1)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class _ElasticNetLogReg:
    """Logistic regression with an elastic-net penalty.

    Trained by proximal full-batch gradient descent on standardized
    features: 500 iterations, step 0.1, soft thresholding for the L1 part
    and a closed-form shrink for the L2 part (a plain gradient step would
    diverge for the large penalties the sampling scale can produce).
    """

    ITERATIONS = 500
    STEP = 0.1

    def __init__(self, alpha: float, lam: float):
        self.alpha = float(alpha)
        self.lam = float(lam)

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._mu = X.mean(axis=0)
        sd = X.std(axis=0)
        self._sd = np.where(sd > 0, sd, 1.0)
        Xs = (X - self._mu) / self._sd
        n = X.shape[0]
        w = np.zeros(X.shape[1])
        b = 0.0
        thr = self.STEP * self.lam * self.alpha
        shrink = 1.0 + self.STEP * self.lam * (1.0 - self.alpha)
        for _ in range(self.ITERATIONS):
            resid = _sigmoid(Xs @ w + b) - y
            w = w - self.STEP * (Xs.T @ resid) / n
            b = b - self.STEP * float(resid.mean())
            w = np.sign(w) * np.maximum(np.abs(w) - thr, 0.0) / shrink
        self.coef_ = w
        self.intercept_ = b
        return self

    def predict_proba(self, X):
        Xs = (np.asarray(X, dtype=float) - self._mu) / self._sd
        return _sigmoid(Xs @ self.coef_ + self.intercept_)


class _CartClassifier:
    """Gini classification tree with rpart-style stopping controls.

    cp is the minimum improvement of a split relative to the root impurity,
    minsplit the smallest node worth splitting, minbucket the smallest
    allowed leaf, maxdepth the deepest node allowed to split further.
    """

    def __init__(self, cp: float, maxdepth: int, minbucket: int, minsplit: int):
        self.cp = float(cp)
        self.maxdepth = int(maxdepth)
        self.minbucket = int(minbucket)
        self.minsplit = int(minsplit)

    @staticmethod
    def _gini_cost(y):
        n = y.size
        if n == 0:
            return 0.0
        frac = y.mean()
        return 2.0 * frac * (1.0 - frac) * n

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._root_cost = self._gini_cost(y)
        self._tree = self._build(X, y, depth=0)
        return self

    def _best_split(self, X, y):
        best = None
        node_cost = self._gini_cost(y)
        n = y.size
        lo, hi = self.minbucket, n - self.minbucket
        if lo > hi:
            return None
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            pos = np.cumsum(ys)
            for i in range(lo, hi + 1):
                # i = left child size; no split between equal feature values
                if xs[i - 1] == xs[i]:
                    continue
                left_pos = pos[i - 1]
                right_pos = pos[-1] - left_pos
                left_frac = left_pos / i
                right_frac = right_pos / (n - i)
                cost = (2.0 * left_frac * (1 - left_frac) * i
                        + 2.0 * right_frac * (1 - right_frac) * (n - i))
                gain = node_cost - cost
                if best is None or gain > best[0]:
                    best = (gain, f, (xs[i - 1] + xs[i]) / 2.0)
        return best

    def _build(self, X, y, depth):
        leaf = {"leaf": True, "prob": float(y.mean()) if y.size else 0.0}
        if (
            y.size < self.minsplit
            or y.size < 2 * self.minbucket
            or depth >= self.maxdepth
            or self._root_cost == 0.0
            or y.min() == y.max()
        ):
            return leaf
        best = self._best_split(X, y)
        if best is None:
            return leaf
        gain, f, thr = best
        if gain / self._root_cost < self.cp or gain <= 0.0:
            return leaf
        mask = X[:, f] <= thr
        return {
            "leaf": False,
            "feature": f,
            "threshold": thr,
            "left": self._build(X[mask], y[mask], depth + 1),
            "right": self._build(X[~mask], y[~mask], depth + 1),
        }

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._tree
            while not node["leaf"]:
                node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
            out[i] = node["prob"]
        return out


def _build_learner(spec: ToyLearnerSpec, params: dict):
    if spec.kind == "knn_classifier":
        return _KnnClassifier(k=params["k"])
    if spec.kind == "elasticnet_logreg":
        return _ElasticNetLogReg(alpha=params["alpha"], lam=params["lambda"])
    return _CartClassifier(
        cp=params["cp"],
        maxdepth=params["maxdepth"],
        minbucket=params["minbucket"],
        minsplit=params["minsplit"],
    )


# -- cross-validation ------------------------------------------------------------

def stratified_folds(y: np.ndarray, k_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Test index sets for k stratified folds; shuffle breaks assignment ties."""
    y = np.asarray(y)
    if k_folds < 2:
        raise ValueError("need at least 2 folds")
    if k_folds > y.size:
        raise ValueError(f"fold count {k_folds} exceeds {y.size} observations")
    folds: list[list[int]] = [[] for _ in range(k_folds)]
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        if idx.size < k_folds:
            raise ValueError(
                f"fold count {k_folds} exceeds count {idx.size} of class {cls}"
            )
        for i, chunk in enumerate(np.array_split(idx, k_folds)):
            folds[i].extend(int(j) for j in chunk)
    return [np.array(sorted(f), dtype=int) for f in folds]


def cross_validate(
    learner: ToyLearnerSpec,
    config: Configuration,
    dataset: LabeledDataset,
    k_folds: int,
    measures: Sequence[str],
    seed: int,
) -> dict[str, float]:
    """Average the requested measures over stratified CV folds.

    The configuration is validated against the learner's space and passed
    through its transformations (with this dataset's n and p) before
    training.
    """
    space = learner.space()
    violations = validate_configuration(space, config)
    if violations:
        raise ValueError(f"invalid configuration: {violations[0]}")
    params = effective_values(space, config, dataset.info)
    rng = np.random.default_rng(seed)
    folds = stratified_folds(dataset.y, k_folds, rng)
    totals = {m: 0.0 for m in measures}
    all_idx = np.arange(dataset.info.n)
    for test_idx in folds:
        train_mask = np.ones(dataset.info.n, dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_idx[train_mask]
        model = _build_learner(learner, params)
        model.fit(dataset.X[train_idx], dataset.y[train_idx])
        probs = np.clip(model.predict_proba(dataset.X[test_idx]), 0.0, 1.0)
        y_test = dataset.y[test_idx]
        for m in measures:
            if m == "auc":
                totals[m] += auc(probs, y_test)
            elif m == "accuracy":
                totals[m] += accuracy((probs >= 0.5).astype(int), y_test)
            elif m == "brier":
                totals[m] += brier(probs, y_test)
            else:
                raise ValueError(f"unknown measure {m!r}")
    return {m: totals[m] / len(folds) for m in measures}


# -- the random bot --------------------------------------------------------------

def generate_bot_data(
    learners: Sequence[ToyLearnerSpec],
    datasets: Sequence[LabeledDataset],
    rows_per_pair: int,
    seed: int,
    workers: int = 1,
) -> dict[str, MetaDataset]:
    """Sample and evaluate rows_per_pair random configurations per (learner, dataset).

    Every row derives its own random substream from (seed, algorithm,
    dataset, row index), so the output is identical no matter how many
    workers run the evaluations. Rows whose evaluation fails are dropped
    with a logged reason.
    """
    if rows_per_pair < 1:
        raise ValueError("rows_per_pair must be >= 1")
    tasks = []
    for learner in learners:
        for ds in datasets:
            for row_idx in range(rows_per_pair):
                tasks.append((learner, ds, row_idx))

    def run_one(task) -> Optional[ExperimentRow]:
        learner, ds, row_idx = task
        space = learner.space()
        rng = derive_rng(seed, "bot", learner.algorithm, ds.info.id, row_idx)
        config = sample_configuration(space, rng)
        fold_seed = stable_hash(f"folds:{seed}:{ds.info.id}")
        try:
            values = cross_validate(learner, config, ds, learner.folds, MEASURES, fold_seed)
        except ValueError as exc:
            logger.warning("dropping %s row %d on %s: %s",
                           learner.kind, row_idx, ds.info.id, exc)
            return None
        return ExperimentRow(ds.info.id, config, values)

    results = _parallel_map(run_one, tasks, workers)
    out = {}
    for learner in learners:
        rows = [
            r
            for (task, r) in zip(tasks, results)
            if r is not None and task[0] is learner
        ]
        out[learner.algorithm] = MetaDataset(
            algorithm=learner.algorithm,
            space=learner.space(),
            dataset_infos=[ds.info for ds in datasets],
            rows=rows,
            measures=MEASURES,
            seed=seed,
        )
    return out


# -- persistence -----------------------------------------------------------------

def _format_cell(pdef, value) -> str:
    if pdef.kind in ("discrete", "logical"):
        return str(value)
    if pdef.kind == "integer":
        return str(int(value))
    return repr(float(value))


def _parse_cell(pdef, text: str):
    if pdef.kind in ("discrete", "logical"):
        return text
    if pdef.kind == "integer":
        value = float(text)
        if not value.is_integer():
            raise MetaFormatError(f"column {pdef.name!r}: non-integer value {text!r}")
        return int(value)
    return float(text)


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.name + ".manifest.json")


def write_meta(meta: MetaDataset, path) -> None:
    """Write the CSV data file and its JSON manifest sidecar.

    Values round-trip at full precision; inactive parameters become empty
    cells, and cells holding commas, quotes or newlines are quoted. The
    manifest records algorithm, space, measure list, generation seed and
    dataset sizes.
    """
    path = Path(path)
    meta.validate()
    header = ["dataset_id"] + [p.name for p in meta.space.params] + list(meta.measures)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in meta.rows:
            cells = [row.dataset_id]
            for p in meta.space.params:
                if row.config.active.get(p.name, False):
                    cells.append(_format_cell(p, row.config.values[p.name]))
                else:
                    cells.append("")
            cells.extend(repr(float(row.measures[m])) for m in meta.measures)
            writer.writerow(cells)
    manifest = {
        "algorithm": meta.algorithm,
        "space": json.loads(serialize_space(meta.space)),
        "measures": list(meta.measures),
        "seed": meta.seed,
        "datasets": [{"id": ds.id, "n": ds.n, "p": ds.p} for ds in meta.dataset_infos],
    }
    _manifest_path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_meta(path) -> MetaDataset:
    """Read a data file plus manifest back into a validated MetaDataset."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    manifest_file = _manifest_path(path)
    if not manifest_file.exists():
        raise MetaFormatError(f"missing manifest {manifest_file}")
    manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    space = parse_space(manifest["space"])
    measures = tuple(manifest["measures"])
    infos = [DatasetInfo(d["id"], d["n"], d["p"]) for d in manifest["datasets"]]

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        # (line on which the record ends, cells), blank lines skipped
        records = [(reader.line_num, cells) for cells in reader if cells]
    if not records:
        raise MetaFormatError("empty meta-data file")
    header = records[0][1]
    expected = ["dataset_id"] + [p.name for p in space.params] + list(measures)
    for col in header:
        if col not in expected:
            raise MetaFormatError(f"unknown column {col!r}")
    if header != expected:
        missing = [c for c in expected if c not in header]
        if missing:
            raise MetaFormatError(f"missing columns: {', '.join(missing)}")
        raise MetaFormatError("column order does not match the space definition")

    rows = []
    for ln, cells in records[1:]:
        if len(cells) != len(header):
            raise MetaFormatError(f"line {ln}: expected {len(header)} cells, got {len(cells)}")
        record = dict(zip(header, cells))
        values, active = {}, {}
        for p in space.params:
            cell = record[p.name]
            if cell == "":
                values[p.name] = p.placeholder()
                active[p.name] = False
            else:
                values[p.name] = _parse_cell(p, cell)
                active[p.name] = True
        config = Configuration(values, active)
        violations = validate_configuration(space, config)
        if violations:
            raise MetaFormatError(f"line {ln}: {violations[0]}")
        row_measures = {}
        for m in measures:
            try:
                row_measures[m] = float(record[m])
            except ValueError as exc:
                raise MetaFormatError(f"line {ln}: bad value for measure {m!r}") from exc
        rows.append(ExperimentRow(record["dataset_id"], config, row_measures))

    meta = MetaDataset(
        algorithm=manifest["algorithm"],
        space=space,
        dataset_infos=infos,
        rows=rows,
        measures=measures,
        seed=manifest.get("seed"),
    )
    meta.validate()
    return meta
