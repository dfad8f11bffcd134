"""Hyperparameter experiment logs: generation, persistence, toy learners.

A meta-dataset is the training material for surrogates: per dataset, a list
of (configuration, measured performances) records. At desk scale the records
come from a built-in random bot that samples configurations uniformly and
scores three cheap deterministic learners (nearest neighbors, elastic-net
logistic regression, a classification tree) on synthetic datasets via
stratified cross-validation.

`_fold_probabilities` gives each CV fold's test rows the probability of
class 1 under each toy learner. kNN takes the share of positive labels
among a row's k nearest training rows. The classification tree is the
surrogates' CART tree (`_tree.grow`) on the 0/1 labels: a node's Gini cost
there is 2 × its sum of squared errors, so the tree makes rpart's Gini
splits, and cp, relative to the root impurity, is unchanged. Each fold's
test rows are scored by the leaf masks of that fold's tree.

The neighbour search (`_nearest`), the column standardizer
(`_Standardizer`) and the k-fold split (`stratified_folds`) are the
package's only copies: the kNN surrogate and the cross-validation over
datasets import them from here. A split with one class is a plain shuffled
k-fold split.
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
from ._tree import _PREDICT_CHUNK, grow
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
        if len(known) < len(self.dataset_ids):
            twice = next(i for i in self.dataset_ids if self.dataset_ids.count(i) > 1)
            raise MetaFormatError(f"dataset {twice!r} is listed more than once")
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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless X is finite (n, p), y is (n,) and labels are 0 or 1."""
        X, y, info = np.asarray(self.X, dtype=float), np.asarray(self.y), self.info
        if X.shape != (info.n, info.p):
            raise ValueError(
                f"dataset {info.id!r}: X has shape {X.shape}, info says ({info.n}, {info.p})")
        if y.shape != (info.n,):
            raise ValueError(f"dataset {info.id!r}: y has shape {y.shape}, info says ({info.n},)")
        finite = np.isfinite(X)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(f"dataset {info.id!r}: non-finite feature X[{i}, {j}] = {X[i, j]}")
        outside = y[~np.isin(y, (0, 1))]
        if outside.size:
            raise ValueError(f"dataset {info.id!r}: label {outside[0]} is not 0 or 1")


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


_NEIGHBOUR_BLOCK = 1 << 16  # (query row, training row, column) differences per block
_SORT_ALL = 1 << 11  # distances in a block small enough to stable-sort in full


def _nearest(train: np.ndarray, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices into `train` of each query row's k nearest rows, and their distances.

    Euclidean distance, nearest first; ties keep training order, as the
    first k of a stable argsort would. k is capped at the number of
    training rows. The query rows go in blocks of at most
    `_NEIGHBOUR_BLOCK` differences, all computed in one reused buffer. A
    block of at most `_SORT_ALL` distances is stable-sorted in full. In a
    larger one a row's k-th distance comes from `np.partition`, and the
    rows within it, in training order, are stable-sorted; only a query row
    with more or fewer than k such rows (a tie at the k-th distance, or a
    NaN) is stable-sorted in full.
    """
    k = min(k, train.shape[0])
    index = np.empty((query.shape[0], k), dtype=np.intp)
    dist = np.empty((query.shape[0], k))
    step = max(1, _NEIGHBOUR_BLOCK // max(1, train.size))
    diff = np.empty((min(step, query.shape[0]), *train.shape), np.result_type(query, train))
    for start in range(0, query.shape[0], step):
        chunk = query[start:start + step]
        block = np.subtract(chunk[:, None, :], train[None, :, :], out=diff[:chunk.shape[0]])
        d = np.sqrt(np.square(block, out=block).sum(axis=2))
        if 0 < k < d.shape[1] and d.size > _SORT_ALL:
            kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
            within = d <= kth
            exact = np.count_nonzero(within, axis=1) == k
            order = np.empty((d.shape[0], k), dtype=np.intp)
            near = np.nonzero(within[exact])[1].reshape(-1, k)
            order[exact] = np.take_along_axis(near, np.argsort(
                np.take_along_axis(d[exact], near, axis=1), axis=1, kind="stable"), axis=1)
            order[~exact] = np.argsort(d[~exact], axis=1, kind="stable")[:, :k]
        else:
            order = np.argsort(d, axis=1, kind="stable")[:, :k]
        index[start:start + chunk.shape[0]] = order
        dist[start:start + chunk.shape[0]] = np.take_along_axis(d, order, axis=1)
    return index, dist


class _Standardizer:
    """Column means and sds of one matrix; calling it standardizes a matrix.

    Each column is first divided by a power of two near its largest
    magnitude. The division is exact, so the standardized values are those
    of the raw column, but a mean or sd of features near the float maximum
    cannot overflow. A constant column (np.ptp == 0) is centred on its value
    with sd 1, so it standardizes to exactly 0 however its mean rounds.
    """

    def __init__(self, X: np.ndarray):
        _, exponent = np.frexp(np.abs(X).max(axis=0))
        self.scale = np.ldexp(1.0, exponent - 1)
        X = X / self.scale
        constant = np.ptp(X, axis=0) == 0
        self.mu = np.where(constant, X[0], X.mean(axis=0))
        self.sd = np.where(constant, 1.0, X.std(axis=0))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return (X / self.scale - self.mu) / self.sd


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class _ElasticNetLogReg:
    """Logistic regression with an elastic-net penalty.

    Trained by proximal full-batch gradient descent on standardized
    features (`_Standardizer`): at most 500 iterations, step 0.1, soft
    thresholding for the L1 part and a closed-form shrink for the L2 part (a
    plain gradient step would diverge for the large penalties the sampling
    scale can produce). The descent stops at the first step whose (w, b)
    has the bytes of the step before: a step is a fixed function of those
    bytes, so every later one would repeat them, and the result is that of
    all 500 steps. Bytes, not values: soft thresholding zeroes a weight
    whose step went negative to -0.0, which equals the starting +0.0, so a
    stop on equal values would keep the wrong zero. The stop fires where a
    penalty zeroes every weight of balanced folds (w = 0, b = 0 after one
    step); `_steps` records the steps whose result was kept.

    `fit_folds` trains the folds of one configuration together. Each fold's
    rows are standardized with that fold's own mean and sd and stacked into
    an (F, L, p) array, shorter folds padded with zero rows whose residuals
    a mask zeroes; one descent then updates an (F, p) weight matrix and an
    (F,) intercept. Every fold gets the weights a separate fit on its rows
    gives: bit for bit when the folds have equal sizes, to rounding
    otherwise. One model is the one-fold case.
    """

    ITERATIONS = 500
    STEP = 0.1

    def __init__(self, alpha: float, lam: float):
        self.alpha = float(alpha)
        self.lam = float(lam)

    def fit_folds(self, Xs: Sequence, ys: Sequence):
        """Train one model per (X, y) fold in a single stacked descent."""
        Xs = [np.asarray(X, dtype=float) for X in Xs]
        sizes = np.array([X.shape[0] for X in Xs])
        F, L, p = len(Xs), int(sizes.max()), Xs[0].shape[1]
        Z = np.zeros((F, L, p))
        Y = np.zeros((F, L))
        mask = np.zeros((F, L))
        self._standardize = [_Standardizer(X) for X in Xs]
        for f, (X, y) in enumerate(zip(Xs, ys)):
            Z[f, : sizes[f]] = self._standardize[f](X)
            Y[f, : sizes[f]] = y
            mask[f, : sizes[f]] = 1.0
        Zt = Z.transpose(0, 2, 1)
        n = sizes.astype(float)
        w = np.zeros((F, p))
        b = np.zeros(F)
        thr = self.STEP * self.lam * self.alpha
        shrink = 1.0 + self.STEP * self.lam * (1.0 - self.alpha)
        self._steps = self.ITERATIONS
        for step in range(self.ITERATIONS):
            resid = (_sigmoid((Z @ w[:, :, None])[:, :, 0] + b[:, None]) - Y) * mask
            w_next = w - self.STEP * (Zt @ resid[:, :, None])[:, :, 0] / n[:, None]
            b_next = b - self.STEP * (resid.sum(axis=1) / n)
            w_next = np.sign(w_next) * np.maximum(np.abs(w_next) - thr, 0.0) / shrink
            # bytes, not values: -0.0 == 0.0, but a step may turn one into the other
            if b_next.tobytes() == b.tobytes() and w_next.tobytes() == w.tobytes():
                self._steps = step
                break
            w, b = w_next, b_next
        self._coef = w
        self._intercept = b
        return self

    def predict_folds(self, Xs: Sequence) -> list[np.ndarray]:
        """Probabilities of each fold's rows under that fold's model."""
        return [_sigmoid(self._standardize[f](np.asarray(X, dtype=float)) @ self._coef[f]
                         + self._intercept[f]) for f, X in enumerate(Xs)]


def _fold_probabilities(
    spec: ToyLearnerSpec, params: dict, X: np.ndarray, y: np.ndarray,
    train_sets: list[np.ndarray], test_sets: list[np.ndarray],
) -> list[np.ndarray]:
    """Each fold's predicted test probabilities.

    The folds of an elastic-net configuration train in one stacked descent,
    and the trees of a CART configuration grow in one `grow` call. The test
    rows of all folds are scored by the trees' leaf masks as in
    `_Trees.predict`, and each row takes the value of its own fold's tree.
    """
    if spec.kind == "elasticnet_logreg":
        model = _ElasticNetLogReg(alpha=params["alpha"], lam=params["lambda"])
        model.fit_folds([X[i] for i in train_sets], [y[i] for i in train_sets])
        return model.predict_folds([X[i] for i in test_sets])
    if spec.kind == "cart_classifier":
        trees = grow(X, y, train_sets, min_leaf=params["minbucket"],
                     max_depth=params["maxdepth"], min_split=params["minsplit"],
                     cp=params["cp"])
        sizes = [test.size for test in test_sets]
        fold = np.repeat(np.arange(len(test_sets)), sizes)
        intervals = trees._intervals(X[np.concatenate(test_sets)])
        probs = np.empty(fold.size)
        step = max(1, _PREDICT_CHUNK // len(test_sets))
        for start in range(0, fold.size, step):
            rows = np.arange(start, min(start + step, fold.size))
            probs[rows] = trees._leaf_values(intervals, rows)[fold[rows], rows - start]
        return np.split(probs, np.cumsum(sizes)[:-1])
    return [y[train][_nearest(X[train], X[test], params["k"])[0]].mean(axis=1)
            for train, test in zip(train_sets, test_sets)]


# -- cross-validation ------------------------------------------------------------

def stratified_folds(y: np.ndarray, k_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Test index sets for k stratified folds; shuffle breaks assignment ties."""
    y = np.asarray(y)
    if k_folds < 2:
        raise ValueError("need at least 2 folds")
    if k_folds > y.size:
        raise ValueError(f"fold count {k_folds} exceeds {y.size} observations")
    fold = np.full(y.size, -1)
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        if idx.size < k_folds:
            raise ValueError(
                f"fold count {k_folds} exceeds count {idx.size} of class {cls}"
            )
        # the chunk sizes of np.array_split: the first size % k chunks hold one more
        sizes = idx.size // k_folds + (np.arange(k_folds) < idx.size % k_folds)
        fold[idx] = np.repeat(np.arange(k_folds), sizes)
    return [np.flatnonzero(fold == i) for i in range(k_folds)]


_FOLD_MEASURES = {
    "auc": auc,
    "accuracy": lambda probs, y: accuracy((probs >= 0.5).astype(int), y),
    "brier": brier,
}


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
    training. The elastic-net learner trains all folds of the configuration
    in one stacked descent, which stops once a step repeats its input
    bytes, and the CART learner grows all their trees in one lockstep call,
    scored by their leaf masks; the measures are those of separate per-fold
    fits of 500 descent steps. Unknown measures, bad data and non-finite
    predicted probabilities raise ValueError.
    """
    unknown = [m for m in measures if m not in _FOLD_MEASURES]
    if unknown:
        raise ValueError(f"unknown measure {unknown[0]!r}")
    dataset.validate()
    space = learner.space()
    violations = validate_configuration(space, config)
    if violations:
        raise ValueError(f"invalid configuration: {violations[0]}")
    params = effective_values(space, config, dataset.info)
    rng = np.random.default_rng(seed)
    folds = stratified_folds(dataset.y, k_folds, rng)
    train_sets = [np.delete(np.arange(dataset.info.n), test) for test in folds]
    fold_probs = _fold_probabilities(learner, params, dataset.X, dataset.y, train_sets, folds)
    totals = {m: 0.0 for m in measures}
    for f, (test_idx, probs) in enumerate(zip(folds, fold_probs)):
        if not np.all(np.isfinite(probs)):
            raise ValueError(f"non-finite predicted probability in fold {f}")
        probs = np.clip(probs, 0.0, 1.0)
        y_test = dataset.y[test_idx]
        for m in measures:
            totals[m] += _FOLD_MEASURES[m](probs, y_test)
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
    for ds in datasets:
        ds.validate()
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
