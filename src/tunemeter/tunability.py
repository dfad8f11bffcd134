"""The measurement engine.

Given per-dataset risk predictors over one search space, this module
computes optimal default configurations, per-dataset optima, tunability of
the whole algorithm, of single parameters and of parameter pairs, joint
gains, and a cross-validation protocol over datasets. Optimization is
black-box: either exhaustive grid enumeration or seeded uniform random
search on the untransformed scale.

A predictor has an ``encoder`` (a `surrogate.ConfigEncoder`) and
``predict_encoded(X) -> float array`` over encoded rows; fitted surrogates
qualify, and so do plain lookup tables in tests. A search keeps the
column block that `hyperspace.grid_configurations` and
`sample_configurations` build, keys its rows through one moving row view,
encodes the block of its distinct rows once, with the encoder its
predictors share (equal by value), and has every predictor score that one
matrix; the encoder turns reference configurations into a block first. No
object is built per candidate, and the blocks stay inside the search: only
the winner becomes a plain `Configuration`, returned with its column of the
risk matrix, so each risk has one prediction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import _parallel_map, derive_rng
from .hyperspace import (
    Configuration,
    SearchSpace,
    _Block,
    _grid_block,
    _sample_block,
    sample_configuration,  # noqa: F401  perfbench/tracer.py wraps it under this module
)
from .metadata import stratified_folds
from .metrics import RiskTransform, SummarySpec, aggregate_all, summarize_columns

logger = logging.getLogger(__name__)

TIE_EPS = 1e-12


@dataclass(frozen=True)
class OptimizerSpec:
    """Black-box optimizer settings.

    random mode draws `budget` uniform candidates (`pair_budget` for
    two-parameter analyses); grid mode enumerates the full cross product
    with `levels` points per non-degenerate parameter. Grid cells come in
    lexicographic order over the parameters in draw order (unconditional
    ones first, the first varying slowest), and a conditional parameter
    takes its grid values only under the parent values that activate it.
    A grid of more than `hyperspace.GRID_CAP` cells raises ValueError
    before any cell is built.
    """

    mode: str = "random"
    budget: int = 100_000
    pair_budget: int = 10_000
    levels: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "grid"):
            raise ValueError(f"unknown optimizer mode {self.mode!r}")
        if self.budget < 1 or self.pair_budget < 1:
            raise ValueError("budgets must be >= 1")
        if self.levels < 2:
            raise ValueError("grid needs >= 2 levels per parameter")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class MinimizeResult:
    config: Configuration
    risk: float
    tie_count: int = 1
    n_evaluated: int = 0
    dataset_risks: tuple[float, ...] = ()  # the winner's risk per predictor, in their order

    @property
    def tied(self) -> bool:
        return self.tie_count > 1


def _as_predictor_list(predictors) -> tuple[list[str], list]:
    """Dataset ids and predictors of a {dataset id: predictor} dict or one predictor."""
    if isinstance(predictors, dict):
        if not predictors:
            raise ValueError("need at least one dataset predictor")
        return list(predictors.keys()), list(predictors.values())
    return [getattr(predictors, "dataset_id", "?")], [predictors]


def _risks(predictors, configs: list[Configuration] | _Block) -> np.ndarray:
    """(datasets x configs) predicted risks of a {dataset id: predictor} dict or one predictor.

    The configurations are encoded once, with the encoder every predictor
    holds; one whose encoder differs by value raises ValueError naming it.
    """
    ds_ids, preds = _as_predictor_list(predictors)
    encoder = preds[0].encoder
    for ds, pred in zip(ds_ids, preds):
        if pred.encoder != encoder:
            raise ValueError(f"the predictor of dataset {ds!r} encodes candidates differently "
                             f"from that of dataset {ds_ids[0]!r}")
    X = encoder.encode_configs(configs)
    return np.vstack([np.asarray(pred.predict_encoded(X), dtype=float) for pred in preds])


def minimize(
    predictors,
    space: SearchSpace,
    optimizer: OptimizerSpec,
    fixed: Optional[dict] = None,
    objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    context: str = "",
    budget: Optional[int] = None,
) -> MinimizeResult:
    """Best configuration agreeing with `fixed` under the aggregated risk.

    The candidates are the cells of `grid_configurations` in grid mode
    and the draws of `sample_configurations` in random mode, kept as rows
    of their block. One row view moves through the block, and its
    `Configuration.key` (one call per row) maps each distinct candidate to
    the row where it first appears. The block those rows take, in that
    order, is encoded, predicted and scored once. Predictors whose
    encoders differ by value raise ValueError. `objective` maps the (m
    datasets x U distinct candidates) risk matrix to U finite values
    (default: mean over datasets); any other output raises ValueError
    naming the search, and the candidate's key for a non-finite value.
    Ties are broken by the first optimum in candidate order: grid order
    (see `OptimizerSpec`), or sample order for random search. Only the
    winner becomes a plain `Configuration`, and ``dataset_risks`` is its
    column of the risk matrix. ``tie_count`` counts the distinct
    configurations within 1e-12 of the optimum, and a tie is logged as a
    warning; ``n_evaluated`` counts all candidates, repeats included. A
    non-finite predicted risk raises ValueError naming the dataset and the
    candidate's key.
    """
    ds_ids, _ = _as_predictor_list(predictors)
    if optimizer.mode == "grid":
        block = _grid_block(space, optimizer.levels, fixed)
    else:
        n = budget if budget is not None else optimizer.budget
        rng = derive_rng(optimizer.seed, "opt", context)
        block = _sample_block(space, rng, n, fixed)
    if not block.n:
        raise ValueError("empty candidate set")
    index = {}  # key -> first row
    view = block.cursor()
    for i in range(block.n):
        view._row = i
        index.setdefault(view.key(space), i)
    keys = list(index)
    rows = np.fromiter(index.values(), np.intp, len(keys))
    risks = _risks(predictors, block.take(rows))
    bad = np.argwhere(~np.isfinite(risks))
    if bad.size:
        r, j = bad[0]
        raise ValueError(f"non-finite risk {risks[r, j]} on dataset {ds_ids[r]!r} "
                         f"for candidate {keys[j]} (search {context!r})")
    obj = risks.mean(axis=0) if objective is None else np.asarray(objective(risks), dtype=float)
    if obj.shape != (len(keys),):
        raise ValueError(f"the objective of search {context!r} gives shape {obj.shape} for "
                         f"{len(keys)} distinct candidates; it must give one value each")
    bad = np.flatnonzero(~np.isfinite(obj))
    if bad.size:
        raise ValueError(f"the objective of search {context!r} gives {obj[bad[0]]} "
                         f"for candidate {keys[bad[0]]}")
    best = int(np.argmin(obj))
    best_val = float(obj[best])
    ties = int(np.sum(obj <= best_val + TIE_EPS))
    if ties > 1:
        logger.warning("search %r ends in a %d-way tie over %d candidates; "
                       "the first found wins", context, ties, block.n)
    return MinimizeResult(block.row(int(rows[best])), best_val, ties, block.n,
                          tuple(risks[:, best].tolist()))


# -- optimal defaults and per-dataset optima --------------------------------------

@dataclass
class DefaultsResult:
    """The configuration minimizing the summarized (scaled) risk across datasets."""

    config: Configuration
    aggregated_risk: float
    per_dataset_risk: dict[str, float]  # the winner's column of the search's risk matrix
    tie_count: int = 1


def compute_defaults(
    predictors: dict,
    space: SearchSpace,
    scaling: RiskTransform,
    g: SummarySpec,
    optimizer: OptimizerSpec,
    fixed: Optional[dict] = None,
    context: str = "defaults",
) -> DefaultsResult:
    """Optimal default configuration over all datasets (scaled, summarized)."""
    ds_ids, _ = _as_predictor_list(predictors)

    def objective(risks: np.ndarray) -> np.ndarray:
        scaled = np.vstack(
            [scaling.scale_many(risks[i], ds) for i, ds in enumerate(ds_ids)]
        )
        return summarize_columns(scaled, g)

    res = minimize(predictors, space, optimizer, fixed=fixed,
                   objective=objective, context=context)
    return DefaultsResult(res.config, res.risk, dict(zip(ds_ids, res.dataset_risks)),
                          res.tie_count)


def dataset_optimum(
    predictor, space: SearchSpace, optimizer: OptimizerSpec, context: str = "optimum"
) -> MinimizeResult:
    """Best configuration for a single dataset (no fixed parameters)."""
    return minimize(predictor, space, optimizer, context=context)


# -- tunability measures -----------------------------------------------------------

@dataclass
class AlgorithmTunability:
    """Per-dataset gap between a reference configuration and the dataset optima."""

    reference_label: str
    per_dataset: dict[str, float]
    aggregates: dict[str, float]


def tunability_algorithm(
    predictors: dict,
    reference: Configuration,
    optima: dict[str, MinimizeResult],
    reference_label: str = "optimal",
) -> AlgorithmTunability:
    risks = _risks(predictors, [reference])[:, 0].tolist()
    per = {ds: risk - optima[ds].risk for ds, risk in zip(predictors, risks)}
    return AlgorithmTunability(reference_label, per, aggregate_all(per.values()))


def _require_active(reference: Configuration, *names: str) -> None:
    for name in names:
        if not reference.active.get(name, False):
            raise ValueError(f"parameter {name!r} is inactive under the reference; "
                             "adjust it with conditional_reference first")


@dataclass
class ParamDatasetResult:
    best_value: object
    d: float
    tie_count: int = 1


def tunability_parameter(
    param: str,
    reference: Configuration,
    predictor,
    space: SearchSpace,
    optimizer: OptimizerSpec,
    context: str = "",
) -> ParamDatasetResult:
    """Gain from tuning one parameter while all others sit at the reference."""
    if param not in space:
        raise ValueError(f"unknown parameter {param!r}")
    _require_active(reference, param)
    fixed = {name: reference.values[name] for name in space.names if name != param}
    res = minimize(predictor, space, optimizer, fixed=fixed,
                   context=f"param:{param}:{context}")
    ref_risk = float(_risks(predictor, [reference])[0, 0])
    return ParamDatasetResult(
        best_value=res.config.values[param],
        d=ref_risk - res.risk,
        tie_count=res.tie_count,
    )


@dataclass
class PairDatasetResult:
    best_values: tuple
    d: float
    joint_gain: float
    d_first: float
    d_second: float
    tie_count: int = 1


def tunability_pair(
    i1: str,
    i2: str,
    reference: Configuration,
    predictor,
    space: SearchSpace,
    optimizer: OptimizerSpec,
    context: str = "",
    single_risks: Optional[tuple[float, float]] = None,
) -> PairDatasetResult:
    """Joint gain of tuning two parameters together.

    d is the gap between the reference risk and the joint two-parameter
    optimum; the joint gain subtracts the better of the two univariate
    optima. Univariate optima are recomputed at the full budget unless
    `single_risks` passes them in.
    """
    if i1 == i2:
        raise ValueError("pair needs two distinct parameters")
    _require_active(reference, i1, i2)
    ref_risk = float(_risks(predictor, [reference])[0, 0])
    fixed = {n: reference.values[n] for n in space.names if n not in (i1, i2)}
    joint = minimize(predictor, space, optimizer, fixed=fixed,
                     context=f"pair:{i1}:{i2}:{context}",
                     budget=optimizer.pair_budget)
    if single_risks is None:
        r1 = ref_risk - tunability_parameter(i1, reference, predictor, space,
                                             optimizer, context).d
        r2 = ref_risk - tunability_parameter(i2, reference, predictor, space,
                                             optimizer, context).d
    else:
        r1, r2 = single_risks
    return PairDatasetResult(
        best_values=(joint.config.values[i1], joint.config.values[i2]),
        d=ref_risk - joint.risk,
        joint_gain=min(r1, r2) - joint.risk,
        d_first=ref_risk - r1,
        d_second=ref_risk - r2,
        tie_count=joint.tie_count,
    )


# -- conditional parameters ---------------------------------------------------------

def activating_assignment(space: SearchSpace, param: str) -> tuple[str, object]:
    """(parent, value) that switches a conditional parameter on.

    When several parent levels activate it, the first in the parent's level
    declaration order wins.
    """
    pdef = space[param]
    if pdef.condition is None:
        raise ValueError(f"parameter {param!r} is not conditional")
    parent = space[pdef.condition.parent]
    for level in parent.levels:
        if level in pdef.condition.values:
            return parent.name, level
    raise ValueError(f"no activating level for {param!r}")  # pragma: no cover


def conditional_reference(
    param: str,
    space: SearchSpace,
    predictors: dict,
    scaling: RiskTransform,
    g: SummarySpec,
    optimizer: OptimizerSpec,
    context: str = "conditional",
) -> Configuration:
    """Reference for scoring a parameter that the defaults leave inactive.

    The superordinate parameter is pinned to an activating value and the
    remaining parameters are re-optimized as defaults under that pin.
    """
    parent, value = activating_assignment(space, param)
    return compute_defaults(predictors, space, scaling, g, optimizer,
                            fixed={parent: value}, context=f"{context}:{param}").config


# -- cross-validation over datasets ---------------------------------------------------

@dataclass
class CvResult:
    """Leave-datasets-out evaluation of recomputed defaults."""

    per_dataset: dict[str, float]
    aggregates: dict[str, float]
    fold_assignment: dict[str, int]


def cv_across_datasets(
    predictors: dict,
    space: SearchSpace,
    optima: dict[str, MinimizeResult],
    scaling: RiskTransform,
    g: SummarySpec,
    optimizer: OptimizerSpec,
    folds: int,
    seed: int,
    workers: int = 1,
) -> CvResult:
    """Defaults from train-fold datasets, tunability measured on test folds.

    The datasets are split by `stratified_folds` of one class; fewer than 2
    folds, or fewer datasets than folds, raise ValueError.
    """
    ds_ids = list(predictors.keys())
    if len(ds_ids) < folds:
        raise ValueError(f"{len(ds_ids)} datasets cannot be split into {folds} folds")
    test_sets = stratified_folds(np.zeros(len(ds_ids)), folds, derive_rng(seed, "cv-datasets"))
    fold_of = {ds_ids[j]: f for f, test in enumerate(test_sets) for j in test}

    def run_fold(fold_idx: int) -> dict[str, float]:
        test_ids = [ds for ds in ds_ids if fold_of[ds] == fold_idx]
        train = {ds: predictors[ds] for ds in ds_ids if fold_of[ds] != fold_idx}
        defaults = compute_defaults(train, space, scaling, g, optimizer,
                                    context=f"cv-fold:{fold_idx}")
        risks = _risks({ds: predictors[ds] for ds in test_ids}, [defaults.config])
        return {ds: risk - optima[ds].risk for ds, risk in zip(test_ids, risks[:, 0].tolist())}

    per_dataset: dict[str, float] = {}
    for result in _parallel_map(run_fold, range(folds), workers):
        per_dataset.update(result)
    per_dataset = {ds: per_dataset[ds] for ds in ds_ids}
    return CvResult(per_dataset, aggregate_all(per_dataset.values()), fold_of)
