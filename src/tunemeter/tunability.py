"""The measurement engine.

Given per-dataset risk predictors over one search space, this module
computes optimal default configurations, per-dataset optima, tunability of
the whole algorithm, of single parameters and of parameter pairs, joint
gains, and a cross-validation protocol over datasets. Optimization is
black-box: either exhaustive grid enumeration or seeded uniform random
search on the untransformed scale.

A predictor is anything with ``predict_many(configs) -> float array``;
fitted surrogates qualify, and so do plain lookup tables in tests.
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
    _check_fixed,
    grid_values,
    resolve_active,
    sample_configuration,  # noqa: F401  perfbench/tracer.py wraps it under this module
    sample_configurations,
)
from .metadata import stratified_folds
from .metrics import RiskTransform, SummarySpec, aggregate_all, summarize_columns

logger = logging.getLogger(__name__)

TIE_EPS = 1e-12
GRID_CAP = 2_000_000


@dataclass(frozen=True)
class OptimizerSpec:
    """Black-box optimizer settings.

    random mode draws `budget` uniform candidates (`pair_budget` for
    two-parameter analyses); grid mode enumerates the full cross product
    with `levels` points per non-degenerate parameter.
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

    @property
    def tied(self) -> bool:
        return self.tie_count > 1


def _as_predictor_list(predictors) -> tuple[list[str], list]:
    """Dataset ids and predictors of a {dataset id: predictor} dict or one predictor."""
    if isinstance(predictors, dict):
        return list(predictors.keys()), list(predictors.values())
    return [getattr(predictors, "dataset_id", "?")], [predictors]


def _grid_configs(
    space: SearchSpace, levels: int, fixed: Optional[dict] = None
) -> list[Configuration]:
    """Every grid cell, lexicographic in draw order (parents before children).

    Fixed parameters contribute a single value, which must lie in their
    bounds or levels (SpaceError otherwise); conditional parameters whose
    parent value deactivates them contribute their fixed or placeholder
    value flagged inactive.
    """
    fixed = fixed or {}
    _check_fixed(space, fixed)
    order = space.draw_order()
    out: list[Configuration] = []
    values: dict = {}

    def rec(i: int):
        if i == len(order):
            if len(out) >= GRID_CAP:
                raise ValueError(f"grid exceeds {GRID_CAP} cells; lower the levels")
            out.append(Configuration(dict(values), resolve_active(space, values)))
            return
        p = order[i]
        if p.condition is not None and not p.condition.activates(values[p.condition.parent]):
            values[p.name] = fixed.get(p.name, p.placeholder())
            rec(i + 1)
        elif p.name in fixed:
            values[p.name] = fixed[p.name]
            rec(i + 1)
        else:
            for v in grid_values(p, levels):
                values[p.name] = v
                rec(i + 1)

    rec(0)
    return out


def _risk_matrix(
    preds: list, space: SearchSpace, configs: list[Configuration]
) -> tuple[list[Configuration], np.ndarray]:
    """Distinct configurations in order of first appearance and their (m, U) predicted risks."""
    index: dict[tuple, Configuration] = {}
    for c in configs:
        index.setdefault(c.key(space), c)
    uniques = list(index.values())
    U = np.empty((len(preds), len(uniques)))
    for r, pred in enumerate(preds):
        U[r] = np.asarray(pred.predict_many(uniques), dtype=float)
    return uniques, U


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

    Grid mode enumerates every cell; random mode draws the candidates
    column by column with `sample_configurations`. Repeated candidates
    (same `Configuration.key`) are predicted and scored once, in order of
    first appearance. `objective` maps the (m datasets x U distinct
    candidates) risk matrix to one value per column (default: mean over
    datasets). Ties are broken by the first optimum in candidate order:
    lexicographic grid order, or sample order for random search.
    ``tie_count`` counts the distinct configurations within 1e-12 of the
    optimum, and a tie is logged as a warning; ``n_evaluated`` counts all
    candidates, repeats included. A non-finite predicted risk raises
    ValueError naming the dataset and the candidate.
    """
    ds_ids, preds = _as_predictor_list(predictors)
    if optimizer.mode == "grid":
        configs = _grid_configs(space, optimizer.levels, fixed)
    else:
        n = budget if budget is not None else optimizer.budget
        rng = derive_rng(optimizer.seed, "opt", context)
        configs = sample_configurations(space, rng, n, fixed)
    if not configs:
        raise ValueError("empty candidate set")
    uniques, risks = _risk_matrix(preds, space, configs)
    bad = np.argwhere(~np.isfinite(risks))
    if bad.size:
        r, j = bad[0]
        raise ValueError(f"non-finite risk {risks[r, j]} on dataset {ds_ids[r]!r} "
                         f"for candidate {uniques[j].key(space)} (search {context!r})")
    obj = objective(risks) if objective is not None else risks.mean(axis=0)
    best = int(np.argmin(obj))
    best_val = float(obj[best])
    ties = int(np.sum(obj <= best_val + TIE_EPS))
    if ties > 1:
        logger.warning("search %r ends in a %d-way tie over %d candidates; "
                       "the first found wins", context, ties, len(configs))
    return MinimizeResult(uniques[best].copy(), best_val, ties, len(configs))


# -- optimal defaults and per-dataset optima --------------------------------------

@dataclass
class DefaultsResult:
    """The configuration minimizing the summarized (scaled) risk across datasets."""

    config: Configuration
    aggregated_risk: float
    per_dataset_risk: dict[str, float]
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
    if not predictors:
        raise ValueError("need at least one dataset predictor")
    ds_ids = list(predictors.keys())

    def objective(risks: np.ndarray) -> np.ndarray:
        scaled = np.vstack(
            [scaling.scale_many(risks[i], ds) for i, ds in enumerate(ds_ids)]
        )
        return summarize_columns(scaled, g)

    res = minimize(predictors, space, optimizer, fixed=fixed,
                   objective=objective, context=context)
    per_ds = {ds: float(pred.predict_many([res.config])[0])
              for ds, pred in predictors.items()}
    return DefaultsResult(res.config, res.risk, per_ds, res.tie_count)


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
    per = {}
    for ds, pred in predictors.items():
        ref_risk = float(pred.predict_many([reference])[0])
        per[ds] = ref_risk - optima[ds].risk
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
    ref_risk = float(predictor.predict_many([reference])[0])
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
    ref_risk = float(predictor.predict_many([reference])[0])
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
    extra_pins: Optional[dict] = None,
    context: str = "conditional",
) -> Configuration:
    """Reference for scoring a parameter that the defaults leave inactive.

    The superordinate parameter is pinned to an activating value and the
    remaining parameters are re-optimized as defaults under that pin.
    """
    parent, value = activating_assignment(space, param)
    pins = {parent: value}
    if extra_pins:
        pins.update(extra_pins)
    res = compute_defaults(predictors, space, scaling, g, optimizer,
                           fixed=pins, context=f"{context}:{param}")
    return res.config


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
        out = {}
        for ds in test_ids:
            ref_risk = float(predictors[ds].predict_many([defaults.config])[0])
            out[ds] = ref_risk - optima[ds].risk
        return out

    per_dataset: dict[str, float] = {}
    for result in _parallel_map(run_fold, range(folds), workers):
        per_dataset.update(result)
    per_dataset = {ds: per_dataset[ds] for ds in ds_ids}
    return CvResult(per_dataset, aggregate_all(per_dataset.values()), fold_of)
