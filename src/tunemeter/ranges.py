"""Data-driven tuning spaces from per-dataset optimal configurations.

For every numeric or integer parameter the tuning range is the interval
between two quantiles (type-7, linear interpolation of order statistics) of
the per-dataset best values on the untransformed scale. Categorical
parameters keep the levels that won at least once and on at least a given
fraction (default 0) of the datasets. Conditional parameters contribute
only datasets where they were active in the best configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hyperspace import Configuration, SearchSpace, apply_trafo

DS_FREE_TRAFOS = ("identity", "pow2")


@dataclass(frozen=True)
class RangeSpec:
    """Quantile levels, and the share of datasets a kept level must have won."""

    p1: float = 0.05
    p2: float = 0.95
    min_fraction: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p1 < self.p2 <= 1.0):
            raise ValueError("need 0 <= p1 < p2 <= 1")
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError("min_fraction must lie in [0, 1]")


@dataclass
class ParamRange:
    """Computed tuning range for one parameter."""

    name: str
    kind: str
    n_active: int
    values: list = field(default_factory=list)
    q_low: Optional[float] = None
    q_high: Optional[float] = None
    q_low_trafo: Optional[float] = None
    q_high_trafo: Optional[float] = None
    included_levels: Optional[list[str]] = None


@dataclass
class TuningSpaceResult:
    spec: RangeSpec
    per_param: dict[str, ParamRange]


def compute_ranges(
    best_configs: Sequence[Configuration],
    space: SearchSpace,
    spec: RangeSpec = RangeSpec(),
) -> TuningSpaceResult:
    """Quantile ranges and categorical inclusion sets over per-dataset optima."""
    best_configs = list(best_configs)
    if not best_configs:
        raise ValueError("need at least one best configuration")
    per_param: dict[str, ParamRange] = {}
    for p in space.params:
        values = [c.values[p.name] for c in best_configs if c.active.get(p.name, False)]
        pr = ParamRange(name=p.name, kind=p.kind, n_active=len(values), values=values)
        if values:
            if p.kind in ("numeric", "integer"):
                arr = np.asarray(values, dtype=float)
                pr.q_low = float(np.quantile(arr, spec.p1))
                pr.q_high = float(np.quantile(arr, spec.p2))
                if p.trafo in DS_FREE_TRAFOS:
                    pr.q_low_trafo = float(apply_trafo(p, pr.q_low))
                    pr.q_high_trafo = float(apply_trafo(p, pr.q_high))
            else:
                thr = max(1, spec.min_fraction * len(values))
                pr.included_levels = [lv for lv in p.levels if values.count(lv) >= thr]
        per_param[p.name] = pr
    return TuningSpaceResult(spec=spec, per_param=per_param)
