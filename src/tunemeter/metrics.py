"""Performance measures, risk orientation, scaling and summary functions.

Classification measures (auc, accuracy, brier) score learners; regression
measures (r_squared, kendall_tau) score surrogates. Everything downstream
works on risks: minimize-oriented values where smaller is better. Measures
that are maximized are negated on the way in, so gains show up as positive
differences in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import stats

MEASURES = ("auc", "accuracy", "brier")
_DIRECTIONS = {"auc": "maximize", "accuracy": "maximize", "brier": "minimize"}


@dataclass(frozen=True)
class MeasureSpec:
    """A named classification measure; its optimization direction follows from the name."""

    name: str

    def __post_init__(self):
        if self.name not in _DIRECTIONS:
            raise ValueError(f"unknown measure {self.name!r}; choose from {MEASURES}")

    @property
    def direction(self) -> str:
        return _DIRECTIONS[self.name]


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the rank-sum statistic with midrank ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    ranks = stats.rankdata(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("length mismatch between predictions and labels")
    return float(np.mean(preds == labels))


def brier(probs: Sequence[float], labels: Sequence[int]) -> float:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if probs.shape != labels.shape:
        raise ValueError("length mismatch between probabilities and labels")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    return float(np.mean((probs - labels) ** 2))


def to_risk(value: float, spec: MeasureSpec) -> float:
    """Orient a measure so that lower is better (maximize measures are negated)."""
    return -value if spec.direction == "maximize" else value


def r_squared(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """1 - SSE/SST against the mean of `actual`; errors on constant `actual`."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError("length mismatch")
    if actual.size < 2:
        raise ValueError("need at least 2 points")
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst == 0.0:
        raise ValueError("r_squared undefined for constant actual values")
    sse = float(np.sum((actual - predicted) ** 2))
    return 1.0 - sse / sst


def kendall_tau(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Kendall's tau-b (tie corrected). NaN when either side is constant."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError("length mismatch")
    if actual.size < 2:
        raise ValueError("need at least 2 points")
    tau = stats.kendalltau(actual, predicted).statistic
    return float(tau)


# -- risk scaling ---------------------------------------------------------------

SCALINGS = ("none", "unit_interval", "zscore")

# Constant-predictor risk for balanced binary data, used as the scaling
# baseline; the synthetic datasets shipped with this package are balanced
# by construction.
_BALANCED_BASELINE = {"auc": 0.5, "accuracy": 0.5, "brier": 0.25}


@dataclass(frozen=True)
class DatasetRiskStats:
    baseline: Optional[float] = None
    best: Optional[float] = None
    mean: Optional[float] = None
    sd: Optional[float] = None


@dataclass(frozen=True)
class RiskTransform:
    """Per-dataset risk rescaling: none, unit_interval or zscore.

    unit_interval maps the baseline risk to 0 and the best risk to 1 in
    absolute value: (r - baseline) / |best - baseline|. zscore subtracts
    the per-dataset mean and divides by the sample (n-1) standard deviation.
    """

    mode: str = "none"
    stats: dict[str, DatasetRiskStats] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in SCALINGS:
            raise ValueError(f"unknown scaling mode {self.mode!r}")

    def scale_many(self, risks: np.ndarray, dataset_id: str) -> np.ndarray:
        """Scale one dataset's risks under the transform's statistics for it."""
        if self.mode == "none":
            return risks
        st = self.stats.get(dataset_id)
        if st is None:
            raise ValueError(f"no scaling statistics for dataset {dataset_id!r}")
        if self.mode == "unit_interval":
            if st.baseline is None or st.best is None or st.baseline == st.best:
                raise ValueError(f"unit_interval scaling needs baseline != best ({dataset_id})")
            return (risks - st.baseline) / abs(st.best - st.baseline)
        if st.sd is None or st.mean is None or st.sd <= 0:
            raise ValueError(f"zscore scaling needs positive sd ({dataset_id})")
        return (risks - st.mean) / st.sd


def risk_stats_from_observations(
    observed_risks: dict[str, Sequence[float]], spec: MeasureSpec, mode: str
) -> RiskTransform:
    """Derive per-dataset scaling statistics from observed meta-data risks.

    baseline = constant-predictor risk for the measure (balanced classes),
    best = minimum observed risk, mean/sd = sample moments.
    """
    stats_map = {}
    for ds_id, risks in observed_risks.items():
        arr = np.asarray(list(risks), dtype=float)
        baseline = to_risk(_BALANCED_BASELINE[spec.name], spec)
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        stats_map[ds_id] = DatasetRiskStats(
            baseline=baseline,
            best=float(arr.min()),
            mean=float(arr.mean()),
            sd=sd,
        )
    return RiskTransform(mode=mode, stats=stats_map)


# -- summary functions ----------------------------------------------------------

@dataclass(frozen=True)
class SummarySpec:
    """Cross-dataset aggregation: mean, median, or an interpolated quantile."""

    g: str = "mean"
    q: Optional[float] = None

    def __post_init__(self):
        if self.g not in ("mean", "median", "quantile"):
            raise ValueError(f"unknown summary {self.g!r}")
        if self.g == "quantile":
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValueError("quantile summary needs q in (0, 1)")

    @classmethod
    def parse(cls, text: str) -> "SummarySpec":
        """Accepts 'mean', 'median' or 'q<p>' (for example q0.9)."""
        if text in ("mean", "median"):
            return cls(text)
        if text.startswith("q"):
            return cls("quantile", q=float(text[1:]))
        raise ValueError(f"cannot parse summary spec {text!r}")


def summarize_columns(matrix: np.ndarray, spec: SummarySpec) -> np.ndarray:
    """Column-wise summary of an (m datasets x B candidates) risk matrix.

    Quantiles interpolate order statistics (type 7).
    """
    if matrix.size == 0:
        raise ValueError("cannot summarize an empty matrix")
    if spec.g == "mean":
        return matrix.mean(axis=0)
    if spec.g == "median":
        return np.median(matrix, axis=0)
    return np.quantile(matrix, spec.q, axis=0)


def aggregate_all(values: Sequence[float]) -> dict[str, float]:
    """Standard report aggregates: mean, median and the 0.1/0.9 quantiles."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {"mean": float("nan"), "median": float("nan"),
                "q10": float("nan"), "q90": float("nan")}
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "q10": float(np.quantile(arr, 0.1)),
        "q90": float(np.quantile(arr, 0.9)),
    }
