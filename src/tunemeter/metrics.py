"""Performance measures, risk orientation, scaling and summary functions.

Classification measures (auc, accuracy, brier) score learners; regression
measures (r_squared, kendall_tau) score surrogates. Everything downstream
works on risks: minimize-oriented values where smaller is better. Measures
that are maximized are negated on the way in, so gains show up as positive
differences in reports.

The rank measures auc and kendall_tau are exact counts in numpy that
finish with scipy.stats' arithmetic, so they equal scipy's values to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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
    """Area under the ROC curve via the rank-sum statistic with midrank ties.

    The midranks are exact half-integers, scipy's average ranks; a NaN score
    gives NaN. Scores and labels of unequal shapes, or a label that is not 0
    or 1, raise ValueError.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("length mismatch between scores and labels")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != labels.size:
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("length mismatch between predictions and labels")
    for values in (preds, labels):
        if np.count_nonzero((values != 0) & (values != 1)):
            raise ValueError("predictions and labels must be 0 or 1")
    # the share of equal pairs, rounded as np.mean rounds it, without its call overhead:
    # the bot takes accuracy on every CV fold
    return float(np.count_nonzero(preds == labels) / np.float64(preds.size))


def brier(probs: Sequence[float], labels: Sequence[int]) -> float:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if probs.shape != labels.shape:
        raise ValueError("length mismatch between probabilities and labels")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if np.count_nonzero((labels != 0) & (labels != 1)):
        raise ValueError("labels must be 0 or 1")
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


_PAIR_BLOCK = 1 << 20  # pair signs per side and block of rows in kendall_tau


def kendall_tau(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Kendall's tau-b (tie corrected). NaN when either side is constant or has a NaN.

    Concordant minus discordant pairs and each side's ties are exact integer
    counts over all ordered pairs, a block of rows at a time. That is O(n^2):
    on a 2-vCPU x86 machine, faster than scipy's O(n log n) merge count on
    selection-CV folds (0.08 ms against 0.45 ms at 80 rows), slower at 5,000
    rows (61 ms against 1.1 ms).
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError("length mismatch")
    n = actual.size
    if n < 2:
        raise ValueError("need at least 2 points")
    both = np.stack([actual.ravel(), predicted.ravel()])
    if np.isnan(both).any():
        return float("nan")
    step = max(1, _PAIR_BLOCK // n)
    twice_cmd, zeros = 0, np.zeros(2, dtype=np.int64)
    for start in range(0, n, step):
        a, x = both[:, start:start + step, None], both[:, None, :]
        signs = (a > x).astype(np.int8) - (a < x)  # comparisons rank +-inf with no warning
        twice_cmd += int(np.sum(signs[0] * signs[1], dtype=np.int64))
        zeros += np.count_nonzero(signs == 0, axis=(1, 2))
    # every unordered pair counts twice; each row's pair with itself is a tie
    tot, (xtie, ytie) = n * (n - 1) // 2, (zeros - n) // 2
    if xtie == tot or ytie == tot:
        return float("nan")
    tau = twice_cmd // 2 / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


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
    baseline = to_risk(_BALANCED_BASELINE[spec.name], spec)
    stats_map = {}
    for ds_id, risks in observed_risks.items():
        arr = np.asarray(list(risks), dtype=float)
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        stats_map[ds_id] = DatasetRiskStats(baseline, float(arr.min()), float(arr.mean()), sd)
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
        return dict.fromkeys(("mean", "median", "q10", "q90"), float("nan"))
    return {"mean": float(arr.mean()), "median": float(np.median(arr)),
            "q10": float(np.quantile(arr, 0.1)), "q90": float(np.quantile(arr, 0.9))}
