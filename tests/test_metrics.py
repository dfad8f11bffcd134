import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from tunemeter import metrics
from tunemeter.metrics import (
    DatasetRiskStats,
    MeasureSpec,
    RiskTransform,
    SummarySpec,
    accuracy,
    aggregate_all,
    auc,
    brier,
    kendall_tau,
    r_squared,
    risk_stats_from_observations,
    summarize_columns,
    to_risk,
)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_three_of_four_pairs_concordant(self):
        # pairs: (0.9 vs 0.6) win, (0.9 vs 0.1) win, (0.4 vs 0.6) loss, (0.4 vs 0.1) win
        assert auc([0.9, 0.6, 0.4, 0.1], [1, 0, 1, 0]) == 0.75

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1, 0, -1], [1.0, 0.0, 0.5],
                                        [1.0, 0.0, float("nan")]])
    def test_labels_other_than_0_and_1_error(self, labels):
        with pytest.raises(ValueError, match="0 or 1"):
            auc([0.9, 0.1, 0.5], labels)

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            auc([0.1, 0.2, 0.3], [0, 1])

    def test_complement_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            scores = rng.permutation(np.linspace(0.01, 0.99, 12))
            labels = rng.integers(0, 2, 12)
            if labels.min() == labels.max():
                continue
            assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0)


# heavy ties, signed zeros and both infinities
TIED = (-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf)


@st.composite
def paired_sides(draw, max_size=60):
    """Two equal-length float arrays; each is tied, free, or constant, and may hold a NaN."""
    n = draw(st.integers(2, max_size))

    def side():
        kind = draw(st.sampled_from(("tied", "free", "constant")))
        if kind == "constant":
            values = [draw(st.sampled_from(TIED))] * n
        else:
            element = st.sampled_from(TIED) if kind == "tied" else st.floats(allow_nan=False)
            values = draw(st.lists(element, min_size=n, max_size=n))
        if draw(st.integers(0, 9)) == 0:
            values[draw(st.integers(0, n - 1))] = np.nan
        return np.array(values)

    return side(), side()


def same_bits(got, expected) -> bool:
    """Equal to the bit, where any NaN equals any NaN."""
    if np.isnan(expected):
        return bool(np.isnan(got))
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


def scipy_auc(scores, labels) -> float:
    ranks = stats.rankdata(scores)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    return (float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestRankMeasuresMatchScipy:
    @settings(max_examples=400, deadline=None)
    @given(sides=paired_sides())
    def test_auc_is_the_scipy_rank_sum(self, sides):
        scores, raw = sides
        labels = (np.nan_to_num(raw) > 0).astype(int)
        assume(labels.min() < labels.max())
        assert same_bits(auc(scores, labels), scipy_auc(scores, labels))

    @settings(max_examples=400, deadline=None)
    @given(sides=paired_sides(), block=st.sampled_from((1, 7, 64, 1 << 20)))
    def test_kendall_tau_is_scipy_tau_b(self, sides, block):
        actual, predicted = sides
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_PAIR_BLOCK", block)  # 1 and 7 split rows into blocks
            got = kendall_tau(actual, predicted)
        assert same_bits(got, stats.kendalltau(actual, predicted).statistic)

    def test_kendall_tau_over_several_default_blocks(self):
        rng = np.random.default_rng(12)
        n = 2500
        assert metrics._PAIR_BLOCK // n < n  # more rows than one block at the default size
        actual = np.round(rng.normal(size=n), 1)
        predicted = np.round(actual + rng.normal(size=n), 1)
        assert same_bits(kendall_tau(actual, predicted),
                         stats.kendalltau(actual, predicted).statistic)


class TestAccuracyBrier:
    def test_perfect_prediction(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert brier([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_brier_half(self):
        assert brier([0.5], [1]) == 0.25

    def test_accuracy_three_quarters(self):
        assert accuracy([1, 0, 0, 0], [1, 1, 0, 0]) == 0.75

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                          max_size=300))
    def test_accuracy_is_the_mean_of_equal_pairs_to_the_bit(self, pairs):
        preds, labels = np.array(pairs).T
        got = accuracy(preds, labels)
        assert type(got) is float and same_bits(got, np.mean(preds == labels))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])
        with pytest.raises(ValueError):
            brier([0.5], [1, 0])

    @pytest.mark.parametrize("labels", [[0, 2], [0, -1], [0.0, 0.5], [0.0, float("nan")]])
    def test_brier_labels_other_than_0_and_1_error(self, labels):
        with pytest.raises(ValueError, match="0 or 1"):
            brier([0.2, 0.3], labels)

    @pytest.mark.parametrize("values", [[1, 0, 2], [1, 0, -1], [1.0, 0.0, 0.5],
                                        [1.0, 0.0, float("nan")]])
    def test_accuracy_predictions_or_labels_other_than_0_and_1_error(self, values):
        for preds, labels in ((values, values), (values, [1, 0, 0]), ([1, 0, 0], values)):
            with pytest.raises(ValueError, match="0 or 1"):
                accuracy(preds, labels)

    def test_ranges(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            probs = rng.uniform(0, 1, 10)
            labels = rng.integers(0, 2, 10)
            assert 0.0 <= brier(probs, labels) <= 1.0
            assert 0.0 <= accuracy((probs > 0.5).astype(int), labels) <= 1.0


class TestToRisk:
    def test_minimize_unchanged(self):
        assert to_risk(0.25, MeasureSpec("brier")) == 0.25

    def test_maximize_negated(self):
        assert to_risk(0.8, MeasureSpec("auc")) == -0.8

    def test_negation_matches_one_minus_for_differences(self):
        rng = np.random.default_rng(1)
        spec = MeasureSpec("auc")
        for _ in range(100):
            a, b = rng.uniform(0, 1, 2)
            assert to_risk(a, spec) - to_risk(b, spec) == pytest.approx((1 - a) - (1 - b))

    def test_argmin_correspondence(self):
        rng = np.random.default_rng(9)
        spec = MeasureSpec("auc")
        vals = rng.uniform(0, 1, 25)
        risks = [to_risk(v, spec) for v in vals]
        assert int(np.argmin(risks)) == int(np.argmax(vals))

    def test_direction_follows_name(self):
        assert MeasureSpec("auc").direction == "maximize"
        assert MeasureSpec("brier").direction == "minimize"
        with pytest.raises(ValueError, match="unknown measure"):
            MeasureSpec("logloss")


class TestRegressionMeasures:
    def test_perfect_fit(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_baseline_zero(self):
        actual = [1.0, 2.0, 3.0, 4.0]
        assert r_squared(actual, [2.5] * 4) == 0.0

    def test_half_r_squared(self):
        # SSE = 1, SST = 2
        assert r_squared([1, 2, 3], [1, 2, 4]) == 0.5

    def test_tau_one_third(self):
        # 2 concordant, 1 discordant pair
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_constant_actual_errors(self):
        with pytest.raises(ValueError, match="constant"):
            r_squared([2, 2, 2], [1, 2, 3])

    def test_tau_antisymmetric(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 15)
        y = rng.uniform(0, 1, 15)
        assert kendall_tau(x, y) == pytest.approx(-kendall_tau(x, -y))

    def test_tau_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x, y = rng.uniform(0, 1, 10), rng.uniform(0, 1, 10)
            assert -1.0 <= kendall_tau(x, y) <= 1.0


def scale(values, tr):
    return tr.scale_many(np.array(values, dtype=float), "d").tolist()


class TestScaleRisks:
    def test_none_is_identity(self):
        tr = RiskTransform("none")
        assert scale([0.4, -1.0], tr) == [0.4, -1.0]

    def test_unit_interval_formula(self):
        # spec text gives (r - baseline)/|best - baseline|; its worked example
        # (0.3) contradicts both that formula and the paper, so the formula wins
        tr = RiskTransform(
            "unit_interval", {"d": DatasetRiskStats(baseline=1.0, best=0.0)})
        assert scale([0.3], tr) == [pytest.approx(-0.7)]

    def test_unit_interval_endpoints_exact(self):
        tr = RiskTransform(
            "unit_interval", {"d": DatasetRiskStats(baseline=-0.5, best=-0.9)})
        lo, hi = scale([-0.5, -0.9], tr)
        assert lo == 0.0 and abs(hi) == 1.0

    def test_zscore(self):
        tr = RiskTransform("zscore", {"d": DatasetRiskStats(mean=2.0, sd=1.0)})
        assert scale([1.0, 2.0, 3.0], tr) == [-1.0, 0.0, 1.0]

    def test_mode_preconditions(self):
        tr = RiskTransform("unit_interval", {"d": DatasetRiskStats(baseline=0.5, best=0.5)})
        with pytest.raises(ValueError):
            scale([0.1], tr)
        tz = RiskTransform("zscore", {"d": DatasetRiskStats(mean=0.0, sd=0.0)})
        with pytest.raises(ValueError):
            scale([0.1], tz)

    def test_unknown_dataset(self):
        tz = RiskTransform("zscore", {"d": DatasetRiskStats(mean=0.0, sd=1.0)})
        with pytest.raises(ValueError, match="'e'"):
            tz.scale_many(np.array([0.1]), "e")

    def test_stats_from_observations(self):
        spec = MeasureSpec("auc")
        tr = risk_stats_from_observations({"d": [-0.9, -0.6, -0.7]}, spec, "zscore")
        st = tr.stats["d"]
        assert st.baseline == -0.5 and st.best == -0.9
        assert st.mean == pytest.approx(-0.7333333333333333)


def summarize_one(values, spec):
    """Summary of one candidate column over the datasets' values."""
    (out,) = summarize_columns(np.array(values, dtype=float)[:, None], spec)
    return out


class TestSummarize:
    def test_mean(self):
        assert summarize_one([0.1, 0.3], SummarySpec("mean")) == pytest.approx(0.2)

    def test_median_robust(self):
        assert summarize_one([1, 2, 100], SummarySpec("median")) == 2

    def test_quantile_interpolated(self):
        q90 = summarize_one(list(range(1, 11)), SummarySpec("quantile", 0.9))
        assert q90 == pytest.approx(9.1)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            summarize_columns(np.empty((0, 3)), SummarySpec("mean"))

    def test_columns_summarized_independently(self):
        matrix = np.array([[1.0, 5.0], [3.0, 5.0], [8.0, 5.0]])
        assert summarize_columns(matrix, SummarySpec("median")).tolist() == [3.0, 5.0]

    def test_parse(self):
        assert SummarySpec.parse("mean") == SummarySpec("mean")
        assert SummarySpec.parse("q0.9") == SummarySpec("quantile", 0.9)
        with pytest.raises(ValueError):
            SummarySpec.parse("q1.0")

    def test_aggregate_all_keys(self):
        agg = aggregate_all([1.0, 2.0, 3.0])
        assert set(agg) == {"mean", "median", "q10", "q90"}
        assert agg["mean"] == 2.0
