import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import elastic_net_descent
from tunemeter import metadata
from tunemeter.hyperspace import (
    DatasetInfo,
    bundled_space,
    make_configuration,
    parse_space,
    sample_configuration,
    validate_configuration,
)
from tunemeter.metadata import (
    TOY_LEARNER_KINDS,
    LabeledDataset,
    MetaDataset,
    MetaFormatError,
    ExperimentRow,
    ToyLearnerSpec,
    _ElasticNetLogReg,
    cross_validate,
    generate_bot_data,
    make_synthetic_dataset,
    read_meta,
    stratified_folds,
    write_meta,
)


def knn_config(k):
    return make_configuration(bundled_space("kknn"), {"k": k})


class TestSyntheticDatasets:
    def test_blobs_contract(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=100, p=2, separation=6, seed=1)
        assert ds.X.shape == (100, 2)
        assert ds.info.n == 100 and ds.info.p == 2
        assert abs(int(ds.y.sum()) * 2 - 100) <= 1

    def test_odd_n_balanced(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=21, p=3, separation=2, seed=0)
        counts = np.bincount(ds.y)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_deterministic(self):
        a = make_synthetic_dataset("xor_rotated", n=50, p=4, separation=3, seed=9)
        b = make_synthetic_dataset("xor_rotated", n=50, p=4, separation=3, seed=9)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset("gaussian_blobs", n=10, p=2, separation=1, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_dataset("gaussian_blobs", n=30, p=1, separation=1, seed=0)

    def test_zero_separation_auc_near_half(self):
        # no signal: knn AUC averaged over 20 seeds stays within 0.5 +- 0.05
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        aucs = []
        for seed in range(20):
            ds = make_synthetic_dataset("gaussian_blobs", n=60, p=2, separation=0, seed=seed)
            res = cross_validate(learner, knn_config(7), ds, 5, ("auc",), seed=seed)
            aucs.append(res["auc"])
        assert abs(float(np.mean(aucs)) - 0.5) < 0.05

    def test_blob_separation_learnable(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=80, p=2, separation=6, seed=3)
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        res = cross_validate(learner, knn_config(5), ds, 5, ("auc",), seed=0)
        assert res["auc"] > 0.95


class TestLabeledDatasetChecks:
    def blob(self):
        return make_synthetic_dataset("gaussian_blobs", n=60, p=3, separation=2, seed=0)

    def test_non_finite_feature_rejected_at_construction(self):
        ds = self.blob()
        X = ds.X.copy()
        X[5, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite feature X\[5, 1\]"):
            LabeledDataset(X, ds.y, ds.info)
        X[5, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            LabeledDataset(X, ds.y, ds.info)

    def test_non_finite_feature_set_later_fails_the_bot(self):
        # a NaN written after construction used to give NaN elastic-net measures
        ds = self.blob()
        ds.X[5, 1] = np.nan
        learners = [ToyLearnerSpec(kind, folds=5) for kind in TOY_LEARNER_KINDS]
        with pytest.raises(ValueError, match="non-finite feature"):
            generate_bot_data(learners, [ds], rows_per_pair=2, seed=0)
        cfg = make_configuration(bundled_space("glmnet"), {"alpha": 0.5, "lambda": -3.0})
        with pytest.raises(ValueError, match="non-finite feature"):
            cross_validate(learners[1], cfg, ds, 5, ("auc",), seed=0)

    @pytest.mark.parametrize("label", [2, -1, 0.5])
    def test_labels_outside_zero_one_rejected(self, label):
        ds = self.blob()
        y = ds.y.astype(float)
        y[7] = label
        with pytest.raises(ValueError, match="not 0 or 1"):
            LabeledDataset(ds.X, y, ds.info)

    @pytest.mark.parametrize("n, p, y_len", [(59, 3, 60), (60, 2, 60), (60, 3, 59)])
    def test_shapes_must_match_info(self, n, p, y_len):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, p))
        y = np.arange(y_len) % 2
        with pytest.raises(ValueError, match="shape"):
            LabeledDataset(X, y, DatasetInfo("d", n=60, p=3))


class TestStratifiedFolds:
    def test_partition(self):
        y = np.array([0, 1] * 15)
        folds = stratified_folds(y, 5, np.random.default_rng(0))
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(30))
        for f in folds:
            assert set(y[f]) == {0, 1}

    @settings(max_examples=100, deadline=None)
    @given(
        k_folds=st.integers(2, 8),
        extra=st.lists(st.integers(0, 25), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partition_with_balanced_class_counts(self, k_folds, extra, seed):
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.repeat(np.arange(len(extra)), [k_folds + e for e in extra]))
        folds = stratified_folds(y, k_folds, rng)
        assert len(folds) == k_folds
        assert sorted(np.concatenate(folds).tolist()) == list(range(y.size))
        counts = np.array([np.bincount(y[f], minlength=len(extra)) for f in folds])
        assert np.all(counts.max(axis=0) - counts.min(axis=0) <= 1)

    def test_fold_count_exceeds_class_count(self):
        y = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValueError, match="class"):
            stratified_folds(y, 5, np.random.default_rng(0))


class TestCrossValidate:
    def test_duplicated_points_knn_k1_perfect(self):
        # every point's nearest neighbor is an identical twin with its label
        locs = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        labels = np.array([0, 0, 1, 1])
        X = np.repeat(locs, 10, axis=0)
        y = np.repeat(labels, 10)
        ds = LabeledDataset(X, y, DatasetInfo("dup", n=40, p=2))
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        res = cross_validate(learner, knn_config(1), ds, 5, ("auc", "accuracy"), seed=0)
        assert res["auc"] == 1.0 and res["accuracy"] == 1.0

    def test_huge_penalty_kills_coefficients(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=60, p=3, separation=5, seed=2)
        model = _ElasticNetLogReg(alpha=0.5, lam=2.0 ** 10)
        model.fit_folds([ds.X], [ds.y])
        assert np.all(np.abs(model._coef[0]) < 1e-3)
        space = bundled_space("glmnet")
        cfg = make_configuration(space, {"alpha": 0.5, "lambda": 10.0})
        learner = ToyLearnerSpec("elasticnet_logreg", folds=5)
        res = cross_validate(learner, cfg, ds, 5, ("auc",), seed=1)
        assert res["auc"] == pytest.approx(0.5)

    def test_elasticnet_learns_separable_data(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=60, p=2, separation=6, seed=4)
        cfg = make_configuration(bundled_space("glmnet"), {"alpha": 0.5, "lambda": -10.0})
        learner = ToyLearnerSpec("elasticnet_logreg", folds=5)
        res = cross_validate(learner, cfg, ds, 5, ("auc",), seed=1)
        assert res["auc"] > 0.95

    def test_cart_learns_xor(self):
        ds = make_synthetic_dataset("xor_rotated", n=120, p=2, separation=8, seed=5)
        cfg = make_configuration(
            bundled_space("rpart"),
            {"cp": 0.01, "maxdepth": 10, "minbucket": 3, "minsplit": 6},
        )
        learner = ToyLearnerSpec("cart_classifier", folds=5)
        res = cross_validate(learner, cfg, ds, 5, ("auc",), seed=1)
        assert res["auc"] > 0.8

    def test_fold_count_exceeding_n(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=20, p=2, separation=2, seed=0)
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        with pytest.raises(ValueError):
            cross_validate(learner, knn_config(3), ds, 21, ("auc",), seed=0)

    def test_unknown_measure_rejected_before_training(self, monkeypatch):
        fits = []
        monkeypatch.setattr(metadata, "_nearest", lambda *args: fits.append(1))
        ds = make_synthetic_dataset("gaussian_blobs", n=20, p=2, separation=2, seed=0)
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        with pytest.raises(ValueError, match="unknown measure 'logloss'"):
            cross_validate(learner, knn_config(3), ds, 5, ("auc", "logloss"), seed=0)
        assert fits == []

    def test_non_finite_probabilities_drop_the_row(self, caplog, monkeypatch):
        monkeypatch.setattr(_ElasticNetLogReg, "predict_folds",
                            lambda self, Xs: [np.full(len(X), np.nan) for X in Xs])
        base = make_synthetic_dataset("gaussian_blobs", n=40, p=2, separation=2, seed=0)
        ds = LabeledDataset(base.X, base.y, DatasetInfo("blob", n=40, p=2))
        learner = ToyLearnerSpec("elasticnet_logreg", folds=4)
        cfg = make_configuration(bundled_space("glmnet"), {"alpha": 0.5, "lambda": -3.0})
        with pytest.raises(ValueError, match="non-finite predicted probability in fold 0"):
            cross_validate(learner, cfg, ds, 4, ("auc",), seed=0)
        with caplog.at_level(logging.WARNING, logger="tunemeter.metadata"):
            metas = generate_bot_data([learner], [ds], rows_per_pair=2, seed=0)
        assert metas["glmnet"].rows == []
        assert "dropping elasticnet_logreg row 1 on blob: non-finite" in caplog.text

    def test_huge_finite_features_keep_elasticnet_rows(self):
        # a column reaching 1e308 used to overflow the standardization into NaN;
        # a power-of-two rescale of that column must not change a single measure
        base = make_synthetic_dataset("gaussian_blobs", n=40, p=2, separation=2, seed=0)
        measures = []
        for factor in (1.0, 2.0 ** -1000):
            X = base.X.copy()
            X[:, 1] = base.X[:, 1] / np.abs(base.X[:, 1]).max() * 1e308 * factor
            ds = LabeledDataset(X, base.y, DatasetInfo("huge", n=40, p=2))
            metas = generate_bot_data([ToyLearnerSpec("elasticnet_logreg", folds=4)], [ds],
                                      rows_per_pair=3, seed=0)
            rows = metas["glmnet"].rows
            assert len(rows) == 3
            assert all(np.isfinite(v) for row in rows for v in row.measures.values())
            measures.append([row.measures for row in rows])
        assert measures[0] == measures[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_features_near_float_maximum_keep_cart_measures(self):
        # (a + b) / 2 overflows to inf for neighbours near 1.7e308; a power-of-two
        # rescale of that column must not change a measure
        base = make_synthetic_dataset("gaussian_blobs", n=40, p=2, separation=2, seed=0)
        cfg = make_configuration(bundled_space("rpart"),
                                 {"cp": 0.01, "maxdepth": 5, "minbucket": 3, "minsplit": 6})
        learner = ToyLearnerSpec("cart_classifier", folds=4)
        measures = []
        for factor in (1.0, 2.0 ** -1000):
            X = base.X.copy()
            # the huge column separates the classes, so trees split on it
            X[np.argsort(base.y, kind="stable"), 1] = np.linspace(1e308, 1.7e308, 40) * factor
            ds = LabeledDataset(X, base.y, DatasetInfo("huge", n=40, p=2))
            measures.append(cross_validate(learner, cfg, ds, 4, ("auc", "brier"), seed=0))
        assert measures[0] == measures[1]

    def test_invalid_configuration_rejected(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=20, p=2, separation=2, seed=0)
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        cfg = make_configuration(bundled_space("kknn"), {"k": 77})
        with pytest.raises(ValueError, match="invalid configuration"):
            cross_validate(learner, cfg, ds, 5, ("auc",), seed=0)


def _stratified_data(n, n_pos, k_folds, seed):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.array([0] * (n - n_pos) + [1] * n_pos))
    X = rng.standard_normal((n, 3)) * [1.0, 3.0, 0.1] + [0.0, 5.0, -2.0]
    X[y == 1, 0] += 1.5
    folds = stratified_folds(y, k_folds, rng)
    return X, y, folds, [np.setdiff1d(np.arange(n), test) for test in folds]


def _separate_and_stacked_fits(n, n_pos, k_folds, alpha, lam, seed):
    X, y, folds, trains = _stratified_data(n, n_pos, k_folds, seed)
    stacked = _ElasticNetLogReg(alpha, lam).fit_folds([X[t] for t in trains],
                                                      [y[t] for t in trains])
    separate = [_ElasticNetLogReg(alpha, lam).fit_folds([X[t]], [y[t]]) for t in trains]
    return X, folds, stacked, separate


class TestStackedElasticNet:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(21, 81).map(lambda n: n | 1),
        pos_share=st.floats(0.2, 0.8),
        k_folds=st.integers(2, 10),
        alpha=st.floats(0.0, 1.0),
        log2_lambda=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_folds_match_separate_fits(self, n, pos_share, k_folds, alpha,
                                               log2_lambda, seed):
        n_pos = min(max(round(n * pos_share), k_folds), n - k_folds)
        X, folds, stacked, separate = _separate_and_stacked_fits(
            n, n_pos, k_folds, alpha, 2.0 ** log2_lambda, seed)
        probs = stacked.predict_folds([X[test] for test in folds])
        for f, (test, one) in enumerate(zip(folds, separate)):
            np.testing.assert_allclose(stacked._coef[f], one._coef[0], rtol=1e-12, atol=1e-12)
            assert stacked._intercept[f] == pytest.approx(one._intercept[0], rel=1e-12,
                                                          abs=1e-12)
            np.testing.assert_allclose(probs[f], one.predict_folds([X[test]])[0],
                                       rtol=1e-12, atol=1e-12)

    def test_unequal_folds_are_padded(self):
        X, folds, stacked, separate = _separate_and_stacked_fits(23, 9, 4, 0.3, 0.05, 1)
        assert len({test.size for test in folds}) > 1
        assert stacked._coef.shape == (4, 3)
        for f, one in enumerate(separate):
            np.testing.assert_allclose(stacked._coef[f], one._coef[0], rtol=1e-12, atol=1e-12)

    def test_constant_column_changes_nothing(self):
        # 37 copies of 0.1 have a nonzero sd (1.4e-17); standardized by that sd the
        # column would be a second, penalized intercept
        ds = make_synthetic_dataset("gaussian_blobs", n=37, p=2, separation=2, seed=3)
        X = np.column_stack([ds.X, np.full(37, 0.1)])
        assert np.std(X[:, 2]) > 0
        with_column = _ElasticNetLogReg(0.5, 0.01).fit_folds([X], [ds.y])
        without = _ElasticNetLogReg(0.5, 0.01).fit_folds([ds.X], [ds.y])
        assert with_column._coef[0, 2] == 0.0
        np.testing.assert_allclose(with_column._coef[0, :2], without._coef[0],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(with_column.predict_folds([X])[0],
                                   without.predict_folds([ds.X])[0], rtol=1e-12, atol=1e-12)

    def test_bot_measures_pinned(self):
        # full-precision elastic-net measures of the per-fold trainer this one replaced
        datasets = [
            make_synthetic_dataset("gaussian_blobs", n=41, p=3, separation=2, seed=5),
            make_synthetic_dataset("gaussian_blobs", n=50, p=4, separation=1.5, seed=8),
        ]
        metas = generate_bot_data([ToyLearnerSpec("elasticnet_logreg", folds=5)], datasets,
                                  rows_per_pair=3, seed=3)
        got = [(row.config.values["alpha"], row.config.values["lambda"],
                row.measures["auc"], row.measures["accuracy"], row.measures["brier"])
               for row in metas["glmnet"].rows]
        assert got == [
            (0.3360336468344598, -6.086466609561225,
             0.9075, 0.8027777777777778, 0.11905729904607369),
            (0.5283385479698292, -2.2608187294445248,
             0.9275, 0.8277777777777778, 0.14824510158027918),
            (0.47379389307883635, 1.2415047503496552,
             0.5, 0.48888888888888893, 0.2501836535492072),
            (0.3760026138896735, -4.350634399907209,
             0.728, 0.5599999999999999, 0.20464419143235588),
            (0.5712593971304359, -2.963593657215357,
             0.744, 0.5999999999999999, 0.20814776718632766),
            (0.7345468929920094, 8.658414760857287, 0.5, 0.5, 0.25),
        ]


def _fit_as_full_descent(X, y, folds, trains, alpha, lam):
    """The model fitted on the folds, asserted byte-equal to all 500 steps of the descent."""
    model = _ElasticNetLogReg(alpha, lam).fit_folds([X[t] for t in trains],
                                                    [y[t] for t in trains])
    w, b, probs = elastic_net_descent([X[t] for t in trains], [y[t] for t in trains], alpha,
                                      lam, [X[test] for test in folds])
    assert model._coef.tobytes() == w.tobytes()
    assert model._intercept.tobytes() == b.tobytes()
    got = model.predict_folds([X[test] for test in folds])
    assert [p.tobytes() for p in got] == [p.tobytes() for p in probs]
    return model


class TestDescentStop:
    @settings(max_examples=60, deadline=None)
    @given(
        k_folds=st.integers(2, 10),
        half=st.integers(10, 40),
        balanced=st.booleans(),
        odd=st.booleans(),
        pos_share=st.floats(0.15, 0.85),
        alpha=st.floats(0.0, 1.0),
        log2_lambda=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stop_gives_the_bytes_of_every_step(self, k_folds, half, balanced, odd, pos_share,
                                                alpha, log2_lambda, seed):
        # balanced training folds under a large penalty reach a fixed point and stop;
        # imbalanced ones keep moving the intercept and run every step
        n = 2 * half + (odd and not balanced)
        n_pos = half if balanced else min(max(round(n * pos_share), k_folds), n - k_folds)
        X, y, folds, trains = _stratified_data(n, n_pos, k_folds, seed)
        _fit_as_full_descent(X, y, folds, trains, alpha, 2.0 ** log2_lambda)

    def test_zeroed_weights_stop_after_one_step(self):
        # on balanced folds the first step leaves b = 0.0 and every weight at +0.0
        # or -0.0 (soft thresholding keeps the sign of a negative gradient step),
        # and the second step repeats it. A -0.0 equals 0.0 by value, so a stop on
        # equal values would keep the start's +0.0 weights and fail the bytes
        ds = make_synthetic_dataset("gaussian_blobs", n=60, p=3, separation=5, seed=2)
        folds = stratified_folds(ds.y, 5, np.random.default_rng(0))
        trains = [np.setdiff1d(np.arange(60), test) for test in folds]
        assert all(2 * ds.y[t].sum() == t.size for t in trains)
        model = _fit_as_full_descent(ds.X, ds.y, folds, trains, 0.5, 2.0 ** 6)
        assert model._steps == 1
        assert np.all(model._coef == 0.0) and np.signbit(model._coef).any()

    def test_moving_intercept_runs_every_step(self):
        X, y, folds, trains = _stratified_data(41, 15, 4, 0)
        model = _fit_as_full_descent(X, y, folds, trains, 0.5, 2.0 ** 6)
        assert model._steps == _ElasticNetLogReg.ITERATIONS


@st.composite
def neighbour_searches(draw):
    """Train and query rows of few distinct values, with duplicate rows, NaN and k >= n."""
    p = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0, width=32),
                      st.just(np.nan))
    row = st.lists(value, min_size=p, max_size=p)
    train = draw(st.lists(row, min_size=1, max_size=25))
    train += [train[i] for i in draw(st.lists(st.integers(0, len(train) - 1), max_size=5))]
    query = draw(st.lists(st.one_of(row, st.sampled_from(train)), min_size=1, max_size=12))
    k = draw(st.integers(1, len(train) + 3))
    return np.array(train), np.array(query), k


class TestNearest:
    @settings(max_examples=300, deadline=None)
    @given(case=neighbour_searches(), block=st.integers(1, 400), sort_all=st.integers(0, 150))
    def test_equals_the_first_k_of_a_stable_argsort(self, case, block, sort_all):
        # blocks of one to every query row; blocks sorted in full and by partition
        train, query, k = case
        d = np.sqrt(((query[:, None, :] - train[None, :, :]) ** 2).sum(axis=2))
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        with mock.patch.object(metadata, "_NEIGHBOUR_BLOCK", block), \
                mock.patch.object(metadata, "_SORT_ALL", sort_all):
            index, dist = metadata._nearest(train, query, k)
        assert index.dtype == np.intp and np.array_equal(index, order)
        assert dist.tobytes() == np.take_along_axis(d, order, axis=1).tobytes()

    def test_ties_at_the_kth_distance_keep_training_order(self):
        train = np.array([[3.0], [1.0], [2.0], [1.0], [0.0], [1.0]])
        index, dist = metadata._nearest(train, np.array([[0.0], [2.0], [np.nan]]), 3)
        assert index.tolist() == [[4, 1, 3], [2, 0, 1], [0, 1, 2]]
        assert dist[:2].tolist() == [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]

    def test_ties_at_the_kth_distance_keep_training_order_by_partition(self, monkeypatch):
        monkeypatch.setattr(metadata, "_SORT_ALL", 0)  # the 3 x 6 block is small: sorted in full
        self.test_ties_at_the_kth_distance_keep_training_order()


class TestKnnClassifier:
    def test_bot_rows_pinned(self):
        # full-precision kNN rows of the search this one shares with the kNN surrogate
        datasets = [
            make_synthetic_dataset("gaussian_blobs", n=41, p=3, separation=2, seed=5),
            make_synthetic_dataset("xor_rotated", n=50, p=4, separation=1.5, seed=8),
        ]
        metas = generate_bot_data([ToyLearnerSpec("knn_classifier", folds=5)], datasets,
                                  rows_per_pair=3, seed=3)
        got = [(row.config.values["k"], row.measures["auc"], row.measures["accuracy"],
                row.measures["brier"]) for row in metas["kknn"].rows]
        assert got == [
            (8, 0.9262499999999999, 0.8055555555555556, 0.12165798611111112),
            (12, 0.89, 0.8055555555555556, 0.1369020061728395),
            (29, 0.8637499999999999, 0.8527777777777779, 0.21270313119302417),
            (28, 0.43200000000000005, 0.45999999999999996, 0.2596173469387755),
            (26, 0.44399999999999995, 0.48, 0.26337278106508877),
            (1, 0.5399999999999999, 0.5399999999999999, 0.45999999999999996),
        ]


class TestBot:
    def small_datasets(self):
        return [
            make_synthetic_dataset("gaussian_blobs", n=40, p=2, separation=4, seed=s)
            for s in (1, 2, 3)
        ]

    def test_row_counts(self):
        learners = [ToyLearnerSpec("knn_classifier", folds=4),
                    ToyLearnerSpec("cart_classifier", folds=4)]
        metas = generate_bot_data(learners, self.small_datasets(), rows_per_pair=30, seed=7)
        assert set(metas) == {"kknn", "rpart"}
        for meta in metas.values():
            assert len(meta.rows) == 90
            for ds_id in meta.dataset_ids:
                assert len(meta.rows_for(ds_id)) == 30

    def test_rows_validate_and_k_in_bounds(self):
        learners = [ToyLearnerSpec("knn_classifier", folds=4)]
        metas = generate_bot_data(learners, self.small_datasets(), rows_per_pair=25, seed=3)
        meta = metas["kknn"]
        for row in meta.rows:
            assert validate_configuration(meta.space, row.config) == []
            assert 1 <= row.config.values["k"] <= 30

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        learners = [ToyLearnerSpec("knn_classifier", folds=4)]
        datasets = self.small_datasets()[:2]
        a = generate_bot_data(learners, datasets, rows_per_pair=8, seed=11, workers=1)
        b = generate_bot_data(learners, datasets, rows_per_pair=8, seed=11, workers=8)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_meta(a["kknn"], pa)
        write_meta(b["kknn"], pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_auc_spread_over_k(self):
        # the surrogate target must not be flat: best observed beats worst by > 0.01;
        # noise dimensions make small k pay a price, so AUC actually varies with k
        datasets = [make_synthetic_dataset("gaussian_blobs", n=60, p=100, separation=6, seed=9)]
        metas = generate_bot_data(
            [ToyLearnerSpec("knn_classifier", folds=5)], datasets, rows_per_pair=30, seed=5)
        aucs = [row.measures["auc"] for row in metas["kknn"].rows]
        assert max(aucs) - min(aucs) > 0.01


class TestMetaIO:
    def build_meta(self):
        space = bundled_space("kknn")
        rng = np.random.default_rng(0)
        infos = [DatasetInfo(f"d{i}", n=50 + i, p=3) for i in range(3)]
        rows = []
        for info in infos:
            for _ in range(17 if info.id != "d0" else 16):
                cfg = sample_configuration(space, rng)
                rows.append(ExperimentRow(
                    info.id, cfg,
                    {"auc": float(rng.uniform(0.5, 1.0)),
                     "accuracy": float(rng.uniform(0, 1)),
                     "brier": float(rng.uniform(0, 0.25))}))
        return MetaDataset("kknn", space, infos, rows, seed=4)

    def test_round_trip_structure(self, tmp_path):
        meta = self.build_meta()
        path = tmp_path / "kknn.csv"
        write_meta(meta, path)
        assert '"' not in path.read_text()  # plain cells are written unquoted
        back = read_meta(path)
        assert back == meta

    def test_round_trip_delimiters_in_ids_and_levels(self, tmp_path):
        space = parse_space({"algorithm": "toy", "params": [
            {"name": "x,1", "kind": "numeric", "lower": 0, "upper": 1},
            {"name": "mode", "kind": "discrete", "levels": ["a,b", 'say "hi"', "two\nlines"]},
        ]})
        infos = [DatasetInfo("d,1", n=40, p=4), DatasetInfo("plain", n=40, p=4)]
        measures = {"auc": 0.7, "accuracy": 0.6, "brier": 0.2}
        rows = [ExperimentRow(info.id, make_configuration(space, {"x,1": 0.25, "mode": level}),
                              dict(measures))
                for info in infos for level in space["mode"].levels]
        meta = MetaDataset("toy", space, infos, rows)
        path = tmp_path / "toy.csv"
        write_meta(meta, path)
        assert read_meta(path) == meta

    def test_round_trip_conditional_empty_cells(self, tmp_path):
        space = bundled_space("svm")
        infos = [DatasetInfo("d", n=40, p=4)]
        rng = np.random.default_rng(1)
        rows = [
            ExperimentRow("d", sample_configuration(space, rng),
                          {"auc": 0.7, "accuracy": 0.6, "brier": 0.2})
            for _ in range(20)
        ]
        meta = MetaDataset("svm", space, infos, rows)
        path = tmp_path / "svm.csv"
        write_meta(meta, path)
        text = path.read_text()
        assert ",," in text  # inactive gamma/degree serialize as empty cells
        assert read_meta(path) == meta

    def test_unknown_column_named(self, tmp_path):
        meta = self.build_meta()
        path = tmp_path / "kknn.csv"
        write_meta(meta, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace(",k,", ",k,zeta,")
        lines[1:] = [ln.replace(",", ",0,", 1) for ln in lines[1:]]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.csv.manifest.json").write_text(
            (tmp_path / "kknn.csv.manifest.json").read_text())
        with pytest.raises(MetaFormatError, match="zeta"):
            read_meta(bad)

    def test_non_finite_measure_rejected(self, tmp_path):
        meta = self.build_meta()
        meta.rows[0].measures["auc"] = float("nan")
        with pytest.raises(MetaFormatError, match="non-finite"):
            write_meta(meta, tmp_path / "x.csv")

    def test_repeated_dataset_id_rejected(self, tmp_path):
        # a repeated id would score its dataset twice in surrogate selection
        meta = self.build_meta()
        meta.dataset_infos.append(meta.dataset_infos[1])
        with pytest.raises(MetaFormatError, match="'d1' is listed more than once"):
            meta.validate()
        with pytest.raises(MetaFormatError, match="'d1'"):
            write_meta(meta, tmp_path / "x.csv")

    def test_manifest_repeating_a_dataset_id_rejected(self, tmp_path):
        path = tmp_path / "kknn.csv"
        write_meta(self.build_meta(), path)
        manifest_path = tmp_path / "kknn.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["datasets"].append(manifest["datasets"][0])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(MetaFormatError, match="'d0' is listed more than once"):
            read_meta(path)

    def test_condition_violation_rejected(self, tmp_path):
        space = bundled_space("svm")
        infos = [DatasetInfo("d", n=40, p=4)]
        cfg = make_configuration(space, {"kernel": "linear", "cost": 0.0})
        meta = MetaDataset("svm", space, infos,
                           [ExperimentRow("d", cfg, {"auc": 0.7, "accuracy": 0.6, "brier": 0.2})])
        path = tmp_path / "svm.csv"
        write_meta(meta, path)
        lines = path.read_text().splitlines()
        # forge a gamma value into a kernel=linear row
        head = lines[0].split(",")
        gidx = head.index("gamma")
        cells = lines[1].split(",")
        cells[gidx] = "-3.0"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetaFormatError, match="gamma"):
            read_meta(path)
