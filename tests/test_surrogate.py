import pickle
from pathlib import Path

import numpy as np
import pytest

from bruteforce import parse_preorder_trees
from conftest import numeric_space, smooth_sine_meta
from tunemeter.hyperspace import (
    bundled_package_defaults,
    bundled_space,
    make_configuration,
    sample_configuration,
)
from tunemeter.metadata import ExperimentRow, MetaFormatError, _nearest
from tunemeter.metrics import r_squared
from tunemeter.surrogate import (
    SURROGATE_KINDS,
    ConfigEncoder,
    SurrogateCell,
    SurrogateEvalReport,
    encode,
    evaluate_surrogates,
    fit_all_surrogates,
    fit_surrogate,
    select_surrogate,
    _KnnReg,
)


def brier_rows(space, values_and_targets):
    return [
        ExperimentRow("d", make_configuration(space, v), {"brier": t})
        for v, t in values_and_targets
    ]


class TestEncoding:
    def test_glmnet_two_columns(self):
        space = bundled_space("glmnet")
        rows = brier_rows(space, [({"alpha": 0.5, "lambda": 0.0}, 0.2)])
        matrix = encode(space, rows, "brier")
        assert matrix.features.shape == (1, 2)
        assert matrix.columns == ("alpha", "lambda")

    def test_svm_inactive_gamma_midpoint_and_indicator(self):
        space = bundled_space("svm")
        rows = brier_rows(space, [({"kernel": "linear", "cost": 1.0}, 0.3)])
        matrix = encode(space, rows, "brier")
        cols = dict(zip(matrix.columns, matrix.features[0]))
        assert cols["gamma"] == 0.0  # midpoint of [-10, 10]
        assert cols["gamma__active"] == 0.0
        assert cols["kernel=linear"] == 1.0
        assert cols["kernel=radial"] == 0.0
        assert cols["degree__active"] == 0.0

    def test_auc_targets_negated(self):
        space = bundled_space("kknn")
        rows = [ExperimentRow("d", make_configuration(space, {"k": 5}),
                              {"auc": 0.8})]
        matrix = encode(space, rows, "auc")
        assert matrix.targets[0] == -0.8

    def test_empty_rows_error(self):
        with pytest.raises(ValueError, match="empty"):
            encode(bundled_space("kknn"), [], "auc")

    @pytest.mark.parametrize("algorithm, name", [("rpart", "cp"), ("ranger", "replace")])
    @pytest.mark.parametrize("flag", [False, None])
    def test_unconditional_parameter_without_active_flag_rejected(self, algorithm, name, flag):
        # the old encoder imputed rpart's cp as 0.5, and gave ranger's replace an
        # all-zero one-hot while writing its "inactive" 1.0 into the next column
        space = bundled_space(algorithm)
        good = bundled_package_defaults(algorithm)
        bad = make_configuration(space, {})
        if flag is None:
            del bad.active[name]
        else:
            bad.active[name] = flag
        encoder = ConfigEncoder.build(space)
        with pytest.raises(ValueError, match=f"unconditional parameter '{name}' .* row 1"):
            encoder.encode_configs([good, bad])

    @pytest.mark.parametrize("algorithm, name, value", [
        ("svm", "kernel", "sigmoid"), ("ranger", "replace", True), ("svm", "kernel", None)])
    def test_value_outside_the_levels_rejected(self, algorithm, name, value):
        space = bundled_space(algorithm)
        bad = bundled_package_defaults(algorithm)
        bad.values[name] = value
        with pytest.raises(ValueError, match=f"parameter '{name}': value {value!r} in row 0"):
            ConfigEncoder.build(space).encode_configs([bad])

    def test_inactive_cell_is_not_checked(self):
        space = bundled_space("svm")
        cfg = make_configuration(space, {"kernel": "linear"})
        cfg.values["gamma"] = "not a number"  # inactive: encoded as the midpoint
        del cfg.active["degree"]  # a conditional parameter without a flag is inactive
        row = ConfigEncoder.build(space).encode_configs([cfg])[0]
        cols = dict(zip(ConfigEncoder.build(space).columns, row))
        assert (cols["gamma"], cols["gamma__active"]) == (0.0, 0.0)
        assert (cols["degree"], cols["degree__active"]) == (4.0, 0.0)


class TestRegressors:
    def fit_on(self, kind, xs, ys, seed=0, **params):
        space = numeric_space(0.0, 1.0)
        rows = brier_rows(space, [({"x": float(x)}, float(t)) for x, t in zip(xs, ys)])
        matrix = encode(space, rows, "brier")
        return fit_surrogate(kind, matrix, seed=seed, **params), space

    def query(self, model, space, xs):
        configs = [make_configuration(space, {"x": float(x)}) for x in xs]
        return model.predict_encoded(model.encoder.encode_configs(configs))

    def test_constant_predicts_mean(self):
        model, space = self.fit_on("constant", [0.1, 0.9], [0.2, 0.4])
        preds = self.query(model, space, [0.0, 0.5, 1.0])
        assert np.allclose(preds, 0.3)

    def test_knn_k1_returns_training_target(self):
        xs = [0.1, 0.35, 0.6, 0.85, 0.95, 0.2, 0.7]
        ys = [0.5, 0.1, 0.9, 0.3, 0.8, 0.25, 0.65]
        model, space = self.fit_on("knn_reg", xs, ys, k=1)
        assert self.query(model, space, [0.35])[0] == pytest.approx(0.1)

    def test_knn_exact_match_beats_weighting(self):
        xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        ys = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        model, space = self.fit_on("knn_reg", xs, ys, k=7)
        assert self.query(model, space, [0.3])[0] == pytest.approx(0.0)

    def test_knn_predictions_pinned(self):
        # full-precision predictions of the search this one shares with the bot's kNN
        space = bundled_space("svm")
        rng = np.random.default_rng(11)
        configs = [sample_configuration(space, rng) for _ in range(40)]
        rows = [ExperimentRow("d", c, {"brier": float(t)})
                for c, t in zip(configs, rng.uniform(0, 1, 40))]
        model = fit_surrogate("knn_reg", encode(space, rows, "brier"))
        queries = [sample_configuration(space, rng) for _ in range(5)] + configs[:1]
        assert model.predict_encoded(model.encoder.encode_configs(queries)).tolist() == [
            0.4295235289453241, 0.2583979051621972, 0.5258534204827398,
            0.23792992652079287, 0.38621238083990284, 0.31518274714343164,
        ]

    def test_knn_constant_column(self):
        # 37 copies of 0.1 have a nonzero sd (1.4e-17). Standardized by that sd, a
        # query at 0.2 would lie 7e15 sds from every row, tie all distances and average
        # the first seven rows: 0.183 at x = 0.9, where the data without the column give 0.931
        xs = np.linspace(0.0, 1.0, 37)
        ys = xs ** 0.65
        X = np.column_stack([xs, np.full(37, 0.1)])
        assert np.std(X[:, 1]) > 0
        with_column = _KnnReg(X, ys, 7)
        without = _KnnReg(xs[:, None], ys, 7)
        queries = np.linspace(0.0, 1.0, 11)
        assert without.predict(np.array([[0.9]]))[0] == pytest.approx(0.931, abs=5e-4)
        np.testing.assert_allclose(
            with_column.predict(np.column_stack([queries, np.full(11, 0.1)])),
            without.predict(queries[:, None]), rtol=1e-12, atol=1e-12)
        away = np.column_stack([queries, np.full(11, 0.2)])
        index, _ = _nearest(with_column._scaled, with_column._standardize(away), 7)
        expected, _ = _nearest(without._scaled, without._standardize(queries[:, None]), 7)
        # the column moves every row equally far away, so it keeps each neighbour set
        assert np.sort(index, axis=1).tolist() == np.sort(expected, axis=1).tolist()

    def test_forest_bounded_by_training_targets(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 1, 60)
        ys = rng.uniform(-2, 5, 60)
        model, space = self.fit_on("forest_reg", xs, ys, seed=1, n_trees=30)
        preds = self.query(model, space, rng.uniform(0, 1, 1000))
        assert preds.min() >= ys.min() - 1e-12
        assert preds.max() <= ys.max() + 1e-12

    def test_knn_bounded_by_training_targets(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 1, 40)
        ys = rng.uniform(-1, 1, 40)
        model, space = self.fit_on("knn_reg", xs, ys)
        preds = self.query(model, space, rng.uniform(0, 1, 500))
        assert preds.min() >= ys.min() - 1e-12 and preds.max() <= ys.max() + 1e-12

    def test_linear_recovers_noiseless_line(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, 30)
        ys = 2.0 * xs + 1.0
        model, space = self.fit_on("linear", xs, ys)
        held = rng.uniform(0, 1, 20)
        preds = self.query(model, space, held)
        assert r_squared(2.0 * held + 1.0, preds) == pytest.approx(1.0, abs=1e-6)

    def test_linear_degenerate_errors(self):
        with pytest.raises(ValueError, match="rows"):
            self.fit_on("linear", [0.5], [0.2])

    @pytest.mark.parametrize("kind,name", [("forest_reg", "ntrees"), ("knn_reg", "n_trees"),
                                           ("constant", "k"), ("cart_reg", "min_leaf")])
    def test_parameter_the_kind_does_not_take_errors(self, kind, name):
        xs = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match=f"{kind} surrogate takes no parameter '{name}'"):
            self.fit_on(kind, xs, xs, **{name: 5})

    def test_knn_k_exceeding_rows_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            self.fit_on("knn_reg", [0.1, 0.2], [0.0, 1.0], k=7)

    @pytest.mark.parametrize("k", [0, -3, 2.7, 7.0, True])
    def test_knn_k_must_be_a_positive_integer(self, k):
        xs = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match=f"k={k} is not an integer >= 1"):
            self.fit_on("knn_reg", xs, xs, k=k)

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_forest_needs_a_tree(self, n_trees):
        xs = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="forest_reg surrogate needs n_trees >= 1"):
            self.fit_on("forest_reg", xs, xs, n_trees=n_trees)

    def test_cart_leaf_values_are_leaf_means(self):
        # two clearly separated plateaus; min_leaf forces one split, leaves = means
        xs = [0.0, 0.05, 0.1, 0.15, 0.2, 0.8, 0.85, 0.9, 0.95, 1.0]
        ys = [1.0, 1.2, 0.8, 1.1, 0.9, 3.0, 3.2, 2.8, 3.1, 2.9]
        model, space = self.fit_on("cart_reg", xs, ys)
        left = self.query(model, space, [0.02, 0.12])
        right = self.query(model, space, [0.82, 0.99])
        assert np.allclose(left, np.mean(ys[:5]))
        assert np.allclose(right, np.mean(ys[5:]))

    def test_fit_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(0, 1, 50)
        ys = np.sin(xs * 6)
        a, space = self.fit_on("forest_reg", xs, ys, seed=42, n_trees=20)
        b, _ = self.fit_on("forest_reg", xs, ys, seed=42, n_trees=20)
        queries = rng.uniform(0, 1, 100)
        assert np.array_equal(self.query(a, space, queries), self.query(b, space, queries))

    @pytest.mark.parametrize("kind,tol", [
        ("constant", 1e-12), ("linear", 1e-9), ("knn_reg", 1e-9),
        ("cart_reg", 1e-6), ("forest_reg", 1e-6),
    ])
    def test_affine_equivariance(self, kind, tol):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, 40)
        ys = np.sin(xs * 5) + rng.normal(0, 0.1, 40)
        shift = 3.7
        base, space = self.fit_on(kind, xs, ys, seed=2, n_trees=20) \
            if kind == "forest_reg" else (None, None)
        if base is None:
            base, space = self.fit_on(kind, xs, ys, seed=2)
            shifted, _ = self.fit_on(kind, xs, ys + shift, seed=2)
        else:
            shifted, _ = self.fit_on(kind, xs, ys + shift, seed=2, n_trees=20)
        queries = rng.uniform(0, 1, 200)
        a = self.query(base, space, queries)
        b = self.query(shifted, space, queries)
        assert np.max(np.abs((b - a) - shift)) < tol


class TestEvaluateSurrogates:
    def test_forest_strong_on_smooth_target(self):
        meta = smooth_sine_meta(n_rows=200, seed=0)
        report = evaluate_surrogates(meta, "brier", kinds=("forest_reg",),
                                     reps=2, folds=5, seed=0)
        r2, tau = report.mean_by_kind()["forest_reg"]
        assert tau >= 0.9 and r2 >= 0.8

    def test_constant_baseline_near_zero(self):
        meta = smooth_sine_meta(n_rows=100, seed=1)
        report = evaluate_surrogates(meta, "brier", kinds=("constant",),
                                     reps=2, folds=5, seed=0)
        r2, _ = report.mean_by_kind()["constant"]
        assert r2 <= 0.0

    def test_leave_one_out_fold_count(self):
        meta = smooth_sine_meta(n_rows=20, seed=2)
        report = evaluate_surrogates(meta, "brier", kinds=("constant",),
                                     reps=1, folds=20, seed=0)
        cell = report.cells[0]
        # leave-one-out folds have a single test row, which cannot be scored
        assert report.folds == 20
        assert cell.folds_completed == 0 or cell.folds_completed <= 20

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_raise(self, folds):
        with pytest.raises(ValueError, match="at least 2 folds"):
            evaluate_surrogates(smooth_sine_meta(n_rows=20, seed=2), "brier",
                                kinds=("constant",), reps=1, folds=folds, seed=0)

    def test_too_few_rows_errors(self):
        meta = smooth_sine_meta(n_rows=5, seed=3)
        with pytest.raises(ValueError, match="fewer"):
            evaluate_surrogates(meta, "brier", reps=1, folds=10, seed=0)

    def test_repeated_dataset_id_rejected(self):
        # unvalidated, the repeated id would be scored (and fitted) twice
        meta = smooth_sine_meta(n_rows=40)
        meta.dataset_infos.append(meta.dataset_infos[0])
        with pytest.raises(MetaFormatError, match="'d0' is listed more than once"):
            evaluate_surrogates(meta, "brier", kinds=("constant",), reps=1, folds=5)
        with pytest.raises(MetaFormatError, match="'d0' is listed more than once"):
            fit_all_surrogates(meta, "brier", kind="constant")


class TestSelectSurrogate:
    def cell(self, kind, r2, tau, ds="d"):
        return SurrogateCell(ds, kind, r2, tau, 10)

    def test_dominant_forest_wins(self):
        report = SurrogateEvalReport(
            [self.cell("forest_reg", 0.9, 0.8), self.cell("linear", 0.4, 0.5)], 1, 5)
        assert select_surrogate(report) == "forest_reg"

    def test_r2_tie_broken_by_tau(self):
        report = SurrogateEvalReport(
            [self.cell("linear", 0.7, 0.9), self.cell("cart_reg", 0.7, 0.6)], 1, 5)
        assert select_surrogate(report) == "linear"

    def test_report_without_a_scored_fold_raises(self):
        # leave-one-out folds have a single test row: no fold can be scored
        report = evaluate_surrogates(smooth_sine_meta(n_rows=20, seed=2), "brier",
                                     reps=1, folds=20, seed=0)
        assert all(np.isnan(r2) for r2, _ in report.mean_by_kind().values())
        with pytest.raises(ValueError, match="finite mean R2"):
            select_surrogate(report)

    def test_kind_without_r2_ranks_last(self):
        report = SurrogateEvalReport(
            [self.cell("forest_reg", float("nan"), 0.9), self.cell("constant", -0.2, float("nan"))],
            1, 5)
        assert select_surrogate(report) == "constant"

    def test_full_tie_prefers_forest(self):
        report = SurrogateEvalReport(
            [self.cell(k, 0.5, 0.5) for k in ("constant", "linear", "knn_reg",
                                              "cart_reg", "forest_reg")], 1, 5)
        assert select_surrogate(report) == "forest_reg"


def _tree_children(arrays):
    """The left and right child arrays of stored tree node arrays, as format 4 kept them."""
    parsed = parse_preorder_trees((arrays["feature"] >= 0).tolist(), arrays["roots"].tolist())
    return tuple(np.array(children, dtype=np.int32) for children in parsed)


class TestCache:
    def test_cache_round_trip(self, tmp_path):
        meta = smooth_sine_meta(n_rows=60, seed=4)
        first = fit_all_surrogates(meta, "brier", kind="forest_reg", seed=1,
                                   cache_dir=tmp_path, n_trees=10)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        second = fit_all_surrogates(meta, "brier", kind="forest_reg", seed=1,
                                    cache_dir=tmp_path, n_trees=10)
        space = meta.space
        queries = [make_configuration(space, {"x": float(x)})
                   for x in np.linspace(0, 6, 50)]
        X = first["d0"].encoder.encode_configs(queries)
        assert np.array_equal(first["d0"].predict_encoded(X), second["d0"].predict_encoded(X))

    def test_cache_key_changes_with_data(self, tmp_path):
        fit_all_surrogates(smooth_sine_meta(n_rows=60, seed=4), "brier",
                           kind="constant", seed=1, cache_dir=tmp_path)
        fit_all_surrogates(smooth_sine_meta(n_rows=60, seed=5), "brier",
                           kind="constant", seed=1, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_foreign_cache_file_rejected(self, tmp_path):
        meta = smooth_sine_meta(n_rows=60, seed=4)
        fit_all_surrogates(meta, "brier", kind="constant", seed=1, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.npz")
        with np.load(path) as npz:
            stored = dict(npz)
        for foreign in (b"not a model", np.arange(3), {**stored, "dataset": np.array("d9")},
                        {**stored, "format": stored["format"] - 1},
                        {k: v for k, v in stored.items() if k != "value"},
                        {**stored, "value": np.array([None])},
                        {**stored, "extra": np.arange(2)}, {**stored, "value": np.array("oops")}):
            if isinstance(foreign, bytes):
                path.write_bytes(foreign)
            elif isinstance(foreign, np.ndarray):
                with open(path, "wb") as fh:
                    np.save(fh, foreign)
            else:
                np.savez(path, **foreign)
            with pytest.raises(ValueError, match=path.name):
                fit_all_surrogates(meta, "brier", kind="constant", seed=1, cache_dir=tmp_path)

    @pytest.mark.parametrize("kind,params,name,value", [
        ("knn_reg", {}, "k", np.array(0)),
        ("knn_reg", {}, "k", np.array(2.7)),
        ("forest_reg", {"n_trees": 3}, "roots", np.array([], dtype=np.int32)),
    ])
    def test_cache_file_with_parameter_out_of_range_rejected(self, tmp_path, kind, params,
                                                            name, value):
        meta = smooth_sine_meta(n_rows=60, seed=4)
        fit_all_surrogates(meta, "brier", kind=kind, seed=1, cache_dir=tmp_path, **params)
        (path,) = tmp_path.glob("*.npz")
        with np.load(path) as npz:
            stored = dict(npz)
        np.savez(path, **{**stored, name: value})
        with pytest.raises(ValueError, match=path.name):
            fit_all_surrogates(meta, "brier", kind=kind, seed=1, cache_dir=tmp_path, **params)

    @staticmethod
    def cached_forest(tmp_path):
        """Meta-data, the cache file of its 3-tree forest, and the file's arrays."""
        meta = smooth_sine_meta(n_rows=60, seed=4)
        fit_all_surrogates(meta, "brier", kind="forest_reg", seed=1, cache_dir=tmp_path,
                           n_trees=3)
        (path,) = tmp_path.glob("*.npz")
        with np.load(path) as npz:
            return meta, path, dict(npz)

    @staticmethod
    def refusal(meta, path, arrays):
        """The ValueError naming the file that loading `arrays` from it raises."""
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=path.name) as refused:
            models = fit_all_surrogates(meta, "brier", kind="forest_reg", seed=1,
                                        cache_dir=path.parent, n_trees=3)
            models["d0"].predict_encoded(np.linspace(0.0, 6.0, 7)[:, None])
        return refused.value

    @pytest.mark.parametrize("corrupt", [
        lambda a: {"threshold": np.where(a["feature"] >= 0, np.nan, a["threshold"])},
        lambda a: {"value": a["value"][:-1]},
        lambda a: {"roots": a["roots"][::-1]},
        lambda a: {"feature": np.where(a["feature"] >= 0, 3, a["feature"])},
        lambda a: {"roots": a["roots"] + np.array([0, 1, 0], dtype=a["roots"].dtype)},
        # a format-4 file: children stored beside the node arrays
        lambda a: {**dict(zip(("left", "right"), _tree_children(a))), "format": np.array(4)},
        lambda a: dict(zip(("left", "right"), _tree_children(a))),
    ], ids=["nan_threshold", "short_value", "roots_reversed", "column_past_the_encoder",
            "root_inside_a_tree", "format_4_with_children", "children_beside_format_5"])
    def test_cache_file_that_is_not_trees_in_preorder_rejected(self, tmp_path, corrupt):
        meta, path, stored = self.cached_forest(tmp_path)
        assert len(stored["roots"]) == 3
        self.refusal(meta, path, {**stored, **corrupt(stored)})

    def test_cache_file_with_any_node_flipped_rejected(self, tmp_path):
        # a split turned leaf or a leaf turned split (on the encoder's one column)
        # breaks the run of its tree, which the trees' shape check refuses
        meta, path, stored = self.cached_forest(tmp_path)
        feature = stored["feature"]
        assert 20 < (feature >= 0).sum() and 20 < (feature < 0).sum()
        for v in range(feature.size):
            flipped = feature.copy()
            flipped[v] = -1 if feature[v] >= 0 else 0
            refused = self.refusal(meta, path, {**stored, "feature": flipped})
            assert "exactly one tree" in str(refused.__cause__)

    @pytest.mark.parametrize("name", ["feature", "roots"])
    def test_cache_file_with_a_wrapped_or_fractional_entry_rejected(self, tmp_path, name):
        # a plain int32 cast would wrap or truncate each of these without an error
        meta, path, stored = self.cached_forest(tmp_path)
        for i in range(stored[name].size):
            wrapped = stored[name].astype(np.int64)
            wrapped[i] += 2 ** 32
            fractional = stored[name].astype(float)
            fractional[i] += 0.25
            for changed in (wrapped, fractional):
                refused = self.refusal(meta, path, {**stored, name: changed})
                assert "int32" in str(refused.__cause__)

    @pytest.mark.parametrize("kind", SURROGATE_KINDS)
    def test_every_kind_round_trips(self, tmp_path, kind):
        meta = smooth_sine_meta(n_rows=60, seed=4)
        cold = fit_all_surrogates(meta, "brier", kind=kind, seed=1, cache_dir=tmp_path)
        warm = fit_all_surrogates(meta, "brier", kind=kind, seed=1, cache_dir=tmp_path)
        X = np.linspace(-1.0, 7.0, 80)[:, None]
        assert cold["d0"].predict_encoded(X).tobytes() == warm["d0"].predict_encoded(X).tobytes()
        assert type(warm["d0"].regressor) is type(cold["d0"].regressor)

    def test_planted_pickle_is_never_run(self, tmp_path):
        meta = smooth_sine_meta(n_rows=60, seed=4)
        fit_all_surrogates(meta, "brier", kind="constant", seed=1, cache_dir=tmp_path / "cache")
        (path,) = (tmp_path / "cache").glob("*.npz")
        marker = tmp_path / "marker"
        payload = pickle.dumps(_WritesMarker(marker))
        pickle.loads(payload)  # the payload is live: unpickling it writes the marker
        assert marker.exists()
        marker.unlink()
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=path.name):
            fit_all_surrogates(meta, "brier", kind="constant", seed=1,
                               cache_dir=tmp_path / "cache")
        assert not marker.exists()


class _WritesMarker:
    """Unpickling it writes a file: the code a planted cache file would run."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (Path.write_text, (self.marker, "ran"))
