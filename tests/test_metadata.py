import numpy as np
import pytest

from tunemeter.hyperspace import (
    Configuration,
    DatasetInfo,
    bundled_space,
    make_configuration,
    parse_space,
    sample_configuration,
    validate_configuration,
)
from tunemeter.metadata import (
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


class TestStratifiedFolds:
    def test_partition(self):
        y = np.array([0, 1] * 15)
        folds = stratified_folds(y, 5, np.random.default_rng(0))
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(30))
        for f in folds:
            assert set(y[f]) == {0, 1}

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
        model.fit(ds.X, ds.y)
        assert np.all(np.abs(model.coef_) < 1e-3)
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

    def test_invalid_configuration_rejected(self):
        ds = make_synthetic_dataset("gaussian_blobs", n=20, p=2, separation=2, seed=0)
        learner = ToyLearnerSpec("knn_classifier", folds=5)
        cfg = make_configuration(bundled_space("kknn"), {"k": 77})
        with pytest.raises(ValueError, match="invalid configuration"):
            cross_validate(learner, cfg, ds, 5, ("auc",), seed=0)


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
