import logging

import numpy as np
import pytest

from bruteforce import (
    all_cells,
    bf_defaults,
    bf_min,
    bf_pair_tunability,
    bf_param_tunability,
)
from conftest import FunctionPredictor, TablePredictor, integer_grid_space, random_table
from tunemeter.hyperspace import SpaceError, bundled_space, make_configuration, parse_space
from tunemeter.metrics import RiskTransform, SummarySpec
from tunemeter.tunability import (
    OptimizerSpec,
    activating_assignment,
    compute_defaults,
    conditional_reference,
    cv_across_datasets,
    dataset_optimum,
    minimize,
    tunability_algorithm,
    tunability_pair,
    tunability_parameter,
)

GRID = OptimizerSpec(mode="grid", levels=101, seed=0)
NO_SCALE = RiskTransform("none")
MEAN = SummarySpec("mean")


def table_setup(sizes, risks):
    space = integer_grid_space(sizes)
    cells = all_cells(space)
    table = dict(zip(cells, risks))
    return space, cells, TablePredictor(space, table), table


def cfg_from_cell(space, cell):
    return make_configuration(space, dict(zip(space.names, cell)))


class TestMinimize:
    def test_grid_three_cells(self):
        space, _, pred, _ = table_setup([3], [0.3, 0.1, 0.5])
        res = minimize(pred, space, GRID)
        assert res.config.values["p0"] == 1 and res.risk == 0.1

    def test_all_fixed_returns_fixed(self):
        space, _, pred, table = table_setup([3], [0.3, 0.1, 0.5])
        res = minimize(pred, space, GRID, fixed={"p0": 2})
        assert res.config.values["p0"] == 2 and res.risk == 0.5

    def test_random_covers_small_discrete_space(self):
        space, cells, pred, table = table_setup([3, 4], np.random.default_rng(0).uniform(0, 1, 12))
        grid_res = minimize(pred, space, OptimizerSpec(mode="grid", levels=10, seed=0))
        rand_res = minimize(pred, space, OptimizerSpec(mode="random", budget=500, seed=3))
        assert rand_res.risk == grid_res.risk

    def test_constant_surface_flags_ties_first_found(self):
        space, _, pred, _ = table_setup([3], [0.2, 0.2, 0.2])
        res = minimize(pred, space, GRID)
        assert res.config.values["p0"] == 0
        assert res.tie_count == 3

    def test_tie_logged_once(self, caplog):
        space, _, pred, _ = table_setup([3], [0.2, 0.2, 0.2])
        with caplog.at_level(logging.WARNING, logger="tunemeter.tunability"):
            minimize(pred, space, GRID, context="flat")
            minimize(table_setup([3], [0.3, 0.1, 0.5])[2], space, GRID, context="peaked")
        (record,) = caplog.records
        assert record.name == "tunemeter.tunability"
        assert record.getMessage() == ("search 'flat' ends in a 3-way tie over 3 candidates; "
                                       "the first found wins")

    def test_first_found_tie_break_matches_product_order(self):
        space, cells, pred, table = table_setup([2, 2], [0.5, 0.1, 0.3, 0.1])
        res = minimize(pred, space, GRID)
        assert res.config.key(space) == (0, 1)  # (0,1) precedes (1,1) lexicographically

    def test_random_ties_count_distinct_configurations(self):
        # 2000 draws over 4 levels repeat the unique optimum hundreds of times
        space, _, pred, _ = table_setup([4], [0.4, 0.1, 0.2, 0.3])
        res = minimize(pred, space, OptimizerSpec(mode="random", budget=2000, seed=5))
        assert res.config.values["p0"] == 1 and res.risk == 0.1
        assert res.tie_count == 1 and not res.tied
        assert res.n_evaluated == 2000

    @pytest.mark.parametrize("optimizer", [GRID, OptimizerSpec(mode="random", budget=50)])
    def test_non_finite_risk_rejected(self, optimizer):
        space, _, pred, _ = table_setup([4], [0.4, 0.3, float("nan"), 0.2])
        with pytest.raises(ValueError, match=r"non-finite risk nan on dataset 'd7' "
                                             r"for candidate \(2,\)"):
            minimize({"d7": pred}, space, optimizer)

    @pytest.mark.parametrize("optimizer", [GRID, OptimizerSpec(mode="random", budget=50)])
    @pytest.mark.parametrize("fixed, match", [
        ({"nope": 1}, "unknown parameter 'nope'"),
        ({"cp": 5.0, "maxdepth": 9}, "5.0 of 'cp' is outside"),
        ({"cp": 0.5, "maxdepth": 99}, "99 of 'maxdepth' is outside"),
        ({"minsplit": 2.5}, "2.5 of 'minsplit' is outside"),
    ])
    def test_fixed_values_outside_the_space_rejected(self, optimizer, fixed, match):
        pred = FunctionPredictor(lambda cp: cp, param="cp")
        with pytest.raises(SpaceError, match=match):
            minimize(pred, bundled_space("rpart"), optimizer, fixed=fixed)


class TestComputeDefaults:
    def test_single_dataset_degenerates_to_optimum(self):
        space, cells, pred, table = table_setup([4], [0.4, 0.1, 0.2, 0.3])
        defaults = compute_defaults({"d": pred}, space, NO_SCALE, MEAN, GRID)
        opt = dataset_optimum(pred, space, GRID)
        assert defaults.config.key(space) == opt.config.key(space)
        assert defaults.aggregated_risk == opt.risk

    def quad_predictors(self):
        return {
            "a": FunctionPredictor(lambda x: (x - 0.2) ** 2),
            "b": FunctionPredictor(lambda x: (x - 0.6) ** 2),
        }

    def test_two_quadratics_mean(self):
        space = parse_space({"params": [{"name": "x", "kind": "numeric",
                                         "lower": 0, "upper": 1}]})
        defaults = compute_defaults(self.quad_predictors(), space, NO_SCALE, MEAN, GRID)
        assert defaults.config.values["x"] == pytest.approx(0.4, abs=1e-9)
        assert defaults.aggregated_risk == pytest.approx(0.04, abs=1e-9)
        assert defaults.per_dataset_risk["a"] == pytest.approx(0.04, abs=1e-9)

    def test_two_quadratics_max_like_quantile(self):
        # quantile(1.0) is outside the open interval; q=0.99 approximates max and
        # the symmetric surfaces still meet at 0.4
        space = parse_space({"params": [{"name": "x", "kind": "numeric",
                                         "lower": 0, "upper": 1}]})
        g = SummarySpec("quantile", 0.99)
        defaults = compute_defaults(self.quad_predictors(), space, NO_SCALE, g, GRID)
        assert defaults.config.values["x"] == pytest.approx(0.4, abs=1e-9)

    def test_empty_predictors_error(self):
        space = integer_grid_space([3])
        with pytest.raises(ValueError):
            compute_defaults({}, space, NO_SCALE, MEAN, GRID)


class TestDatasetOptimum:
    def test_table_optimum(self):
        space, _, pred, _ = table_setup([3], [0.4, 0.2, 0.1])
        res = dataset_optimum(pred, space, GRID)
        assert res.config.values["p0"] == 2 and res.risk == pytest.approx(0.1)

    def test_knn_single_row_lookup(self):
        from conftest import numeric_space, meta_from_values
        from tunemeter.surrogate import encode, fit_surrogate

        space = numeric_space(0.0, 1.0)
        meta = meta_from_values(space, {"d": [({"x": 0.5}, {"brier": 0.12})]})
        matrix = encode(space, meta.rows, "brier")
        model = fit_surrogate("knn_reg", matrix, k=1)
        res = dataset_optimum(model, space, OptimizerSpec(mode="grid", levels=5))
        assert res.risk == pytest.approx(0.12)


class TestAlgorithmTunability:
    def test_worked_example(self):
        space = integer_grid_space([3])
        cells = all_cells(space)
        ta = dict(zip(cells, [0.3, 0.1, 0.5]))
        tb = dict(zip(cells, [0.4, 0.2, 0.1]))
        preds = {"a": TablePredictor(space, ta), "b": TablePredictor(space, tb)}
        defaults = compute_defaults(preds, space, NO_SCALE, MEAN, GRID)
        assert defaults.config.values["p0"] == 1
        optima = {ds: dataset_optimum(p, space, GRID) for ds, p in preds.items()}
        result = tunability_algorithm(preds, defaults.config, optima)
        assert result.per_dataset["a"] == pytest.approx(0.0)
        assert result.per_dataset["b"] == pytest.approx(0.1)
        assert result.aggregates["mean"] == pytest.approx(0.05)

    def test_reference_at_optima_gives_zero(self):
        space, _, pred, table = table_setup([5], [0.5, 0.2, 0.9, 0.4, 0.8])
        opt = dataset_optimum(pred, space, GRID)
        result = tunability_algorithm({"d": pred}, opt.config, {"d": opt})
        assert result.per_dataset["d"] == 0.0


class TestParameterTunability:
    def test_separable_risks_add_up(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(0, 1, 4)
        h = rng.uniform(0, 1, 5)
        space = integer_grid_space([4, 5])
        cells = all_cells(space)
        table = {cell: float(f[cell[0]] + h[cell[1]]) for cell in cells}
        pred = TablePredictor(space, table)
        ref = cfg_from_cell(space, (3, 4))
        d = tunability_algorithm({"d": pred}, ref,
                                 {"d": dataset_optimum(pred, space, GRID)}).per_dataset["d"]
        d0 = tunability_parameter("p0", ref, pred, space, GRID).d
        d1 = tunability_parameter("p1", ref, pred, space, GRID).d
        assert d0 + d1 == pytest.approx(d, abs=1e-12)

    def test_coordinate_optimal_reference(self):
        space, cells, pred, table = table_setup([3, 3],
                                                [0.5, 0.4, 0.6, 0.2, 0.1, 0.3, 0.9, 0.8, 0.7])
        # reference (1, 1) has value 0.1, the row minimum for p1
        ref = cfg_from_cell(space, (1, 1))
        assert tunability_parameter("p1", ref, pred, space, GRID).d == pytest.approx(0.0)

    def test_matches_bruteforce_and_rel_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sizes = rng.integers(2, 5, size=int(rng.integers(1, 4)))
            space = integer_grid_space(sizes)
            cells = all_cells(space)
            table = random_table(space, rng)
            pred = TablePredictor(space, table)
            ref_cell = cells[int(rng.integers(0, len(cells)))]
            ref = cfg_from_cell(space, ref_cell)
            _, best = bf_min(table, cells)
            d = table[ref_cell] - best
            for i, name in enumerate(space.names):
                expected_key, expected_d = bf_param_tunability(table, cells, ref_cell, i)
                got = tunability_parameter(name, ref, pred, space, GRID)
                assert got.d == expected_d
                if d > 0:
                    assert 0.0 <= got.d / d <= 1.0

    def test_reference_outside_the_space_rejected(self):
        space = bundled_space("rpart")
        ref = make_configuration(space, {"cp": 0.01, "maxdepth": 30, "minbucket": 7,
                                         "minsplit": 200})
        pred = FunctionPredictor(lambda cp: cp, param="cp")
        with pytest.raises(SpaceError, match="200 of 'minsplit'"):
            tunability_parameter("cp", ref, pred, space, GRID)

    def test_inactive_parameter_routed_to_conditional(self):
        space = bundled_space("svm")
        ref = make_configuration(space, {"kernel": "radial", "cost": 0.0, "gamma": -2.0})
        pred = FunctionPredictor(lambda v: 0.0, param="cost")
        with pytest.raises(ValueError, match="conditional_reference"):
            tunability_parameter("degree", ref, pred, space,
                                 OptimizerSpec(mode="grid", levels=3))


class TestPairTunability:
    def setup_2x2(self):
        space = integer_grid_space([2, 2])
        cells = all_cells(space)
        table = dict(zip(cells, [0.5, 0.2, 0.3, 0.0]))
        return space, cells, TablePredictor(space, table), table

    def test_worked_2x2(self):
        # paper formula: g = min(R(opt_p0), R(opt_p1)) - R(opt_pair)
        #              = min(0.3, 0.2) - 0.0 = 0.2  (spec example 0.3 is ledgered)
        space, cells, pred, table = self.setup_2x2()
        ref = cfg_from_cell(space, (0, 0))
        res = tunability_pair("p0", "p1", ref, pred, space, GRID)
        assert res.d_first == pytest.approx(0.2)
        assert res.d_second == pytest.approx(0.3)
        assert res.d == pytest.approx(0.5)
        assert res.joint_gain == pytest.approx(0.2)
        assert res.joint_gain == pytest.approx(res.d - max(res.d_first, res.d_second))

    def test_reference_at_global_optimum_zeroes_everything(self):
        space, cells, pred, table = self.setup_2x2()
        ref = cfg_from_cell(space, (1, 1))
        res = tunability_pair("p0", "p1", ref, pred, space, GRID)
        assert res.d == pytest.approx(0.0) and res.joint_gain == pytest.approx(0.0)

    def test_coupled_table_has_largest_gain(self):
        # diagonal-coupled pair mimicking minsplit/minbucket: only moving both helps
        space = integer_grid_space([2, 2, 2])
        cells = all_cells(space)
        table = {}
        for cell in cells:
            v = 0.5
            if cell[0] == 1 and cell[1] == 1:
                v = 0.0  # joint move of (p0, p1) wins big
            elif cell[2] == 1:
                v = 0.45
            table[cell] = v
        pred = TablePredictor(space, table)
        ref = cfg_from_cell(space, (0, 0, 0))
        gains = {}
        for i1, i2 in (("p0", "p1"), ("p0", "p2"), ("p1", "p2")):
            gains[(i1, i2)] = tunability_pair(i1, i2, ref, pred, space, GRID).joint_gain
        assert max(gains, key=gains.get) == ("p0", "p1")

    def test_same_parameter_rejected(self):
        space, _, pred, _ = self.setup_2x2()
        ref = cfg_from_cell(space, (0, 0))
        with pytest.raises(ValueError):
            tunability_pair("p0", "p0", ref, pred, space, GRID)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            space = integer_grid_space([3, 4, 2])
            cells = all_cells(space)
            table = random_table(space, rng)
            pred = TablePredictor(space, table)
            ref_cell = cells[int(rng.integers(0, len(cells)))]
            ref = cfg_from_cell(space, ref_cell)
            expected_key, expected_d, expected_g = bf_pair_tunability(
                table, cells, ref_cell, 0, 2)
            got = tunability_pair("p0", "p2", ref, pred, space, GRID)
            assert got.d == expected_d and got.joint_gain == expected_g


class TestShiftInvariance:
    def test_adding_constant_leaves_d_and_argmin_unchanged(self):
        rng = np.random.default_rng(11)
        space = integer_grid_space([4, 3])
        cells = all_cells(space)
        table = random_table(space, rng)
        shifted = {k: v + 5.0 for k, v in table.items()}
        ref_cell = cells[5]
        ref = cfg_from_cell(space, ref_cell)
        for t1, t2 in ((table, shifted),):
            p1, p2 = TablePredictor(space, t1), TablePredictor(space, t2)
            o1 = dataset_optimum(p1, space, GRID)
            o2 = dataset_optimum(p2, space, GRID)
            assert o1.config.key(space) == o2.config.key(space)
            d1 = tunability_algorithm({"d": p1}, ref, {"d": o1}).per_dataset["d"]
            d2 = tunability_algorithm({"d": p2}, ref, {"d": o2}).per_dataset["d"]
            assert d1 == pytest.approx(d2, abs=1e-12)
            g1 = tunability_pair("p0", "p1", ref, p1, space, GRID).joint_gain
            g2 = tunability_pair("p0", "p1", ref, p2, space, GRID).joint_gain
            assert g1 == pytest.approx(g2, abs=1e-12)


class TestConditionalReference:
    def svm_predictors(self):
        # risk prefers polynomial kernel with high degree and low cost
        space = bundled_space("svm")

        class SvmPred:
            def predict_many(self, configs):
                out = []
                for c in configs:
                    r = 0.5
                    if c.values["kernel"] == "radial":
                        r -= 0.1
                    r += 0.01 * abs(c.values["cost"])
                    if c.active.get("degree", False):
                        r -= 0.02 * c.values["degree"]
                    out.append(r)
                return np.array(out)

        return space, {"d": SvmPred()}

    def test_degree_reference_pins_polynomial(self):
        space, preds = self.svm_predictors()
        opt = OptimizerSpec(mode="grid", levels=5)
        ref = conditional_reference("degree", space, preds, NO_SCALE, MEAN, opt)
        assert ref.values["kernel"] == "polynomial"
        assert ref.active["degree"] and not ref.active["gamma"]
        # cost re-optimized toward zero penalty
        assert abs(ref.values["cost"]) == pytest.approx(0.0)

    def test_unconditional_parameter_rejected(self):
        space, preds = self.svm_predictors()
        with pytest.raises(ValueError, match="not conditional"):
            conditional_reference("cost", space, preds, NO_SCALE, MEAN, GRID)

    def test_single_activating_level_deterministic(self):
        assert activating_assignment(bundled_space("svm"), "gamma") == ("kernel", "radial")
        assert activating_assignment(bundled_space("svm"), "degree") == ("kernel", "polynomial")


class TestCvAcrossDatasets:
    def test_identical_surrogates_reproduce_in_sample_tunability(self):
        space = integer_grid_space([5])
        cells = all_cells(space)
        table = dict(zip(cells, [0.5, 0.2, 0.9, 0.4, 0.8]))
        preds = {f"d{i}": TablePredictor(space, table) for i in range(6)}
        defaults = compute_defaults(preds, space, NO_SCALE, MEAN, GRID)
        optima = {ds: dataset_optimum(p, space, GRID) for ds, p in preds.items()}
        tun = tunability_algorithm(preds, defaults.config, optima)
        cv = cv_across_datasets(preds, space, optima, NO_SCALE, MEAN, GRID,
                                folds=3, seed=0)
        assert cv.aggregates["mean"] == pytest.approx(tun.aggregates["mean"])

    def test_leave_one_dataset_out_accounting(self):
        space = integer_grid_space([3])
        rng = np.random.default_rng(3)
        preds = {f"d{i}": TablePredictor(space, random_table(space, rng))
                 for i in range(10)}
        optima = {ds: dataset_optimum(p, space, GRID) for ds, p in preds.items()}
        cv = cv_across_datasets(preds, space, optima, NO_SCALE, MEAN, GRID,
                                folds=10, seed=1)
        assert len(cv.per_dataset) == 10
        assert sorted(set(cv.fold_assignment.values())) == list(range(10))

    def test_held_out_defaults_cannot_beat_in_sample_on_average(self):
        rng = np.random.default_rng(9)
        space = integer_grid_space([4, 4])
        gaps = []
        for _ in range(50):
            preds = {f"d{i}": TablePredictor(space, random_table(space, rng))
                     for i in range(6)}
            defaults = compute_defaults(preds, space, NO_SCALE, MEAN, GRID)
            optima = {ds: dataset_optimum(p, space, GRID) for ds, p in preds.items()}
            tun = tunability_algorithm(preds, defaults.config, optima)
            cv = cv_across_datasets(preds, space, optima, NO_SCALE, MEAN, GRID,
                                    folds=3, seed=0)
            gaps.append(cv.aggregates["mean"] - tun.aggregates["mean"])
        assert float(np.mean(gaps)) >= 0.0

    def test_too_few_datasets(self):
        space = integer_grid_space([3])
        preds = {"a": TablePredictor(space, random_table(space, np.random.default_rng(0)))}
        with pytest.raises(ValueError):
            cv_across_datasets(preds, space, {}, NO_SCALE, MEAN, GRID, folds=2, seed=0)

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_raise(self, folds):
        space = integer_grid_space([3])
        rng = np.random.default_rng(0)
        preds = {f"d{i}": TablePredictor(space, random_table(space, rng)) for i in range(3)}
        optima = {ds: dataset_optimum(p, space, GRID) for ds, p in preds.items()}
        with pytest.raises(ValueError, match="at least 2 folds"):
            cv_across_datasets(preds, space, optima, NO_SCALE, MEAN, GRID, folds=folds, seed=0)

    def test_worker_count_invariant(self):
        rng = np.random.default_rng(13)
        space = integer_grid_space([4])
        preds = {f"d{i}": TablePredictor(space, random_table(space, rng))
                 for i in range(8)}
        optima = {ds: dataset_optimum(p, space, GRID) for ds, p in preds.items()}
        a = cv_across_datasets(preds, space, optima, NO_SCALE, MEAN, GRID,
                               folds=4, seed=2, workers=1)
        b = cv_across_datasets(preds, space, optima, NO_SCALE, MEAN, GRID,
                               folds=4, seed=2, workers=8)
        assert a.per_dataset == b.per_dataset


class TestMonotonicity:
    def test_nesting_inequalities_hold_on_random_fixtures(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            sizes = [int(s) for s in rng.integers(2, 5, size=2)]
            space = integer_grid_space(sizes)
            cells = all_cells(space)
            table = random_table(space, rng)
            pred = TablePredictor(space, table)
            ref = cfg_from_cell(space, cells[int(rng.integers(0, len(cells)))])
            opt = dataset_optimum(pred, space, GRID)
            d = tunability_algorithm({"d": pred}, ref, {"d": opt}).per_dataset["d"]
            pair = tunability_pair("p0", "p1", ref, pred, space, GRID)
            assert d >= pair.d - 1e-12
            assert pair.d >= max(pair.d_first, pair.d_second) - 1e-12
            assert min(pair.d_first, pair.d_second) >= -1e-12
            assert pair.joint_gain >= -1e-12
