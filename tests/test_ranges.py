import pytest

from conftest import numeric_space
from tunemeter.hyperspace import bundled_space, make_configuration, parse_space
from tunemeter.ranges import RangeSpec, compute_ranges


def configs(space, values_list):
    return [make_configuration(space, values) for values in values_list]


def level_space():
    return parse_space({"algorithm": "toy", "params": [
        {"name": "mode", "kind": "discrete", "levels": ["a", "b", "c"]},
    ]})


class TestQuantileBounds:
    def test_type7_interpolation(self):
        space = numeric_space(0.0, 10.0)
        best = configs(space, [{"x": v} for v in (5.0, 1.0, 4.0, 2.0, 3.0)])
        pr = compute_ranges(best, space).per_param["x"]
        # positions (n - 1) * p = 0.2 and 3.8 on the sorted values 1..5
        assert pr.q_low == pytest.approx(1.2) and pr.q_high == pytest.approx(4.8)
        assert pr.n_active == 5 and sorted(pr.values) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_custom_levels(self):
        space = numeric_space(0.0, 10.0)
        best = configs(space, [{"x": v} for v in (1.0, 2.0, 3.0, 4.0, 5.0)])
        pr = compute_ranges(best, space, RangeSpec(p1=0.25, p2=0.75)).per_param["x"]
        assert (pr.q_low, pr.q_high) == (2.0, 4.0)


class TestCategoricalInclusion:
    best_modes = ["a"] * 9 + ["b"]

    def ranges(self, spec):
        space = level_space()
        best = configs(space, [{"mode": m} for m in self.best_modes])
        return compute_ranges(best, space, spec).per_param["mode"]

    def test_at_least_once(self):
        pr = self.ranges(RangeSpec())
        assert pr.included_levels == ["a", "b"]
        assert pr.q_low is None and pr.q_high is None

    def test_min_fraction_drops_rare_level(self):
        pr = self.ranges(RangeSpec(min_fraction=0.2))
        assert pr.included_levels == ["a"]

    def test_min_fraction_threshold_inclusive(self):
        pr = self.ranges(RangeSpec(min_fraction=0.1))
        assert pr.included_levels == ["a", "b"]


class TestConditionalParameters:
    def test_only_active_datasets_count(self):
        space = bundled_space("svm")
        best = configs(space, [
            {"kernel": "radial", "cost": 1.0, "gamma": -4.0},
            {"kernel": "radial", "cost": 2.0, "gamma": 2.0},
            {"kernel": "linear", "cost": 3.0},
            {"kernel": "linear", "cost": 4.0},
        ])
        per = compute_ranges(best, space, RangeSpec(p1=0.0, p2=1.0)).per_param
        assert per["gamma"].n_active == 2 and sorted(per["gamma"].values) == [-4.0, 2.0]
        assert (per["gamma"].q_low, per["gamma"].q_high) == (-4.0, 2.0)
        assert per["cost"].n_active == 4
        assert per["degree"].n_active == 0
        assert per["degree"].q_low is None and per["degree"].values == []
        assert per["kernel"].included_levels == ["linear", "radial"]


class TestTransformedBounds:
    def test_pow2_bounds_transformed(self):
        space = bundled_space("svm")
        best = configs(space, [{"kernel": "linear", "cost": c} for c in (-2.0, 0.0, 3.0)])
        pr = compute_ranges(best, space, RangeSpec(p1=0.0, p2=1.0)).per_param["cost"]
        assert (pr.q_low, pr.q_high) == (-2.0, 3.0)
        assert (pr.q_low_trafo, pr.q_high_trafo) == (0.25, 8.0)

    def test_dataset_dependent_trafo_left_untransformed(self):
        space = bundled_space("ranger")
        best = configs(space, [{"mtry": 0.2}, {"mtry": 0.6}])
        pr = compute_ranges(best, space).per_param["mtry"]
        assert pr.q_low is not None
        assert pr.q_low_trafo is None and pr.q_high_trafo is None


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="at least one"):
        compute_ranges([], numeric_space())
