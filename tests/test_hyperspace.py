import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import encode_rows, grid_cells
from tunemeter import hyperspace
from tunemeter.hyperspace import (
    BUNDLED_ALGORITHMS,
    Condition,
    Configuration,
    DatasetInfo,
    ParamDef,
    SpaceError,
    apply_trafo,
    bundled_package_defaults,
    bundled_space,
    effective_values,
    grid_configurations,
    grid_values,
    make_configuration,
    parse_space,
    sample_configuration,
    sample_configurations,
    serialize_space,
    validate_configuration,
)
from tunemeter.surrogate import ConfigEncoder


def rng(seed=0):
    return np.random.default_rng(seed)


class TestParseSpace:
    def test_bundled_glmnet(self):
        space = bundled_space("glmnet")
        alpha, lam = space["alpha"], space["lambda"]
        assert (alpha.lower, alpha.upper, alpha.trafo) == (0, 1, "identity")
        assert (lam.lower, lam.upper, lam.trafo) == (-10, 10, "pow2")

    def test_bundled_svm_conditions(self):
        space = bundled_space("svm")
        assert space["gamma"].condition == Condition("kernel", ("radial",))
        assert space["degree"].condition == Condition("kernel", ("polynomial",))

    def test_empty_space_rejected(self):
        with pytest.raises(SpaceError, match="empty space"):
            parse_space({"algorithm": "x", "params": []})

    def test_duplicate_names_rejected(self):
        doc = {"params": [
            {"name": "a", "kind": "numeric", "lower": 0, "upper": 1},
            {"name": "a", "kind": "integer", "lower": 1, "upper": 2},
        ]}
        with pytest.raises(SpaceError, match="duplicate"):
            parse_space(doc)

    def test_bound_inversion_rejected(self):
        with pytest.raises(SpaceError, match="lower"):
            parse_space({"params": [{"name": "a", "kind": "numeric", "lower": 2, "upper": 1}]})

    def test_unknown_trafo_rejected(self):
        doc = {"params": [{"name": "a", "kind": "numeric", "lower": 0, "upper": 1,
                           "trafo": "exp10"}]}
        with pytest.raises(SpaceError, match="trafo"):
            parse_space(doc)

    def test_dangling_condition_rejected(self):
        doc = {"params": [
            {"name": "a", "kind": "numeric", "lower": 0, "upper": 1,
             "condition": {"parent": "ghost", "values": ["x"]}},
        ]}
        with pytest.raises(SpaceError, match="dangling"):
            parse_space(doc)

    def test_self_condition_rejected(self):
        doc = {"params": [
            {"name": "a", "kind": "discrete", "levels": ["x", "y"],
             "condition": {"parent": "a", "values": ["x"]}},
        ]}
        with pytest.raises(SpaceError, match="itself"):
            parse_space(doc)

    def test_chained_condition_rejected(self):
        doc = {"params": [
            {"name": "p", "kind": "discrete", "levels": ["x", "y"]},
            {"name": "c1", "kind": "discrete", "levels": ["u", "v"],
             "condition": {"parent": "p", "values": ["x"]}},
            {"name": "c2", "kind": "numeric", "lower": 0, "upper": 1,
             "condition": {"parent": "c1", "values": ["u"]}},
        ]}
        with pytest.raises(SpaceError, match="conditional"):
            parse_space(doc)

    def test_trafo_on_discrete_rejected(self):
        doc = {"params": [{"name": "a", "kind": "discrete", "levels": ["x"], "trafo": "pow2"}]}
        with pytest.raises(SpaceError):
            parse_space(doc)

    @pytest.mark.parametrize("name", BUNDLED_ALGORITHMS)
    def test_round_trip_all_bundled(self, name):
        space = bundled_space(name)
        assert parse_space(serialize_space(space)) == space


class TestApplyTrafo:
    ds = DatasetInfo("d", n=100, p=10)

    def test_pow2_lower_bound(self):
        p = ParamDef("lambda", "numeric", -10, 10, trafo="pow2")
        assert apply_trafo(p, -10, self.ds) == 0.0009765625

    def test_identity(self):
        p = ParamDef("alpha", "numeric", 0, 1)
        assert apply_trafo(p, 0.5, self.ds) == 0.5

    def test_scale_by_p_ceil(self):
        p = ParamDef("mtry", "numeric", 0, 1, trafo="scale_by_p_ceil")
        assert apply_trafo(p, 0.257, self.ds) == 3

    def test_pow_n_round(self):
        p = ParamDef("mns", "numeric", 0, 1, trafo="pow_n_round")
        assert apply_trafo(p, 0.5, self.ds) == 10

    def test_ds_scaled_clamped_to_one(self):
        p = ParamDef("mtry", "numeric", 0, 1, trafo="scale_by_p_ceil")
        assert apply_trafo(p, 0.0, self.ds) == 1
        q = ParamDef("mns", "numeric", 0, 1, trafo="pow_n_round")
        assert apply_trafo(q, 0.0, self.ds) == 1

    def test_ds_scaled_clamped_to_size(self):
        p = ParamDef("mtry", "numeric", 0, 1, trafo="scale_by_p_ceil")
        assert apply_trafo(p, 1.0, self.ds) == self.ds.p
        q = ParamDef("mns", "numeric", 0, 1, trafo="pow_n_round")
        assert apply_trafo(q, 1.0, self.ds) == self.ds.n

    def test_missing_dataset_info_errors(self):
        p = ParamDef("mtry", "numeric", 0, 1, trafo="scale_by_p_ceil")
        with pytest.raises(SpaceError, match="dataset info"):
            apply_trafo(p, 0.5, None)

    def test_integer_kind_rounds_half_up(self):
        p = ParamDef("d", "integer", 1, 30)
        assert apply_trafo(p, 15.5, self.ds) == 16

    def test_pow2_monotone(self):
        p = ParamDef("lambda", "numeric", -10, 10, trafo="pow2")
        xs = np.linspace(-10, 10, 101)
        ys = [apply_trafo(p, x, self.ds) for x in xs]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_pow_n_round_monotone_and_scale_range(self):
        q = ParamDef("mns", "numeric", 0, 1, trafo="pow_n_round")
        ys = [apply_trafo(q, x, self.ds) for x in np.linspace(0, 1, 101)]
        assert all(a <= b for a, b in zip(ys, ys[1:]))
        p = ParamDef("mtry", "numeric", 0, 1, trafo="scale_by_p_ceil")
        outs = {apply_trafo(p, x, self.ds) for x in np.linspace(0, 1, 501)}
        assert outs <= set(range(1, self.ds.p + 1))


class TestSampling:
    def test_degenerate_bounds(self):
        space = parse_space({"params": [
            {"name": "a", "kind": "numeric", "lower": 0.3, "upper": 0.3}]})
        cfg = sample_configuration(space, rng())
        assert cfg.values["a"] == 0.3 and cfg.active["a"]

    def test_svm_linear_kernel_deactivates_children(self):
        space = bundled_space("svm")
        cfg = sample_configuration(space, rng(), fixed={"kernel": "linear"})
        assert not cfg.active["gamma"] and not cfg.active["degree"]
        assert validate_configuration(space, cfg) == []

    def test_rpart_draws_within_bounds_all_active(self):
        space = bundled_space("rpart")
        r = rng(7)
        for _ in range(1000):
            cfg = sample_configuration(space, r)
            assert all(cfg.active.values())
            assert 0 <= cfg.values["cp"] <= 1
            assert 1 <= cfg.values["maxdepth"] <= 30
            assert 1 <= cfg.values["minbucket"] <= 60
            assert 1 <= cfg.values["minsplit"] <= 60

    @pytest.mark.parametrize("name", BUNDLED_ALGORITHMS)
    def test_sampled_configurations_validate(self, name):
        # spec-level property: 1e4 samples per bundled space all pass validation
        space = bundled_space(name)
        r = rng(11)
        for _ in range(10_000):
            cfg = sample_configuration(space, r)
            assert validate_configuration(space, cfg) == []

    def test_uniform_marginal_mean(self):
        a, b = -3.0, 5.0
        space = parse_space({"params": [
            {"name": "x", "kind": "numeric", "lower": a, "upper": b}]})
        r = rng(123)
        draws = np.array([sample_configuration(space, r).values["x"] for _ in range(100_000)])
        tol = 3 * (b - a) / (math.sqrt(12) * math.sqrt(100_000))
        assert abs(draws.mean() - (a + b) / 2) < tol

    def test_integer_sampling_inclusive(self):
        space = bundled_space("kknn")
        r = rng(3)
        ks = {sample_configuration(space, r).values["k"] for _ in range(5000)}
        assert min(ks) == 1 and max(ks) == 30

    def test_fixed_unknown_parameter_errors(self):
        space = bundled_space("kknn")
        with pytest.raises(SpaceError, match="unknown"):
            sample_configuration(space, rng(), fixed={"nope": 1})

    def test_first_draws_pinned(self):
        # values drawn by the one-configuration-at-a-time sampler this one replaced
        r = rng(2024)
        got = [sample_configuration(bundled_space("rpart"), r).values for _ in range(3)]
        assert got == [
            {"cp": 0.6758313379812818, "maxdepth": 3, "minbucket": 13, "minsplit": 20},
            {"cp": 0.7994660967748332, "maxdepth": 10, "minbucket": 55, "minsplit": 60},
            {"cp": 0.1422318152800518, "maxdepth": 27, "minbucket": 5, "minsplit": 10},
        ]
        r = rng(2024)
        space = bundled_space("svm")
        got = [sample_configuration(space, r, fixed={"kernel": "polynomial"}) for _ in range(3)]
        assert [(c.values["cost"], c.values["degree"]) for c in got] == [
            (3.5166267596256358, 2), (-3.810959382366166, 2), (5.989321935496664, 5)]
        assert all(c.values["gamma"] == 0.0 and not c.active["gamma"] for c in got)


def _fixed_values(space, data):
    """A random subset of the parameters pinned to values inside their ranges."""
    fixed = {}
    for p in space.params:
        if not data.draw(st.booleans()):
            continue
        if p.kind == "numeric":
            fixed[p.name] = data.draw(st.floats(p.lower, p.upper))
        elif p.kind == "integer":
            fixed[p.name] = data.draw(st.integers(int(p.lower), int(p.upper)))
        else:
            fixed[p.name] = data.draw(st.sampled_from(p.levels))
    return fixed


class TestBatchedSampling:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(BUNDLED_ALGORITHMS), n=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rows_valid_and_reproducible(self, name, n, seed, data):
        space = bundled_space(name)
        fixed = _fixed_values(space, data)
        rows = sample_configurations(space, rng(seed), n, fixed)
        assert len(rows) == n
        for cfg in rows:
            assert validate_configuration(space, cfg) == []
            for p in space.params:
                if p.condition is not None:
                    parent_value = cfg.values[p.condition.parent]
                    assert cfg.active[p.name] == (parent_value in p.condition.values)
                if p.name in fixed:
                    assert cfg.values[p.name] == fixed[p.name]
                else:
                    assert type(cfg.values[p.name]) in (float, int, str)
        again = sample_configurations(space, rng(seed), n, fixed)
        assert [(c.values, c.active) for c in again] == [(c.values, c.active) for c in rows]

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(BUNDLED_ALGORITHMS), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_one_row_is_the_single_draw(self, name, seed, data):
        space = bundled_space(name)
        fixed = _fixed_values(space, data)
        one = sample_configuration(space, rng(seed), fixed)
        (row,) = sample_configurations(space, rng(seed), 1, fixed)
        assert (one.values, one.active) == (row.values, row.active)


class TestValidateConfiguration:
    def test_interior_point_ok(self):
        space = bundled_space("glmnet")
        cfg = make_configuration(space, {"alpha": 0.5, "lambda": 0.0})
        assert validate_configuration(space, cfg) == []

    def test_out_of_bounds_flagged(self):
        space = bundled_space("glmnet")
        cfg = make_configuration(space, {"alpha": 1.5, "lambda": 0.0})
        violations = validate_configuration(space, cfg)
        assert any("alpha" in v and "out of bounds" in v for v in violations)

    def test_inactive_marked_active_flagged(self):
        space = bundled_space("svm")
        cfg = make_configuration(space, {"kernel": "linear", "cost": 0.0})
        cfg.active["gamma"] = True
        violations = validate_configuration(space, cfg)
        assert any(v.startswith("gamma: must be inactive") for v in violations)

    def test_bool_is_not_a_number(self):
        for name, param, what in [("svm", "cost", "a number"), ("kknn", "k", "an integer")]:
            space = bundled_space(name)
            for flag in (True, np.bool_(True)):
                assert space[param].contains(1) and not space[param].contains(flag)
                cfg = make_configuration(space, {})
                cfg.values[param] = flag
                assert validate_configuration(space, cfg) == [
                    f"{param}: value {flag!r} is not {what}"]
                with pytest.raises(SpaceError, match=f"fixed value {flag!r} of '{param}' is not"):
                    sample_configurations(space, rng(0), 2, {param: flag})

    @pytest.mark.parametrize("name, param, value", [
        ("svm", "cost", np.int64(1)), ("svm", "cost", np.float32(1)),
        ("svm", "cost", np.float64(-2.5)), ("rpart", "maxdepth", np.int64(5)),
        ("rpart", "maxdepth", np.int32(30)), ("rpart", "cp", np.float32(0.5)),
    ])
    def test_numpy_scalars_pin_numbers(self, name, param, value):
        space = bundled_space(name)
        cfg = make_configuration(space, {param: value})
        assert validate_configuration(space, cfg) == []
        pinned = sample_configurations(space, rng(0), 3, {param: value})
        pinned += grid_configurations(space, 2, {param: value})
        for c in pinned:
            assert type(c.values[param]) is type(value) and c.values[param] == value
            assert validate_configuration(space, c) == []

    @pytest.mark.parametrize("name, param, value, message", [
        ("rpart", "maxdepth", np.float64(5.0), "is not an integer"),
        ("rpart", "maxdepth", 5.0, "is not an integer"),
        ("svm", "cost", "1", "is not a number"),
        ("svm", "cost", np.int64(99), "is outside its bounds or levels"),
        ("svm", "cost", np.float32("nan"), "is outside its bounds or levels"),
        ("rpart", "maxdepth", np.int64(31), "is outside its bounds or levels"),
    ])
    def test_wrong_type_and_out_of_bounds_pins_name_their_cause(self, name, param, value,
                                                                 message):
        space = bundled_space(name)
        for build in (lambda f: sample_configurations(space, rng(0), 2, f),
                      lambda f: grid_configurations(space, 2, f)):
            with pytest.raises(SpaceError, match=f"fixed value .* of '{param}' {message}"):
                build({param: value})
        cfg = make_configuration(space, {param: value})
        (violation,) = validate_configuration(space, cfg)
        assert violation.startswith(f"{param}: value ")
        assert ("out of bounds" in violation) == ("outside" in message)

    def test_foreign_parameter_flagged(self):
        space = bundled_space("kknn")
        cfg = make_configuration(space, {"k": 5})
        cfg.values["zeta"] = 1.0
        cfg.active["zeta"] = True
        violations = validate_configuration(space, cfg)
        assert any("zeta" in v for v in violations)


class TestGridValues:
    def test_numeric_grid(self):
        p = ParamDef("a", "numeric", 0, 1)
        vals = grid_values(p, 5)
        assert vals == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_integer_grid_small_range_enumerates(self):
        p = ParamDef("k", "integer", 1, 4)
        assert grid_values(p, 10) == [1, 2, 3, 4]

    def test_integer_grid_large_range_subsamples(self):
        p = ParamDef("k", "integer", 1, 100)
        vals = grid_values(p, 5)
        assert vals[0] == 1 and vals[-1] == 100 and len(vals) == 5

    def test_discrete_grid(self):
        p = ParamDef("kern", "discrete", levels=("a", "b"))
        assert grid_values(p, 3) == ["a", "b"]


@st.composite
def small_spaces(draw):
    """A parent with three levels, zero to two roots and one or two children, shuffled."""
    params = [{"name": "parent", "kind": "discrete", "levels": ["a", "b", "c"]}]
    for i in range(draw(st.integers(0, 2))):
        params.append(_small_param(draw, f"r{i}", ["numeric", "integer", "logical"]))
    for j in range(draw(st.integers(1, 2))):
        child = _small_param(draw, f"c{j}", ["numeric", "integer", "discrete"])
        values = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                               unique=True))
        params.append({**child, "condition": {"parent": "parent", "values": values}})
    return parse_space({"algorithm": "small", "params": draw(st.permutations(params))})


def _small_param(draw, name, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "numeric":
        lower = draw(st.floats(-3.0, 3.0))
        return {"name": name, "kind": kind, "lower": lower,
                "upper": lower + draw(st.sampled_from([0.0, 0.5, 4.0]))}
    if kind == "integer":
        lower = draw(st.integers(-3, 3))
        return {"name": name, "kind": kind, "lower": lower,
                "upper": lower + draw(st.integers(0, 5))}
    if kind == "discrete":
        return {"name": name, "kind": kind, "levels": ["x", "y"]}
    return {"name": name, "kind": kind}


def _grid_fixed(space, data):
    """Random pins, numeric ones sometimes as ints, on roots and children alike."""
    fixed = {}
    for p in space.params:
        if not data.draw(st.booleans()):
            continue
        if p.kind == "numeric":
            value = data.draw(st.floats(p.lower, p.upper))
            if data.draw(st.booleans()) and p.lower <= round(value) <= p.upper:
                value = round(value)  # an int pin on a numeric parameter keeps its type
            fixed[p.name] = value
        elif p.kind == "integer":
            fixed[p.name] = data.draw(st.integers(int(p.lower), int(p.upper)))
        else:
            fixed[p.name] = data.draw(st.sampled_from(p.levels))
    return fixed


def _typed(values):
    return [(name, type(v), v) for name, v in values.items()]


class TestGridConfigurations:
    @settings(max_examples=150, deadline=None)
    @given(space=small_spaces(), levels=st.integers(2, 4), data=st.data())
    def test_rows_match_the_product_enumerator(self, space, levels, data):
        fixed = _grid_fixed(space, data)
        expected = grid_cells(space, levels, fixed)
        with mock.patch.object(hyperspace, "GRID_CAP", len(expected)):
            got = grid_configurations(space, levels, fixed)
        assert [(_typed(c.values), c.active) for c in got] == [
            (_typed(v), a) for v, a in expected]
        assert all(validate_configuration(space, c) == [] for c in got)
        with mock.patch.object(hyperspace, "GRID_CAP", len(expected) - 1):
            with pytest.raises(ValueError, match="exceeds"):
                grid_configurations(space, levels, fixed)

    def test_fixed_inactive_child_keeps_its_value(self):
        space = bundled_space("svm")
        rows = grid_configurations(space, 3, {"kernel": "linear", "gamma": 1.5})
        assert [c.values["cost"] for c in rows] == [-10.0, 0.0, 10.0]
        assert all(c.values["gamma"] == 1.5 and not c.active["gamma"] for c in rows)
        assert all(c.values["degree"] == 4 and not c.active["degree"] for c in rows)

    def test_over_the_cap_raises_before_building(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds 2000000"):
            grid_configurations(bundled_space("xgboost"), 10)
        assert time.perf_counter() - t0 < 1.0


class TestBlockRows:
    """A search's moving row view keys, and its `_Rows` views encode, like plain configurations."""

    def check_rows(self, space, block, plain, fixed):
        assert [block.row(i) for i in range(block.n)] == plain
        view = block.cursor()
        assert type(view) is hyperspace._Row and view._row == 0
        keys = []
        for i in range(block.n):
            view._row = i
            keys.append(view.key(space))
        assert keys == [c.key(space) for c in plain]
        encoder = ConfigEncoder.build(space)
        n = block.n
        # a search encodes some rows, in order of first appearance; repeats are encoded as asked
        for index in (np.arange(n), np.arange(n)[::-2], np.arange(n).repeat(2)[::-1]):
            rows = hyperspace._Rows(block, index)
            assert len(rows) == index.size
            picked = [plain[i] for i in index]
            X = encoder.encode_configs(rows).tobytes()
            assert X == encoder.encode_configs(picked).tobytes()
            assert X == encode_rows(space, picked).tobytes()
        for c in plain:
            assert type(c) is Configuration
            assert validate_configuration(space, c) == []
            assert list(c.values) == list(c.active) == [p.name for p in space.draw_order()]
            assert all(type(v) is bool for v in c.active.values())
            for name, value in c.values.items():
                if name in fixed:
                    assert type(value) is type(fixed[name]) and value == fixed[name]
                else:
                    assert type(value) in (float, int, str)
                    assert (type(value) is int) == (space[name].kind == "integer")

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(BUNDLED_ALGORITHMS), n=st.integers(0, 60),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sampled_rows(self, name, n, seed, data):
        space = bundled_space(name)
        fixed = _fixed_values(space, data)
        block = hyperspace._sample_block(space, rng(seed), n, fixed)
        self.check_rows(space, block, sample_configurations(space, rng(seed), n, fixed), fixed)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(BUNDLED_ALGORITHMS), data=st.data())
    def test_grid_rows(self, name, data):
        space = bundled_space(name)
        levels = data.draw(st.integers(2, 3 if len(space.params) <= 4 else 2))
        fixed = _grid_fixed(space, data)
        plain = grid_configurations(space, levels, fixed)
        self.check_rows(space, hyperspace._grid_block(space, levels, fixed), plain, fixed)
        expected = grid_cells(space, levels, fixed)
        assert [(_typed(c.values), c.active) for c in plain] == [
            (_typed(v), a) for v, a in expected]

    def test_mixed_and_empty_lists_encode_through_the_dicts(self):
        space = bundled_space("svm")
        encoder = ConfigEncoder.build(space)
        a = sample_configurations(space, rng(1), 6)
        b = grid_configurations(space, 3)
        mixed = [a[0], b[0], b[1], a[5], make_configuration(space, {"kernel": "radial"}), b[2]]
        assert encoder.encode_configs(mixed).tobytes() == encode_rows(space, mixed).tobytes()
        assert encoder.encode_configs([]).shape == (0, len(encoder.columns))

    def test_key_in_another_space_reads_the_dicts(self):
        space = bundled_space("kknn")
        (row,) = sample_configurations(space, rng(0), 1)
        twin = parse_space(serialize_space(space))
        assert twin == space and twin is not space
        assert row.key(twin) == (row.values["k"],)


class TestBundledDefaults:
    @pytest.mark.parametrize("name", BUNDLED_ALGORITHMS)
    def test_defaults_validate(self, name):
        space = bundled_space(name)
        cfg = bundled_package_defaults(name)
        assert validate_configuration(space, cfg) == []

    def test_svm_defaults_degree_inactive(self):
        cfg = bundled_package_defaults("svm")
        assert cfg.values["kernel"] == "radial"
        assert cfg.active["gamma"] and not cfg.active["degree"]

    def test_xgboost_eta_inverts_to_package_value(self):
        space = bundled_space("xgboost")
        cfg = bundled_package_defaults("xgboost")
        eff = effective_values(space, cfg, DatasetInfo("d", 100, 10))
        assert eff["eta"] == pytest.approx(0.3, abs=1e-12)
        assert eff["min_child_weight"] == pytest.approx(1.0)
        assert eff["lambda"] == pytest.approx(1.0)


class TestConfigurationHelpers:
    def test_make_configuration_rejects_names_outside_the_space(self):
        space = bundled_space("svm")
        with pytest.raises(SpaceError, match="not parameters of 'svm': 'kernal'$"):
            make_configuration(space, {"kernal": "linear", "cost": 3.0})

    def test_key_masks_inactive(self):
        space = bundled_space("svm")
        a = make_configuration(space, {"kernel": "linear", "cost": 1.0, "gamma": -2.0})
        b = make_configuration(space, {"kernel": "linear", "cost": 1.0, "gamma": 3.0})
        assert a.key(space) == b.key(space)

    def test_effective_values_only_active(self):
        space = bundled_space("svm")
        cfg = make_configuration(space, {"kernel": "linear", "cost": 2.0})
        eff = effective_values(space, cfg, DatasetInfo("d", 50, 4))
        assert "gamma" not in eff and "degree" not in eff
        assert eff["cost"] == 4.0
