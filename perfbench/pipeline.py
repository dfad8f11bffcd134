"""Workloads of the tunemeter benchmark: seeded inputs, the full analysis, output checks.

A workload is a frozen ``Workload`` spec. ``make_inputs`` turns a spec and a
seed into the inputs the program receives (labelled synthetic datasets for
the bot, or svm meta-data drawn from an analytic response surface).
``analyse`` runs the full analysis on those inputs, from meta-data to the
last table, through public ``tunemeter`` functions only. Every call goes
through the module attribute (``tb.minimize``, ``sg.fit_surrogate``) so that
the tracer in ``tracer.py`` sees it when it is installed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from tunemeter import hyperspace as hs  # noqa: E402
from tunemeter import metadata as md  # noqa: E402
from tunemeter import metrics as mt  # noqa: E402
from tunemeter import ranges as rg  # noqa: E402
from tunemeter import surrogate as sg  # noqa: E402
from tunemeter import tunability as tb  # noqa: E402

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
EPS = 1e-12
PROBE_ROWS = 200  # configurations the warm-cache check predicts


@dataclass(frozen=True)
class Workload:
    """Input sizes and analysis settings of one benchmark workload."""

    name: str
    algorithms: tuple[str, ...]
    datasets: int
    rows: int
    measures: tuple[str, ...] = ("auc",)
    learners: tuple[str, ...] = ()  # toy learner kinds the bot runs; empty: svm surface
    folds: int = 10  # bot CV folds per row
    n_obs: int = 120
    n_feat: int = 6
    n_trees: int = 100
    mode: str = "grid"
    budget: int = 100_000
    pair_budget: int = 10_000
    levels: int = 10
    selection: Optional[tuple[int, int]] = None  # (reps, folds) of surrogate selection CV
    cv_folds: int = 0  # folds of cv_across_datasets; 0 skips it

    def optimizer(self, seed: int) -> tb.OptimizerSpec:
        return tb.OptimizerSpec(mode=self.mode, budget=self.budget,
                                pair_budget=self.pair_budget, levels=self.levels, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", algorithms=("rpart",), learners=("cart_classifier",),
                 datasets=2, rows=30, mode="random", budget=10_000, pair_budget=1_000,
                 cv_folds=2),
        Workload("bot", algorithms=("kknn", "glmnet", "rpart"),
                 learners=("knn_classifier", "elasticnet_logreg", "cart_classifier"),
                 datasets=2, rows=10, measures=("auc", "accuracy", "brier")),
        Workload("wide", algorithms=("svm",), datasets=3, rows=400, levels=20,
                 selection=(1, 5)),
    )
}


SMALL = "-small"


def shrink(w: Workload) -> Workload:
    """The seconds-sized version of a workload that the benchmark's tests run."""
    return replace(w, name=w.name + SMALL, rows=min(w.rows, 12 if w.learners else 60),
                   n_trees=5, budget=200, pair_budget=40, levels=4, folds=3,
                   selection=(1, 3) if w.selection else None)


# -- inputs ----------------------------------------------------------------------------

@dataclass
class Inputs:
    """What the program receives: labelled datasets for the bot, or ready meta-data."""

    datasets: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Seeded inputs: the same (workload, seed) always gives the same inputs."""
    rng = np.random.default_rng([seed, 7])
    if w.learners:
        families = ("gaussian_blobs", "xor_rotated")
        datasets = [
            md.make_synthetic_dataset(families[i % 2], w.n_obs, w.n_feat,
                                      float(rng.uniform(1.0, 3.0)), seed * 1000 + i)
            for i in range(w.datasets)
        ]
        return Inputs(datasets=datasets)
    return Inputs(meta={"svm": svm_surface_meta(w.datasets, w.rows, seed)})


def svm_surface_meta(datasets: int, rows: int, seed: int) -> md.MetaDataset:
    """svm meta-data from a response surface in kernel, cost, gamma and degree.

    Dataset i has its own kernel offsets and cost and gamma optima; the
    polynomial kernel loses AUC with degree. The seed draws the configurations
    and the noise that keeps surrogates from fitting the surface exactly. The
    surfaces themselves, and so the shape and cost of the fitted trees, do not
    depend on the seed, and no value is clipped.
    """
    space = hs.bundled_space("svm")
    kernels = space["kernel"].levels
    infos, records = [], []
    for i in range(datasets):
        surface = np.random.default_rng([11, i])
        offset = dict(zip(kernels, surface.uniform(-1.0, 1.5, len(kernels))))
        cost_opt, gamma_opt = surface.uniform(-4.0, 6.0), surface.uniform(-8.0, 0.0)
        info = hs.DatasetInfo(f"surface{i}_seed{seed}", n=int(surface.integers(200, 2000)),
                              p=int(surface.integers(4, 40)))
        infos.append(info)
        rng = np.random.default_rng([seed, 11, i])
        for _ in range(rows):
            kernel = kernels[int(rng.integers(len(kernels)))]
            values = {"kernel": kernel, "cost": float(rng.uniform(-10.0, 10.0))}
            f = offset[kernel] - ((values["cost"] - cost_opt) / 4.0) ** 2
            if kernel == "radial":
                values["gamma"] = float(rng.uniform(-10.0, 10.0))
                f -= ((values["gamma"] - gamma_opt) / 3.0) ** 2
            elif kernel == "polynomial":
                values["degree"] = int(rng.integers(2, 6))
                f -= 0.3 * (values["degree"] - 2)
            # noise on the logit scale keeps every AUC inside (0.52, 0.97) and distinct
            auc = 0.52 + 0.45 / (1.0 + math.exp(-f - float(rng.normal(0.0, 0.1))))
            records.append(md.ExperimentRow(info.id, hs.make_configuration(space, values),
                                            {"auc": auc}))
    return md.MetaDataset(algorithm="svm", space=space, dataset_infos=infos, rows=records,
                          measures=("auc",), seed=seed)


# -- outcome ----------------------------------------------------------------------------

@dataclass
class Outcome:
    """Results, checks, stage times and counts of one analysis run."""

    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok)
    stage_s: dict = field(default_factory=dict)  # seconds spent in each stage's calls
    bot_rows_attempted: int = 0
    bot_rows_kept: int = 0
    analyses_attempted: int = 0
    analyses_failed: int = 0
    planned_candidates: int = 0
    cache_bytes: int = 0
    meta_bytes: int = 0
    run_s: float = 0.0

    pause: Callable = nullcontext  # a tracer swaps in its own, so checks are not traced

    def check(self, name: str, predicate) -> None:
        """Evaluate one output check; its time is kept out of ``run_s``."""
        with self.timed("checks"), self.pause():
            ok = bool(predicate())
        self.checks.append((name, ok))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    @contextmanager
    def timed(self, stage: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + time.perf_counter() - t0

    @property
    def attempted(self) -> int:
        return self.bot_rows_attempted + self.analyses_attempted + len(self.checks)

    @property
    def failed(self) -> int:
        dropped = self.bot_rows_attempted - self.bot_rows_kept
        return dropped + self.analyses_failed + sum(1 for _, ok in self.checks if not ok)

    def digest(self) -> str:
        return hashlib.sha256(canonical(self.results).encode()).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_json(space: hs.SearchSpace, config: hs.Configuration) -> dict:
    return {p.name: (config.values[p.name] if config.active.get(p.name, False) else None)
            for p in space.params}


# -- the analysis ---------------------------------------------------------------------

def analyse(w: Workload, inputs: Inputs, seed: int, workers: int, workdir: Path,
            pause: Callable = nullcontext) -> Outcome:
    """Run the workload's full analysis once and check its outputs.

    ``pause`` is entered around every check, so a tracer can keep the
    checks' own predictions out of the per-layer numbers.
    """
    out = Outcome(pause=pause)
    t0 = time.perf_counter()
    metas = dict(inputs.meta)
    if w.learners:
        learners = [md.ToyLearnerSpec(kind, folds=w.folds) for kind in w.learners]
        out.bot_rows_attempted = len(learners) * len(inputs.datasets) * w.rows
        with out.timed("bot"):
            metas.update(md.generate_bot_data(learners, inputs.datasets, w.rows, seed,
                                              workers=workers))
        out.bot_rows_kept = sum(len(m.rows) for m in metas.values())
        out.results["bot"] = {alg: [[r.dataset_id, config_json(m.space, r.config),
                                     r.measures] for r in m.rows]
                              for alg, m in metas.items()}
    for alg in w.algorithms:
        out.analyses_attempted += 1
        try:
            out.results[alg] = _analyse_algorithm(w, metas[alg], seed, workers,
                                                  workdir / alg, out)
        except Exception:  # a raising analysis is a failed operation, not a crash
            traceback.print_exc()
            out.analyses_failed += 1
    if seed == DEFAULT_SEED and w.mode == "grid":
        ref = load_reference(w.name)
        out.check("matches stored reference",
                  lambda: ref is not None and matches(ref, out.results))
    out.run_s = time.perf_counter() - t0 - out.stage_s.get("checks", 0.0)
    return out


def _analyse_algorithm(w: Workload, meta: md.MetaDataset, seed: int, workers: int,
                       workdir: Path, out: Outcome) -> dict:
    space = meta.space
    measure = w.measures[0]
    workdir.mkdir(parents=True)

    path = workdir / "meta.csv"
    with out.timed("meta_io"):
        md.write_meta(meta, path)
        back = md.read_meta(path)
    out.meta_bytes += sum(f.stat().st_size for f in workdir.glob("meta.csv*"))
    out.check(f"{meta.algorithm}: read_meta(write_meta(meta)) returns the rows",
              lambda: _rows(back) == _rows(meta))

    res: dict = {}
    kind = "forest_reg"
    if w.selection:
        reps, folds = w.selection
        with out.timed("fit"):
            report = sg.evaluate_surrogates(back, measure, reps=reps, folds=folds, seed=seed)
            kind = sg.select_surrogate(report)
        res["selected_kind"] = kind
    # Forests are fitted and cached whichever kind the selection picks, so the
    # tree cache is exercised on every workload.
    cache = workdir / "cache"
    for k in dict.fromkeys([kind, "forest_reg"]):
        params = {"n_trees": w.n_trees} if k == "forest_reg" else {}
        for m in w.measures:
            with out.timed("fit"):
                cold = sg.fit_all_surrogates(back, m, kind=k, seed=seed, cache_dir=cache,
                                             **params)
            with out.timed("warm"):
                warm = sg.fit_all_surrogates(back, m, kind=k, seed=seed, cache_dir=cache,
                                             **params)
            out.check(f"{meta.algorithm}/{k}/{m}: warm-cache predictions equal the cold fit",
                      lambda: _same_predictions(cold, warm, back))
            if (k, m) == (kind, measure):
                models = warm
    out.cache_bytes += sum(f.stat().st_size for f in cache.iterdir())

    # Unscaled risks: unit_interval and zscore scaling raise on a dataset where every
    # sampled configuration scores the same, which random CART rows on XOR data often do.
    scaling = mt.RiskTransform("none")
    g = mt.SummarySpec("mean")
    opt = w.optimizer(seed)
    ds_ids = back.dataset_ids

    def stage(fn, *args, **kwargs):
        with out.timed("tunability"):
            return fn(*args, **kwargs)

    defaults = stage(tb.compute_defaults, models, space, scaling, g, opt)
    out.planned_candidates += candidates(space, w, {})
    optima = {d: stage(tb.dataset_optimum, models[d], space, opt, context=f"optimum:{d}")
              for d in ds_ids}
    out.planned_candidates += len(ds_ids) * candidates(space, w, {})
    tun = {
        "optimal": stage(tb.tunability_algorithm, models, defaults.config, optima,
                         "optimal").per_dataset,
        "package": stage(tb.tunability_algorithm, models,
                         hs.bundled_package_defaults(meta.algorithm), optima,
                         "package").per_dataset,
    }
    res.update(
        defaults={"config": config_json(space, defaults.config),
                  "risk": defaults.aggregated_risk, "per_dataset": defaults.per_dataset_risk,
                  "ties": defaults.tie_count},
        optima={d: {"config": config_json(space, o.config), "risk": o.risk,
                    "ties": o.tie_count, "evaluated": o.n_evaluated}
                for d, o in optima.items()},
        tunability=tun,
    )

    references = {}
    for p in space.params:
        if p.is_conditional:
            references[p.name] = stage(tb.conditional_reference, p.name, space, models,
                                       scaling, g, opt)
            parent, value = tb.activating_assignment(space, p.name)
            out.planned_candidates += candidates(space, w, {parent: value})
        else:
            references[p.name] = defaults.config
    res["references"] = {name: config_json(space, c) for name, c in references.items()
                         if c is not defaults.config}

    param_res = {}
    for name, ref in references.items():
        fixed = {n: ref.values[n] for n in space.names if n != name}
        param_res[name] = {d: stage(tb.tunability_parameter, name, ref, models[d], space, opt,
                                    context=d) for d in ds_ids}
        out.planned_candidates += len(ds_ids) * candidates(space, w, fixed)
    res["parameters"] = {name: {d: {"best": r.best_value, "d": r.d, "ties": r.tie_count}
                                for d, r in per.items()} for name, per in param_res.items()}

    unconditional = [p.name for p in space.params if not p.is_conditional]
    pair_res = {}
    for i1, i2 in itertools.combinations(unconditional, 2):
        fixed = {n: defaults.config.values[n] for n in space.names if n not in (i1, i2)}
        per = {}
        for d in ds_ids:
            ref_risk = defaults.per_dataset_risk[d]
            singles = (ref_risk - param_res[i1][d].d, ref_risk - param_res[i2][d].d)
            per[d] = stage(tb.tunability_pair, i1, i2, defaults.config, models[d], space, opt,
                           context=d, single_risks=singles)
        out.planned_candidates += len(ds_ids) * candidates(space, w, fixed, pair=True)
        pair_res[f"{i1}|{i2}"] = per
    res["pairs"] = {key: {d: {"best": list(r.best_values), "d": r.d,
                              "joint_gain": r.joint_gain} for d, r in per.items()}
                    for key, per in pair_res.items()}

    if w.cv_folds:
        cv = stage(tb.cv_across_datasets, models, space, optima, scaling, g, opt,
                   w.cv_folds, seed, workers=workers)
        res["cv"] = cv.per_dataset
        out.planned_candidates += w.cv_folds * candidates(space, w, {})

    with out.timed("ranges"):
        tuning = rg.compute_ranges([o.config for o in optima.values()], space)
    res["ranges"] = {name: (pr.included_levels if pr.included_levels is not None
                            else [pr.q_low, pr.q_high])
                     for name, pr in tuning.per_param.items()}

    _check_analysis(w, meta.algorithm, space, models, defaults, optima, references,
                    param_res, pair_res, res, out)
    return res


def _same_predictions(cold: dict, warm: dict, meta: md.MetaDataset) -> bool:
    """Bit-for-bit equal predictions on the first meta-data configurations."""
    encoder = next(iter(cold.values())).encoder
    X = encoder.encode_configs([r.config for r in meta.rows[:PROBE_ROWS]])
    return all(cold[d].predict_encoded(X).tobytes() == warm[d].predict_encoded(X).tobytes()
               for d in cold)


def _rows(meta: md.MetaDataset) -> list:
    return [(r.dataset_id, r.config.values, r.config.active, r.measures) for r in meta.rows]


def candidates(space: hs.SearchSpace, w: Workload, fixed: dict, pair: bool = False) -> int:
    """Candidates one minimize call evaluates, counted without calling the program.

    Random mode draws the budget. Grid mode enumerates the cross product of
    the free parameters' grids; a conditional parameter contributes its grid
    only under the parent values that activate it.
    """
    if w.mode == "random":
        return w.pair_budget if pair else w.budget

    def support(p):
        return [fixed[p.name]] if p.name in fixed else hs.grid_values(p, w.levels)

    children = [p for p in space.params if p.is_conditional]
    total = 1
    for root in (p for p in space.params if not p.is_conditional):
        mine = [c for c in children if c.condition.parent == root.name]
        total *= sum(math.prod(len(support(c)) if c.condition.activates(v) else 1
                               for c in mine) for v in support(root))
    return total


def _check_analysis(w, algorithm, space, models, defaults, optima, references, param_res,
                    pair_res, res, out: Outcome) -> None:
    out.check(f"{algorithm}: every risk is finite",
              lambda: all(map(math.isfinite, _floats(res))))
    found = [defaults.config, *(o.config for o in optima.values()), *references.values()]
    out.check(f"{algorithm}: found configurations are valid",
              lambda: not any(hs.validate_configuration(space, c) for c in found))
    out.check(f"{algorithm}: per_dataset_risk is the surrogate at the defaults",
              lambda: all(defaults.per_dataset_risk[d] == models[d].predict(defaults.config)
                          for d in models))
    out.check(f"{algorithm}: optima evaluate every planned candidate",
              lambda: all(o.n_evaluated == candidates(space, w, {}) for o in optima.values()))
    if w.mode != "grid":
        return

    # The paper's invariants hold exactly in grid mode with an on-grid reference.
    def gap(d, reference):
        return models[d].predict(reference) - optima[d].risk

    out.check(f"{algorithm}: d >= 0",
              lambda: all(gap(d, defaults.config) >= -EPS for d in models))
    out.check(f"{algorithm}: 0 <= d_i <= d",
              lambda: all(-EPS <= r.d <= gap(d, references[name]) + EPS
                          for name, per in param_res.items() for d, r in per.items()))
    out.check(f"{algorithm}: joint gain >= 0",
              lambda: all(r.joint_gain >= -EPS
                          for per in pair_res.values() for r in per.values()))


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _floats(v)


# -- stored references -------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Optional[dict]:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_reference(workload: str, results: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def matches(ref, got) -> bool:
    """Structural equality; floats agree to REL_TOL relative (JSON keys are strings)."""
    got = json.loads(canonical(got))
    return _match(ref, got)


def _match(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_match(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_match, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(b, (int, float)) and not isinstance(b, bool)
                and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=EPS))
    return a == b
