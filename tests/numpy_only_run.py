"""Import every tunemeter module and run the smallest analysis with scipy blocked.

numpy is the package's only runtime dependency. This script makes any
import of scipy fail, imports each module, scores two toy learners by
cross-validated AUC (kNN, and CART, whose fold trees score the test rows
through the narrow leaf masks), ranks two surrogate kinds by CV R^2 and
Kendall's tau, fits a few-tree forest into a temporary cache directory and
loads it back (an `.npz` read without pickles) with byte-equal
predictions, and runs one random-mode and one grid-mode search on fitted
surrogates. Run it with only numpy installed:
`python tests/numpy_only_run.py` (add `src` to PYTHONPATH when the package
is not installed).
"""

import importlib
import os
import pkgutil
import sys
import tempfile

sys.modules["scipy"] = None  # `import scipy` and `from scipy import ...` now raise ImportError

import tunemeter  # noqa: E402
from tunemeter.hyperspace import make_configuration  # noqa: E402
from tunemeter.metadata import (  # noqa: E402
    ToyLearnerSpec,
    cross_validate,
    generate_bot_data,
    make_synthetic_dataset,
)
from tunemeter.metrics import RiskTransform, SummarySpec  # noqa: E402
from tunemeter.surrogate import evaluate_surrogates, fit_all_surrogates  # noqa: E402
from tunemeter.tunability import OptimizerSpec, compute_defaults, dataset_optimum  # noqa: E402

for module in pkgutil.iter_modules(tunemeter.__path__):
    importlib.import_module(f"tunemeter.{module.name}")

learner = ToyLearnerSpec("knn_classifier", folds=4)
dataset = make_synthetic_dataset("gaussian_blobs", n=40, p=2, separation=2, seed=0)
config = make_configuration(learner.space(), {"k": 5})
print("auc", cross_validate(learner, config, dataset, 4, ("auc",), seed=0)["auc"])
cart = ToyLearnerSpec("cart_classifier", folds=4)
cart_config = make_configuration(cart.space(), {"cp": 0.0, "maxdepth": 6, "minbucket": 1,
                                                "minsplit": 2})
print("cart auc", cross_validate(cart, cart_config, dataset, 4, ("auc",), seed=0)["auc"])
(meta,) = generate_bot_data([learner], [dataset], rows_per_pair=12, seed=0).values()
report = evaluate_surrogates(meta, "auc", kinds=("knn_reg", "constant"), reps=1, folds=3)
print("r2, tau", report.mean_by_kind())
with tempfile.TemporaryDirectory() as cache:
    fitted, loaded = (fit_all_surrogates(meta, "auc", kind="forest_reg", cache_dir=cache,
                                         n_trees=3)[dataset.info.id] for _ in range(2))
    assert [name.endswith(".npz") for name in os.listdir(cache)] == [True]
X = fitted.encoder.encode_configs([row.config for row in meta.rows])
assert fitted.predict_encoded(X).tobytes() == loaded.predict_encoded(X).tobytes()
print("cached forest predicts", X.shape[0], "rows as fitted")
models = fit_all_surrogates(meta, "auc", kind="cart_reg")
defaults = compute_defaults(models, meta.space, RiskTransform("none"), SummarySpec("mean"),
                            OptimizerSpec(mode="random", budget=500))
print("random-mode defaults", defaults.config.values, defaults.aggregated_risk)
optimum = dataset_optimum(models[dataset.info.id], meta.space, OptimizerSpec(mode="grid"))
print("grid-mode optimum", optimum.config.values, optimum.risk)
