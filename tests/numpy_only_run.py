"""Import every tunemeter module and run the smallest analysis with scipy blocked.

numpy is the package's only runtime dependency. This script makes any
import of scipy fail, imports each module, scores the three toy learners
by cross-validated AUC (kNN; CART, whose fold trees score the test rows
through the narrow leaf masks; elastic-net at two penalties, one whose
descent stops after one step and one that runs all 500, each fold's
weights byte-equal to the full descent in `bruteforce.py` on this numpy),
ranks two surrogate kinds by CV R^2 and Kendall's tau, fits a few-tree
forest into a temporary cache directory and loads it back (an `.npz` read
without pickles) with byte-equal predictions, and runs one random-mode and
one grid-mode search on fitted surrogates. It also runs the defaults on
linear surrogates and checks that each dataset's risk is, bit for bit, its
model's single-row predict: the search takes it from a batch, and this
numpy's BLAS must not move a row's last bit there. Run it with only numpy
installed: `python tests/numpy_only_run.py` (add `src` to PYTHONPATH when
the package is not installed).
"""

import importlib
import os
import pkgutil
import sys
import tempfile

sys.modules["scipy"] = None  # `import scipy` and `from scipy import ...` now raise ImportError

import tunemeter  # noqa: E402
from bruteforce import elastic_net_descent  # noqa: E402
from tunemeter import metadata  # noqa: E402
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
glmnet = ToyLearnerSpec("elasticnet_logreg", folds=4)
# balanced folds; the noise column's first step goes negative, so its zeroed weight is -0.0
noisy = make_synthetic_dataset("gaussian_blobs", n=40, p=3, separation=2, seed=1)
fit_folds, fits = metadata._ElasticNetLogReg.fit_folds, []


def recording_fit(model, Xs, ys):
    fits.append((fit_folds(model, Xs, ys), Xs, ys))
    return model


metadata._ElasticNetLogReg.fit_folds = recording_fit
for log2_lambda in (6.0, -3.0):  # 2^6 zeroes every weight: the second step repeats the first
    glmnet_config = make_configuration(glmnet.space(), {"alpha": 0.5, "lambda": log2_lambda})
    print("elastic-net auc", cross_validate(glmnet, glmnet_config, noisy, 4, ("auc",),
                                            seed=0)["auc"])
metadata._ElasticNetLogReg.fit_folds = fit_folds
for model, Xs, ys in fits:
    w, b, _ = elastic_net_descent(Xs, ys, model.alpha, model.lam, [])
    assert model._coef.tobytes() == w.tobytes() and model._intercept.tobytes() == b.tobytes()
assert [model._steps for model, _, _ in fits] == [1, 500]
print("elastic-net descents of", [model._steps for model, _, _ in fits], "steps end as all 500")
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
linear = fit_all_surrogates(meta, "auc", kind="linear")
defaults = compute_defaults(linear, meta.space, RiskTransform("none"), SummarySpec("mean"),
                            OptimizerSpec(mode="random", budget=500))
assert defaults.per_dataset_risk == {d: m.predict(defaults.config) for d, m in linear.items()}
print("linear defaults risk", defaults.per_dataset_risk, "is each single-row predict")
