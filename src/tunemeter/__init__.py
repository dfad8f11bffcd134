"""tunemeter: quantify what hyperparameter tuning is worth.

Fits per-dataset surrogate performance models from experiment logs, then
computes optimal default configurations, tunability scores for whole
algorithms, single parameters and parameter pairs, joint gains, and
data-driven tuning ranges.
"""

from .hyperspace import (
    BUNDLED_ALGORITHMS,
    Condition,
    Configuration,
    DatasetInfo,
    ParamDef,
    SearchSpace,
    SpaceError,
    apply_trafo,
    bundled_package_defaults,
    bundled_space,
    effective_values,
    make_configuration,
    parse_space,
    sample_configuration,
    serialize_space,
    validate_configuration,
)
from .metrics import (
    MeasureSpec,
    RiskTransform,
    SummarySpec,
    accuracy,
    auc,
    brier,
    kendall_tau,
    r_squared,
    to_risk,
)

__version__ = "0.1.0"
