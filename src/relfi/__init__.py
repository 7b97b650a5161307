"""Relative feature importance for tabular models.

Feature importance measured against an arbitrary conditioning set: the
feature of interest is replaced by a draw from its conditional law given
that set, and the importance is the resulting rise in test risk. The
empty set recovers marginal-resampling (permutation-style) importance;
conditioning on all remaining features recovers conditional importance;
anything in between, including variables the model never saw, is fair
game.
"""

from .core import (
    TEST,
    TRAIN,
    Dataset,
    InvalidPartitionError,
    LossFunction,
    PredictiveModel,
    SchemaError,
    SquaredError,
    check_partition,
    empirical_risk,
    holdout_mask_from_seed,
    load_csv,
    save_csv,
)
from .engine import (
    DeltaRfi,
    EvaluationContext,
    RfiEstimate,
    compute_delta_rfi,
    compute_rfi,
    rfi_profile,
    write_results_csv,
)
from .inference import (
    InsufficientDataError,
    TestResult,
    confidence_interval,
    paired_t_one_sided,
    sign_flip_exact,
)
from .models import FitError, LinearModel, fit_from_dataset, fit_ols, load_model, save_model
from .samplers import (
    CovarianceError,
    GaussianConditionalSampler,
    GaussianJoint,
    conditional_gaussian_params,
    fit_gaussian,
    fit_sampler,
    sampler_factory,
)
from .scm import (
    Edge,
    GraphError,
    ScmGraph,
    analytic_covariance,
    builtin_graph,
    load_graph,
    parse_graph,
    sample_scm,
)

__version__ = "0.1.0"

__all__ = [
    "TEST",
    "TRAIN",
    "Dataset",
    "InvalidPartitionError",
    "LossFunction",
    "PredictiveModel",
    "SchemaError",
    "SquaredError",
    "check_partition",
    "empirical_risk",
    "holdout_mask_from_seed",
    "load_csv",
    "save_csv",
    "DeltaRfi",
    "EvaluationContext",
    "RfiEstimate",
    "compute_delta_rfi",
    "compute_rfi",
    "rfi_profile",
    "write_results_csv",
    "InsufficientDataError",
    "TestResult",
    "confidence_interval",
    "paired_t_one_sided",
    "sign_flip_exact",
    "FitError",
    "LinearModel",
    "fit_from_dataset",
    "fit_ols",
    "load_model",
    "save_model",
    "CovarianceError",
    "GaussianConditionalSampler",
    "GaussianJoint",
    "conditional_gaussian_params",
    "fit_gaussian",
    "fit_sampler",
    "sampler_factory",
    "Edge",
    "GraphError",
    "ScmGraph",
    "analytic_covariance",
    "builtin_graph",
    "load_graph",
    "parse_graph",
    "sample_scm",
    "__version__",
]
