"""smootherlab: regression models as smoothers, and what that measures.

Linear fits, best-first trees, boosted trees and k-nearest-neighbor models
all expose the weight vector s(x0) with f(x0) = s(x0) . y_train through one
protocol (n_train, weight_matrix, predict, train_predictions); generalized
effective-parameter counts built from those weights make interpolation-driven
double descent and its classical U-shaped cross sections measurable on the
same axis.
"""
from .boosting import BoostedModel, fit_boost, fit_boost_ensemble
from .dataset import (
    Dataset,
    SyntheticSpec,
    load_csv,
    load_idx,
    normalize_minmax,
    one_vs_all_targets,
    subsample,
    synth_generate,
    synth_images,
)
from .effparams import (
    EffParamsReport,
    generalized_eff_params,
    hessian_proxy_eff_params,
    p_eff,
    train_eff_params_classical,
    write_effparams_csv,
)
from .errors import (
    FormatError,
    PreconditionError,
    ScheduleError,
    SingularDesignError,
    ValidationError,
)
from .knn import KnnSmoother, fit_knn
from .linear import (
    LinearFit,
    PcrSmoother,
    fit_minnorm,
    fit_ols,
    fit_pcr,
    fit_svd_basis,
    pcr_smoother,
)
from .rff import RffMap, RffModel, sample_frequencies, transform
from .trees import AveragedSmoother, RegressionTree, fit_ensemble, fit_tree

__version__ = "0.1.0"

__all__ = [
    "AveragedSmoother",
    "BoostedModel",
    "Dataset",
    "EffParamsReport",
    "FormatError",
    "KnnSmoother",
    "LinearFit",
    "PcrSmoother",
    "PreconditionError",
    "RegressionTree",
    "RffMap",
    "RffModel",
    "ScheduleError",
    "SingularDesignError",
    "SyntheticSpec",
    "ValidationError",
    "__version__",
    "fit_boost",
    "fit_boost_ensemble",
    "fit_ensemble",
    "fit_knn",
    "fit_minnorm",
    "fit_ols",
    "fit_pcr",
    "fit_svd_basis",
    "fit_tree",
    "generalized_eff_params",
    "hessian_proxy_eff_params",
    "load_csv",
    "load_idx",
    "normalize_minmax",
    "one_vs_all_targets",
    "p_eff",
    "pcr_smoother",
    "sample_frequencies",
    "subsample",
    "synth_generate",
    "synth_images",
    "train_eff_params_classical",
    "transform",
    "write_effparams_csv",
]
