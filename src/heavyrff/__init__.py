"""Random Fourier and orthogonal random features for the Laplacian,
Exponential-power and Matern kernels, with exact evaluators, heavy-tailed
samplers, and a benchmark/regression harness."""

__version__ = "0.1.0"

from .distributions import (GbpParams, StableParams, gbp_cdf, gbp_pdf,
                            sample_chi, sample_gbp, sample_stable_cms,
                            stable_charfn)
from .features import (FeatureMatrix, FeatureOperator, build_orf, build_rff,
                       featurize, gram_approx, load_operator, psi,
                       save_operator)
from .harness import cf_check, rel_error
from .kernels import (EXP_POWER, GAUSSIAN, L1_LAPLACIAN, LAPLACIAN, MATERN,
                      KernelSpec, kernel_matrix, matern_profile)
from .learners import (ExactKernelModel, LinearModel, evaluate,
                       expected_calibration_error, fit_krr_exact,
                       fit_logistic_features, fit_ridge_features, r_squared)
from .multivariate import (HaarBlockMatrix, NotPositiveDefiniteError,
                           ShapeMatrix, sample_ec_stable, sample_mv_cauchy,
                           sample_mv_t, sample_mvn, sqrt_psd)
from .rng import RngStream

__all__ = [name for name in dir() if not name.startswith("_")]
