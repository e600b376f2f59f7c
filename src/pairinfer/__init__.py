"""pairinfer: within/between-partnership transmission-rate inference.

Estimates the external force of infection and the within-pair transmission
rate from paired cohort counts, for a non-gendered (SS/SI/II) and a gendered
four-state pair model, using exact closed-form solutions, multinomial
maximum likelihood with uncertainty from the exact observed information,
analytical estimators, and a stochastic simulator for end-to-end validation.
"""

from .dataset import Dataset, gender_dataset, nongender_dataset
from .errors import (ConfigError, DomainError, ExpansionUndefinedError,
                     InfeasibleDataError, InternalConsistencyError,
                     NoRootError, PairinferError, ParseError,
                     SingularStencilError)
from .estimators import (AnalyticEstimate, PhiExpansion, analytic_estimates,
                         cfa, gender_theta_approx, lambda_hat_closed_form,
                         phi_hat_binomial, tau_hat_rootsolve)
from .inference import (CovarianceResult, EllipseSpec, FitResult,
                        InfectionsTable, covariance_from_hessian,
                        curvature_std_errors, ellipse_points, fit_mle,
                        hessian_fd, infections_per_year, wald_intervals)
from .io import (AnalysisBundle, analyze, default_manifest, emit_report,
                 load_bundled, parse_dataset, run_manifest, write_dataset)
from .likelihood import (GridAxis, GridSpec, ProfileCurve, SurfaceResult,
                         likelihood_surface, log_likelihood,
                         log_likelihood_batch, log_likelihood_gender,
                         log_likelihood_nongender, saturated_log_likelihood,
                         slice_profile)
from .model import (GENDER, MODELS, NONGENDER, PARAM_NAMES, GenderPairCounts,
                    GenderPairState, GenderParams, ModelSpec, NonGenderParams,
                    PairCounts, PairState, solve_gender, solve_nongender)
from .neldermead import SimplexResult, minimize_simplex
from .quantiles import chi2_quantile_2dof, normal_quantile
from .simulate import (ValidationRecord, derive_seed, gillespie_simulate,
                       validation_sweep)

__version__ = "0.1.0"
