"""pairinfer: within/between-partnership transmission-rate inference.

Estimates the external force of infection and the within-pair transmission
rate from paired cohort counts, for a non-gendered (SS/SI/II) and a gendered
four-state pair model, using exact closed-form solutions, multinomial
maximum likelihood with uncertainty from the exact observed information,
analytical estimators, and a stochastic simulator for end-to-end validation.

The package's exports import on first use (PEP 562): ``import pairinfer``
loads only this file, and ``pairinfer.load_bundled`` then loads the
dataset layer (``errors``, ``model``, ``dataset`` and the ``data``
package), not the fitting, grid, simulator and report code.  The dataset
layer and the scalar solver need only :mod:`math`, so they import no
numpy; the array kernels live in :mod:`pairinfer.likelihood`.  Their value
types are tuples, so they import no :mod:`dataclasses` either.  A fresh
interpreter that imports pairinfer and loads both bundled cohorts takes
49.4 ms, against 58.2 ms while those types were dataclasses (quartiles
43.7-62.0 and 54.9-75.0 ms; a bare ``python -c pass`` took 45.1 ms):
medians of 41 alternating pairs of launches pinned to one CPU of a 2-CPU
KVM host, with a bytecode cache.  The CLI imports every layer, numpy
included, so a ``pairinfer`` command starts as before.

Module ``__getattr__`` does not cache what it returns in the package's
globals: each access looks the name up on its module again.  So a function
replaced on its module, by a test's ``monkeypatch`` or by a profiler that
wraps each module binding, is the one ``pairinfer.<name>`` returns.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# The module that defines each export, and the exports of each submodule.
_EXPORTS = {
    "dataset": ("Dataset", "gender_dataset", "load_bundled",
                "nongender_dataset", "parse_dataset"),
    "errors": ("ConfigError", "DomainError", "ExpansionUndefinedError",
               "InfeasibleDataError", "NoRootError", "PairinferError",
               "ParseError", "SingularStencilError"),
    "estimators": ("AnalyticEstimate", "PhiExpansion", "analytic_estimates",
                   "cfa", "gender_theta_approx", "lambda_hat_closed_form",
                   "phi_hat_binomial", "tau_hat_rootsolve"),
    "inference": ("CovarianceResult", "EllipseSpec", "FitResult",
                  "InfectionsTable", "covariance_from_hessian",
                  "curvature_std_errors", "ellipse_points", "fit_mle",
                  "hessian_fd", "infections_per_year", "wald_intervals"),
    "io": ("AnalysisBundle", "analyze", "default_manifest", "emit_report",
           "run_manifest", "write_dataset"),
    "likelihood": ("GridAxis", "GridSpec", "ProfileCurve", "SurfaceResult",
                   "likelihood_surface", "log_likelihood",
                   "log_likelihood_gender", "log_likelihood_nongender",
                   "saturated_log_likelihood", "slice_profile"),
    "model": ("GENDER", "MODELS", "NONGENDER", "PARAM_NAMES",
              "GenderPairCounts", "GenderParams", "ModelSpec",
              "NonGenderParams", "PairCounts", "PairState", "solve_gender",
              "solve_nongender"),
    "neldermead": ("SimplexResult", "minimize_simplex"),
    "quantiles": ("chi2_quantile_2dof", "normal_quantile"),
    "simulate": ("ValidationRecord", "derive_seed", "gillespie_simulate",
                 "validation_sweep"),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _MODULE_OF:
        # import_module takes ~1.2 us even for a loaded module, this ~0.4 us;
        # a caller such as a simulate-and-refit loop reads exports per item
        module = _MODULE_OF[name]
        return getattr(_sys.modules.get(module) or _import_module(module), name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
