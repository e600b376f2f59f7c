"""The package's public surface: every export imports on first use, and
no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import pairinfer

# Each public name and the module it has always been imported from.
SURFACE = {
    "dataset": ("Dataset", "gender_dataset", "nongender_dataset"),
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
           "load_bundled", "parse_dataset", "run_manifest", "write_dataset"),
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
NAMES = {name for names in SURFACE.values() for name in names}


def test_every_export_resolves_to_its_module():
    assert len(NAMES) == 68 and len(SURFACE) == 10
    for module_name, names in SURFACE.items():
        module = importlib.import_module(f"pairinfer.{module_name}")
        assert getattr(pairinfer, module_name) is module
        for name in names:
            assert getattr(pairinfer, name) is getattr(module, name), name


def test_star_import_and_dir_list_the_surface():
    namespace = {}
    exec("from pairinfer import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == NAMES | set(SURFACE)
    assert sorted(pairinfer.__all__) == sorted(namespace)
    public = {name for name in dir(pairinfer) if not name.startswith("_")}
    assert public >= NAMES | set(SURFACE)
    assert "__version__" in dir(pairinfer)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit'"):
        pairinfer.fit
    assert not hasattr(pairinfer, "_read_bundled")


def test_exports_are_looked_up_on_every_access(monkeypatch):
    # a profiler wraps module bindings once; the package must not hold a
    # stale copy of the function it replaced
    def sweep(*args, **kwargs):
        return []

    monkeypatch.setattr(pairinfer.simulate, "validation_sweep", sweep)
    assert pairinfer.validation_sweep is sweep
    assert "validation_sweep" not in vars(pairinfer)


def _unused_imports(path):
    """The names the module at ``path`` imports and never loads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - loaded


def test_no_module_imports_a_name_it_never_uses():
    paths = [*Path(pairinfer.__file__).parent.glob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    assert len(paths) > 20
    unused = sorted(f"{path.name}: {name}" for path in paths
                    for name in _unused_imports(path))
    assert not unused
