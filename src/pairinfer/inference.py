"""Numeric maximum-likelihood refinement and uncertainty quantification.

Fitting is derivative-free (box-constrained Nelder-Mead) since the problem
dimension is at most four and finite-difference Hessians are needed anyway.
The covariance of the estimates is the inverse of the finite-difference
Hessian of the negative log-likelihood.

One structural caveat drives the interval logic: with k pair states and m
observation times the data carry (k-1)*(m-1) free dimensions.  When the
model has more parameters than that and the fit saturates the multinomial
bound (an exact fit), the maximum is a flat ridge, the joint Hessian is
rank-deficient along it, and inverse-Hessian standard errors are
meaningless.  In that case the reported intervals fall back to conditional
standard errors 1/sqrt(H_ii) (curvature with the other coordinates held
fixed), and the result is flagged.  The gendered model with two observation
times is exactly this case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (ConfigError, DomainError, InfeasibleDataError,
                     SingularStencilError)
from .estimators import cfa
from .likelihood import log_likelihood, saturated_log_likelihood
from .model import (NONGENDER, PARAM_NAMES, GenderPairCounts, GenderParams,
                    NonGenderParams, PairCounts, params_from_vector)
from .neldermead import minimize_simplex
from .quantiles import chi2_quantile_2dof, normal_quantile

DEFAULT_BOUNDS = (0.0, 10.0)
CONDITION_WARN_THRESHOLD = 1e10
_SATURATION_TOL = 1e-6
_HESS_SHRINK = 0.5
_HESS_MAX_SHRINK = 3


def hessian_fd(objective, point, rel_step=1e-4, min_step=1e-6) -> np.ndarray:
    """Central finite-difference Hessian with per-coordinate steps.

    Steps are h_i = max(min_step, rel_step*|x_i|); off-diagonals use the
    four-point cross stencil and the result is symmetrized.  If a stencil
    point is non-finite the steps involved shrink (up to three times) before
    a SingularStencilError is raised.
    """
    x = np.asarray(point, dtype=float)
    dim = x.size
    f0 = float(objective(x))
    if not math.isfinite(f0):
        raise SingularStencilError("objective not finite at the expansion point")
    base = np.maximum(min_step, rel_step * np.abs(x))
    hess = np.empty((dim, dim))

    def stencil(offsets, steps):
        for _ in range(_HESS_MAX_SHRINK + 1):
            pts = [x + np.asarray(o) * steps for o in offsets]
            vals = [float(objective(p)) for p in pts]
            if all(math.isfinite(v) for v in vals):
                return vals, steps
            steps = steps * _HESS_SHRINK
        raise SingularStencilError(
            "stencil hit non-finite objective values after step shrinking")

    for i in range(dim):
        e_i = np.zeros(dim)
        e_i[i] = 1.0
        (f_plus, f_minus), h = stencil([e_i, -e_i], base.copy())
        hess[i, i] = (f_plus + f_minus - 2.0 * f0) / h[i] ** 2
        for j in range(i + 1, dim):
            e_j = np.zeros(dim)
            e_j[j] = 1.0
            offs = [e_i + e_j, -e_i - e_j, e_i - e_j, -e_i + e_j]
            (fpp, fmm, fpm, fmp), h = stencil(offs, base.copy())
            hess[i, j] = hess[j, i] = (fpp + fmm - fpm - fmp) / (4.0 * h[i] * h[j])
    return (hess + hess.T) / 2.0


@dataclass
class CovarianceResult:
    covariance: np.ndarray | None
    std_errors: np.ndarray | None
    positive_definite: bool
    condition_number: float
    condition_warning: bool


def covariance_from_hessian(hessian) -> CovarianceResult:
    """Invert a negative-log-likelihood Hessian into a covariance matrix.

    Non-positive-definite input yields a singular flag with no covariance;
    condition numbers above 1e10 produce a warning but still invert.
    """
    h = np.asarray(hessian, dtype=float)
    h = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(h)
    if eigvals.min() <= 0.0:
        cond = math.inf if eigvals.min() == 0 else float(
            abs(eigvals).max() / abs(eigvals).min())
        return CovarianceResult(None, None, False, cond, False)
    cond = float(eigvals.max() / eigvals.min())
    warn = cond > CONDITION_WARN_THRESHOLD
    if warn:
        warnings.warn(f"covariance inversion is ill-conditioned "
                      f"(condition number {cond:.3g})", stacklevel=2)
    cov = (eigvecs / eigvals) @ eigvecs.T
    cov = (cov + cov.T) / 2.0
    return CovarianceResult(cov, np.sqrt(np.diag(cov)), True, cond, warn)


def curvature_std_errors(hessian) -> np.ndarray:
    """Conditional standard errors 1/sqrt(H_ii), others held fixed.

    These understate joint uncertainty for correlated parameters but remain
    finite on an exact-fit ridge where the full inverse does not.
    """
    diag = np.diag(np.asarray(hessian, dtype=float))
    out = np.full(diag.shape, np.nan)
    positive = diag > 0
    out[positive] = 1.0 / np.sqrt(diag[positive])
    return out


def wald_intervals(estimates, std_errors, level):
    """Per-parameter estimate +/- z(level)*sigma, truncated below at 0."""
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    z = normal_quantile(0.5 * (1.0 + level))
    out = []
    for est, se in zip(estimates, std_errors):
        if se is None or not math.isfinite(se):
            out.append(None)
        else:
            out.append((max(est - z * se, 0.0), est + z * se))
    return out


@dataclass(frozen=True)
class EllipseSpec:
    """A bivariate normal confidence contour."""

    mean: tuple
    covariance: tuple
    level: float
    n_points: int = 128

    def __post_init__(self):
        if len(self.mean) != 2:
            raise DomainError("ellipse mean must be 2-dimensional")
        if not 0.0 < self.level < 1.0:
            raise DomainError("ellipse level must lie in (0, 1)")
        if self.n_points < 8:
            raise DomainError("ellipse needs at least 8 points")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (2, 2):
            raise DomainError("ellipse covariance must be 2x2")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * max(1.0, abs(cov[0, 1])):
            raise DomainError("ellipse covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise DomainError("ellipse covariance must be positive definite")


def ellipse_points(spec: EllipseSpec, clip=True) -> np.ndarray:
    """Ordered points on the chi-square(2) contour at ``spec.level``.

    Points satisfy (x - mu)^T Sigma^-1 (x - mu) = c exactly; with ``clip``
    they are truncated at coordinate 0, matching the interval convention.
    """
    cov = np.asarray(spec.covariance, dtype=float)
    c = chi2_quantile_2dof(spec.level)
    chol = np.linalg.cholesky(cov)
    angles = 2.0 * np.pi * np.arange(spec.n_points) / spec.n_points
    circle = np.stack([np.cos(angles), np.sin(angles)])
    pts = np.asarray(spec.mean, dtype=float)[:, None] + math.sqrt(c) * (chol @ circle)
    pts = pts.T
    if clip:
        pts = np.maximum(pts, 0.0)
    return pts


@dataclass
class InfectionRow:
    label: str
    rate: float
    infections: float
    per_thousand: float


@dataclass
class InfectionsTable:
    """Annual infection decomposition by route.

    ``total_per_thousand`` sums per-route rates over different denominators
    (susceptibles at large vs discordant-pair susceptibles) and is therefore
    flagged as denominator-inconsistent; it is reproduced for comparison
    with previously published tables.
    """

    rows: list
    total_infections: float
    total_per_thousand: float
    per_thousand_total_inconsistent: bool = True


def infections_per_year(params, init) -> InfectionsTable:
    """Expected new infections per year from each route at state ``init``."""
    if isinstance(params, NonGenderParams) and isinstance(init, PairCounts):
        rows = [
            InfectionRow("external", params.lam,
                         params.lam * (2.0 * init.ss + init.si),
                         params.lam * 1000.0),
            InfectionRow("internal", params.tau,
                         params.tau * init.si,
                         params.tau * 1000.0),
        ]
    elif isinstance(params, GenderParams) and isinstance(init, GenderPairCounts):
        rows = [
            InfectionRow("external_m", params.lam_m,
                         params.lam_m * (init.ss + init.si),
                         params.lam_m * 1000.0),
            InfectionRow("external_f", params.lam_f,
                         params.lam_f * (init.ss + init.is_),
                         params.lam_f * 1000.0),
            InfectionRow("internal_mf", params.tau_mf,
                         params.tau_mf * init.is_,
                         params.tau_mf * 1000.0),
            InfectionRow("internal_fm", params.tau_fm,
                         params.tau_fm * init.si,
                         params.tau_fm * 1000.0),
        ]
    else:
        raise DomainError("params and init must belong to the same model kind")
    return InfectionsTable(
        rows=rows,
        total_infections=sum(r.infections for r in rows),
        total_per_thousand=sum(r.per_thousand for r in rows),
    )


@dataclass
class FitResult:
    """Outcome of a maximum-likelihood fit with uncertainty diagnostics."""

    kind: str
    estimates: np.ndarray
    params: object
    loglik_at_max: float
    hessian: np.ndarray
    covariance: np.ndarray | None
    std_errors: np.ndarray | None
    std_errors_joint: np.ndarray | None
    std_errors_conditional: np.ndarray
    se_method: str
    intervals: dict
    converged: bool
    iterations: int
    warm_start: np.ndarray
    warm_start_source: str
    bounds: tuple
    seed: int
    identifiability: str
    hessian_positive_definite: bool
    condition_number: float
    condition_warning: bool
    on_boundary: bool
    saturated_gap: float

    @property
    def param_names(self):
        return PARAM_NAMES[self.kind]


def _default_warm_start(kind, data, seed, bounds, max_evals):
    if kind == NONGENDER:
        try:
            # clamping negative CFA rates is routine here, not user-visible
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                start = cfa(data)
            return np.array(start.as_vector()), "CFA"
        except DomainError:
            return np.array([1e-3, 1e-3]), "default"
    # gendered warm start: symmetric split of the non-gendered fit
    marginal = Dataset(
        data.times,
        tuple(PairCounts(o.ss, o.is_ + o.si, o.ii) for o in data.observations),
    )
    base = fit_mle(NONGENDER, marginal, seed=seed, max_evals=max_evals,
                   uncertainty=False)
    lam, tau = base.estimates
    return np.array([lam, lam, tau, tau]), "symmetric-nongender"


def fit_mle(kind, data: Dataset, warm_start=None, warm_start_source="user",
            bounds=None, seed=0, levels=(0.95,), max_evals=50_000,
            uncertainty=True) -> FitResult:
    """Maximize the model log-likelihood with jittered simplex restarts.

    The warm start defaults to the CFA (non-gendered) or a symmetric split
    of the non-gendered fit (gendered); explicit warm starts are clipped
    into the bounds.  Deterministic for a fixed seed.  ``uncertainty=False``
    skips the Hessian/covariance stage (used by bulk recovery sweeps, which
    record point estimates only); a stencil failure at a boundary estimate
    degrades to absent uncertainty rather than an error.
    """
    if kind not in PARAM_NAMES:
        raise ConfigError(f"unknown model kind {kind!r}")
    if data.kind != kind:
        raise DomainError(f"dataset kind {data.kind!r} does not match {kind!r}")
    dim = len(PARAM_NAMES[kind])
    if bounds is None:
        bounds = tuple(DEFAULT_BOUNDS for _ in range(dim))
    if warm_start is None:
        warm_start, warm_start_source = _default_warm_start(
            kind, data, seed, bounds, max_evals)
    warm_start = np.clip(np.asarray(warm_start, dtype=float),
                         [b[0] for b in bounds], [b[1] for b in bounds])

    def objective(vec):
        try:
            # Python floats: the scalar solve is ~20% slower on np.float64
            params = params_from_vector(kind, vec.tolist())
        except DomainError:
            return math.inf
        value = log_likelihood(kind, params, data)
        return math.inf if value == -math.inf else -value

    result = minimize_simplex(objective, warm_start, bounds, seed=seed,
                              max_evals=max_evals)
    if not math.isfinite(result.fun):
        raise InfeasibleDataError(
            "every optimizer start produced impossible data (-inf likelihood)")
    estimates = result.x
    loglik_max = -result.fun

    saturated = saturated_log_likelihood(data)
    gap = saturated - loglik_max
    n_states = 3 if kind == NONGENDER else 4
    free_dims = (n_states - 1) * (len(data.times) - 1)
    ridge = dim > free_dims and gap < _SATURATION_TOL

    hessian = None
    cov_result = CovarianceResult(None, None, False, math.inf, False)
    conditional = np.full(dim, np.nan)
    if uncertainty:
        try:
            hessian = hessian_fd(objective, estimates)
        except SingularStencilError:
            hessian = None
        if hessian is not None:
            cov_result = covariance_from_hessian(hessian)
            conditional = curvature_std_errors(hessian)

    if hessian is None:
        se_used = None
        se_method = "unavailable"
        identifiability = ("not-computed" if not uncertainty
                           else "boundary-stencil")
    elif ridge:
        se_used = conditional
        se_method = "conditional-curvature"
        identifiability = "saturated-ridge"
    elif cov_result.positive_definite:
        se_used = cov_result.std_errors
        se_method = "joint-covariance"
        identifiability = "ok"
    else:
        se_used = None
        se_method = "unavailable"
        identifiability = "singular-hessian"

    intervals = {}
    for level in levels:
        if se_used is None:
            intervals[level] = [None] * dim
        else:
            intervals[level] = wald_intervals(estimates, se_used, level)

    return FitResult(
        kind=kind,
        estimates=estimates,
        params=params_from_vector(kind, estimates),
        loglik_at_max=loglik_max,
        hessian=hessian,
        covariance=cov_result.covariance,
        std_errors=se_used,
        std_errors_joint=cov_result.std_errors,
        std_errors_conditional=conditional,
        se_method=se_method,
        intervals=intervals,
        converged=result.converged,
        iterations=result.n_evals,
        warm_start=warm_start,
        warm_start_source=warm_start_source,
        bounds=tuple(tuple(b) for b in bounds),
        seed=seed,
        identifiability=identifiability,
        hessian_positive_definite=cov_result.positive_definite,
        condition_number=cov_result.condition_number,
        condition_warning=cov_result.condition_warning,
        on_boundary=result.on_boundary,
        saturated_gap=gap,
    )
