"""Numeric maximum-likelihood refinement and uncertainty quantification.

Fitting starts with a box-constrained Nelder-Mead simplex with jittered
restarts, the global stage that guards against several optima.  For an
identified design it stops the simplex at a loose tolerance (diameter 1e-5,
spread 1e-6) and finishes with a projected Newton polish on the exact score
and observed information of :func:`likelihood.score_and_information`; each
Newton step backtracks on the value-path objective.  If the polish fails,
the tight simplex runs from the warm start, as for over-parameterised
designs.

The saturated multinomial bound caps every likelihood, so an identified
fit also ends its simplex at the first point within rounding noise of it.
With two observation times the non-gendered MLE attains that bound and has
a closed form (:func:`estimators.two_time_mle`).  Such a fit starts there:
one evaluation meets the bound, and the polish confirms the point with one
information evaluation.  Where the closed form does not apply (SS pairs
that did not decline, a root outside the box), the CFA warm start and the
simplex take over as before.  The covariance of the estimates is the inverse of the observed
information (Efron & Hinkley 1978), the Hessian of the negative
log-likelihood at the estimates; it needs no step into the box's exterior,
so estimates on a bound keep their standard errors.  :func:`hessian_fd`,
the finite-difference Hessian that preceded it, is kept as a test oracle.

One structural caveat drives the interval logic: with k pair states and m
observation times the data carry (k-1)*(m-1) free dimensions.  When the
model has more parameters than that and the fit saturates the multinomial
bound (an exact fit), the maximum is a flat ridge, the joint information is
singular along it, and inverse-information standard errors are
meaningless.  In that case no joint covariance is computed, the reported
intervals fall back to conditional standard errors 1/sqrt(H_ii) (curvature
with the other coordinates held fixed), and the result is flagged.  The gendered model with two observation
times is exactly this case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, InfeasibleDataError, SingularStencilError
from .estimators import cfa, two_time_mle
from .likelihood import (log_likelihood, saturated_log_likelihood,
                         score_and_information)
from .model import (NONGENDER, PARAM_NAMES, PairCounts, model_of, model_spec,
                    params_from_vector)
from .neldermead import minimize_simplex, on_boundary
from .quantiles import chi2_quantile_2dof, normal_quantile

DEFAULT_BOUNDS = (0.0, 10.0)
CONDITION_WARN_THRESHOLD = 1e10
_SATURATION_TOL = 1e-6
_HESS_SHRINK = 0.5
_HESS_MAX_SHRINK = 3
# Identified fits stop the simplex at these looser tolerances (the
# simplex's own are 1e-10 and 1e-12) and finish with a Newton polish.
_LOOSE_DIAMETER = 1e-5
_LOOSE_SPREAD = 1e-6
_POLISH_ITERATIONS = 8
_POLISH_HALVINGS = 20
# The polish stops when the Newton decrement g^T H^-1 g, twice the gain it
# predicts, is below _POLISH_DECREMENT * (1 + |f|).  A step is accepted
# while the objective rises by no more than _POLISH_NOISE * (1 + |f|), the
# rounding noise of a sum of terms n*log(p): the last steps' gains are
# below it, but the exact score still resolves them.
_POLISH_DECREMENT = 1e-20
_POLISH_NOISE = 1e-14


def hessian_fd(objective, point, rel_step=1e-4, min_step=1e-6) -> np.ndarray:
    """Central finite-difference Hessian with per-coordinate steps.

    No fit uses it: standard errors come from the exact information.  It
    stays as an oracle for tests and for objectives without derivatives.

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

    Input that is not positive definite to working precision (an
    eigenvalue at or below dim * eps times the largest) yields a singular
    flag with no covariance; condition numbers above 1e10 produce a warning
    but still invert.
    """
    h = np.asarray(hessian, dtype=float)
    h = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(h)
    if eigvals.min() <= len(eigvals) * np.finfo(float).eps * abs(eigvals).max():
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
    rates = params.as_vector()
    counts = init.as_tuple()
    rows = []
    for label, index, weights in model_of(init, params).routes:
        rate = rates[index]
        exposed = sum(w * c for w, c in zip(weights, counts))
        rows.append(InfectionRow(label, rate, rate * exposed, rate * 1000.0))
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
    condition_number: float | None  # None on a saturated ridge
    condition_warning: bool
    on_boundary: bool
    saturated_gap: float

    @property
    def param_names(self):
        return PARAM_NAMES[self.kind]


def _objective(kind, data):
    """Negative log-likelihood on the value path, +inf where impossible."""
    def objective(vec):
        try:
            # Python floats: the scalar solve is ~20% slower on np.float64
            params = params_from_vector(kind, vec.tolist())
        except DomainError:
            return math.inf
        value = log_likelihood(kind, params, data)
        return math.inf if value == -math.inf else -value
    return objective


def _newton_polish(kind, data, objective, x, f, bounds):
    """Projected Newton iterations on the box from the point (x, f).

    Each iteration takes the exact score and observed information at x.
    A coordinate within the loose simplex's diameter tolerance of a bound,
    with its gradient pointing out of the box, is held: its step takes it
    onto the bound, and the Newton system is solved on the other
    coordinates given that move.  The step is clipped into the box and halved until the
    value-path objective does not rise by more than its rounding noise.
    Returns ``(x, f, information, evaluations)``.  ``information`` is the
    observed information at x once the Newton decrement is negligible, and
    None when the polish failed: the information was not positive definite
    on the free coordinates, no step was accepted, or the iterations ran out.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    evals = 0
    for _ in range(_POLISH_ITERATIONS):
        derivatives = score_and_information(kind, data, x)
        evals += 1
        if derivatives is None:
            return x, f, None, evals
        gradient, information = -derivatives[0], derivatives[1]
        at_lo = (x - lo <= _LOOSE_DIAMETER) & (gradient > 0)
        at_hi = (hi - x <= _LOOSE_DIAMETER) & (gradient < 0)
        free = ~(at_lo | at_hi)
        step = np.where(at_lo, lo - x, np.where(at_hi, hi - x, 0.0))
        rhs = gradient[free] + information[np.ix_(free, ~free)] @ step[~free]
        if rhs.any():
            try:
                chol = np.linalg.cholesky(information[np.ix_(free, free)])
            except np.linalg.LinAlgError:
                return x, f, None, evals
            step[free] = -np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        # twice the gain the quadratic model predicts for the full step
        decrement = -float(2.0 * gradient @ step + step @ information @ step)
        if not math.isfinite(decrement):
            return x, f, None, evals
        if decrement <= _POLISH_DECREMENT * (1.0 + abs(f)):
            return x, f, information, evals
        noise = _POLISH_NOISE * (1.0 + abs(f))
        scale = 1.0
        for _ in range(_POLISH_HALVINGS):
            trial = np.clip(x + scale * step, lo, hi)
            f_trial = objective(trial)
            evals += 1
            if f_trial <= f + noise:
                break
            scale *= 0.5
        else:
            return x, f, None, evals
        x, f = trial, f_trial
    return x, f, None, evals


def _maximize(kind, data, warm_start, bounds, seed, max_evals, polish):
    """The optimizer stage of :func:`fit_mle`.

    Returns ``(x, fun, evaluations, converged, information)``;
    ``information`` is the polish's last one, at ``x``, or None.  For an
    identified design the simplex stops at the first point within rounding
    noise of the saturated bound, which no point can beat.
    """
    objective = _objective(kind, data)
    if not polish:
        result = minimize_simplex(objective, warm_start, bounds, seed=seed,
                                  max_evals=max_evals)
        return result.x, result.fun, result.n_evals, result.converged, None
    saturated = saturated_log_likelihood(data)
    loose = minimize_simplex(objective, warm_start, bounds, seed=seed,
                             max_evals=max_evals,
                             diameter_tol=_LOOSE_DIAMETER,
                             spread_tol=_LOOSE_SPREAD,
                             floor=-saturated + _POLISH_NOISE
                             * (1.0 + abs(saturated)))
    if not (loose.converged and math.isfinite(loose.fun)):
        return loose.x, loose.fun, loose.n_evals, loose.converged, None
    x, f, information, evals = _newton_polish(kind, data, objective, loose.x,
                                              loose.fun, bounds)
    used = loose.n_evals + evals
    if information is not None:
        return x, f, used, True, information
    # the polish failed: the tight simplex runs from the warm start instead
    tight = minimize_simplex(objective, warm_start, bounds, seed=seed,
                             max_evals=max_evals - used)
    if not tight.fun <= loose.fun:  # the budget ran out first
        return loose.x, loose.fun, used + tight.n_evals, False, None
    return tight.x, tight.fun, used + tight.n_evals, tight.converged, None


def _default_warm_start(kind, data, bounds, seed, max_evals, polish):
    if kind == NONGENDER:
        try:
            # clamping negative CFA rates is routine here, not user-visible
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                start, source = np.array(cfa(data).as_vector()), "CFA"
        except DomainError:
            start, source = np.array([1e-3, 1e-3]), "default"
        # an identified two-time fit starts at the MLE itself when the
        # closed form applies; the CFA tau seeds its root solve
        closed = two_time_mle(data, bounds, start[1]) if polish else None
        if closed is not None:
            return np.array(closed), "closed-form"
        return start, source
    # gendered warm start: symmetric split of the non-gendered fit, which
    # polishes only when the gendered fit does
    marginal = Dataset(
        data.times,
        tuple(PairCounts(o.ss, o.is_ + o.si, o.ii) for o in data.observations),
    )
    marginal_bounds = (DEFAULT_BOUNDS, DEFAULT_BOUNDS)
    start, _ = _default_warm_start(NONGENDER, marginal, marginal_bounds, seed,
                                   max_evals, polish)
    (lam, tau), fun = _maximize(NONGENDER, marginal,
                                np.clip(start, *DEFAULT_BOUNDS),
                                marginal_bounds, seed, max_evals, polish)[:2]
    if not math.isfinite(fun):
        raise InfeasibleDataError(
            "every optimizer start produced impossible data (-inf likelihood)")
    return np.array([lam, lam, tau, tau]), "symmetric-nongender"


def fit_mle(kind, data: Dataset, warm_start=None, warm_start_source="user",
            bounds=None, seed=0, levels=(0.95,), max_evals=50_000,
            uncertainty=True) -> FitResult:
    """Maximize the model log-likelihood with jittered simplex restarts.

    The warm start defaults to the closed-form MLE of an identified
    two-time non-gendered design, else the CFA (non-gendered) or a
    symmetric split of the non-gendered fit (gendered); explicit warm
    starts are clipped into the bounds.  Deterministic for a fixed seed.  ``uncertainty=False``
    skips the covariance stage (used by bulk recovery sweeps, which record
    point estimates only).

    Identified designs stop the simplex at a loose tolerance, or at the
    first point on the saturated bound, and finish with a projected Newton
    polish; if the polish fails, the tight simplex runs from the warm
    start.  Over-parameterised designs (more rates than
    the data's free dimensions) run the tight simplex alone, since their
    maximum is a ridge with no Newton step.  ``iterations`` counts the
    likelihood evaluations of the optimizer, one per score-and-information
    evaluation of the polish included.
    """
    spec = model_spec(kind)
    if data.kind != kind:
        raise DomainError(f"dataset kind {data.kind!r} does not match {kind!r}")
    dim = len(spec.param_names)
    if bounds is None:
        bounds = tuple(DEFAULT_BOUNDS for _ in range(dim))
    free_dims = (len(spec.state_labels) - 1) * (len(data.times) - 1)
    identified = dim <= free_dims
    if warm_start is None:
        warm_start, warm_start_source = _default_warm_start(
            kind, data, bounds, seed, max_evals, identified)
    warm_start = np.clip(np.asarray(warm_start, dtype=float),
                         [b[0] for b in bounds], [b[1] for b in bounds])

    estimates, fun, n_evals, converged, information = _maximize(
        kind, data, warm_start, bounds, seed, max_evals, identified)
    if not math.isfinite(fun):
        raise InfeasibleDataError(
            "every optimizer start produced impossible data (-inf likelihood)")
    loglik_max = -fun

    saturated = saturated_log_likelihood(data)
    gap = saturated - loglik_max
    ridge = not identified and gap < _SATURATION_TOL

    hessian = None
    cov_result = CovarianceResult(None, None, False, math.inf, False)
    conditional = np.full(dim, np.nan)
    if uncertainty:
        if information is None:
            derivatives = score_and_information(kind, data, estimates)
            information = None if derivatives is None else derivatives[1]
        if information is not None and np.isfinite(information).all():
            hessian = information
            if not ridge:
                # singular along a ridge by construction, so its inverse,
                # joint errors and condition number are set by rounding
                cov_result = covariance_from_hessian(hessian)
            conditional = curvature_std_errors(hessian)

    if hessian is None:
        se_used = None
        se_method = "unavailable"
        identifiability = ("not-computed" if not uncertainty
                           else "information-not-finite")
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
        converged=converged,
        iterations=n_evals,
        warm_start=warm_start,
        warm_start_source=warm_start_source,
        bounds=tuple(tuple(b) for b in bounds),
        seed=seed,
        identifiability=identifiability,
        hessian_positive_definite=cov_result.positive_definite,
        condition_number=None if ridge else cov_result.condition_number,
        condition_warning=cov_result.condition_warning,
        on_boundary=on_boundary(estimates, bounds),
        saturated_gap=gap,
    )
