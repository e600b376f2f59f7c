"""Numeric maximum-likelihood refinement and uncertainty quantification.

A fit climbs in three stages:

1. **Closed form.**  With two observation times the MLE attains the
   saturated multinomial bound and has a closed form
   (:func:`estimators.two_time_mle`).  The non-gendered one is a point,
   where the fit starts; with three or more times the closed form of the
   first and last observations is the start.  The gendered one is a
   segment, the exact ridge of an over-parameterised design, and the fit
   starts at its lambda_m midpoint.  Other gendered fits start at the
   symmetric split of the marginal non-gendered start: of its closed form,
   where that applies.
2. **Newton climb.**  A fit's first evaluation is its warm start's, and a
   start within rounding noise of the saturated bound, the floor
   ``1e-14 * (1 + |bound|)`` above it, ends the fit there: no point can
   beat it, so no climb need confirm it.  A closed-form two-time start reproduces every
   count at T, so it meets the floor (all 185 of the benchmark's cohort
   files of seeds 1, 3 and 7, sets 0-7, did), and its fit takes that one
   evaluation.  Other starts climb by projected Newton steps on the exact
   score and observed information of
   :func:`likelihood.score_and_information` (Bertsekas 1982), or on the
   expected information where the observed one is not positive definite on
   the free coordinates (Fisher scoring, Osborne 1992); each step
   backtracks on the value-path objective.  With three or more times the
   climb runs from the warm start and from each of its corners (one rate on
   its lower bound), since sparse or depleted cohorts can have several
   local maxima.  A corner's climb ends, unconverged, once its Newton
   step lands on the best maximum already converged, where it could not
   win; the best converged point climbs on to a tight tolerance from the
   derivatives its climb ended with.  With two times a
   box-constrained Nelder-Mead simplex runs on from the first evaluation to
   a loose tolerance (diameter 1e-5, spread 1e-6), or to the first point on
   the floor, and the climb runs from its point.  The last climb's observed
   information gives the standard errors, and a climb that ends on the
   floor has reached the maximum.  A step solves a system of at most four
   rows, so it runs on Python floats (a Cholesky factor and two
   substitutions), where numpy's call overhead outweighed the arithmetic:
   8.5 against 31.7 us per step on a gendered information, 4.5 against
   30.6 us on a non-gendered one (timeit on one pinned CPU).
3. **Simplex.**  Where the climb fails (a non-finite value, no descent, no
   positive definite information) off the floor, the tight simplex, with
   jittered restarts, runs from the warm start.  Like the loose one, it
   stops at the first point on the floor.

An over-parameterised design (the gendered model with two times) has a
ridge, not a point, where the bound is reached.  Its closed-form ridge
start lies on the floor, so the fit takes one evaluation, where the
simplex search took 189 on the bundled cohort.  Where no rates reproduce
the counts the maximum lies on a face of the box, with both tau on 0 in
every case seen, where the free rates are identified, and the fit climbs
as one with three or more times does: 24-34 evaluations on such cohorts
of the benchmark, where the simplex took 1,849-2,747.  A fit runs these
stages once, and all of them draw on one evaluation budget, which no fit
passes.
The covariance of the estimates is the inverse of the observed
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
from .model import (NONGENDER, PairCounts, model_of, model_spec,
                    params_from_vector)
from .neldermead import DEFAULT_MAX_EVALS, minimize_simplex
from .quantiles import chi2_quantile_2dof, normal_quantile

DEFAULT_BOUNDS = (0.0, 10.0)
CONDITION_WARN_THRESHOLD = 1e10
_SATURATION_TOL = 1e-6
_HESS_REL_STEP = 1e-4
_HESS_MIN_STEP = 1e-6
_HESS_SHRINK = 0.5
_HESS_MAX_SHRINK = 3
_ELLIPSE_POINTS = 128
# Two-time identified fits stop the simplex at these looser tolerances
# (the simplex's own are 1e-10 and 1e-12) and finish with a Newton climb.
_LOOSE_DIAMETER = 1e-5
_LOOSE_SPREAD = 1e-6
# A Newton climb takes at most _NEWTON_ITERATIONS steps and halves each at
# most _NEWTON_HALVINGS times: far from the maximum a step can overshoot by
# orders of magnitude.  A step is accepted while the objective rises by no
# more than _NOISE * (1 + |f|), the rounding noise of a sum of terms
# n*log(p): the last steps' gains are below it, but the exact score still
# resolves them.
_NEWTON_ITERATIONS = 50
_NEWTON_HALVINGS = 30
_NOISE = 1e-14
# A climb stops when the Newton decrement g^T H^-1 g, twice the gain it
# predicts, is below a tolerance times (1 + |f|): _HANDOVER_DECREMENT for
# the climbs from the starts, _POLISH_DECREMENT for the last climb, which
# gives the standard errors.  The decrement is s^T H s for the step s
# left, so where H is ill-conditioned a small one can leave a long step
# along its weak direction: on a gendered four-time cohort with condition
# number 1e6, 1e-20 left a step of 1.6e-8 of the largest estimate, 1e-22
# one of 1.7e-13.  It also stops where the decrement is below
# _ROUNDING * (1 + |f| + N), an ulp of f and of the pair total N, and the
# objective rejects the full step: no value can confirm a gain below the
# value path's rounding, so halving would only follow its noise.  That
# noise grows with N, not only with |f|: P_II = N - P_SS - P_SI carries
# ulps of N, and its count multiplies its log.
_HANDOVER_DECREMENT = 1e-10
_POLISH_DECREMENT = 1e-22
_ROUNDING = 2.0 ** -52
# A corner's climb ends, unconverged, once its log-likelihood is no higher
# than that of the best maximum found so far, x*, and its step lands within
# (y - x*)^T I* (y - x*) <= _FOUND_RADIUS of x*, in the metric of the
# observed information I* there: such a climb is bound for x*, which it
# cannot beat (Rinnooy Kan & Timmer 1987).  The test is on the step's
# target, not on the climb's point: a corner that wins can pass within
# 0.1 of x* on its way.
_FOUND_RADIUS = 1e-2


def hessian_fd(objective, point) -> np.ndarray:
    """Central finite-difference Hessian with per-coordinate steps.

    No fit uses it: standard errors come from the exact information.  It
    stays as an oracle for tests and for objectives without derivatives.

    Steps are h_i = max(1e-6, 1e-4*|x_i|); off-diagonals use the
    four-point cross stencil and the result is symmetrized.  If a stencil
    point is non-finite the steps involved shrink (up to three times) before
    a SingularStencilError is raised.
    """
    x = np.asarray(point, dtype=float)
    dim = x.size
    f0 = float(objective(x))
    if not math.isfinite(f0):
        raise SingularStencilError("objective not finite at the expansion point")
    base = np.maximum(_HESS_MIN_STEP, _HESS_REL_STEP * np.abs(x))
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
    condition_number: float


def covariance_from_hessian(hessian) -> CovarianceResult:
    """Invert a negative-log-likelihood Hessian into a covariance matrix.

    Input that is not positive definite to working precision (an
    eigenvalue at or below dim * eps times the largest) yields no
    covariance and no standard errors; condition numbers above
    ``CONDITION_WARN_THRESHOLD`` produce a warning but still invert.
    """
    h = np.asarray(hessian, dtype=float)
    h = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(h)
    if eigvals.min() <= len(eigvals) * np.finfo(float).eps * abs(eigvals).max():
        smallest = abs(eigvals).min()
        cond = math.inf if smallest == 0 else float(abs(eigvals).max() / smallest)
        return CovarianceResult(None, None, cond)
    cond = float(eigvals.max() / eigvals.min())
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(f"covariance inversion is ill-conditioned "
                      f"(condition number {cond:.3g})", stacklevel=2)
    cov = (eigvecs / eigvals) @ eigvecs.T
    cov = (cov + cov.T) / 2.0
    return CovarianceResult(cov, np.sqrt(np.diag(cov)), cond)


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

    def __post_init__(self):
        if len(self.mean) != 2:
            raise DomainError("ellipse mean must be 2-dimensional")
        if not 0.0 < self.level < 1.0:
            raise DomainError("ellipse level must lie in (0, 1)")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (2, 2):
            raise DomainError("ellipse covariance must be 2x2")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * max(1.0, abs(cov[0, 1])):
            raise DomainError("ellipse covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise DomainError("ellipse covariance must be positive definite")


def ellipse_points(spec: EllipseSpec) -> np.ndarray:
    """128 ordered points on the chi-square(2) contour at ``spec.level``.

    Points satisfy (x - mu)^T Sigma^-1 (x - mu) = c exactly, then are
    truncated at coordinate 0, matching the interval convention.
    """
    cov = np.asarray(spec.covariance, dtype=float)
    c = chi2_quantile_2dof(spec.level)
    chol = np.linalg.cholesky(cov)
    angles = 2.0 * np.pi * np.arange(_ELLIPSE_POINTS) / _ELLIPSE_POINTS
    circle = np.stack([np.cos(angles), np.sin(angles)])
    pts = np.asarray(spec.mean, dtype=float)[:, None] + math.sqrt(c) * (chol @ circle)
    return np.maximum(pts.T, 0.0)


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
    denominator-inconsistent, as ``summary.json`` always flags it; it is
    reproduced for comparison with previously published tables.
    """

    rows: list
    total_infections: float
    total_per_thousand: float


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

    estimates: np.ndarray
    params: object
    loglik_at_max: float
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
    condition_number: float | None  # None on a saturated ridge
    saturated_gap: float
    ridge_ends: tuple | None = None  # (low, high) of a closed-form ridge


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


def _floor(data):
    """The objective's floor: the negative saturated bound plus its
    rounding noise, ``_NOISE * (1 + |bound|)``.  No point lies below it."""
    saturated = saturated_log_likelihood(data)
    return -saturated + _NOISE * (1.0 + abs(saturated))


def _newton_step(x, gradient, information, lo, hi, to_lo, to_hi):
    """The Newton step with the ``to_lo`` and ``to_hi`` coordinates moved
    onto those bounds and the system solved on the rest given that move.

    Returns None where the information is not positive definite on the
    rest.  The blocks have at most four rows, so the solve runs on Python
    floats: the Cholesky factor of the free block, whose pivots test its
    positive definiteness, then two triangular substitutions.
    """
    down, up = to_lo.tolist(), to_hi.tolist()
    rows = information.tolist()
    rhs = gradient.tolist()
    step = [0.0] * len(rhs)
    free = [i for i in range(len(rhs)) if not (down[i] or up[i])]
    if len(free) < len(rhs):
        held = [j for j in range(len(rhs)) if down[j] or up[j]]
        for j in held:
            step[j] = float(lo[j] - x[j] if down[j] else hi[j] - x[j])
        rhs = [rhs[i] + sum([rows[i][j] * step[j] for j in held])
               for i in free]
    if any(rhs):
        # L L^T = the free block, row by row; a pivot that is not positive
        # (or is nan) means the block is not positive definite
        chol = []
        for a, i in enumerate(free):
            row = [rows[i][j] for j in free[:a + 1]]
            for b, above in enumerate(chol):
                for m in range(b):
                    row[b] -= row[m] * above[m]
                row[b] /= above[b]
                row[a] -= row[b] * row[b]
            if not row[a] > 0.0:
                return None
            row[a] = math.sqrt(row[a])
            chol.append(row)
        # L y = rhs, then L^T z = y in place; the step is -z
        for a, row in enumerate(chol):
            for m in range(a):
                rhs[a] -= row[m] * rhs[m]
            rhs[a] /= row[a]
        for a in reversed(range(len(free))):
            for m in range(a + 1, len(free)):
                rhs[a] -= chol[m][a] * rhs[m]
            rhs[a] /= chol[a][a]
            step[free[a]] = -rhs[a]
    return np.array(step)


def _step_into_box(x, gradient, information, lo, hi, to_lo, to_hi, newton):
    """The Newton step ``newton`` bent into the box.

    Where the step would take coordinates past a bound, the one whose bound
    it meets first is moved onto it and the rest re-solved, until no
    coordinate leaves the box (Bertsekas 1982); ``to_lo`` and ``to_hi``
    grow in place.  Clipping alone would keep the other coordinates'
    steps, solved for the full move, and zigzag toward the bound.
    """
    step = newton
    while True:
        free = ~(to_lo | to_hi)
        below, above = free & (x + step < lo), free & (x + step > hi)
        if not (below.any() or above.any()):
            return step
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(below, (lo - x) / step,
                             np.where(above, (hi - x) / step, np.inf))
        first = np.argmin(reach)
        to_lo[first] |= below[first]
        to_hi[first] |= above[first]
        step = _newton_step(x, gradient, information, lo, hi, to_lo, to_hi)
        if step is None:
            # only by rounding: a principal block of a positive definite
            # matrix is positive definite
            return newton


def _newton(kind, data, objective, x, f, bounds, decrement_tol, max_evals,
            derivatives=None, found=None):
    """Projected Newton climb on the box from the point (x, f).

    Each iteration takes the Newton step on the coordinates not held on a
    bound, solved on the observed information where that is positive
    definite on them, else on the expected information, which is positive
    semi-definite wherever the likelihood is finite.  Where the two differ,
    as along a weakly identified direction, steps on the expected one
    alone converge only linearly.  The step is bent into the box by
    :func:`_step_into_box`, clipped into it and halved until the objective
    rises by no more than its rounding noise.  ``derivatives``, the
    :func:`likelihood.score_and_information` of x if the caller has it,
    spares its evaluation.  ``found``, the ``(x*, f*, I*)`` of a maximum
    already found with I* positive definite, ends the climb where its step
    lands on x* (``_FOUND_RADIUS``) from an objective not below f*.  Returns
    ``(x, f, derivatives, evaluations)``.
    ``derivatives`` are those of x once the decrement is below
    ``decrement_tol * (1 + |f|)``, or below one ulp of f with the full step
    rejected, so their observed information is the one at x whichever
    information the last step solved on.  They are None when
    neither information was positive definite on the free coordinates, no
    halving was accepted, a step landed on ``found``, the iterations ran
    out or ``max_evals``
    evaluations (one per derivative evaluation, one per objective value)
    were spent.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    evals = 0
    for _ in range(_NEWTON_ITERATIONS):
        if derivatives is None:
            if evals >= max_evals:
                break
            derivatives = score_and_information(kind, data, x)
            evals += 1
            if derivatives is None:
                break
        score, observed, expected = derivatives
        gradient = -score
        # a coordinate on a bound with its gradient pointing out is held;
        # the decrement of the Newton step on the rest vanishes only where
        # x is stationary on the box
        to_lo = (x <= lo) & (gradient > 0)
        to_hi = (x >= hi) & (gradient < 0)
        information = observed
        step = _newton_step(x, gradient, information, lo, hi, to_lo, to_hi)
        if step is None:
            information = expected()
            step = _newton_step(x, gradient, information, lo, hi, to_lo,
                                to_hi)
            if step is None:
                break
        # twice the gain the quadratic model predicts for the step
        decrement = -float(2.0 * gradient @ step + step @ information @ step)
        if not math.isfinite(decrement):
            break
        if decrement <= decrement_tol * (1.0 + abs(f)):
            return x, f, derivatives, evals
        step = _step_into_box(x, gradient, information, lo, hi, to_lo, to_hi,
                              step)
        if found is not None and f >= found[1]:
            offset = np.clip(x + step, lo, hi) - found[0]
            if offset @ found[2] @ offset <= _FOUND_RADIUS:
                break
        allowed = _NOISE * (1.0 + abs(f))
        scale = 1.0
        for _ in range(_NEWTON_HALVINGS):
            if evals >= max_evals:
                return x, f, None, evals
            trial = np.clip(x + scale * step, lo, hi)
            f_trial = objective(trial)
            evals += 1
            if f_trial <= f + allowed:
                break
            if scale == 1.0 and decrement <= _ROUNDING * (1.0 + abs(f)
                                                          + data.n):
                return x, f, derivatives, evals
            scale *= 0.5
        else:
            break
        x, f, derivatives = trial, f_trial, None
    return x, f, None, evals


def _climb_from_starts(kind, data, objective, warm_start, warm_value, bounds,
                       max_evals):
    """Newton climbs from the warm start, whose objective is ``warm_value``,
    and from each of its corners.

    A corner is the warm start with one rate on its lower bound.  Sparse or
    depleted cohorts can have several local maxima, each with another rate
    on its bound, and a climb reaches the one whose basin holds its start;
    the corners reach the others.  Each climb stops at the hand-over
    tolerance, and a climb after one that converged with a positive
    definite observed information also stops, unconverged, once its
    Newton step lands on the best such maximum from a value not below it
    (``_FOUND_RADIUS``): it was bound for a maximum already found.  On the
    benchmark's cohorts almost every corner climb returns to the warm
    climb's maximum, and this stop spares most of their evaluations.
    Returns ``(best, reached, evaluations)``: ``best`` is the ``(x, f,
    derivatives)`` of the lowest objective among the climbs that
    converged, or None, and ``reached`` the ``(x, f)`` of that among all
    climbs, the warm start with +inf if no start had a finite objective.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    starts = [warm_start] + [np.where(np.arange(lo.size) == i, lo, warm_start)
                             for i in range(lo.size) if warm_start[i] > lo[i]]
    best, found, used = None, None, 0
    reached = (warm_start, math.inf)
    for k, start in enumerate(starts):
        if not k:
            f = warm_value
        elif used < max_evals:
            f = objective(start)
            used += 1
        else:
            break
        if not math.isfinite(f):
            continue
        x, f, derivatives, evals = _newton(kind, data, objective, start, f,
                                           bounds, _HANDOVER_DECREMENT,
                                           max_evals - used, found=found)
        used += evals
        if f < reached[1]:
            reached = (x, f)
        if derivatives is not None and (best is None or f < best[1]):
            best = (x, f, derivatives)
            found = ((x, f, derivatives[1])
                     if np.linalg.eigvalsh(derivatives[1])[0] > 0.0 else None)
    return best, reached, used


def _maximize(kind, data, warm_start, bounds, seed, max_evals, identified):
    """The optimizer stage of :func:`fit_mle`.

    Returns ``(x, fun, evaluations, converged, information)``;
    ``information`` is the last climb's observed information, at ``x``, or
    None.  Every design's first evaluation is the warm start's, and a
    warm start on the saturated bound's floor ends the fit there,
    converged, as the closed-form starts of two-time designs do.  An
    identified design with two times makes that evaluation by the loose
    simplex, which runs on from there, and the climb goes on from its
    point.  Designs with three or more times and the over-parameterised
    one, whose maximum then lies on a face of the box where the free rates
    are identified, climb from the warm start and its corners, and the
    best converged point climbs on from the derivatives its climb ended
    with; a corner's climb ends once its step lands on a maximum already
    found (:func:`_climb_from_starts`).  A climb that ends on the floor
    has reached the maximum; where the climb fails otherwise the tight
    simplex runs from the warm start, and a tight simplex that converges
    within rounding noise above the best point reached confirms that
    point.  Both simplexes stop at the first point on the floor, which no
    point can beat.  Every stage draws on the one budget ``max_evals``;
    when it is spent, the best point reached returns unconverged.
    """
    objective = _objective(kind, data)
    floor = _floor(data)
    if identified and len(data.times) == 2:
        loose = minimize_simplex(objective, warm_start, bounds, seed=seed,
                                 max_evals=max_evals,
                                 diameter_tol=_LOOSE_DIAMETER,
                                 spread_tol=_LOOSE_SPREAD, floor=floor)
        used, reached = loose.n_evals, (loose.x, loose.fun)
        # a run that stops at its first evaluation met the floor there, or
        # spent its budget
        if used == 1 or not (loose.converged and math.isfinite(loose.fun)):
            return *reached, used, loose.converged, None
        best = (*reached, None)
    else:
        warm_value, used = ((objective(warm_start), 1) if max_evals > 0
                            else (math.inf, 0))
        if warm_value <= floor:
            return warm_start.copy(), warm_value, used, True, None
        best, reached, evals = _climb_from_starts(
            kind, data, objective, warm_start, warm_value, bounds,
            max_evals - used)
        used += evals
    if best is not None:
        x, f, derivatives = best
        x, f, derivatives, evals = _newton(kind, data, objective, x, f,
                                           bounds, _POLISH_DECREMENT,
                                           max_evals - used, derivatives)
        used += evals
        if derivatives is not None:
            return x, f, used, True, derivatives[1]
        if f < reached[1]:
            reached = (x, f)
    if reached[1] <= floor:
        # a climb that ends within rounding noise of the saturated bound
        # has reached the maximum, where no Newton stop need confirm it:
        # on a ridge, or where the information is singular, none can
        return *reached, used, True, None
    converged = False
    if used < max_evals:
        tight = minimize_simplex(objective, warm_start, bounds, seed=seed,
                                 max_evals=max_evals - used, floor=floor)
        used += tight.n_evals
        if tight.fun <= reached[1]:
            return tight.x, tight.fun, used, tight.converged, None
        # a simplex that converged within rounding noise above the point
        # reached confirms that point's value
        converged = tight.converged and (
            tight.fun <= reached[1] + _NOISE * (1.0 + abs(reached[1])))
    return *reached, used, converged, None


def _default_warm_start(kind, data, bounds):
    """The ``(start, source, ridge)`` of a fit's warm start, before it is
    clipped into the box.

    ``ridge`` is the ``(low, high)`` ends of the closed-form ridge of a
    gendered two-time design, whose midpoint is then the start, else None.
    """
    if kind == NONGENDER:
        try:
            # clamping negative CFA rates is routine here, not user-visible
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                start, source = np.array(cfa(data).as_vector()), "CFA"
        except DomainError:
            start, source = np.array([1e-3, 1e-3]), "default"
        # the two-time MLE of the first and last observations, where the
        # closed form applies: the MLE itself for two times.  The CFA tau
        # seeds its root solve.
        two_times = len(data.times) == 2
        ends = data if two_times else Dataset(
            (data.times[0], data.times[-1]),
            (data.observations[0], data.observations[-1]))
        closed = two_time_mle(ends, bounds, start[1])
        if closed is not None:
            return np.array(closed[1]), ("closed-form" if two_times
                                         else "closed-form-first-last"), None
        return start, source, None
    if len(data.times) == 2:
        ridge = two_time_mle(data, bounds, 0.0)
        if ridge is not None:
            low, point, high = ridge
            return np.array(point), "closed-form-ridge", (low, high)
    # else the symmetric split of the marginal non-gendered start
    marginal = Dataset(
        data.times,
        tuple(PairCounts(o.ss, o.is_ + o.si, o.ii) for o in data.observations),
    )
    lam, tau = _default_warm_start(NONGENDER, marginal,
                                   (DEFAULT_BOUNDS, DEFAULT_BOUNDS))[0]
    return np.array([lam, lam, tau, tau]), "symmetric-nongender", None


def fit_mle(kind, data: Dataset, seed=0, levels=(0.95,),
            max_evals=DEFAULT_MAX_EVALS, uncertainty=True) -> FitResult:
    """Maximize the model log-likelihood over the rate box, ``DEFAULT_BOUNDS``
    for every rate.

    The warm start of an identified non-gendered fit is the closed-form
    two-time MLE of the first and last observations where it applies
    (``warm_start_source`` ``"closed-form"`` for two times,
    ``"closed-form-first-last"`` for more), else the CFA (two times) or the
    fixed point (1e-3, 1e-3) (``"default"``).  A gendered two-time fit
    starts at the lambda_m midpoint of its closed-form ridge
    (``"closed-form-ridge"``) where one exists, and every other gendered
    fit at the symmetric split of the warm start of the marginal
    non-gendered counts (``"symmetric-nongender"``).  The warm start is
    clipped into the box, which a CFA start can leave.  Deterministic for a
    fixed seed.

    The fit's first evaluation is its warm start's, and a start on the
    saturated bound's floor, within rounding noise of the bound, ends the
    fit there, converged, as the closed-form two-time starts do.  Else
    designs with three or more times, and over-parameterised ones (more
    rates than the data's free dimensions), run a Newton climb from the
    warm start and its corners, a corner's climb ending where its step
    lands on a maximum already found, and the best converged point climbs
    on; identified two-time designs run a loose simplex, stopped on the
    floor, then the climb.  A climb that ends on the floor is converged;
    where the climb fails otherwise, the tight simplex runs from the warm
    start, and its convergence within rounding noise of the best point
    reached confirms that point.
    Both simplexes stop at the first point on the floor, which no point
    could beat.  ``ridge_ends`` holds the ridge's ends where the fit ended
    at its midpoint.
    ``iterations`` counts every likelihood evaluation of the optimizer, one
    per derivative evaluation of the climb included, and never exceeds
    ``max_evals``: a fit whose budget runs out returns the best point
    reached, unconverged.  The covariance stage takes the last climb's
    information, or, for a fit that ended without one, as on its warm
    start, the information at the estimates.  ``uncertainty=False`` skips
    it (used by bulk recovery sweeps, which record point estimates only).
    """
    spec = model_spec(kind)
    if data.kind != kind:
        raise DomainError(f"dataset kind {data.kind!r} does not match {kind!r}")
    dim = len(spec.param_names)
    bounds = (DEFAULT_BOUNDS,) * dim
    free_dims = (len(spec.state_labels) - 1) * (len(data.times) - 1)
    identified = dim <= free_dims
    warm_start, warm_start_source, ridge_ends = _default_warm_start(
        kind, data, bounds)
    warm_start = np.clip(warm_start, *DEFAULT_BOUNDS)

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
    cov_result = CovarianceResult(None, None, math.inf)
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
    elif cov_result.covariance is not None:
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
        estimates=estimates,
        params=params_from_vector(kind, estimates),
        loglik_at_max=loglik_max,
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
        bounds=bounds,
        seed=seed,
        identifiability=identifiability,
        condition_number=None if ridge else cov_result.condition_number,
        saturated_gap=gap,
        ridge_ends=(ridge_ends if ridge and np.array_equal(estimates, warm_start)
                    else None),
    )
