"""Closed-form and semi-closed-form estimators for the two-time-point design.

With observations at {0, T} the non-gendered MLE has a closed form.  The
external rate is identified purely by the depletion of SS pairs,

    lambda_hat = log(N_SS^0 / N_SS^T) / (2 T),

and the internal rate solves P_SI(T; lambda_hat, tau) = N_SI^T, one root of
a function that decreases in tau (:func:`two_time_mle`).  That point matches
every predicted count at T to the observed one, so it attains the saturated
multinomial bound and no other point can beat it; the fit starts there.

:func:`tau_hat_rootsolve` targets a different quantity, the previously
published stationarity condition on the discordant-pair prediction, by
bracketed bisection; it feeds the discrepancy ledger of reports.  A series
estimator for the coordinate phi (tau = (2*phi + 1)*lambda) is retained
verbatim for comparison output even though its arithmetic is known not to
reproduce previously reported values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .dataset import Dataset
from .errors import (DomainError, ExpansionUndefinedError, NoRootError)
from .model import (GENDER, NONGENDER, NonGenderParams, _inflow_moments,
                    solve_nongender)

# Bisection controls for the tau stationarity equation.
_TAU_ABS_TOL = 1e-10
_TAU_BRACKET_START = 1.0
_TAU_BRACKET_LIMIT = 1e3
# The closed-form MLE's safeguarded Newton solve for tau stops at a step
# below this relative size; the error left is about its square.
_MLE_TAU_RTOL = 1e-12
_MLE_TAU_ITERATIONS = 64


@dataclass(frozen=True)
class PhiExpansion:
    """Series estimate of phi with both published tau readings.

    The two tau fields apply tau = (2*phi + 1)*lambda and tau =
    (phi + 1)*lambda respectively; both appear in the source material, so
    both are reported with explicit tags.
    """

    phi_hat: float
    tau_two_phi_plus_one: float
    tau_phi_plus_one: float


@dataclass(frozen=True)
class AnalyticEstimate:
    """Bundle of analytical estimators with per-field provenance tags."""

    lambda_hat: float
    lambda_negative: bool
    tau_hat_rootsolve: float
    phi: PhiExpansion | None
    phi_fallback: bool


def _two_time_counts(data: Dataset):
    if len(data.times) != 2:
        raise DomainError("analytical estimators require exactly two "
                          "observation times")
    return data.observations[0], data.observations[1], data.elapsed()[1]


def lambda_hat_closed_form(data: Dataset) -> float:
    """External-rate estimator log(N_SS^0 / N_SS^T) / (2 T).

    Works for either model kind since only SS counts enter.  A negative
    return (susceptible pairs increased) is a model violation and carries a
    warning rather than an exception.
    """
    obs0, obs1, big_t = _two_time_counts(data)
    if obs0.ss <= 0 or obs1.ss <= 0:
        raise DomainError("SS counts must be positive at both times")
    value = math.log(obs0.ss / obs1.ss) / (2.0 * big_t)
    if value < 0:
        warnings.warn("N_SS increased over the window; lambda_hat is negative",
                      stacklevel=2)
    return value


def phi_hat_binomial(data: Dataset) -> PhiExpansion:
    """Series estimator for phi, printed form, with both tau readings.

    Raises ExpansionUndefinedError when N_SS^T = N_SS^0, signalling fall-back
    to the root solve.
    """
    if data.kind != NONGENDER:
        raise DomainError("phi expansion applies to the non-gendered model")
    obs0, obs1, _ = _two_time_counts(data)
    ss0, si0 = obs0.ss, obs0.si
    ss1, si1 = obs1.ss, obs1.si
    if si1 <= 0:
        raise DomainError("N_SI at time T must be positive")
    if ss1 == ss0:
        raise ExpansionUndefinedError(
            "N_SS unchanged over the window; series estimator undefined")
    if ss0 <= 0 or si0 < 0:
        raise DomainError("counts must be nonnegative with N_SS^0 > 0")
    phi = (ss1 / (ss1 - ss0)) * (si0 * ss1 / (ss0 * si1) - 1.0
                                 - (ss1 - ss0) / si1)
    lam = lambda_hat_closed_form(data)
    return PhiExpansion(
        phi_hat=phi,
        tau_two_phi_plus_one=(2.0 * phi + 1.0) * lam,
        tau_phi_plus_one=(phi + 1.0) * lam,
    )


def tau_hat_rootsolve(data: Dataset, lambda_hat: float) -> float:
    """Solve the tau stationarity condition by bracketed bisection.

    The target is P_SI(T) = N_SI^0 * (N - P_SS(T; lambda_hat)) / (N - N_SS^0).
    The bracket starts at [lambda_hat*(1+1e-9), 1.0] and the upper end grows
    geometrically until a sign change appears or 1e3 is reached; the root is
    returned to absolute tolerance 1e-10.
    """
    if data.kind != NONGENDER:
        raise DomainError("tau root solve applies to the non-gendered model")
    if lambda_hat < 0:
        raise DomainError("lambda_hat must be >= 0")
    obs0, obs1, big_t = _two_time_counts(data)
    n = data.n
    if n - obs0.ss <= 0:
        raise DomainError("N - N_SS^0 must be positive")
    p_ss_t = solve_nongender(NonGenderParams(lambda_hat, lambda_hat),
                             obs0, big_t).p_ss
    target = obs0.si * (n - p_ss_t) / (n - obs0.ss)

    def gap(tau):
        return solve_nongender(NonGenderParams(lambda_hat, tau),
                               obs0, big_t).p_si - target

    lo = lambda_hat * (1.0 + 1e-9)
    g_lo = gap(lo)
    if g_lo == 0.0:
        return lo
    hi = max(_TAU_BRACKET_START, lo * 2.0)
    g_hi = gap(hi)
    while g_lo * g_hi > 0 and hi < _TAU_BRACKET_LIMIT:
        hi = min(hi * 2.0, _TAU_BRACKET_LIMIT)
        g_hi = gap(hi)
    if g_lo * g_hi > 0:
        # P_SI is monotone decreasing in tau; a target at (or above) the
        # tau = lambda boundary value means the root sits at the bracket edge.
        if abs(g_lo) <= 1e-9 * max(1.0, abs(target)):
            return lo
        raise NoRootError("no sign change for tau in "
                          f"[{lo:g}, {_TAU_BRACKET_LIMIT:g}]; data incompatible "
                          "with the model")
    while hi - lo > _TAU_ABS_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def two_time_mle(data: Dataset, bounds, tau_seed):
    """The non-gendered two-time MLE ``(lambda_hat, tau_hat)``, or None.

    lambda_hat = log(N_SS^0 / N_SS^T) / (2 T) and tau_hat is the root of
    P_SI(T; lambda_hat, tau) = N_SI^T in the tau bounds, so every predicted
    count at T equals the observed one.  P_SI decreases in tau, and log P_SI
    is nearly linear in it: a Newton solve on log P_SI from ``tau_seed``
    (clamped into the bounds) takes a few steps, and a step that leaves the
    bracket is replaced by false position or bisection.  ``bounds`` are the
    fit's ``((lam_lo, lam_hi), (tau_lo, tau_hi))``.

    Returns None where the closed form does not apply: not a non-gendered
    two-time design, N_SS^T = 0 or N_SS^T > N_SS^0, lambda_hat outside its
    bounds, N_SI^T outside [P_SI(tau_hi), P_SI(tau_lo)], or a P_SI that
    does not move with tau (N_SI^0 = 0 and lambda_hat = 0).
    """
    if data.kind != NONGENDER or len(data.times) != 2:
        return None
    obs0, obs1, big_t = _two_time_counts(data)
    if not 0 < obs1.ss <= obs0.ss:
        return None
    (lam_lo, lam_hi), (tau_lo, tau_hi) = bounds
    lam = math.log(obs0.ss / obs1.ss) / (2.0 * big_t)
    if not lam_lo <= lam <= lam_hi:
        return None
    inflow = obs0.ss * 2.0 * lam
    target = obs1.si

    def count_and_slope(tau):
        # the SI class of model.count_derivatives: x = tau - lam, h = 2*lam
        e, r0, r1, _ = _inflow_moments(tau - lam, 2.0 * lam, big_t)
        value = obs0.si * e + inflow * r0
        return value, inflow * r1 - big_t * value

    at_hi, at_lo = count_and_slope(tau_hi)[0], count_and_slope(tau_lo)[0]
    if not at_hi <= target <= at_lo or at_hi == at_lo:
        return None
    if target in (at_lo, at_hi):
        return lam, tau_lo if target == at_lo else tau_hi
    lo, hi, p_lo, p_hi = tau_lo, tau_hi, at_lo, at_hi
    tau = min(max(tau_seed, lo), hi)
    for _ in range(_MLE_TAU_ITERATIONS):
        value, slope = count_and_slope(tau)
        if value == target:
            break
        if value > target:
            lo, p_lo = tau, value
        else:
            hi, p_hi = tau, value
        step = (tau - math.log(value / target) * value / slope
                if value > 0.0 and slope < 0.0 else math.nan)
        if abs(step - tau) <= _MLE_TAU_RTOL * tau:
            return lam, min(max(step, lo), hi)
        if not lo < step < hi:
            if hi - lo <= _MLE_TAU_RTOL * hi:
                break
            # false position on log P_SI across the bracket, else bisection
            step = (lo + (hi - lo) * math.log(p_lo / target)
                    / math.log(p_lo / p_hi) if p_hi > 0.0 else math.nan)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
        tau = step
    return lam, tau


def cfa(data: Dataset) -> NonGenderParams:
    """Closed Form Approximation: seroincidence-style starting estimates.

    lambda ~ (N_SI^T - N_SI^0) / (2 T N_SS^0) and
    tau ~ (N_II^T - N_II^0) / (2 T N_SI^0); negative values are clamped to 0
    with a warning.
    """
    if data.kind != NONGENDER:
        raise DomainError("CFA applies to the non-gendered model")
    obs0, obs1, big_t = _two_time_counts(data)
    if obs0.ss <= 0 or obs0.si <= 0:
        raise DomainError("CFA requires N_SS^0 > 0 and N_SI^0 > 0")
    lam = (obs1.si - obs0.si) / (2.0 * big_t * obs0.ss)
    tau = (obs1.ii - obs0.ii) / (2.0 * big_t * obs0.si)
    if lam < 0 or tau < 0:
        warnings.warn("CFA produced a negative rate; clamped to 0", stacklevel=2)
    return NonGenderParams(max(lam, 0.0), max(tau, 0.0))


def gender_theta_approx(data: Dataset, q: float, lambda_hat: float):
    """First-order estimates of (theta_m, theta_f) given q and lambda_hat.

    These are approximations only -- higher series terms are needed for a
    unique maximum -- so they feed the optimizer as warm starts rather than
    being reported as estimates.
    """
    if data.kind != GENDER:
        raise DomainError("theta approximations require gendered data")
    if not 0.0 <= q <= 1.0:
        raise DomainError("q must lie in [0, 1]")
    if lambda_hat < 0:
        raise DomainError("lambda_hat must be >= 0")
    obs0, obs1, _ = _two_time_counts(data)
    ss0, ss1 = obs0.ss, obs1.ss
    if ss1 == ss0:
        raise DomainError("N_SS must change over the window")
    if ss0 <= 0 or ss1 <= 0 or obs1.is_ <= 0 or obs1.si <= 0:
        raise DomainError("theta approximations need positive SS and "
                          "discordant counts at time T")
    ratio = ss1 / (ss1 - ss0)
    theta_m = (q + ratio * (obs1.is_ / ss1 - obs0.is_ / ss0)) * ss1 / obs1.is_
    theta_f = ((1.0 - q) + ratio * (obs1.si / ss1 - obs0.si / ss0)) * ss1 / obs1.si
    return theta_m, theta_f


def analytic_estimates(data: Dataset) -> AnalyticEstimate:
    """Run the full analytical pipeline on a non-gendered two-time dataset."""
    lam = lambda_hat_closed_form(data)
    phi = None
    fallback = False
    try:
        phi = phi_hat_binomial(data)
    except ExpansionUndefinedError:
        fallback = True
    tau = tau_hat_rootsolve(data, max(lam, 0.0))
    return AnalyticEstimate(
        lambda_hat=lam,
        lambda_negative=lam < 0,
        tau_hat_rootsolve=tau,
        phi=phi,
        phi_fallback=fallback,
    )
