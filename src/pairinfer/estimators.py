"""Closed-form and semi-closed-form estimators for the two-time-point design.

With observations at {0, T} the non-gendered MLE has a closed form.  The
external rate is identified purely by the depletion of SS pairs,

    lambda_hat = log(N_SS^0 / N_SS^T) / (2 T),

and the internal rate solves P_SI(T; lambda_hat, tau) = N_SI^T, one root of
a function that decreases in tau (:func:`two_time_mle`).  That point matches
every predicted count at T to the observed one, so it attains the saturated
multinomial bound and no other point can beat it; the fit starts there.

:func:`tau_hat_rootsolve` targets a different quantity, the previously
published stationarity condition on the discordant-pair prediction; it
feeds the discrepancy ledger of reports.  Both solve P_SI(T; lambda, tau) =
target with one safeguarded Newton solve on log P_SI (:func:`_tau_root`),
over different brackets and targets.  A series estimator for the
coordinate phi (tau = (2*phi + 1)*lambda) is retained verbatim for
comparison output even though its arithmetic is known not to reproduce
previously reported values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .dataset import Dataset
from .errors import (DomainError, ExpansionUndefinedError, NoRootError)
from .model import GENDER, NONGENDER, NonGenderParams, _inflow_moments

# Upper end of the tau bracket of the stationarity equation.
_TAU_BRACKET_LIMIT = 1e3
# The safeguarded Newton solve for tau stops at a step below this relative
# size; the error left is about its square.
_TAU_RTOL = 1e-12
_TAU_ITERATIONS = 64


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


def _p_si(obs0, lam, big_t, tau):
    """P_SI(T; lam, tau) from ``obs0`` and its derivative in tau.

    This is the SI class of :func:`model.count_derivatives`: x = tau - lam
    and the SS hazard h = 2*lam.
    """
    inflow = obs0.ss * 2.0 * lam
    e, r0, r1, _ = _inflow_moments(tau - lam, 2.0 * lam, big_t)
    value = obs0.si * e + inflow * r0
    return value, inflow * r1 - big_t * value


def _tau_root(obs0, lam, big_t, target, lo, hi, seed):
    """The tau in [lo, hi] where P_SI(T; lam, tau) = target, or None.

    P_SI decreases in tau, and log P_SI is nearly linear in it: a Newton
    solve on log P_SI from ``seed`` (clamped into the bracket) takes a few
    steps, and a step that leaves the bracket is replaced by false position
    or bisection.  Returns None when the target lies outside [P_SI(hi),
    P_SI(lo)] or P_SI does not move with tau.
    """
    at_hi = _p_si(obs0, lam, big_t, hi)[0]
    at_lo = _p_si(obs0, lam, big_t, lo)[0]
    if not at_hi <= target <= at_lo or at_hi == at_lo:
        return None
    if target in (at_lo, at_hi):
        return lo if target == at_lo else hi
    p_lo, p_hi = at_lo, at_hi
    tau = min(max(seed, lo), hi)
    for _ in range(_TAU_ITERATIONS):
        value, slope = _p_si(obs0, lam, big_t, tau)
        if value == target:
            break
        if value > target:
            lo, p_lo = tau, value
        else:
            hi, p_hi = tau, value
        step = (tau - math.log(value / target) * value / slope
                if value > 0.0 and slope < 0.0 else math.nan)
        if abs(step - tau) <= _TAU_RTOL * tau:
            return min(max(step, lo), hi)
        if not lo < step < hi:
            if hi - lo <= _TAU_RTOL * hi:
                break
            # false position on log P_SI across the bracket, else bisection
            step = (lo + (hi - lo) * math.log(p_lo / target)
                    / math.log(p_lo / p_hi) if p_hi > 0.0 else math.nan)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
        tau = step
    return tau


def tau_hat_rootsolve(data: Dataset, lambda_hat: float) -> float:
    """Solve the tau stationarity condition for tau.

    The target is P_SI(T) = N_SI^0 * (N - P_SS(T; lambda_hat)) / (N - N_SS^0),
    solved by :func:`_tau_root` over [lambda_hat*(1+1e-9), 1e3].  A target
    within a relative 1e-9 of P_SI at the lower end returns that end; any
    other target outside the bracket's range is a NoRootError.
    """
    if data.kind != NONGENDER:
        raise DomainError("tau root solve applies to the non-gendered model")
    if lambda_hat < 0:
        raise DomainError("lambda_hat must be >= 0")
    obs0, _, big_t = _two_time_counts(data)
    n = data.n
    if n - obs0.ss <= 0:
        raise DomainError("N - N_SS^0 must be positive")
    p_ss_t = obs0.ss * math.exp(-2.0 * lambda_hat * big_t)
    target = obs0.si * (n - p_ss_t) / (n - obs0.ss)
    lo = lambda_hat * (1.0 + 1e-9)
    tau = _tau_root(obs0, lambda_hat, big_t, target, lo, _TAU_BRACKET_LIMIT, lo)
    if tau is not None:
        return tau
    # P_SI decreases in tau; a target at (or just above) the tau = lambda
    # value means the root sits at the bracket edge.
    at_lo = _p_si(obs0, lambda_hat, big_t, lo)[0]
    if abs(at_lo - target) <= 1e-9 * max(1.0, abs(target)):
        return lo
    raise NoRootError(f"no root for tau in [{lo:g}, {_TAU_BRACKET_LIMIT:g}]; "
                      "data incompatible with the model")


def two_time_mle(data: Dataset, bounds, tau_seed):
    """The non-gendered two-time MLE ``(lambda_hat, tau_hat)``, or None.

    lambda_hat = log(N_SS^0 / N_SS^T) / (2 T) and tau_hat is the root of
    P_SI(T; lambda_hat, tau) = N_SI^T in the tau bounds (:func:`_tau_root`
    from ``tau_seed``), so every predicted count at T equals the observed
    one.  ``bounds`` are the fit's ``((lam_lo, lam_hi), (tau_lo, tau_hi))``.

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
    tau = _tau_root(obs0, lam, big_t, obs1.si, tau_lo, tau_hi, tau_seed)
    return None if tau is None else (lam, tau)


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
