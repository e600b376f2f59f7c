"""Closed-form and semi-closed-form estimators for the two-time-point design.

With observations at {0, T} the MLE has a closed form: the rates that
match every predicted count at T to the observed one attain the saturated
multinomial bound, and no other point can beat them (:func:`two_time_mle`).
The SS count alone fixes the SS hazard h = log(N_SS^0 / N_SS^T) / T, and
each discordant class's count at T falls with its tau and rises with the
external rate that feeds it, so given that rate its tau is one root.

- Non-gendered: h = 2 lambda, so lambda_hat = h / 2 and tau_hat solves
  P_SI(T; lambda_hat, tau) = N_SI^T.  The fit starts there.
- Gendered: four rates against three free dimensions, so the rates that
  reproduce the counts form a segment of lambda_m, with lambda_f =
  h - lambda_m (the parameter redundancy of Catchpole & Morgan 1997,
  Biometrika 84:187).  Its ends are roots in lambda_m where a tau reaches
  a bound, and the fit starts at its lambda_m midpoint.  On the bundled
  cohort the solve takes 47 evaluations of the class counts, 84 us
  (timeit, one pinned CPU of a 2-CPU shared host), and the fit then one
  likelihood evaluation, where the simplex search took 189.

:func:`tau_hat_rootsolve` targets a different quantity, the previously
published stationarity condition on the discordant-pair prediction; it
feeds the discrepancy ledger of reports.  Every root is one safeguarded
Newton solve on the log of a monotone count (:func:`_root`).  A series
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
from .model import GENDER, NONGENDER, NonGenderParams, _inflow_moments

# Upper end of the tau bracket of the stationarity equation.
_TAU_BRACKET_LIMIT = 1e3
# The safeguarded Newton solve of a root stops at a step below this relative
# size; the error left is about its square.
_ROOT_RTOL = 1e-12
_ROOT_ITERATIONS = 64


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


def _class_count(c0, a_per_lam, lam, h, big_t, tau):
    """A discordant class's count at T with its derivatives in tau and lam.

    The class starts at ``c0``, its susceptible partners face the rate
    ``tau`` and the other partner's external rate ``lam``, SS pairs enter it
    at ``a_per_lam * lam`` per SS pair-year and the SS hazard is ``h``: the
    class of :func:`likelihood.count_derivatives`, with x = tau - lam, whose
    count is c0*e + a*D(x)*e.  The ``lam`` derivative holds ``h`` fixed,
    so it moves ``lam`` along the rates that keep the SS count.
    """
    a = a_per_lam * lam
    e, r0, r1, _ = _inflow_moments(tau - lam, h, big_t)
    value = c0 * e + a * r0
    d_tau = a * r1 - big_t * value
    return value, d_tau, a_per_lam * r0 - d_tau


def _root(count, target, lo, hi, seed, ends=None):
    """The v in [lo, hi] where the monotone ``count(v)[0]`` = target, or None.

    ``count(v)`` returns the value and its slope, and ``ends``, if the
    caller has them, the values at lo and hi.  log count is nearly
    linear in v: a Newton solve on it from ``seed`` (clamped into the
    bracket) takes a few steps, and a step that leaves the bracket is
    replaced by false position or bisection.  Returns None when the target
    lies outside the values at the two ends or the count does not move.
    """
    at_lo, at_hi = ends or (count(lo)[0], count(hi)[0])
    falls = at_hi < at_lo
    low, high = (at_hi, at_lo) if falls else (at_lo, at_hi)
    if not low <= target <= high or low == high:
        return None
    if target in (at_lo, at_hi):
        return lo if target == at_lo else hi
    p_lo, p_hi = at_lo, at_hi
    v = min(max(seed, lo), hi)
    for _ in range(_ROOT_ITERATIONS):
        value, slope = count(v)
        if value == target:
            break
        if (value > target) == falls:
            lo, p_lo = v, value
        else:
            hi, p_hi = v, value
        step = (v - math.log(value / target) * value / slope
                if value > 0.0 and (slope < 0.0 if falls else slope > 0.0)
                else math.nan)
        if abs(step - v) <= _ROOT_RTOL * v:
            return min(max(step, lo), hi)
        if not lo < step < hi:
            if hi - lo <= _ROOT_RTOL * hi:
                break
            # false position on log count across the bracket, else bisection
            step = (lo + (hi - lo) * math.log(p_lo / target)
                    / math.log(p_lo / p_hi) if min(p_lo, p_hi) > 0.0
                    else math.nan)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
        v = step
    return v


def tau_hat_rootsolve(data: Dataset, lambda_hat: float) -> float:
    """Solve the tau stationarity condition for tau.

    The target is P_SI(T) = N_SI^0 * (N - P_SS(T; lambda_hat)) / (N - N_SS^0),
    solved by :func:`_root` over [lambda_hat*(1+1e-9), 1e3].  A target
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

    def p_si(tau):
        return _class_count(obs0.si, 2.0 * obs0.ss, lambda_hat,
                            2.0 * lambda_hat, big_t, tau)[:2]
    tau = _root(p_si, target, lo, _TAU_BRACKET_LIMIT, lo)
    if tau is not None:
        return tau
    # P_SI decreases in tau; a target at (or just above) the tau = lambda
    # value means the root sits at the bracket edge.
    if abs(p_si(lo)[0] - target) <= 1e-9 * max(1.0, abs(target)):
        return lo
    raise NoRootError(f"no root for tau in [{lo:g}, {_TAU_BRACKET_LIMIT:g}]; "
                      "data incompatible with the model")


def _where(count, target, lo, hi, at_least):
    """The interval of [lo, hi] where the monotone ``count(s)[0]`` is at
    least ``target`` (at most, without ``at_least``), or None."""
    ends = count(lo)[0], count(hi)[0]
    at_lo, at_hi = (value >= target if at_least else value <= target
                    for value in ends)
    if at_lo and at_hi:
        return lo, hi
    if not (at_lo or at_hi):
        return None
    root = _root(count, target, lo, hi, lo, ends)
    return (lo, root) if at_lo else (root, hi)


def two_time_mle(data: Dataset, bounds, tau_seed):
    """The rates of a two-time design that reproduce every count at T.

    Such rates attain the saturated multinomial bound, so they are the MLE.
    The SS count fixes the SS hazard h = log(N_SS^0 / N_SS^T) / T.  Each
    discordant class's count at T falls with its tau and rises with the
    external rate that feeds it, which here moves along the first rate s:
    for a given s, its tau is the root of its count = its observed count
    (:func:`_root`, from ``tau_seed``).

    - Non-gendered: s = lambda = h/2 and one class (SI), so the set is one
      point ``(lambda_hat, tau_hat)``.
    - Gendered: the four rates have three free dimensions, so the set is a
      segment of lambda_m, with lambda_f = h - lambda_m (the parameter
      redundancy of Catchpole & Morgan 1997).  It holds the lambda_m in the
      box where both classes' tau roots lie in their bounds, and each end
      is one monotone root in lambda_m, where a tau reaches a bound, or a
      bound of the box.  The reported point is its lambda_m midpoint.

    Returns ``(low, point, high)``, the rates at the lower end, the
    midpoint and the upper end in s (all one point for the non-gendered
    model), or None where no rates in ``bounds`` reproduce the counts: not
    a two-time design, N_SS^T = 0 or N_SS^T > N_SS^0, h outside the box,
    an observed discordant count out of reach, or a point whose tau does
    not move its count (N_SI^0 = 0 and lambda_hat = 0), where any tau
    does.  ``bounds`` are the fit's, one (lo, hi) pair per rate.
    """
    if len(data.times) != 2:
        return None
    obs0, obs1, big_t = _two_time_counts(data)
    if not 0 < obs1.ss <= obs0.ss:
        return None
    half = math.log(obs0.ss / obs1.ss) / (2.0 * big_t)
    h = 2.0 * half
    if data.kind == NONGENDER:
        (lam_lo, lam_hi), tau_bounds = bounds
        if not lam_lo <= half <= lam_hi:
            return None

        def p_si(tau):
            return _class_count(obs0.si, 2.0 * obs0.ss, half, h, big_t,
                                tau)[:2]
        tau = _root(p_si, obs1.si, *tau_bounds, tau_seed)
        return None if tau is None else ((half, tau),) * 3
    (m_lo, m_hi), (f_lo, f_hi), *tau_bounds = bounds
    # lambda_m = s and lambda_f = h - s: per class, its start and observed
    # counts and the external rate that feeds it as sign * s + offset
    classes = ((obs0.is_, obs1.is_, 1.0, 0.0), (obs0.si, obs1.si, -1.0, h))

    def count(cls, s, tau):
        c0, _, sign, offset = cls
        value, d_tau, d_lam = _class_count(c0, obs0.ss, sign * s + offset, h,
                                           big_t, tau)
        return value, d_tau, sign * d_lam

    lo, hi = max(m_lo, h - f_hi), min(m_hi, h - f_lo)
    for cls, taus in zip(classes, tau_bounds):
        # the tau root lies above tau_lo where the count there is at least
        # the observed one, and below tau_hi where the count there is at
        # most that
        for tau, at_least in zip(taus, (True, False)):
            span = lo <= hi and _where(lambda s: count(cls, s, tau)[::2],
                                       cls[1], lo, hi, at_least)
            if not span:
                return None
            lo, hi = span

    def rates(s, at_end):
        point = [s, h - s]
        for cls, taus in zip(classes, tau_bounds):
            def across(tau):
                return count(cls, s, tau)[:2]
            tau = _root(across, cls[1], *taus, tau_seed)
            if tau is None:
                if not at_end:
                    return None
                # an end is where a tau reaches a bound; rounding can put
                # the observed count a hair beyond it
                tau = min(taus, key=lambda t: abs(across(t)[0] - cls[1]))
            point.append(tau)
        return tuple(point)

    low, high = rates(lo, True), rates(hi, True)
    point = low if lo == hi else rates(0.5 * (lo + hi), False)
    return None if point is None else (low, point, high)


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
