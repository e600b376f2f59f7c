"""Exact forward solutions of the SI pair models.

Couples are classified by the infection status of the two partners.  The
non-gendered model tracks SS / SI / II pair counts; the gendered model splits
the discordant class by which partner is infected.  Expected counts evolve
under two kinds of hazard: an external force of infection acting on every
susceptible individual, and an internal (within-pair) transmission hazard
acting on the susceptible partner of a discordant pair.

Both linear systems integrate in closed form.  Writing x = tau - lambda for
the non-gendered model,

    P_SS(t) = SS0 * exp(-2*lambda*t)
    P_SI(t) = (SI0 * exp(-x*t) + SS0 * 2*lambda * (1 - exp(-x*t)) / x)
              * exp(-2*lambda*t)
    P_II(t) = N - P_SS(t) - P_SI(t)

with the x -> 0 limit replacing (1 - exp(-x*t))/x by t.  For x < 0 the
factor exp(-x*t) grows without bound, so it is folded into the decay:

    P_SI(t) = SI0 * e + SS0 * 2*lambda * (expm1(x*t) / x) * e,
    e = exp(-(tau + lambda)*t),

which stays finite at any horizon.  The gendered model has the same shape
per discordant class.  :data:`MODELS` holds that shape once per model: the
SS hazard and, per discordant class, its start count, inflow from SS, x and
exit rate, with the names, types and infection routes.  Every path reads
it: the scalar solver (:func:`solve_nongender` and :func:`solve_gender` are
wrappers of one routine) loops over the classes;
:func:`~pairinfer.likelihood.solve_columns_at` evaluates them over
broadcasting rate columns and :func:`~pairinfer.likelihood.count_derivatives`
differentiates every count from one routine over them (near x = 0 through
the Taylor series of expm1(x*t)/x, whose closed-form derivatives cancel
there); and the simulator, infections table, parsers and CLI read it too.
The scalar solve pays for reading the table: 2.02 against 1.40 us per
non-gendered solve and 2.53 against 1.87 us per gendered one, for the
copies written out per model that it replaced (median of 25 interleaved
rounds on one pinned CPU of a 2-CPU shared host, Python 3.11).  At 21
solves per fitted cohort file and 5 per simulate-and-refit replicate, that
is under 1% of either.  Everything here is a pure function of its
arguments; all value types are frozen and safe to share across threads.
This module needs only :mod:`math`, so loading a dataset imports no
numpy; the array kernels over the table live in :mod:`pairinfer.likelihood`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ConfigError, DomainError

NONGENDER = "nongender"
GENDER = "gender"

# Width of the singular band |tau - lambda| below which the analytic limit
# of (1 - exp(-x*t))/x is used instead of the general expression.
EPS_SINGULAR = 1e-8


def _check_nonnegative(name, value):
    if not math.isfinite(value) or value < 0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class PairCounts:
    """Occupancy of the three non-gendered pair states at one time."""

    ss: float
    si: float
    ii: float

    def __post_init__(self):
        for name in ("ss", "si", "ii"):
            _check_nonnegative(name, getattr(self, name))

    @property
    def total(self):
        return self.ss + self.si + self.ii

    def as_tuple(self):
        return (self.ss, self.si, self.ii)


@dataclass(frozen=True)
class GenderPairCounts:
    """Occupancy of the four gendered pair states.

    ``is_`` counts pairs with the male partner infected, ``si`` pairs with
    the female partner infected.
    """

    ss: float
    is_: float
    si: float
    ii: float

    def __post_init__(self):
        for name in ("ss", "is_", "si", "ii"):
            _check_nonnegative(name, getattr(self, name))

    @property
    def total(self):
        return self.ss + self.is_ + self.si + self.ii

    def as_tuple(self):
        return (self.ss, self.is_, self.si, self.ii)


@dataclass(frozen=True)
class NonGenderParams:
    """Transmission rates (per year) for the non-gendered model."""

    lam: float
    tau: float

    def __post_init__(self):
        _check_nonnegative("lambda", self.lam)
        _check_nonnegative("tau", self.tau)

    @property
    def theta(self):
        """Excess within-pair hazard over the community hazard, tau - lambda."""
        return self.tau - self.lam

    @property
    def phi(self):
        """Coordinate phi with tau = (2*phi + 1)*lambda; undefined at lambda = 0."""
        if self.lam == 0:
            raise DomainError("phi is undefined when lambda = 0")
        return (self.tau / self.lam - 1.0) / 2.0

    def as_vector(self):
        return (self.lam, self.tau)


@dataclass(frozen=True)
class GenderParams:
    """Transmission rates (per year) for the gendered model."""

    lam_m: float
    lam_f: float
    tau_mf: float
    tau_fm: float

    def __post_init__(self):
        _check_nonnegative("lambda_m", self.lam_m)
        _check_nonnegative("lambda_f", self.lam_f)
        _check_nonnegative("tau_mf", self.tau_mf)
        _check_nonnegative("tau_fm", self.tau_fm)

    def as_vector(self):
        return (self.lam_m, self.lam_f, self.tau_mf, self.tau_fm)


@dataclass(frozen=True)
class PairState:
    """Expected (real-valued) pair counts for the non-gendered model."""

    p_ss: float
    p_si: float
    p_ii: float

    @property
    def total(self):
        return self.p_ss + self.p_si + self.p_ii

    def as_tuple(self):
        return (self.p_ss, self.p_si, self.p_ii)


@dataclass(frozen=True)
class GenderPairState:
    """Expected (real-valued) pair counts for the gendered model."""

    p_ss: float
    p_is: float
    p_si: float
    p_ii: float

    @property
    def total(self):
        return self.p_ss + self.p_is + self.p_si + self.p_ii

    def as_tuple(self):
        return (self.p_ss, self.p_is, self.p_si, self.p_ii)


@dataclass(frozen=True)
class ModelSpec:
    """What one pair model is, for every path that serves both models.

    ``r`` below is a rate vector in ``param_names`` order, of floats or of
    numpy rows.  ``hazard(r)`` is the SS pairs' total external hazard.
    ``classes(r)`` gives, for each discordant class in state order,
    ``(start, inflow, x, rate)``: the index of its state, the coefficient a
    of its inflow a * SS, x = tau - lambda of its susceptible partner, and
    its exit rate to II.  Both are linear in ``r``.  Each of ``routes`` is
    ``(label, rate index, weights)``: the route's infections per year are
    the rate times the counts weighted by the susceptibles the route
    reaches in each state.  Each expression has one operation order, so
    the scalar solver and the grid kernel built on it agree bit for bit.
    """

    kind: str
    param_names: tuple
    state_labels: tuple
    counts_type: type
    params_type: type
    hazard: Callable
    classes: Callable
    routes: tuple


MODELS = {spec.kind: spec for spec in (
    ModelSpec(
        kind=NONGENDER,
        param_names=("lambda", "tau"),
        state_labels=("SS", "SI", "II"),
        counts_type=PairCounts,
        params_type=NonGenderParams,
        hazard=lambda r: 2.0 * r[0],
        classes=lambda r: ((1, 2.0 * r[0], r[1] - r[0], r[1] + r[0]),),
        routes=(("external", 0, (2.0, 1.0, 0.0)),
                ("internal", 1, (0.0, 1.0, 0.0)))),
    ModelSpec(
        kind=GENDER,
        param_names=("lambda_m", "lambda_f", "tau_mf", "tau_fm"),
        state_labels=("SS", "IS", "SI", "II"),
        counts_type=GenderPairCounts,
        params_type=GenderParams,
        hazard=lambda r: r[0] + r[1],
        classes=lambda r: ((1, r[0], r[2] - r[0], r[2] + r[1]),
                           (2, r[1], r[3] - r[1], r[3] + r[0])),
        routes=(("external_m", 0, (1.0, 0.0, 1.0, 0.0)),
                ("external_f", 1, (1.0, 1.0, 0.0, 0.0)),
                ("internal_mf", 2, (0.0, 1.0, 0.0, 0.0)),
                ("internal_fm", 3, (0.0, 0.0, 1.0, 0.0)))),
)}

PARAM_NAMES = {kind: spec.param_names for kind, spec in MODELS.items()}

_BY_COUNTS_TYPE = {spec.counts_type: spec for spec in MODELS.values()}


def model_spec(kind):
    """The :data:`MODELS` entry of ``kind``; an unknown kind is a ConfigError."""
    if isinstance(kind, str) and kind in MODELS:
        return MODELS[kind]
    raise ConfigError(f"unknown model kind {kind!r}")


def model_of(counts, params=None):
    """The :data:`MODELS` entry of a counts object, and of ``params`` if given."""
    spec = _BY_COUNTS_TYPE.get(type(counts))
    if spec is None or not (params is None or type(params) is spec.params_type):
        raise DomainError("counts and params must belong to one pair model")
    return spec


def _check_time(t):
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"time must be finite and >= 0, got {t!r}")


def _solve(spec, state_type, rates, init, t):
    """Closed-form expected pair counts at elapsed time t, read from ``spec``.

    ``rates`` is a rate vector in ``spec.param_names`` order.  SS decays as
    decay = exp(-hazard*t).  Each discordant class, in state order, with
    start count c0 and inflow a = SS0 * inflow, counts
        c0*e + a*(expm1(x*t)/x)*e,  e = exp(-rate*t),  for x <= -EPS_SINGULAR
    (exp(-x*t) folded into the decay, so no factor overflows), and else
        (c0*exp(-x*t) + a*D)*decay,  D = -expm1(-x*t)/x,
    with D = t in the singular band |x| < EPS_SINGULAR, which only guards
    the division.  II is N minus the others, clamped at 0.
    """
    _check_time(t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    counts = init.as_tuple()
    ss0 = counts[0]
    decay = math.exp(-spec.hazard(rates) * t)
    states = [ss0 * decay]
    rest = n - states[0]
    for start, inflow, x, rate in spec.classes(rates):
        c0 = counts[start]
        a = ss0 * inflow
        if x <= -EPS_SINGULAR:
            e = math.exp(-rate * t)
            value = c0 * e + a * (math.expm1(x * t) / x) * e
        else:
            d = t if abs(x) < EPS_SINGULAR else -math.expm1(-x * t) / x
            value = (c0 * math.exp(-x * t) + a * d) * decay
        states.append(value)
        rest -= value
    states.append(max(rest, 0.0))
    return state_type(*states)


def solve_nongender(params: NonGenderParams, init: PairCounts, t: float) -> PairState:
    """Closed-form expected pair counts at elapsed time t from state ``init``."""
    return _solve(MODELS[NONGENDER], PairState, params.as_vector(), init, t)


def solve_gender(params: GenderParams, init: GenderPairCounts, t: float) -> GenderPairState:
    """Closed-form expected pair counts for the gendered model.

    The two discordant classes have independent singular limits, applied when
    tau_mf is within EPS_SINGULAR of lambda_m (and likewise for the f -> m
    pair of rates).
    """
    return _solve(MODELS[GENDER], GenderPairState, params.as_vector(), init, t)


# Below |x*t| = 1 the derivatives of D come from its Taylor series: the
# closed forms divide differences that cancel there.  At |x*t| >= 1 they
# lose at most about three bits.
_SERIES_BAND = 1.0


def _series_moments(y):
    """The integrals of s^k * exp(y*s) over [0, 1], k = 0, 1, 2, for |y| < 1.

    Sums y^j/j! / (j+k+1) until a term falls below 1e-17; the tail is then
    below 3e-17, against integrals of at least 0.12.  The counter is a
    float, so no division converts an int.
    """
    s0 = s1 = s2 = 0.0
    term = 1.0
    j = 0.0
    while abs(term) >= 1e-17:
        s0 += term / (j + 1.0)
        s1 += term / (j + 2.0)
        s2 += term / (j + 3.0)
        j += 1.0
        term *= y / j
    return s0, s1, s2


def _inflow_moments(x, h, t):
    """e = exp(-(x+h)*t) and R_k = D^(k)(x) * e for k = 0, 1, 2.

    D^(k)(x) is the integral of s^k exp(x*s) over [0, t].  Outside the
    series band R_0 is expm1(x*t)/x * e for x < 0 and the same number as
    -expm1(-x*t)/x * exp(-h*t) for x > 0, so nothing overflows, and the
    recurrences D' = (t*exp(x*t) - D)/x and D'' = (t^2*exp(x*t) - 2*D')/x
    give the rest, with exp(x*t)*e = exp(-h*t).
    """
    e = math.exp(-(x + h) * t)
    z = x * t
    if abs(z) < _SERIES_BAND:
        s0, s1, s2 = _series_moments(z)
        return e, t * s0 * e, t * t * s1 * e, t * t * t * s2 * e
    u = math.exp(-h * t)
    if x < 0.0:
        r0 = math.expm1(z) / x * e
    else:
        r0 = -math.expm1(-z) / x * u
    r1 = (t * u - r0) / x
    return e, r0, r1, (t * t * u - 2.0 * r1) / x


def params_from_vector(kind, vector):
    """Build a typed parameter object from an ordered rate vector."""
    return model_spec(kind).params_type(*vector)
