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
exit rate, with the names, types and infection routes.  Every path serving
both models reads it: :func:`solve_batch` evaluates the classes for many
rate vectors in one block, :func:`count_derivatives` differentiates every
count from one routine over them (near x = 0 through the Taylor series of
expm1(x*t)/x, whose closed-form derivatives cancel there), and the
simulator, infections table, parsers and CLI read it too.  The scalar
solvers, the optimizer's inner loop, stay written out per model: a
table-driven one, though bit-identical, took 1.31 against 1.00 us per
non-gendered solve and 1.74 against 1.34 us per gendered one (2-CPU shared
host, Python 3.11).  Everything here is a pure function of its arguments;
all value types are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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
    reaches in each state.  Each expression keeps the scalar solvers'
    operation order, which keeps the paths built on it bit-identical to
    them.
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


def _decay_integral(x, t):
    """(1 - exp(-x*t)) / x, with the singular limit t as x -> 0.

    expm1 keeps the general branch cancellation-free, so the branch switch
    at EPS_SINGULAR only guards the division.
    """
    if abs(x) < EPS_SINGULAR:
        return t
    return -math.expm1(-x * t) / x


def _discordant_below(c0, inflow, x, rate, t):
    """Discordant count for x <= -EPS_SINGULAR: c0*e + inflow*(expm1(x*t)/x)*e.

    e = exp(-rate*t) is exp(-x*t) times the SS decay, combined so that no
    factor overflows at long horizons.
    """
    e = math.exp(-rate * t)
    return c0 * e + inflow * (math.expm1(x * t) / x) * e


def solve_nongender(params: NonGenderParams, init: PairCounts, t: float) -> PairState:
    """Closed-form expected pair counts at elapsed time t from state ``init``."""
    _check_time(t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    decay = math.exp(-2.0 * params.lam * t)
    p_ss = init.ss * decay
    x = params.tau - params.lam
    if x <= -EPS_SINGULAR:
        p_si = _discordant_below(init.si, init.ss * 2.0 * params.lam, x,
                                 params.tau + params.lam, t)
    else:
        p_si = (init.si * math.exp(-x * t)
                + init.ss * 2.0 * params.lam * _decay_integral(x, t)) * decay
    p_ii = max(n - p_ss - p_si, 0.0)
    return PairState(p_ss, p_si, p_ii)


def solve_gender(params: GenderParams, init: GenderPairCounts, t: float) -> GenderPairState:
    """Closed-form expected pair counts for the gendered model.

    The two discordant classes have independent singular limits, applied when
    tau_mf is within EPS_SINGULAR of lambda_m (and likewise for the f -> m
    pair of rates).
    """
    _check_time(t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    decay = math.exp(-(params.lam_m + params.lam_f) * t)
    p_ss = init.ss * decay
    x_m = params.tau_mf - params.lam_m
    if x_m <= -EPS_SINGULAR:
        p_is = _discordant_below(init.is_, params.lam_m * init.ss, x_m,
                                 params.tau_mf + params.lam_f, t)
    else:
        p_is = (init.is_ * math.exp(-x_m * t)
                + params.lam_m * init.ss * _decay_integral(x_m, t)) * decay
    x_f = params.tau_fm - params.lam_f
    if x_f <= -EPS_SINGULAR:
        p_si = _discordant_below(init.si, params.lam_f * init.ss, x_f,
                                 params.tau_fm + params.lam_m, t)
    else:
        p_si = (init.si * math.exp(-x_f * t)
                + params.lam_f * init.ss * _decay_integral(x_f, t)) * decay
    p_ii = max(n - p_ss - p_is - p_si, 0.0)
    return GenderPairState(p_ss, p_is, p_si, p_ii)


def _class_jacobian(spec):
    """Rows d(inflow, x, rate)/dr of SS and each discordant class.

    Shape (classes + 1, 3, dim): ``hazard`` and ``classes`` are linear, so
    their values at the unit vectors are the coefficients.  SS has no
    inflow, x = 0 and rate = hazard.  A start count moves with the rates
    through its class's rate alone, so no rate moves it twice with
    opposite signs.
    """
    units = np.eye(len(spec.param_names)).tolist()
    ss = [[0.0] * len(units), [0.0] * len(units), [spec.hazard(u) for u in units]]
    per_unit = np.array([spec.classes(u) for u in units])  # (dim, classes, 4)
    return np.concatenate([[ss], per_unit[:, :, 1:].transpose(1, 2, 0)])


_CLASS_JACOBIAN = {kind: _class_jacobian(spec) for kind, spec in MODELS.items()}

# Below |x*t| = 1 the derivatives of D come from its Taylor series: the
# closed forms divide differences that cancel there.  At |x*t| >= 1 they
# lose at most about three bits.
_SERIES_BAND = 1.0


def _series_moments(y):
    """The integrals of s^k * exp(y*s) over [0, 1], k = 0, 1, 2, for |y| < 1.

    Sums y^j/j! / (j+k+1) until a term falls below 1e-17; the tail is then
    below 3e-17, against integrals of at least 0.12.
    """
    s0 = s1 = s2 = 0.0
    term = 1.0
    j = 0
    while abs(term) >= 1e-17:
        s0 += term / (j + 1)
        s1 += term / (j + 2)
        s2 += term / (j + 3)
        j += 1
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


def count_derivatives(kind, init, rates, times):
    """Expected pair counts and their rate derivatives at elapsed ``times``.

    ``rates`` is one rate vector in ``PARAM_NAMES[kind]`` order.  Returns
    ``(p, grad, hess)`` of shapes (T, states), (T, states, dim) and
    (T, states, dim, dim), states in ``as_tuple`` order.  One routine serves
    both models, over SS and the discordant classes of ``MODELS[kind]``.
    Each class with start count c0, inflow a = SS0 * inflow, x and h, the
    SS hazard, counts
        c0*e + a*D(x)*e,  e = exp(-(x+h)*t),  D(x) = expm1(x*t)/x
    at time t, D being the integral of exp(x*s) over [0, t]; SS is the class
    with no inflow and x = 0.  Each count's partial derivatives in (inflow,
    x, rate) are chained through their rate coefficients, and II is N minus
    the rest.  ``p`` equals the solvers' counts to rounding, without the
    clamp of II at 0.
    """
    spec = model_spec(kind)
    jac = _CLASS_JACOBIAN[kind]
    r = [float(v) for v in rates]
    counts = init.as_tuple()
    ss0 = counts[0]
    h = spec.hazard(r)
    terms = [(ss0, 0.0, 0.0)] + [(counts[start], inflow, x)
                                 for start, inflow, x, _ in spec.classes(r)]
    values, firsts, seconds = [], [], []
    for t in times:
        for c0, rate_in, x in terms:
            a = ss0 * rate_in
            e, r0, r1, r2 = _inflow_moments(x, h, t)
            value = c0 * e + a * r0
            values.append(value)
            firsts.append((ss0 * r0, a * r1, -t * value))
            seconds.append(((0.0, ss0 * r1, -t * ss0 * r0),
                            (ss0 * r1, a * r2, -t * a * r1),
                            (-t * ss0 * r0, -t * a * r1, t * t * value)))
    n_times, n_classes = len(times), len(terms)
    p = np.empty((n_times, n_classes + 1))
    grad = np.empty((n_times, n_classes + 1, len(r)))
    hess = np.empty((n_times, n_classes + 1, len(r), len(r)))
    p[:, :-1] = np.array(values).reshape(n_times, n_classes)
    grad[:, :-1] = (np.array(firsts).reshape(n_times, n_classes, 1, 3)
                    @ jac)[:, :, 0]
    hess[:, :-1] = (jac.transpose(0, 2, 1)
                    @ np.array(seconds).reshape(n_times, n_classes, 3, 3)
                    @ jac)
    p[:, -1] = init.total - p[:, :-1].sum(axis=1)
    grad[:, -1] = -grad[:, :-1].sum(axis=1)
    hess[:, -1] = -hess[:, :-1].sum(axis=1)
    return p, grad, hess


def apply_libm(fn, values):
    """``fn`` from :mod:`math` applied to each element of an array.

    numpy's vectorised exp/expm1/log may differ from the C library's by an
    ulp; going through :mod:`math` keeps :func:`solve_batch` bit-identical
    to the scalar solvers.
    """
    flat = np.fromiter(map(fn, values.ravel().tolist()), float, values.size)
    return flat.reshape(values.shape)


def _discordant_batch(c0, inflow, x, rate, decay, t):
    """One discordant class of the scalar solvers, over arrays.

    Both branches (x <= -EPS_SINGULAR, and the general form with its
    singular limit) are evaluated everywhere and then selected.  Each
    element takes one exp and one expm1, with the arguments of its own
    branch, so the branch it does not use cannot overflow.
    """
    below = x <= -EPS_SINGULAR
    singular = np.abs(x) < EPS_SINGULAR
    neg_x = -x
    e = apply_libm(math.exp, np.where(below, -rate, neg_x) * t)
    ratio = (apply_libm(math.expm1, np.where(below, x, neg_x) * t)
             / np.where(singular, 1.0, x))
    ce = c0 * e
    above_value = (ce + inflow * np.where(singular, t, -ratio)) * decay
    return np.where(below, ce + inflow * ratio * e, above_value)


def solve_batch(kind, init, rates, t):
    """Expected pair counts at elapsed time t for each row of ``rates``.

    ``rates`` is a (k, dim) array of rate vectors in ``PARAM_NAMES[kind]``
    order.  Returns a (states, k) array, one row per pair state in
    ``as_tuple`` order.  Column i is bit-identical to
    :func:`solve_nongender` / :func:`solve_gender` at
    ``params_from_vector(kind, rates[i])``: the arithmetic is the same
    sequence of IEEE operations, and transcendentals go through :mod:`math`.
    """
    spec = model_spec(kind)
    names = spec.param_names
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[1] != len(names):
        raise ConfigError(f"rates for model {kind!r} must have shape "
                          f"(k, {len(names)}), got {rates.shape}")
    bad = ~(np.isfinite(rates) & (rates >= 0))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        _check_nonnegative(names[col], float(rates[row, col]))
    _check_time(t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    counts = init.as_tuple()
    r = rates.T
    decay = apply_libm(math.exp, -spec.hazard(r) * t)
    # every discordant class in one (classes, k) evaluation
    starts, inflows, xs, exits = zip(*spec.classes(r))
    out = np.empty((len(counts), len(rates)))
    out[0] = counts[0] * decay
    out[list(starts)] = _discordant_batch(
        np.array([[counts[s]] for s in starts], dtype=float),
        counts[0] * np.array(inflows), np.array(xs), np.array(exits),
        decay, t)
    rest = n - out[0]
    for row in out[1:-1]:
        rest -= row
    out[-1] = np.maximum(rest, 0.0)
    return out


def params_from_vector(kind, vector):
    """Build a typed parameter object from an ordered rate vector."""
    return model_spec(kind).params_type(*vector)
