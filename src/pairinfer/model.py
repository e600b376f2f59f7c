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
A scalar solve takes 1.60 us non-gendered and 2.06 us gendered, against
1.92 and 2.49 us before the counts and states were tuples (timeit, median
of 11 interleaved rounds of fresh interpreters on one pinned CPU of a
2-CPU shared host, Python 3.11).  At 21 solves per fitted cohort file and
5 per simulate-and-refit replicate, that is under 1% of either.

The value types are tuples in state or rate order, with a property per
field: ``PairCounts(1, 2, 3) == (1, 2, 3)``.  Their values are kept as
given, so int counts stay ints.  Everything here is a pure function of
its arguments; all value types are immutable and safe to share across
threads.  This module needs only :mod:`math`, so loading a dataset
imports no numpy; the array kernels over the table live in
:mod:`pairinfer.likelihood`.
"""

from __future__ import annotations

import copyreg
import math
import sys
from functools import reduce
from operator import add, itemgetter

from .errors import ConfigError, DomainError

NONGENDER = "nongender"
GENDER = "gender"

_FLOAT_MAX = sys.float_info.max

# Width of the singular band |tau - lambda| below which the analytic limit
# of (1 - exp(-x*t))/x is used instead of the general expression.
EPS_SINGULAR = 1e-8


def _check_nonnegative(name, value):
    # one comparison fails NaN, inf, negatives and ints past the float range
    if not 0.0 <= value <= _FLOAT_MAX:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


class _Values(tuple):
    """Values in state or rate order, read by position or by field name.

    ``_names`` names the values: a type with names takes exactly that many
    and checks that each is finite and >= 0, naming it in the error.
    :class:`PairState` has none; it holds 3 or 4 expected counts,
    unchecked.  Values are kept as given, so int counts stay ints.
    """

    __slots__ = ()
    _names = ()

    def __new__(cls, *values):
        names = cls._names
        if len(values) not in ((len(names),) if names else (3, 4)):
            raise TypeError(f"{cls.__name__} takes {len(names) or '3 or 4'} "
                            f"values, got {len(values)}")
        for name, value in zip(names, values):
            _check_nonnegative(name, value)
        return tuple.__new__(cls, values)

    def __getnewargs__(self):
        # copy and pickle call __new__ with these
        return tuple(self)

    def as_tuple(self):
        return self

    @property
    def total(self):
        """The values added left to right (``sum`` compensates from 3.12)."""
        return reduce(add, self)


class PairCounts(_Values):
    """Occupancy of the three non-gendered pair states at one time."""

    __slots__ = ()
    _names = ("ss", "si", "ii")
    ss = property(itemgetter(0))
    si = property(itemgetter(1))
    ii = property(itemgetter(2))


class GenderPairCounts(_Values):
    """Occupancy of the four gendered pair states.

    ``is_`` counts pairs with the male partner infected, ``si`` pairs with
    the female partner infected.
    """

    __slots__ = ()
    _names = ("ss", "is_", "si", "ii")
    ss = property(itemgetter(0))
    is_ = property(itemgetter(1))
    si = property(itemgetter(2))
    ii = property(itemgetter(3))


class NonGenderParams(_Values):
    """Transmission rates (per year) for the non-gendered model."""

    __slots__ = ()
    _names = ("lambda", "tau")
    lam = property(itemgetter(0))
    tau = property(itemgetter(1))


class GenderParams(_Values):
    """Transmission rates (per year) for the gendered model."""

    __slots__ = ()
    _names = ("lambda_m", "lambda_f", "tau_mf", "tau_fm")
    lam_m = property(itemgetter(0))
    lam_f = property(itemgetter(1))
    tau_mf = property(itemgetter(2))
    tau_fm = property(itemgetter(3))


class PairState(_Values):
    """Expected (real-valued) pair counts of either model, in state order."""

    __slots__ = ()


class _ReadOnly:
    """Slots set once, by ``__init__``; setting or deleting one afterwards
    is an AttributeError."""

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _read_only(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        # copy and pickle restore the slots as they are, without __init__
        return (copyreg.__newobj__, (type(self),),
                {name: getattr(self, name) for name in self.__slots__})

    def __setstate__(self, state):
        _ReadOnly.__init__(self, **state)


class ModelSpec(_ReadOnly):
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

    __slots__ = ("kind", "param_names", "state_labels", "counts_type",
                 "params_type", "hazard", "classes", "routes")


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


def _solve(spec, rates, init, t):
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
    _check_nonnegative("time", t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    ss0 = init[0]
    decay = math.exp(-spec.hazard(rates) * t)
    states = [ss0 * decay]
    rest = n - states[0]
    for start, inflow, x, rate in spec.classes(rates):
        c0 = init[start]
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
    return tuple.__new__(PairState, states)  # of the right arity: no check


def solve_nongender(params: NonGenderParams, init: PairCounts, t: float) -> PairState:
    """Closed-form expected pair counts at elapsed time t from state ``init``."""
    return _solve(MODELS[NONGENDER], params, init, t)


def solve_gender(params: GenderParams, init: GenderPairCounts, t: float) -> PairState:
    """Closed-form expected pair counts for the gendered model.

    The two discordant classes have independent singular limits, applied when
    tau_mf is within EPS_SINGULAR of lambda_m (and likewise for the f -> m
    pair of rates).
    """
    return _solve(MODELS[GENDER], params, init, t)


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
