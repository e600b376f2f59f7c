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
wrappers of one routine) loops over the classes, :func:`solve_columns_at`
evaluates them over broadcasting rate columns, :func:`count_derivatives`
differentiates every count from one routine over them (near x = 0 through
the Taylor series of expm1(x*t)/x, whose closed-form derivatives cancel
there), and the simulator, infections table, parsers and CLI read it too.
The scalar solve pays for reading the table: 2.02 against 1.40 us per
non-gendered solve and 2.53 against 1.87 us per gendered one, for the
copies written out per model that it replaced (median of 25 interleaved
rounds on one pinned CPU of a 2-CPU shared host, Python 3.11).  At 21
solves per fitted cohort file and 5 per simulate-and-refit replicate, that
is under 1% of either.  Everything here is a pure function of its
arguments; all value types are frozen and safe to share across threads.

Grids keep the scalar solver's bits: :func:`apply_libm` sends each exp,
expm1 and log through :mod:`math`.  numpy's vectorised functions differ
from the C library's in 4.6% of exp values, by at most 1 ulp; with them the
101x101 surface took 1.5 against 10.4 ms, but five bit-identity tests
failed.  So the contract stays, and :func:`solve_columns_at` cuts the cost
instead: it takes one broadcasting array per rate and evaluates each
expression on the shape it varies over, so the SS decay of a lambda x tau
surface is one exp per lambda.  That took the transcendentals of the
default report's surfaces and profiles from 156,828 to 82,588, the 101x101
surface from 7.0 to 4.4 ms and its six gendered 41x41 surfaces from 10.3
to 5.4 ms (one pinned CPU of a 2-CPU shared host, median of 20 interleaved
rounds).  A grid over several times checks its columns and forms each
class's x, exit rate and branch masks once.

The optimizer's Newton climb calls :func:`count_derivatives` once per
iteration on 2-4 rates, so its cost is per-call overhead more than
arithmetic.  It puts every class's count and partial derivatives into one
array and chains them to the rates, with II, in one matrix product: 31.1
against 52.6 us per call for the class-by-class chain it replaced, on a
gendered four-time cohort (N = 200,000), and 21.6 against 39.9 us on a
non-gendered one (timeit, best of four interleaved runs on one pinned CPU
of a 2-CPU shared host, Python 3.11, numpy 2.4).  That chain is the tests'
reference.
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


def _state_chain(jac):
    """The matrix that maps one time's class terms to its state rows.

    A time's input row holds 13 numbers for each class of ``jac`` in turn:
    its count, and the count's gradient and flat Hessian in (inflow, x,
    rate); N ends the row.  The output holds each state's count, rate
    gradient g J and flat rate Hessian J^T H J, and II's row is N minus
    the others'.  Every coefficient is 0, +-1, +-2 or 4, so each product of
    a term and a coefficient is exact.
    """
    n_classes, _, dim = jac.shape
    width = 1 + dim + dim * dim
    kron = np.einsum("cai,cbj->cabij", jac, jac).reshape(n_classes, 9, -1)
    chain = np.zeros((n_classes * 13 + 1, n_classes + 1, width))
    for c in range(n_classes):
        own = chain[13 * c:13 * (c + 1), c]
        own[0, 0] = 1.0
        own[1:4, 1:dim + 1] = jac[c]
        own[4:, dim + 1:] = kron[c]
        chain[13 * c:13 * (c + 1), -1] = -own
    chain[-1, -1, 0] = 1.0
    return chain.reshape(len(chain), -1)


_STATE_CHAIN = {kind: _state_chain(jac)
                for kind, jac in _CLASS_JACOBIAN.items()}

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
    with no inflow and x = 0.  The counts and their partial derivatives in
    (inflow, x, rate) go into one array, and one product with their rate
    coefficients (``_STATE_CHAIN``) chains every class and gives II as N
    minus the rest; ``p``, ``grad`` and ``hess`` are views of that product.
    ``p`` equals the scalar solver's counts to rounding, without the clamp
    of II at 0.
    """
    spec = model_spec(kind)
    r = [float(v) for v in rates]
    dim = len(r)
    counts = init.as_tuple()
    ss0 = counts[0]
    h = spec.hazard(r)
    terms = [(ss0, 0.0, 0.0)] + [(counts[start], inflow, x)
                                 for start, inflow, x, _ in spec.classes(r)]
    n = init.total
    flat = []
    for t in times:
        for c0, rate_in, x in terms:
            a = ss0 * rate_in
            e, r0, r1, r2 = _inflow_moments(x, h, t)
            value = c0 * e + a * r0
            # the count, its gradient and its Hessian in (inflow, x, rate)
            flat += (value, ss0 * r0, a * r1, -t * value,
                     0.0, ss0 * r1, -t * ss0 * r0,
                     ss0 * r1, a * r2, -t * a * r1,
                     -t * ss0 * r0, -t * a * r1, t * t * value)
        flat.append(n)
    shape = (len(times), len(terms) + 1)
    rows = (np.array(flat).reshape(len(times), 13 * len(terms) + 1)
            @ _STATE_CHAIN[kind]).reshape(*shape, 1 + dim + dim * dim)
    return (rows[:, :, 0], rows[:, :, 1:dim + 1],
            rows[:, :, dim + 1:].reshape(*shape, dim, dim))


def apply_libm(fn, values):
    """``fn`` from :mod:`math` applied to each element of an array.

    numpy's vectorised exp/expm1/log may differ from the C library's by an
    ulp; going through :mod:`math` keeps :func:`solve_columns_at`
    bit-identical to the scalar solver.  numpy's own functions took the
    101x101 surface from 10.4 to 1.5 ms but broke five bit-identity tests.
    So the contract stays, and the cost is cut by calling this on arrays of
    the shape each expression varies over (the module docstring gives both
    measurements).
    """
    flat = np.fromiter(map(fn, values.ravel().tolist()), float, values.size)
    return flat.reshape(values.shape)


def _discordant_columns(x, rate):
    """The time-independent terms of one discordant class over arrays.

    Both branches of the scalar solver (x <= -EPS_SINGULAR, and the
    general form with its singular limit) are evaluated everywhere and then
    selected.  Each element takes one exp and one expm1, with the arguments
    of its own branch, so the branch it does not use cannot overflow.
    Returns the masks of the branch below and of the singular band, the
    exp argument's rate (varying with x and the exit rate), the expm1
    argument's rate (varying with x alone) and the divisor of the expm1.
    """
    below = x <= -EPS_SINGULAR
    singular = np.abs(x) < EPS_SINGULAR
    neg_x = -x
    return (below, singular, np.where(below, -rate, neg_x),
            np.where(below, x, neg_x), np.where(singular, 1.0, x))


def _checked_columns(names, columns):
    """``columns`` as float arrays, one per name, that broadcast together.

    A bad rate raises the scalar path's :class:`DomainError`: that of the
    first bad rate of the first cell, in row-major cell order, that holds
    one.
    """
    if len(columns) != len(names):
        raise ConfigError(f"{len(names)} rate columns needed, got {len(columns)}")
    columns = tuple(np.asarray(c, dtype=float) for c in columns)
    try:
        shape = np.broadcast(*columns).shape
    except ValueError:
        raise ConfigError("rate columns do not broadcast: "
                          f"{[c.shape for c in columns]}") from None
    flat = np.concatenate([c.ravel() for c in columns])
    # NaN fails both comparisons
    if not ((flat >= 0.0) & (flat < math.inf)).all():
        good = [(c >= 0.0) & (c < math.inf) for c in columns]
        cell = np.unravel_index(np.argmin(np.logical_and.reduce(
            np.broadcast_arrays(*good))), shape)
        for name, c in zip(names, columns):
            _check_nonnegative(name, float(np.broadcast_to(c, shape)[cell]))
    return columns


def solve_columns_at(kind, init, columns, times):
    """Expected pair counts at each of elapsed ``times`` over rate columns.

    ``columns`` holds one array or scalar per rate in ``PARAM_NAMES[kind]``
    order, which broadcast against each other: a surface passes its axes as
    a column and a row and its fixed rates as scalars.  Returns, per time,
    one list of arrays, one per pair state in ``as_tuple`` order, each of
    the shape its expression varies over: on a lambda x tau surface the SS
    count and the exp of its decay are one column.  Broadcast to the
    columns' shape, each element is bit-identical to :func:`solve_nongender`
    / :func:`solve_gender` at that cell's rates: the arithmetic is the same
    sequence of IEEE operations on the same values, and transcendentals go
    through :mod:`math`.  The columns are checked, and each class's x, exit
    rate and branch masks formed, once for all times.
    """
    spec = model_spec(kind)
    r = _checked_columns(spec.param_names, columns)
    for t in times:
        _check_time(t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    counts = init.as_tuple()
    hazard = spec.hazard(r)
    # one class at a time: the classes of a surface vary over different axes
    classes = [(counts[start], counts[0] * inflow,
                *_discordant_columns(x, rate))
               for start, inflow, x, rate in spec.classes(r)]
    out = []
    for t in times:
        decay = apply_libm(math.exp, -hazard * t)
        states = [counts[0] * decay]
        for c0, a, below, singular, exp_rate, expm1_rate, divisor in classes:
            e = apply_libm(math.exp, exp_rate * t)
            ratio = apply_libm(math.expm1, expm1_rate * t) / divisor
            ce = c0 * e
            above = (ce + a * np.where(singular, t, -ratio)) * decay
            states.append(np.where(below, ce + a * ratio * e, above))
        rest = n - states[0]
        for value in states[1:]:
            rest = rest - value
        states.append(np.maximum(rest, 0.0))
        out.append(states)
    return out


def params_from_vector(kind, vector):
    """Build a typed parameter object from an ordered rate vector."""
    return model_spec(kind).params_type(*vector)
