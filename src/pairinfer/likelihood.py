"""Multinomial log-likelihood of pair-count data under the forward models.

The first observation is the conditioning state (deterministic initial
condition), so only terms at later times enter the sum.  Multinomial
coefficients are parameter-independent and omitted.  Impossible data -- a
strictly positive count where the model predicts probability <= 0 -- yields
a -inf sentinel rather than an exception so optimizers can step back into
the feasible region; zero counts contribute nothing even at zero predicted
probability.

Grids and slices are one batched evaluation: :func:`likelihood_surface` and
:func:`slice_profile` pass one broadcasting array per rate (an axis as a
column or a row, a fixed rate as a scalar) to
:func:`log_likelihood_columns`, which returns, cell for cell, the
bit-identical value of :func:`log_likelihood` and takes each log once per
element of its state's own shape.  Point evaluations (optimizer steps and
line searches) stay on the scalar path, which is cheaper for a single rate
vector.  :func:`score_and_information` gives the exact gradient and
observed information, on which the optimizer's Newton climb steps and from
which the standard errors come, and the expected information, on which the
climb steps where the observed one is not positive definite.  It forms
each over the flattened (time, state) rows in a few matrix products, not
per-index einsums: with the count derivatives, 50.1 against 83.4 us per
call on a gendered four-time cohort and 40.2 against 67.7 us on a
non-gendered one (timeit on one pinned CPU; the last paragraph gives the
setting).

The forward model's array kernels live here, with their only user, so
that :mod:`pairinfer.model` and loading a dataset need no numpy.

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
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DomainError
from .model import (EPS_SINGULAR, GENDER, MODELS, NONGENDER, PARAM_NAMES,
                    _check_nonnegative, _inflow_moments, model_spec,
                    solve_gender, solve_nongender)


def _log_likelihood(solve, kind, params, data: Dataset) -> float:
    """The log-likelihood loop of both models, over ``solve``'s counts."""
    if data.kind != kind:
        raise DomainError(f"{kind} likelihood requires {kind} data")
    init = data.initial
    n = data.n
    ll = 0.0
    for t, counts in zip(data.elapsed()[1:], data.observations[1:]):
        term = 0.0
        for n_obs, pred in zip(counts, solve(params, init, t)):
            if n_obs > 0:
                p = pred / n
                if p <= 0.0:
                    return -math.inf
                term += n_obs * math.log(p)
        ll += term
    return ll


# The solvers are passed as module globals at call time, never stored, so
# that a rebinding of the module attribute (a tracer's wrapper) takes effect.
def log_likelihood_nongender(params, data: Dataset) -> float:
    """Log-likelihood of a non-gendered dataset (t = 0 terms dropped)."""
    return _log_likelihood(solve_nongender, NONGENDER, params, data)


def log_likelihood_gender(params, data: Dataset) -> float:
    """Log-likelihood of a gendered dataset (t = 0 terms dropped)."""
    return _log_likelihood(solve_gender, GENDER, params, data)


def log_likelihood(kind, params, data: Dataset) -> float:
    if kind == NONGENDER:
        return log_likelihood_nongender(params, data)
    if kind == GENDER:
        return log_likelihood_gender(params, data)
    raise ConfigError(f"unknown model kind {kind!r}")


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


def count_derivatives(kind, init, rates, times):
    """Expected pair counts and their rate derivatives at elapsed ``times``.

    ``rates`` is one rate vector in ``PARAM_NAMES[kind]`` order.  Returns
    ``(p, grad, hess)`` of shapes (T, states), (T, states, dim) and
    (T, states, dim, dim), states in state order.  One routine serves
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
    ss0 = init[0]
    h = spec.hazard(r)
    terms = [(ss0, 0.0, 0.0)] + [(init[start], inflow, x)
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
    # terms past the float64 range are inf, and their sums with opposite
    # signs nan, as in the scalar sums
    with np.errstate(over="ignore", invalid="ignore"):
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
    one list of arrays, one per pair state in state order, each of
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
        _check_nonnegative("time", t)
    n = init.total
    if n <= 0:
        raise DomainError("initial counts must sum to a positive total")
    # a rate near the float64 limit overflows to inf, and inf * 0 is nan,
    # as on the scalar path, which raises no warning for either
    with np.errstate(over="ignore", invalid="ignore"):
        hazard = spec.hazard(r)
        # one class at a time: the classes of a surface vary over
        # different axes
        classes = [(init[start], init[0] * inflow,
                    *_discordant_columns(x, rate))
                   for start, inflow, x, rate in spec.classes(r)]
        out = []
        for t in times:
            decay = apply_libm(math.exp, -hazard * t)
            states = [init[0] * decay]
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


def score_and_information(kind, data: Dataset, rates):
    """Score, observed information and expected information at ``rates``.

    The score is the gradient sum_s n_s dP_s/P_s and the observed
    information is minus the Hessian,
    sum_s n_s (dP_s dP_s^T / P_s^2 - d2P_s / P_s), both summed over the
    non-conditioning times (the proportion's 1/N drops out of both).  The
    expected (Fisher) information is sum_s dP_s dP_s^T / P_s over the states
    with a positive expected count, N times that of one pair's multinomial.
    It is positive semi-definite at every rate vector, where the observed
    one need not be.  Returns ``(score, observed, expected)``, where
    ``expected`` is a function of no arguments that forms the expected
    information from the same count derivatives when it is called, or None
    where an observed state has no positive expected count: the
    log-likelihood is -inf there and has no derivatives.
    """
    p, grad, hess = count_derivatives(kind, data.initial, rates,
                                      data.elapsed()[1:])
    dim = grad.shape[2]
    counts = np.array(data.observations[1:], dtype=float)
    safe_p = np.where(counts > 0, p, 1.0)
    if not (safe_p > 0.0).all():
        return None
    n = counts.ravel()
    # an entry beyond the float64 range is inf, as the exact one is
    with np.errstate(over="ignore"):
        # dP/P and d2P/P first: squaring 1/P alone overflows for P below
        # ~1e-154, and n/P for a subnormal P
        relative = (grad / safe_p[:, :, None]).reshape(-1, dim)
        second = (hess / safe_p[:, :, None, None]).reshape(-1, dim * dim)
        score = n @ relative
        observed = ((relative.T * n) @ relative
                    - (n @ second).reshape(dim, dim))

    def expected():
        # dP/sqrt(P) first, for the same reason
        positive = p > 0.0
        root = np.where(positive[:, :, None],
                        grad / np.sqrt(np.where(positive, p, 1.0))[:, :, None],
                        0.0)
        return np.einsum("tsj,tsk->jk", root, root)

    # halves first: the sum overflows for entries above ~9e307
    return score, 0.5 * observed + 0.5 * observed.T, expected


def log_likelihood_columns(kind, data: Dataset, columns) -> np.ndarray:
    """:func:`log_likelihood` at every cell of broadcasting rate columns.

    ``columns`` are as for :func:`solve_columns_at`.
    Returns an array of the shape they broadcast to.  Each element is
    bit-identical to the scalar value at that cell's rates, -inf sentinel
    included; a negative or non-finite rate raises the scalar path's
    :class:`DomainError`.  Each log is taken once per element of its
    state's own shape.
    """
    model_spec(kind)  # an unknown kind is a ConfigError, not a data mismatch
    if data.kind != kind:
        raise DomainError(f"{kind} likelihood requires {kind} data")
    n = data.n
    ll = 0.0
    impossible = False
    solved = solve_columns_at(kind, data.initial, columns, data.elapsed()[1:])
    for counts, states in zip(data.observations[1:], solved):
        # added state by state, in the scalar path's order
        term = 0.0
        for n_obs, pred in zip(counts, states):
            # zero counts contribute nothing, even against p = 0
            if n_obs > 0:
                p = pred / n
                bad = p <= 0.0
                impossible = impossible | bad
                term = term + n_obs * apply_libm(math.log,
                                                 np.where(bad, 1.0, p))
        ll = ll + term
    out = np.empty(np.broadcast(*columns).shape)
    out[...] = np.where(impossible, -math.inf, ll)
    return out


def saturated_log_likelihood(data: Dataset) -> float:
    """Upper bound attained when predicted proportions equal observed ones.

    By Gibbs' inequality the likelihood can never exceed
    sum_t sum_x N_x^t * log(N_x^t / N) over the non-conditioning times.
    """
    n = data.n
    total = 0.0
    for counts in data.observations[1:]:
        for c in counts:
            if c > 0:
                total += c * math.log(c / n)
    return total


@dataclass(frozen=True)
class GridAxis:
    """One parameter axis, linearly spaced unless ``log`` is set.

    n = 1 denotes a single point at ``lo`` (used for pinned-parameter grids);
    otherwise lo < hi is required.  Log spacing needs lo > 0.
    """

    name: str
    lo: float
    hi: float
    n: int
    log: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("grid axis bounds must be finite")
        if self.n < 1:
            raise ConfigError("grid axis needs at least one point")
        if self.lo < 0:
            raise ConfigError("grid axis minimum must be >= 0")
        if self.n >= 2 and not self.hi > self.lo:
            raise ConfigError("grid axis maximum must exceed minimum")
        if self.hi < self.lo:
            raise ConfigError("grid axis maximum must be >= minimum")
        if self.log and self.lo <= 0:
            raise ConfigError("log-spaced axis needs a positive minimum")

    def values(self):
        if self.log:
            return np.geomspace(self.lo, self.hi, self.n)
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class GridSpec:
    """An ordered collection of grid axes."""

    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate grid axis names: {names}")


@dataclass
class SurfaceResult:
    """Log-likelihood evaluated over a two-axis grid.

    ``loglik`` holds raw values (row-major: rows follow the first axis);
    ``normalized`` subtracts the finite maximum so the grid max is exactly 0,
    with -inf sentinels preserved.
    """

    axis_names: tuple
    axis_values: tuple
    loglik: np.ndarray
    normalized: np.ndarray


def _resolve_axes(kind, grid: GridSpec, fixed):
    names = PARAM_NAMES[kind]
    axis_names = [a.name for a in grid.axes]
    for name in axis_names:
        if name not in names:
            raise ConfigError(f"unknown parameter {name!r} for model {kind!r}")
    for name in fixed:
        if name not in names:
            raise ConfigError(f"unknown fixed parameter {name!r} for model {kind!r}")
        if name in axis_names:
            raise ConfigError(f"parameter {name!r} is both a grid axis and fixed")
    missing = [n for n in names if n not in axis_names and n not in fixed]
    if missing:
        raise ConfigError(f"parameters not covered by grid or fixed: {missing}")
    return names


def likelihood_surface(kind, data: Dataset, grid: GridSpec, fixed=None) -> SurfaceResult:
    """Evaluate the log-likelihood over a 2-axis grid, others held fixed."""
    fixed = dict(fixed or {})
    if len(grid.axes) != 2:
        raise ConfigError("likelihood_surface requires exactly two grid axes")
    names = _resolve_axes(kind, grid, fixed)
    ax0, ax1 = grid.axes
    v0 = ax0.values()
    v1 = ax1.values()
    axes = {ax0.name: v0[:, None], ax1.name: v1[None, :]}
    out = log_likelihood_columns(
        kind, data, tuple(axes[name] if name in axes else fixed[name]
                          for name in names))
    finite = np.isfinite(out)
    if finite.any():
        normalized = np.where(finite, out - out[finite].max(), out)
    else:
        # -inf - -inf would be nan, with a RuntimeWarning
        normalized = out.copy()
    return SurfaceResult(
        axis_names=(ax0.name, ax1.name),
        axis_values=(v0, v1),
        loglik=out,
        normalized=normalized,
    )


@dataclass
class ProfileCurve:
    """Fixed-slice likelihood curve: one parameter varies, others anchored."""

    name: str
    values: np.ndarray
    loglik: np.ndarray


def slice_profile(kind, data: Dataset, axis: GridAxis, anchor) -> ProfileCurve:
    """One-dimensional likelihood slice through ``anchor`` along ``axis``,
    which varies the rate it names.

    This matches the reported profile panels: the other coordinates stay at
    the anchor (typically the MLE); no re-optimization is performed.
    """
    names = PARAM_NAMES[kind]
    if axis.name not in names:
        raise ConfigError(f"unknown parameter {axis.name!r} for model {kind!r}")
    xs = axis.values()
    columns = list(anchor)
    columns[names.index(axis.name)] = xs
    return ProfileCurve(name=axis.name, values=xs,
                        loglik=log_likelihood_columns(kind, data, columns))
