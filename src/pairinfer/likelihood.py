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
non-gendered one (timeit on one pinned CPU; the :mod:`~pairinfer.model`
docstring gives the setting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DomainError
from .model import (GENDER, NONGENDER, PARAM_NAMES, apply_libm,
                    count_derivatives, model_spec, solve_columns_at,
                    solve_gender, solve_nongender)


def _log_likelihood(solve, kind, params, data: Dataset) -> float:
    """The log-likelihood loop of both models, over ``solve``'s counts."""
    if data.kind != kind:
        raise DomainError(f"{kind} likelihood requires {kind} data")
    init = data.initial
    n = data.n
    ll = 0.0
    for t, counts in zip(data.elapsed()[1:], data.counts[1:]):
        term = 0.0
        for n_obs, pred in zip(counts, solve(params, init, t).as_tuple()):
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
    counts = np.array(data.counts[1:], dtype=float)
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

    ``columns`` are as for :func:`~pairinfer.model.solve_columns_at`.
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
    for counts, states in zip(data.counts[1:], solved):
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
    for counts in data.counts[1:]:
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
    max_loglik: float
    argmax: tuple


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
        max_ll = float(out[finite].max())
        flat = np.where(finite, out, -np.inf).argmax()
        argmax = np.unravel_index(flat, out.shape)
        normalized = np.where(finite, out - max_ll, out)
    else:
        # -inf - -inf would be nan, with a RuntimeWarning
        max_ll = -math.inf
        argmax = (0, 0)
        normalized = out.copy()
    return SurfaceResult(
        axis_names=(ax0.name, ax1.name),
        axis_values=(v0, v1),
        loglik=out,
        normalized=normalized,
        max_loglik=max_ll,
        argmax=tuple(int(k) for k in argmax),
    )


@dataclass
class ProfileCurve:
    """Fixed-slice likelihood curve: one parameter varies, others anchored."""

    name: str
    values: np.ndarray
    loglik: np.ndarray


def slice_profile(kind, data: Dataset, vary: str, axis: GridAxis, anchor) -> ProfileCurve:
    """One-dimensional likelihood slice through ``anchor`` along ``vary``.

    This matches the reported profile panels: the other coordinates stay at
    the anchor (typically the MLE); no re-optimization is performed.
    """
    names = PARAM_NAMES[kind]
    if vary not in names:
        raise ConfigError(f"unknown parameter {vary!r} for model {kind!r}")
    if axis.name != vary:
        raise ConfigError(f"axis name {axis.name!r} does not match vary={vary!r}")
    xs = axis.values()
    columns = list(anchor.as_vector())
    columns[names.index(vary)] = xs
    return ProfileCurve(name=vary, values=xs,
                        loglik=log_likelihood_columns(kind, data, columns))
