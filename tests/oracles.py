"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: forward
states come from adaptive ODE integration, quantiles from mpmath at high
precision, Hessians from Richardson extrapolation of plain central
differences, the simplex trajectory from its numpy formulation, and
simulated counts from a one-shot sampler of the closed-form law.  The
per-model rate algebra that the program now derives from its model table
is kept here as it was written out per model: the linear form, the
Gillespie channel tables and the batch solver.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from pairinfer import (GENDER, NONGENDER, PARAM_NAMES, ConfigError,
                       DomainError, GenderPairCounts, GenderParams,
                       InternalConsistencyError, NonGenderParams, PairCounts,
                       SimplexResult, nongender_dataset, solve_gender,
                       solve_nongender)
from pairinfer.model import (EPS_SINGULAR, _check_nonnegative, _check_time,
                             apply_libm)
from pairinfer.simulate import _rng


def integrate_nongender(params: NonGenderParams, init: PairCounts, t: float):
    """Adaptive high-order integration of the non-gendered ODE system."""
    lam, tau = params.lam, params.tau

    def rhs(_, y):
        return [-2.0 * lam * y[0],
                2.0 * lam * y[0] - (lam + tau) * y[1],
                (lam + tau) * y[1]]

    if t == 0:
        return np.array(init.as_tuple(), dtype=float)
    sol = solve_ivp(rhs, (0.0, t), list(init.as_tuple()), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=[t])
    return sol.y[:, -1]


def integrate_gender(params: GenderParams, init: GenderPairCounts, t: float):
    """Adaptive high-order integration of the gendered ODE system."""
    lm, lf, tmf, tfm = params.as_vector()

    def rhs(_, y):
        return [-(lm + lf) * y[0],
                lm * y[0] - (tmf + lf) * y[1],
                lf * y[0] - (lm + tfm) * y[2],
                (tmf + lf) * y[1] + (lm + tfm) * y[2]]

    if t == 0:
        return np.array(init.as_tuple(), dtype=float)
    sol = solve_ivp(rhs, (0.0, t), list(init.as_tuple()), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=[t])
    return sol.y[:, -1]


def normal_quantile_mp(p, dps=40):
    """Standard normal inverse CDF via mpmath's high-precision erfinv."""
    with mpmath.workdps(dps):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


def chi2_quantile_2dof_mp(p, dps=40):
    """Chi-square(2) inverse CDF by bisecting the regularized gamma CDF."""
    with mpmath.workdps(dps):
        target = mpmath.mpf(p)

        def cdf(x):
            return mpmath.gammainc(1, 0, x / 2, regularized=True)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while cdf(hi) < target:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _counts_mp(kind, rates, init, t):
    """Expected SS and discordant counts by the closed forms, in mpmath.

    II is left out: as N minus the rest it cancels at tiny rates, and its
    derivatives are minus the sum of the others'.
    """
    def decay_integral(x):
        return t if x == 0 else -mpmath.expm1(-x * t) / x

    ss0 = init[0]
    if kind == "nongender":
        lam, tau = rates
        decay = mpmath.exp(-2 * lam * t)
        return [ss0 * decay,
                (init[1] * mpmath.exp(-(tau - lam) * t)
                 + ss0 * 2 * lam * decay_integral(tau - lam)) * decay]
    lam_m, lam_f, tau_mf, tau_fm = rates
    decay = mpmath.exp(-(lam_m + lam_f) * t)
    return [ss0 * decay,
            (init[1] * mpmath.exp(-(tau_mf - lam_m) * t)
             + lam_m * ss0 * decay_integral(tau_mf - lam_m)) * decay,
            (init[2] * mpmath.exp(-(tau_fm - lam_f) * t)
             + lam_f * ss0 * decay_integral(tau_fm - lam_f)) * decay]


def count_derivatives_mp(kind, rates, init, t, dps=40):
    """Expected counts with their rate gradients and Hessians, by mpmath.

    High-precision numerical differentiation of the closed forms, which
    shares no code with pairinfer's analytic derivatives.  Returns the
    counts (II left out) and arrays of shapes (states, dim) and
    (states, dim, dim), whose II rows are minus the sum of the others.
    """
    dim = len(rates)
    with mpmath.workdps(dps):
        point = [mpmath.mpf(float(v)) for v in rates]
        counts = [float(c) for c in _counts_mp(kind, point, init, t)]
        n_counts = len(counts)
        grad = np.zeros((n_counts + 1, dim))
        hess = np.zeros((n_counts + 1, dim, dim))
        for s in range(n_counts):
            def count(*r, s=s):
                return _counts_mp(kind, list(r), init, t)[s]
            for i in range(dim):
                order = [0] * dim
                order[i] = 1
                grad[s, i] = float(mpmath.diff(count, point, tuple(order)))
                for j in range(i, dim):
                    order = [0] * dim
                    order[i] += 1
                    order[j] += 1
                    hess[s, i, j] = hess[s, j, i] = float(
                        mpmath.diff(count, point, tuple(order)))
    grad[-1] = -grad[:-1].sum(axis=0)
    hess[-1] = -hess[:-1].sum(axis=0)
    return counts, grad, hess


def loglik_derivatives_mp(kind, rates, data, dps=40):
    """Score and observed information of the log-likelihood, by mpmath.diff.

    The proportions are the closed-form counts over N, II by subtraction;
    the t = 0 observation is conditioned on.  mpmath.diff steps by about
    10^-dps, which must stay far below every count, and the smallest
    entries are products of two counts' derivatives: ``dps`` is raised by
    twice the decimal exponent of the smallest SS or discordant count as a
    share of N, up to 600 digits (float64 ends near 1e-308).
    """
    dim = len(rates)
    init = data.initial.as_tuple()
    n = sum(init)
    later = list(zip(data.elapsed()[1:], data.observations[1:]))

    def loglik(*r):
        total = mpmath.mpf(0)
        for t, obs in later:
            counts = _counts_mp(kind, list(r), init, mpmath.mpf(t))
            counts.append(n - sum(counts))
            for c, p in zip(obs.as_tuple(), counts):
                if c > 0:
                    total += c * mpmath.log(p / n)
        return total

    with mpmath.workdps(dps):
        point = [mpmath.mpf(float(v)) for v in rates]
        smallest = min(min(_counts_mp(kind, point, init, mpmath.mpf(t)))
                       for t, _ in later) / n
        if smallest > 0:
            dps += 2 * min(300, max(0, int(-mpmath.log10(smallest))))
    with mpmath.workdps(dps):
        point = [mpmath.mpf(float(v)) for v in rates]
        score = np.zeros(dim)
        information = np.zeros((dim, dim))
        for i in range(dim):
            order = [0] * dim
            order[i] = 1
            score[i] = float(mpmath.diff(loglik, point, tuple(order)))
            for j in range(i, dim):
                order = [0] * dim
                order[i] += 1
                order[j] += 1
                information[i, j] = information[j, i] = -float(
                    mpmath.diff(loglik, point, tuple(order)))
    return score, information


def plain_central_hessian(fn, x, h):
    """Textbook central-difference Hessian with one fixed step vector."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    hess = np.zeros((dim, dim))
    f0 = fn(x)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h[i]
        hess[i, i] = (fn(x + ei) + fn(x - ei) - 2.0 * f0) / h[i] ** 2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                fn(x + ei + ej) + fn(x - ei - ej)
                - fn(x + ei - ej) - fn(x - ei + ej)) / (4.0 * h[i] * h[j])
    return hess


def richardson_hessian(fn, x, h):
    """Richardson extrapolation of the central Hessian (steps h and h/2)."""
    h = np.asarray(h, dtype=float)
    coarse = plain_central_hessian(fn, x, h)
    fine = plain_central_hessian(fn, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def make_consistent_dataset(rng, horizon=2.0):
    """Synthetic two-time dataset whose counts are exact model expectations.

    The initial composition is chosen so II/SI equals the model's own ratio
    at the second time, which keeps the analytic stationarity target equal
    to the exact-fit target; see the estimator agreement tests.
    """
    while True:
        lam = rng.uniform(0.0015, 0.006)
        tau = rng.uniform(0.03, 0.09)
        ss0 = rng.uniform(1200.0, 2000.0)
        si0 = rng.uniform(30.0, 80.0)
        params = NonGenderParams(lam, tau)
        probe = solve_nongender(params, PairCounts(ss0, si0, 0.0), horizon)
        p_ss, p_si = probe.p_ss, probe.p_si
        # ii0 solving ii0/si0 = P_II/P_SI; P_SS and P_SI do not depend on ii0
        denom = p_si - si0
        if denom <= 1e-6:
            continue
        ii0 = si0 * (ss0 + si0 - p_ss - p_si) / denom
        if ii0 < 0:
            continue
        init = PairCounts(ss0, si0, ii0)
        state = solve_nongender(params, init, horizon)
        data = nongender_dataset((0.0, horizon),
                                 [init.as_tuple(), state.as_tuple()])
        return params, data


# The box Nelder-Mead in its numpy formulation, before the simplex moved to
# Python floats.  pairinfer.minimize_simplex must follow the same trajectory
# bit for bit.  The one deliberate difference is the spread test, which the
# production code floors at four ulps of the best value; the two agree
# wherever |f| < 2,048.  Both give equal vertex values, +inf included, zero
# spread, so a simplex of infeasible points shrinks to the diameter
# tolerance and stops.  The constants are those of pairinfer.neldermead.
_IMPROVEMENT_TOL = 1e-9
_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZERO_STEP = 0.05
_ZERO_STEP = 0.00025


def reflect_into_box(x, lo, hi):
    """Fold a proposal across any violated bound, then clip the residual."""
    y = np.where(x < lo, lo + (lo - x), x)
    y = np.where(y > hi, hi - (y - hi), y)
    return np.clip(y, lo, hi)


def _initial_simplex(x0, lo, hi):
    dim = x0.size
    vertices = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        step = _NONZERO_STEP * abs(v[i]) if v[i] != 0.0 else _ZERO_STEP
        v[i] += step
        v = reflect_into_box(v, lo, hi)
        if np.array_equal(v, x0):
            # reflection landed back on the start point (x0 at a bound)
            v[i] = x0[i] - step
            v = reflect_into_box(v, lo, hi)
        vertices.append(v)
    return vertices


def minimize_simplex(fn, x0, bounds, seed=0, max_evals=50_000,
                     diameter_tol=1e-10, spread_tol=1e-12,
                     n_starts=3, jitter=0.25) -> SimplexResult:
    """Minimize ``fn`` over the box ``bounds`` starting near ``x0``.

    ``fn`` may return +inf for infeasible points.  Returns the best point
    seen across all evaluations, so the result never regresses below the
    starting point.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound")
    dim = x0.size

    n_evals = 0
    best_x = None
    best_f = np.inf

    def evaluate(x):
        nonlocal n_evals, best_x, best_f
        n_evals += 1
        f = float(fn(x))
        if f < best_f:
            best_f = f
            best_x = x.copy()
        return f

    rng = np.random.Generator(np.random.Philox(seed))
    starts = [reflect_into_box(x0, lo, hi)]
    for _ in range(max(n_starts - 1, 0)):
        u = rng.uniform(-1.0, 1.0, size=dim)
        jittered = x0 * (1.0 + jitter * u)
        jittered = np.where(x0 == 0.0, jitter * np.abs(u) * _ZERO_STEP, jittered)
        starts.append(reflect_into_box(jittered, lo, hi))

    incumbent_f = np.inf
    incumbent_x = starts[0].copy()
    incumbent_converged = False

    for start in starts:
        if n_evals >= max_evals:
            break
        vertices = _initial_simplex(start, lo, hi)
        fs = []
        for v in vertices:
            if n_evals >= max_evals:
                break
            fs.append(evaluate(v))
        if len(fs) < len(vertices):
            break
        order = np.argsort(fs, kind="stable")
        vertices = [vertices[k] for k in order]
        fs = [fs[k] for k in order]
        run_converged = False

        while n_evals + 2 <= max_evals:
            diameter = max(np.max(np.abs(v - vertices[0])) for v in vertices[1:])
            spread = 0.0 if fs[-1] == fs[0] else fs[-1] - fs[0]
            if diameter < diameter_tol and spread < spread_tol:
                run_converged = True
                break

            centroid = np.mean(vertices[:-1], axis=0)
            xr = reflect_into_box(centroid + _ALPHA * (centroid - vertices[-1]), lo, hi)
            fr = evaluate(xr)
            if fs[0] <= fr < fs[-2]:
                vertices[-1], fs[-1] = xr, fr
            elif fr < fs[0]:
                xe = reflect_into_box(centroid + _GAMMA * (xr - centroid), lo, hi)
                fe = evaluate(xe)
                if fe < fr:
                    vertices[-1], fs[-1] = xe, fe
                else:
                    vertices[-1], fs[-1] = xr, fr
            else:
                xc = reflect_into_box(centroid + _RHO * (vertices[-1] - centroid), lo, hi)
                fc = evaluate(xc)
                if fc < fs[-1]:
                    vertices[-1], fs[-1] = xc, fc
                else:
                    # shrink toward the best vertex
                    for k in range(1, dim + 1):
                        if n_evals >= max_evals:
                            break
                        vertices[k] = reflect_into_box(
                            vertices[0] + _SIGMA * (vertices[k] - vertices[0]), lo, hi)
                        fs[k] = evaluate(vertices[k])
            order = np.argsort(fs, kind="stable")
            vertices = [vertices[k] for k in order]
            fs = [fs[k] for k in order]

        if fs[0] < incumbent_f - _IMPROVEMENT_TOL:
            incumbent_f = fs[0]
            incumbent_x = vertices[0].copy()
            incumbent_converged = run_converged

    # The global best evaluation can edge out the incumbent's final vertex
    # (e.g. budget exhausted mid-shrink); prefer it under the same tie rule.
    if best_f < incumbent_f - _IMPROVEMENT_TOL:
        incumbent_f = best_f
        incumbent_x = best_x.copy()
        incumbent_converged = False
    if best_x is None:
        incumbent_x = starts[0]
        incumbent_f = np.inf

    at_bound = bool(np.any((incumbent_x - lo <= 1e-12 * np.maximum(1.0, np.abs(lo)))
                           | (hi - incumbent_x <= 1e-12 * np.maximum(1.0, np.abs(hi)))))
    return SimplexResult(
        x=incumbent_x,
        fun=incumbent_f,
        n_evals=n_evals,
        converged=incumbent_converged,
        on_boundary=at_bound,
        n_starts=len(starts),
    )


# ---------------------------------------------------------------------------
# the one-shot sampler

def _class_distributions(params, init, t):
    """Per-pair state distribution at time t for each initial state class."""
    if isinstance(params, NonGenderParams):
        dists = [
            solve_nongender(params, PairCounts(1, 0, 0), t).as_tuple(),
            solve_nongender(params, PairCounts(0, 1, 0), t).as_tuple(),
            (0.0, 0.0, 1.0),  # II is absorbing
        ]
    else:
        dists = [
            solve_gender(params, GenderPairCounts(1, 0, 0, 0), t).as_tuple(),
            solve_gender(params, GenderPairCounts(0, 1, 0, 0), t).as_tuple(),
            solve_gender(params, GenderPairCounts(0, 0, 1, 0), t).as_tuple(),
            (0.0, 0.0, 0.0, 1.0),
        ]
    checked = []
    for dist in dists:
        probs = np.asarray(dist, dtype=float)
        if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
            raise InternalConsistencyError(
                f"per-pair probabilities left [0, 1]: {probs}")
        probs = np.clip(probs, 0.0, None)
        checked.append(probs / probs.sum())
    return checked


def exact_sample(params, init, t, seed):
    """Sample pair counts at time t directly from the closed-form law.

    Each initial-state class contributes a multinomial draw from its
    per-pair state distribution; the draws are summed.
    """
    if isinstance(params, NonGenderParams) and isinstance(init, PairCounts):
        counts_type = PairCounts
    elif isinstance(params, GenderParams) and isinstance(init, GenderPairCounts):
        counts_type = GenderPairCounts
    else:
        raise DomainError("params and init must belong to the same model kind")
    rng = _rng(seed)
    dists = _class_distributions(params, init, float(t))
    total = np.zeros(len(dists), dtype=np.int64)
    for n_class, dist in zip(init.as_tuple(), dists):
        if n_class != int(n_class):
            raise DomainError("sampling requires integer initial counts")
        if n_class > 0:
            total += rng.multinomial(int(n_class), dist)
    return counts_type(*(int(c) for c in total))


# ---------------------------------------------------------------------------
# the per-model rate algebra, written out as before the model table

# Each model is linear in its rate vector r.  The SS decay hazard is
# h = HAZARD . r.  Each class, in state order and with II left out, has a
# start count c0 (a field of the initial state), an inflow a = SS0 * (INFLOW
# . r), an x = X . r and a rate = x + h.  SS is the class with no inflow
# and x = 0.
LINEAR_FORM = {
    NONGENDER: ((2.0, 0.0),
                (("ss", (0.0, 0.0), (0.0, 0.0)),
                 ("si", (2.0, 0.0), (-1.0, 1.0)))),
    GENDER: ((1.0, 1.0, 0.0, 0.0),
             (("ss", (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
              ("is_", (1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 1.0, 0.0)),
              ("si", (0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 1.0)))),
}
# Rows d(INFLOW . r, x, rate)/dr of each class: (classes, 3, dim).
CLASS_JACOBIAN = {
    kind: np.array([(inflow, x_coef, np.add(x_coef, hazard))
                    for _, inflow, x_coef in classes])
    for kind, (hazard, classes) in LINEAR_FORM.items()}


def gillespie_channels(params, init):
    """The simulator's transition channels and counts type, per model."""
    if isinstance(params, NonGenderParams) and isinstance(init, PairCounts):
        lam, tau = params.lam, params.tau
        return ((2.0 * lam, 0, 1), (lam + tau, 1, 2)), PairCounts
    if isinstance(params, GenderParams) and isinstance(init, GenderPairCounts):
        p = params
        return ((p.lam_m, 0, 1), (p.lam_f, 0, 2), (p.tau_mf + p.lam_f, 1, 3),
                (p.lam_m + p.tau_fm, 2, 3)), GenderPairCounts
    raise DomainError("params and init must belong to the same model kind")


def _discordant_batch(c0, inflow, x, rate, decay, t):
    """One discordant class of the scalar solvers, over arrays."""
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
    """Expected pair counts at time t for each row of ``rates``, per model."""
    names = PARAM_NAMES.get(kind)
    if names is None:
        raise ConfigError(f"unknown model kind {kind!r}")
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
    if kind == NONGENDER:
        lam, tau = rates.T
        decay = apply_libm(math.exp, -2.0 * lam * t)
        out = np.empty((3, len(rates)))
        out[0] = init.ss * decay
        out[1] = _discordant_batch(init.si, init.ss * 2.0 * lam, tau - lam,
                                   tau + lam, decay, t)
        out[2] = np.maximum(n - out[0] - out[1], 0.0)
        return out
    # rows (lambda_m, lambda_f) and (tau_mf, tau_fm): the IS and SI classes
    # in one (2, k) evaluation
    lam, tau = rates.T[:2], rates.T[2:]
    decay = apply_libm(math.exp, -(lam[0] + lam[1]) * t)
    out = np.empty((4, len(rates)))
    out[0] = init.ss * decay
    out[1:3] = _discordant_batch(
        np.array([[init.is_], [init.si]], dtype=float), lam * init.ss,
        tau - lam, tau + lam[::-1], decay, t)
    out[3] = np.maximum(n - out[0] - out[1] - out[2], 0.0)
    return out
