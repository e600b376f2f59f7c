"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: forward
states come from adaptive ODE integration, quantiles from mpmath at high
precision, Hessians from Richardson extrapolation of plain central
differences, and the simplex trajectory from its numpy formulation.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from pairinfer import (GenderPairCounts, GenderParams, NonGenderParams,
                       PairCounts, SimplexResult, nongender_dataset,
                       solve_nongender)


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
# wherever |f| < 2,048.  The constants are those of pairinfer.neldermead.
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
            spread = fs[-1] - fs[0]
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
