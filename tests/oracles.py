"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: forward
states come from adaptive ODE integration, quantiles from mpmath at high
precision, Hessians from Richardson extrapolation of plain central
differences, the simplex trajectory from its numpy formulation, and
simulated counts from a one-shot sampler of the closed-form law and from
the event-driven Gillespie loop the simulator used before it sampled each
pair's first reactions.  The first-reaction sampler is kept as it was when
it binned every event, the bit-for-bit reference for its per-channel
counts.  The per-model rate algebra that the program now derives from its
model table is kept here as it was written out per model:
the linear form, the Gillespie channel tables and the batch solver
:func:`solve_batch`, the written-out reference for both the grid kernel and
the scalar solver.  So is the Newton kernel as it was written on numpy
arrays before it moved to one chain product and to Python floats: the
count derivatives, the score and information, and the Newton step.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from pairinfer import (GENDER, NONGENDER, PARAM_NAMES, ConfigError,
                       DomainError, GenderPairCounts, GenderParams,
                       NonGenderParams, PairCounts, PairinferError,
                       SimplexResult, nongender_dataset, solve_gender,
                       solve_nongender)
from pairinfer.likelihood import _CLASS_JACOBIAN, apply_libm
from pairinfer.model import (EPS_SINGULAR, _check_nonnegative,
                             _inflow_moments, model_spec)
from pairinfer.simulate import _bins, _channels, _rng


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
    lm, lf, tmf, tfm = params

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
        p_ss, p_si, _ = probe
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


def on_boundary(x, lo, hi):
    """Whether any coordinate of ``x`` lies within 1e-12 (relative) of its
    bound in ``lo`` or ``hi``."""
    return bool(np.any((x - lo <= 1e-12 * np.maximum(1.0, np.abs(lo)))
                       | (hi - x <= 1e-12 * np.maximum(1.0, np.abs(hi)))))


def minimize_simplex(fn, x0, bounds, seed=0, max_evals=50_000,
                     diameter_tol=1e-10, spread_tol=1e-12,
                     n_starts=3, jitter=0.25) -> tuple:
    """Minimize ``fn`` over the box ``bounds`` starting near ``x0``.

    ``fn`` may return +inf for infeasible points.  Returns a
    ``SimplexResult`` with the best point seen across all evaluations, so
    the result never regresses below the starting point, and the number of
    starts that ran.  A run tests convergence before the budget.
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
    n_ran = 0

    for start in starts:
        if n_evals >= max_evals:
            break
        n_ran += 1
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

        while True:
            diameter = max(np.max(np.abs(v - vertices[0])) for v in vertices[1:])
            spread = 0.0 if fs[-1] == fs[0] else fs[-1] - fs[0]
            if diameter < diameter_tol and spread < spread_tol:
                run_converged = True
                break
            if n_evals + 2 > max_evals:
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

    return SimplexResult(
        x=incumbent_x,
        fun=incumbent_f,
        n_evals=n_evals,
        converged=incumbent_converged,
    ), n_ran


# ---------------------------------------------------------------------------
# the one-shot sampler

class InternalConsistencyError(PairinferError):
    """A computed probability left [0, 1] by more than tolerance."""


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


# ---------------------------------------------------------------------------
# the event-driven simulator

# Random numbers drawn per generator call in gillespie_loop.
_BLOCK = 512


def gillespie_loop(params, init, times, seed):
    """Event-driven simulation; returns counts at each requested time.

    Gillespie's direct method on the aggregated counts, over the written-out
    channel tables: per event the rates are summed in table order, the
    waiting time is an exponential(1) draw over the total rate and the
    channel is picked by a cumulative sum against a uniform draw times the
    total.  Both kinds of draw come from the generator in blocks of
    ``_BLOCK``.  Counts are snapshotted at the exact requested times (the
    state is constant between events), so an event at exactly a snapshot
    time falls after it.  Deterministic for a fixed seed.
    """
    channels, counts_type = gillespie_channels(params, init)
    times = [float(t) for t in times]
    # the chained comparison is False for nan as well as for inf
    if (not all(0.0 <= t < math.inf for t in times)
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise DomainError("snapshot times must be finite, nonnegative and "
                          "increasing")
    for c in init.as_tuple():
        if c != int(c):
            raise DomainError("simulation requires integer initial counts")

    rng = _rng(seed)
    coefs = [c for c, _, _ in channels]
    sources = [s for _, s, _ in channels]
    dests = [d for _, _, d in channels]
    ks = range(len(channels))
    rates = [0.0] * len(channels)
    counts = [int(c) for c in init.as_tuple()]
    waits = choices = ()
    i = _BLOCK
    t = 0.0
    out = []
    pending = list(times)
    horizon = times[-1]
    while True:
        total = 0.0
        for k in ks:
            rate = coefs[k] * counts[sources[k]]
            rates[k] = rate
            total += rate
        if total > 0:
            if i == _BLOCK:
                waits = rng.standard_exponential(_BLOCK).tolist()
                choices = rng.random(_BLOCK).tolist()
                i = 0
            t_next = t + waits[i] / total
        else:
            t_next = np.inf
        while pending and pending[0] <= t_next:
            out.append(counts_type(*counts))
            pending.pop(0)
        if not pending or t_next > horizon:
            break
        t = t_next
        u = choices[i] * total
        i += 1
        acc = 0.0
        for k in ks:
            acc += rates[k]
            if u < acc:
                break
        else:
            # u rounded up to total: the last channel that can fire
            k = max(k for k in ks if rates[k] > 0)
        counts[sources[k]] -= 1
        counts[dests[k]] += 1
    return out


def binned_simulate(params, init, times, seed):
    """The first-reaction sampler as it binned every event: each event
    gets its channel in ``fired``, its time in ``at`` and a snapshot bin by
    ``_bins``, and the counts come from one ``bincount`` and a cumulative
    sum.  Same draws, same counts as ``gillespie_simulate``.

    Counts are snapshotted at the exact requested times from a start at
    time 0; an event at exactly a snapshot time falls after it.
    Deterministic for a fixed seed.
    """
    channels, counts_type = _channels(params, init)
    times = [float(t) for t in times]
    # the chained comparison is False for nan as well as for inf
    if (not all(0.0 <= t < math.inf for t in times)
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise DomainError("snapshot times must be finite, nonnegative and "
                          "increasing")
    for c in init.as_tuple():
        if c != int(c):
            raise DomainError("simulation requires integer initial counts")

    n_classes = len(channels) // 2
    counts = [int(c) for c in init.as_tuple()]
    discordant = [counts[d] for _, _, d in channels[:n_classes]]
    inflows = [c for c, _, _ in channels[:n_classes]]
    cumulative = list(itertools.accumulate(inflows))
    hazard = cumulative[-1]
    p_leave = -math.expm1(-hazard * times[-1])
    # the last class with a positive inflow takes every draw above the
    # classes before it, so a draw u*hazard that rounds up to the hazard
    # lands in it and none lands in a class without inflow
    last_open = max((k for k, c in enumerate(inflows) if c > 0.0), default=0)
    edges = cumulative[:last_open]
    # each channel's mean wait, nan for one that never fires: _bins puts
    # nan after every snapshot
    mean_wait = np.array([1.0 / c if c > 0.0 else math.nan
                          for c, _, _ in channels])

    rng = _rng(seed)
    leavers = int(rng.binomial(counts[0], p_leave))
    uniforms = rng.random(2 * leavers)
    waits = rng.standard_exponential(sum(discordant) + leavers)

    # the leavers' exit times, from SS's exponential truncated to the horizon
    entry = np.log1p(uniforms[:leavers] * -p_leave) / -hazard
    leaver_class = _bins(uniforms[leavers:] * hazard, edges)
    # each event's channel and time: the exits to II of the initial
    # discordant pairs and of the leavers, then the leavers' inflows
    fired = np.concatenate((
        np.arange(n_classes, 2 * n_classes).repeat(discordant),
        leaver_class + n_classes, leaver_class))
    with np.errstate(over="ignore"):  # a wait beyond the float64 range
        waits *= mean_wait.take(fired[:len(waits)])
    waits[len(waits) - leavers:] += entry
    at = np.concatenate((waits, entry))

    # an event counts from the first snapshot after it, so one at exactly a
    # snapshot time falls after that snapshot
    bins = len(times) + 1
    snapshot = _bins(at, times)
    per_bin = np.bincount(fired * bins + snapshot,
                          minlength=len(channels) * bins)
    fired_by = per_bin.reshape(len(channels), bins)[:, :-1].cumsum(axis=1)
    # column k moves one pair from channel k's source to its destination
    moves = np.array([[(state == d) - (state == s) for _, s, d in channels]
                      for state in range(len(counts))])
    table = (moves @ fired_by).T + counts
    return [counts_type(*row) for row in table.tolist()]


def _discordant_batch(c0, inflow, x, rate, decay, t):
    """One discordant class of the per-model solvers, over arrays."""
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
    _check_nonnegative("time", t)
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


def ridge_mp(data, bounds, dps=40, halvings=150):
    """The closed-form ridge of a gendered two-time design, by bisection
    on the closed forms in mpmath: ``(low, point, high)``, the rates at the
    ends and the midpoint of the segment in lambda_m, or None.

    With lambda_f = h - lambda_m, h = log(SS0/SS_T)/T, the segment holds the
    lambda_m in the box where each discordant class's count at T is at
    least its observed count at tau's lower bound and at most it at the
    upper one; at each point each tau is the root of its class's count by
    bisection.  A comparison within 1e-25 relative counts as met, so a
    segment of one point stays one point at working precision.
    """
    init = data.initial.as_tuple()
    end = data.observations[1].as_tuple()
    if not 0 < end[0] <= init[0]:
        return None
    with mpmath.workdps(dps):
        t = mpmath.mpf(data.elapsed()[1])
        h = mpmath.log(mpmath.mpf(init[0]) / end[0]) / t
        (m_lo, m_hi), (f_lo, f_hi), *tau_bounds = [
            [mpmath.mpf(v) for v in pair] for pair in bounds]
        slack = mpmath.mpf(10) ** -25

        def gap(c, s, tau):
            rates = [s, h - s] + ([tau, 0] if c == 1 else [0, tau])
            value = _counts_mp(GENDER, rates, init, t)[c]
            return value - end[c], slack * max(1, end[c])

        def bisect(holds, a, b):
            # holds(a) and not holds(b): the last point that holds
            for _ in range(halvings):
                mid = (a + b) / 2
                a, b = (mid, b) if holds(mid) else (a, mid)
            return a

        lo, hi = max(m_lo, h - f_hi), min(m_hi, h - f_lo)
        for c, (tau_lo, tau_hi) in zip((1, 2), tau_bounds):
            for tau, sign in ((tau_lo, 1), (tau_hi, -1)):
                if lo > hi:
                    return None

                def holds(s, c=c, tau=tau, sign=sign):
                    diff, tol = gap(c, s, tau)
                    return sign * diff >= -tol
                at_lo, at_hi = holds(lo), holds(hi)
                if not (at_lo or at_hi):
                    return None
                if not at_hi:
                    hi = bisect(holds, lo, hi)
                elif not at_lo:
                    lo = bisect(holds, hi, lo)

        def tau_root(c, s, tau_lo, tau_hi):
            # the count falls with tau
            if gap(c, s, tau_lo)[0] <= 0:
                return tau_lo
            if gap(c, s, tau_hi)[0] >= 0:
                return tau_hi
            return bisect(lambda tau: gap(c, s, tau)[0] > 0, tau_lo, tau_hi)

        def rates(s):
            return tuple(float(v) for v in (
                s, h - s, *(tau_root(c, s, *taus)
                            for c, taus in zip((1, 2), tau_bounds))))
        return rates(lo), rates((lo + hi) / 2), rates(hi)


# ---------------------------------------------------------------------------
# the Newton kernel on numpy arrays, as written before it moved to one
# chain product (count derivatives and information) and to Python floats
# (the step)

def count_derivatives(kind, init, rates, times, magnitudes=False):
    """Expected counts with their rate gradients and Hessians, chained
    class by class: ``(p, grad, hess)`` of shapes (T, states),
    (T, states, dim) and (T, states, dim, dim).

    With ``magnitudes`` every term, and every chain coefficient, enters by
    its absolute value, and II adds the other states' entries: each entry
    is then the sum of its terms' magnitudes, the scale of its rounding.
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
    values, firsts, seconds = (np.array(values), np.array(firsts),
                               np.array(seconds))
    sign = -1.0
    if magnitudes:
        values, firsts, seconds, jac = map(np.abs, (values, firsts, seconds,
                                                    jac))
        sign = 1.0
    n_times, n_classes = len(times), len(terms)
    p = np.empty((n_times, n_classes + 1))
    grad = np.empty((n_times, n_classes + 1, len(r)))
    hess = np.empty((n_times, n_classes + 1, len(r), len(r)))
    p[:, :-1] = values.reshape(n_times, n_classes)
    grad[:, :-1] = (firsts.reshape(n_times, n_classes, 1, 3) @ jac)[:, :, 0]
    hess[:, :-1] = (jac.transpose(0, 2, 1)
                    @ seconds.reshape(n_times, n_classes, 3, 3) @ jac)
    p[:, -1] = init.total + sign * p[:, :-1].sum(axis=1)
    grad[:, -1] = sign * grad[:, :-1].sum(axis=1)
    hess[:, -1] = sign * hess[:, :-1].sum(axis=1)
    return p, grad, hess


def score_and_information(kind, data, rates):
    """Score, observed information and expected information (a function
    of no arguments) at ``rates``, or None where an observed state has no
    positive expected count."""
    p, grad, hess = count_derivatives(kind, data.initial, rates,
                                      data.elapsed()[1:])
    counts = np.array(data.observations[1:], dtype=float)
    if not np.all(p[counts > 0] > 0.0):
        return None
    safe_p = np.where(counts > 0, p, 1.0)
    relative = grad / safe_p[:, :, None]
    score = np.einsum("ts,tsj->j", counts, relative)
    observed = (np.einsum("ts,tsj,tsk->jk", counts, relative, relative)
                - np.einsum("ts,tsjk->jk", counts,
                            hess / safe_p[:, :, None, None]))

    def expected():
        positive = p > 0.0
        root = np.where(positive[:, :, None],
                        grad / np.sqrt(np.where(positive, p, 1.0))[:, :, None],
                        0.0)
        return np.einsum("tsj,tsk->jk", root, root)

    return score, 0.5 * observed + 0.5 * observed.T, expected


def newton_step(x, gradient, information, lo, hi, to_lo, to_hi):
    """The Newton step with the ``to_lo`` and ``to_hi`` coordinates moved
    onto those bounds and the rest solved by numpy's Cholesky; None where
    the information is not positive definite on the rest."""
    held = to_lo | to_hi
    free = ~held
    step = np.where(to_lo, lo - x, np.where(to_hi, hi - x, 0.0))
    rhs = gradient[free] + information[np.ix_(free, held)] @ step[held]
    if rhs.any():
        try:
            chol = np.linalg.cholesky(information[np.ix_(free, free)])
        except np.linalg.LinAlgError:
            return None
        step[free] = -np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return step
