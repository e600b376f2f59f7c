"""Box-constrained Nelder-Mead simplex minimizer.

Standard reflection/expansion/contraction/shrink moves; any proposal outside
the box is reflected across the violated bound and then clipped.  A run
converges when the simplex diameter (max-norm around the best vertex) falls
below ``diameter_tol`` and the function spread below a floor: ``spread_tol``
or four ulps of the best value, whichever is larger.  Without the ulp floor
an absolute 1e-12 lies below the spacing of doubles once |f| exceeds about
8,192, and the spread test passes only when every vertex value is exactly
equal.  Below |f| = 2,048 four ulps are at most 9.1e-13, so the floor is
``spread_tol`` itself.  A run tests convergence before it checks the budget,
so a run that converges on its last affordable evaluation says so.

A run makes ``_N_STARTS`` (3) starts, which share one evaluation budget:
the start point, then two jittered by up to ``_JITTER`` (25%) of each
nonzero coordinate.  It keeps the best result; the jitter stream is a
counter-based Philox generator, so results are deterministic for a fixed
seed.  A later start replaces the incumbent only by improving on it by
more than ``_IMPROVEMENT_TOL``.  The first evaluation at or below the
caller's ``floor`` ends the search, converged, at that point.

The simplex arithmetic runs on Python floats, not small numpy arrays, which
cost microseconds per operation at two to four elements.  It keeps the
operation order of the numpy formulation it replaces (kept as a test
oracle), so every vertex is bit-identical to it: a centroid is a sequential
sum from 0.0 over the kept vertices, divided by the dimension, as
``np.mean(axis=0)`` computes it; a reflection folds across ``lo``, then
across ``hi``, then clips as ``np.clip`` does; vertices are ordered by a
stable sort on their values.  numpy remains for the start jitter and the
result array.  The bounds check runs on floats too, and the initial
simplex builds a vertex only when it is evaluated: many fits end at their
first evaluation, so this fixed cost is most of their simplex's.  The
objective receives a fresh float64 array at every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

# Restart k only replaces the incumbent when it improves the objective by
# more than this, which keeps tie-breaking deterministic on flat optima.
_IMPROVEMENT_TOL = 1e-9
_SPREAD_ULPS = 4

_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZERO_STEP = 0.05     # initial simplex step, fraction of the coordinate
_ZERO_STEP = 0.00025     # absolute step used when a coordinate is zero
_N_STARTS = 3            # the start point, then jittered restarts
_JITTER = 0.25           # restart jitter, fraction of the coordinate


@dataclass
class SimplexResult:
    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


def reflect_into_box(x, lo, hi):
    """Fold a proposal across any violated bound, then clip the residual.

    Takes sequences of floats and returns a list.  The clip is np.clip's:
    raise to ``lo`` unless strictly above it, then lower to ``hi`` unless
    strictly below it (which decides the sign of a zero), and NaN passes.
    """
    out = []
    for y, a, b in zip(x, lo, hi):
        if y < a:
            y = a + (a - y)
        if y > b:
            y = b - (y - b)
        if not a < y < b and y == y:
            if not y > a:
                y = a
            if not y < b:
                y = b
        out.append(y)
    return out


def _initial_simplex(x0, lo, hi):
    """Yield the start point, then one vertex per coordinate, as needed."""
    yield x0
    for i in range(len(x0)):
        v = list(x0)
        step = _NONZERO_STEP * abs(v[i]) if v[i] != 0.0 else _ZERO_STEP
        v[i] += step
        v = reflect_into_box(v, lo, hi)
        if all(a == b for a, b in zip(v, x0)):
            # reflection landed back on the start point (x0 at a bound)
            v[i] = x0[i] - step
            v = reflect_into_box(v, lo, hi)
        yield v


# The evaluation budget of a fit unless its caller sets one.
DEFAULT_MAX_EVALS = 50_000


class _FloorReached(Exception):
    """An evaluation reached the caller's lower bound of the objective."""


def _sorted_by_value(vertices, fs):
    order = sorted(range(len(fs)), key=fs.__getitem__)
    return [vertices[k] for k in order], [fs[k] for k in order]


def minimize_simplex(fn, x0, bounds, seed=0, max_evals=DEFAULT_MAX_EVALS,
                     diameter_tol=1e-10, spread_tol=1e-12,
                     floor=-math.inf) -> SimplexResult:
    """Minimize ``fn`` over the box ``bounds`` starting near ``x0``.

    ``fn`` may return +inf for infeasible points.  Returns the best point
    seen across all evaluations, so the result never regresses below the
    starting point.  An evaluation at or below ``floor`` ends the search
    there, converged.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = [float(b[0]) for b in bounds]
    hi = [float(b[1]) for b in bounds]
    if x0.shape != (len(lo),):
        raise ValueError("bounds must give one (lo, hi) pair per coordinate")
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError("lower bound exceeds upper bound")
    dim = x0.size

    n_evals = 0
    best_x = None
    best_f = math.inf

    def evaluate(v):
        nonlocal n_evals, best_x, best_f
        n_evals += 1
        f = float(fn(np.array(v)))
        if f < best_f:
            best_f = f
            best_x = v
        if f <= floor:
            raise _FloorReached
        return f

    first = reflect_into_box(x0.tolist(), lo, hi)

    def starts():
        # drawn only when reached: a run that meets the floor draws nothing
        yield first
        rng = np.random.Generator(np.random.Philox(seed))
        for _ in range(_N_STARTS - 1):
            u = rng.uniform(-1.0, 1.0, size=dim)
            jittered = x0 * (1.0 + _JITTER * u)
            jittered = np.where(x0 == 0.0, _JITTER * np.abs(u) * _ZERO_STEP,
                                jittered)
            yield reflect_into_box(jittered.tolist(), lo, hi)

    incumbent_f = math.inf
    incumbent_x = first
    incumbent_converged = False

    try:
        for start in starts():
            if n_evals >= max_evals:
                break
            vertices, fs = [], []
            for v in _initial_simplex(start, lo, hi):
                if n_evals >= max_evals:
                    break
                vertices.append(v)
                fs.append(evaluate(v))
            if len(fs) <= dim:
                break
            vertices, fs = _sorted_by_value(vertices, fs)
            run_converged = False

            while True:
                best = vertices[0]
                # equal values, +inf ones too, have zero spread, where
                # inf - inf is nan
                spread = 0.0 if fs[-1] == fs[0] else fs[-1] - fs[0]
                if (spread < max(spread_tol, _SPREAD_ULPS * math.ulp(fs[0]))
                        and all(abs(a - b) < diameter_tol for v in vertices[1:]
                                for a, b in zip(v, best))):
                    run_converged = True
                    break
                if n_evals + 2 > max_evals:
                    break

                worst = vertices[-1]
                centroid = [reduce(add, column, 0.0) / dim
                            for column in zip(*vertices[:-1])]
                xr = reflect_into_box([c + _ALPHA * (c - w) for c, w
                                       in zip(centroid, worst)], lo, hi)
                fr = evaluate(xr)
                if fs[0] <= fr < fs[-2]:
                    vertices[-1], fs[-1] = xr, fr
                elif fr < fs[0]:
                    xe = reflect_into_box([c + _GAMMA * (r - c) for c, r
                                           in zip(centroid, xr)], lo, hi)
                    fe = evaluate(xe)
                    if fe < fr:
                        vertices[-1], fs[-1] = xe, fe
                    else:
                        vertices[-1], fs[-1] = xr, fr
                else:
                    xc = reflect_into_box([c + _RHO * (w - c) for c, w
                                           in zip(centroid, worst)], lo, hi)
                    fc = evaluate(xc)
                    if fc < fs[-1]:
                        vertices[-1], fs[-1] = xc, fc
                    else:
                        # shrink toward the best vertex
                        for k in range(1, dim + 1):
                            if n_evals >= max_evals:
                                break
                            vertices[k] = reflect_into_box(
                                [b + _SIGMA * (a - b)
                                 for a, b in zip(vertices[k], best)], lo, hi)
                            fs[k] = evaluate(vertices[k])
                vertices, fs = _sorted_by_value(vertices, fs)

            if fs[0] < incumbent_f - _IMPROVEMENT_TOL:
                incumbent_f = fs[0]
                incumbent_x = vertices[0]
                incumbent_converged = run_converged
    except _FloorReached:
        incumbent_f, incumbent_x, incumbent_converged = best_f, best_x, True

    # The global best evaluation can edge out the incumbent's final vertex
    # (e.g. budget exhausted mid-shrink); prefer it under the same tie rule.
    if best_f < incumbent_f - _IMPROVEMENT_TOL:
        incumbent_f = best_f
        incumbent_x = best_x
        incumbent_converged = False
    if best_x is None:
        incumbent_x = first
        incumbent_f = math.inf

    x = np.array(incumbent_x)
    return SimplexResult(
        x=x,
        fun=incumbent_f,
        n_evals=n_evals,
        converged=incumbent_converged,
    )
