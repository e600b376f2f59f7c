"""Box-constrained simplex optimizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

import oracles
from pairinfer import (NonGenderParams, fit_mle, gender_dataset,
                       log_likelihood_nongender, minimize_simplex)
from pairinfer.neldermead import reflect_into_box


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fn(x):
        d = x - center
        return float(d @ d)

    return fn


def test_recovers_quadratic_minimum():
    result = minimize_simplex(quadratic([0.3, 0.7]), np.array([1.0, 1.0]),
                              [(0.0, 10.0), (0.0, 10.0)], seed=1)
    assert result.converged
    assert result.x == pytest.approx([0.3, 0.7], abs=1e-8)


def test_recovers_4d_quadratic():
    center = [0.1, 0.2, 0.3, 0.4]
    result = minimize_simplex(quadratic(center), np.array([1.0] * 4),
                              [(0.0, 10.0)] * 4, seed=3)
    assert result.converged
    assert result.x == pytest.approx(center, abs=1e-7)


def test_minimum_outside_box_lands_on_bound():
    result = minimize_simplex(quadratic([-1.0, 0.5]), np.array([2.0, 2.0]),
                              [(0.0, 10.0), (0.0, 10.0)], seed=5)
    assert result.x[0] == pytest.approx(0.0, abs=1e-9)
    assert result.x[1] == pytest.approx(0.5, abs=1e-7)


def test_all_proposals_stay_in_box():
    seen = []
    lo, hi = 0.5, 2.0

    def fn(x):
        seen.append(x.copy())
        return float((x[0] - 0.1) ** 2 + (x[1] - 3.0) ** 2)

    minimize_simplex(fn, np.array([1.0, 1.0]), [(lo, hi), (lo, hi)], seed=2)
    arr = np.array(seen)
    assert arr.min() >= lo - 1e-15
    assert arr.max() <= hi + 1e-15


def test_reflection_folds_across_bounds():
    lo = np.array([0.0, 0.0])
    hi = np.array([1.0, 1.0])
    assert reflect_into_box(np.array([-0.25, 0.5]), lo, hi) == pytest.approx(
        [0.25, 0.5])
    assert reflect_into_box(np.array([1.2, -3.0]), lo, hi) == pytest.approx(
        [0.8, 0.0])  # far overshoot clips after one fold


def test_deterministic_for_fixed_seed():
    fn = quadratic([0.25, 0.125])
    a = minimize_simplex(fn, np.array([5.0, 5.0]), [(0.0, 10.0)] * 2, seed=11)
    b = minimize_simplex(fn, np.array([5.0, 5.0]), [(0.0, 10.0)] * 2, seed=11)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun and a.n_evals == b.n_evals


def test_never_regresses_below_start():
    fn = quadratic([9.9, 9.9])
    start = np.array([0.5, 0.5])
    result = minimize_simplex(fn, start, [(0.0, 10.0)] * 2, seed=7,
                              max_evals=40)
    assert result.fun <= fn(start)


def test_respects_evaluation_budget():
    calls = [0]

    def fn(x):
        calls[0] += 1
        return float(np.sum(x ** 2))

    result = minimize_simplex(fn, np.array([4.0, 4.0]), [(0.0, 10.0)] * 2,
                              seed=0, max_evals=100)
    assert calls[0] <= 100
    assert result.n_evals == calls[0]


def test_all_infinite_simplex_stops():
    # equal +inf values have zero spread, so each start ends once it has
    # shrunk below the diameter tolerance
    result = minimize_simplex(lambda x: math.inf, np.array([0.5, 0.5]),
                              [(0.0, 10.0)] * 2, seed=0)
    assert result.fun == math.inf
    assert not result.converged
    assert result.n_evals <= 1_000


def test_floor_ends_the_search_at_the_first_point_on_it():
    seen = []

    def fn(x):
        seen.append(x.copy())
        return float(np.sum((x - 0.3) ** 2))

    result = minimize_simplex(fn, np.array([1.0, 1.0]), [(0.0, 10.0)] * 2,
                              seed=1, floor=1e-6)
    assert result.converged
    assert result.n_evals == len(seen)
    assert result.fun <= 1e-6 and result.fun == fn(result.x)
    # the first start reached the floor: the jittered ones never ran
    unfloored = minimize_simplex(fn, np.array([1.0, 1.0]), [(0.0, 10.0)] * 2,
                                 seed=1)
    assert result.n_evals < unfloored.n_evals
    # a start on the floor is its only evaluation
    at_floor = minimize_simplex(fn, np.array([0.3, 0.3]), [(0.0, 10.0)] * 2,
                                floor=0.0)
    assert at_floor.n_evals == 1 and at_floor.converged
    assert np.array_equal(at_floor.x, [0.3, 0.3])
    # the first start reached the floor: the jittered ones never ran, so
    # the search took no more evaluations than the first start alone
    first_start, _ = oracles.minimize_simplex(
        fn, np.array([1.0, 1.0]), [(0.0, 10.0)] * 2, n_starts=1)
    assert result.n_evals <= first_start.n_evals


# the first start of the quadratic runs below converges at its 181st
# evaluation
FIRST_START_EVALS = 181


def test_convergence_on_the_last_affordable_evaluation_counts():
    fn = quadratic([0.3, 0.7])
    start, bounds = np.array([1.0, 1.0]), [(0.0, 10.0)] * 2
    free = minimize_simplex(fn, start, bounds)
    assert free.converged and free.n_evals > FIRST_START_EVALS
    # the loop used to skip the convergence test once fewer than two
    # evaluations were left, and returned these unconverged; the second
    # budget ends the search at the second start's first evaluation
    for budget in (FIRST_START_EVALS, FIRST_START_EVALS + 1):
        capped = minimize_simplex(fn, start, bounds, max_evals=budget)
        assert capped.converged and capped.n_evals == budget
        assert _bits(capped.x) == _bits(free.x)
    assert not minimize_simplex(fn, start, bounds,
                                max_evals=FIRST_START_EVALS - 1).converged


def test_the_budget_decides_which_starts_run():
    fn = quadratic([0.3, 0.7])
    start, bounds = np.array([1.0, 1.0]), [(0.0, 10.0)] * 2
    # every start runs, then the budget ends the search inside the second
    # start, then before it
    for max_evals, n_starts in ((50_000, 3), (FIRST_START_EVALS + 1, 2),
                                (FIRST_START_EVALS, 1)):
        ours = minimize_simplex(fn, start, bounds, max_evals=max_evals)
        ref, ref_starts = oracles.minimize_simplex(fn, start, bounds,
                                                   max_evals=max_evals)
        assert ref_starts == n_starts
        assert (ours.n_evals, ours.converged) == (ref.n_evals, ref.converged)


def test_matches_scipy_on_mwanza_likelihood(mwanza):
    def objective(vec):
        lam, tau = vec
        if lam < 0 or tau < 0:
            return np.inf
        return -log_likelihood_nongender(NonGenderParams(lam, tau), mwanza)

    ours = minimize_simplex(objective, np.array([0.002, 0.03]),
                            [(0.0, 10.0)] * 2, seed=0)
    ref = scipy_minimize(objective, [0.002, 0.03], method="Nelder-Mead",
                         options=dict(xatol=1e-12, fatol=1e-14, maxfev=20000))
    assert ours.fun == pytest.approx(ref.fun, abs=1e-9)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def simplex_cases(draw):
    """A box, a start, an objective and a budget for the oracle comparison.

    Boxes lie in [-10, 10] and objectives stay below 2,048 in magnitude,
    where the spread test's ulp floor equals ``spread_tol``.
    """
    dim = draw(st.integers(1, 4))
    coord = st.floats(-10.0, 10.0, allow_subnormal=False)
    bounds = [tuple(sorted((draw(coord), draw(coord)))) for _ in range(dim)]
    x0 = [draw(st.one_of(st.floats(-30.0, 30.0), st.just(lo), st.just(hi),
                         st.sampled_from([0.0, -0.0])))
          for lo, hi in bounds]
    center = [draw(coord) for _ in range(dim)]
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(dim)]
    offset = draw(st.floats(-300.0, 300.0))
    shape = draw(st.sampled_from(["quadratic", "abs", "steps"]))
    cut = draw(st.one_of(st.none(), st.floats(-11.0, 10.0)))
    max_evals = draw(st.one_of(st.integers(1, 12), st.integers(13, 200),
                               st.integers(201, 2_000)))
    seed = draw(st.integers(0, 2**32 - 1))
    return dict(dim=dim, bounds=bounds, x0=x0, center=center, weights=weights,
                offset=offset, shape=shape, cut=cut, max_evals=max_evals,
                seed=seed)


def _objective(case, seen):
    center = case["center"]
    weights = case["weights"]

    def fn(x):
        seen.append(x.tobytes())
        if case["cut"] is not None and x[0] > case["cut"]:
            return math.inf
        if case["shape"] == "abs":
            value = sum(w * abs(a - c) for w, a, c in zip(weights, x, center))
        else:
            value = sum(w * (a - c) ** 2 for w, a, c in zip(weights, x, center))
            if case["shape"] == "steps":  # plateaus make ties in the sort
                value = math.floor(value * 4.0) / 4.0
        return case["offset"] + value
    return fn


@settings(max_examples=300, deadline=None)
@given(simplex_cases())
@example(dict(dim=2, bounds=[(0.0, 10.0), (0.0, 10.0)], x0=[0.0, -0.0],
              center=[0.5, 0.25], weights=[1.0, 0.5], offset=0.0,
              shape="abs", cut=None, max_evals=50, seed=0))
# x0 + 5% folds back exactly onto x0, so the first vertex steps downward
@example(dict(dim=1, bounds=[(0.0, 1.0)], x0=[0.975609756097561],
              center=[0.5], weights=[1.0], offset=0.0, shape="quadratic",
              cut=None, max_evals=400, seed=0))
def test_matches_numpy_oracle_bit_for_bit(case):
    seen_ours, seen_ref = [], []
    kwargs = dict(seed=case["seed"], max_evals=case["max_evals"])
    ours = minimize_simplex(_objective(case, seen_ours), np.array(case["x0"]),
                            case["bounds"], **kwargs)
    # the oracle at the simplex's fixed starts and jitter
    ref, _ = oracles.minimize_simplex(_objective(case, seen_ref),
                                      np.array(case["x0"]), case["bounds"],
                                      n_starts=3, jitter=0.25, **kwargs)
    assert seen_ours == seen_ref
    assert ours.x.dtype == ref.x.dtype
    assert _bits(ours.x) == _bits(ref.x)
    assert _bits(ours.fun) == _bits(ref.fun)
    assert (ours.n_evals, ours.converged) == (ref.n_evals, ref.converged)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False),
                          st.floats(-10.0, 10.0), st.floats(0.0, 10.0)),
                min_size=1, max_size=4))
def test_reflection_matches_numpy_oracle(rows):
    x = [r[0] for r in rows]
    lo = [r[1] for r in rows]
    hi = [a + w for a, w in zip(lo, (r[2] for r in rows))]
    ref = oracles.reflect_into_box(np.array(x), np.array(lo), np.array(hi))
    assert _bits(reflect_into_box(x, lo, hi)) == _bits(ref)


def test_bundled_fit_evaluation_counts(mwanza, mwanza_gender):
    # machine-independent: the simplex trajectory is pinned bit for bit.
    # The non-gendered fit starts at its closed-form MLE and the
    # over-parameterised gendered two-time fit at the midpoint of its
    # closed-form ridge.  Both lie within rounding noise of the saturated
    # bound, so each fit ends at its first evaluation.
    assert fit_mle("nongender", mwanza, seed=0).iterations == 1
    assert fit_mle("gender", mwanza_gender, seed=0).iterations == 1


def test_spread_test_reachable_at_large_loglik():
    # Gendered N = 20,000 cohort, 4 times, loglik about -14,120.  With an
    # absolute 1e-12 spread tolerance (below one ulp here) a start that
    # never reaches exactly equal vertex values ran to the 50,000-evaluation
    # budget.
    data = gender_dataset((0.0, 1.0, 2.0, 4.0), [
        (19329, 244, 233, 194), (19221, 312, 243, 224),
        (19119, 365, 258, 258), (18908, 473, 295, 324)])
    fit = fit_mle("gender", data, seed=0, uncertainty=False)
    assert fit.converged
    assert fit.iterations < 10_000
    assert fit.loglik_at_max == pytest.approx(-14119.744299496382, abs=1e-6)


def test_rejects_bounds_of_wrong_length():
    with pytest.raises(ValueError, match=r"one \(lo, hi\) pair"):
        minimize_simplex(quadratic([0.0, 0.0]), np.array([1.0, 1.0]),
                         [(0.0, 10.0)])
