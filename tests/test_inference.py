"""Fitting, Hessians, covariance, intervals, ellipses, infection tables."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pairinfer.inference as inference
from pairinfer import (Dataset, DomainError, EllipseSpec, GenderPairCounts,
                       GenderParams, InfeasibleDataError, NonGenderParams,
                       PARAM_NAMES, PairCounts, SingularStencilError, cfa,
                       chi2_quantile_2dof, covariance_from_hessian,
                       curvature_std_errors, ellipse_points, fit_mle,
                       gender_dataset, hessian_fd, infections_per_year,
                       minimize_simplex, nongender_dataset,
                       saturated_log_likelihood, solve_nongender,
                       validation_sweep, wald_intervals)
from pairinfer.estimators import two_time_mle
from pairinfer.likelihood import score_and_information

import oracles
from oracles import exact_sample, richardson_hessian


def _quadratic_form(matrix):
    a = np.asarray(matrix, dtype=float)

    def fn(x):
        return 0.5 * float(x @ a @ x)

    return fn


def test_hessian_recovers_quadratic():
    a = np.array([[4.0, 1.0], [1.0, 9.0]])
    hess = hessian_fd(_quadratic_form(a), np.array([0.4, -0.0]))
    assert hess == pytest.approx(a, rel=1e-5)


def test_hessian_richardson_agreement():
    rng = np.random.default_rng(99)

    def smooth(x):
        return (math.exp(0.3 * x[0]) + x[0] ** 2 * x[1]
                + math.cos(x[1]) + 0.5 * x[1] ** 4)

    for _ in range(20):
        point = rng.uniform(0.2, 1.5, size=2)
        ours = hessian_fd(smooth, point)
        h = np.maximum(1e-6, 1e-4 * np.abs(point))
        oracle = richardson_hessian(smooth, point, h * 8)
        assert ours == pytest.approx(oracle, rel=1e-3, abs=1e-6)


def test_hessian_shrinks_steps_near_wall():
    # objective is +inf just beyond x0 + 6e-5, inside the default 1e-4 step
    wall = 1.0 + 6e-5

    def fn(x):
        if x[0] > wall:
            return math.inf
        return float(x[0] ** 2 + x[1] ** 2)

    hess = hessian_fd(fn, np.array([1.0, 1.0]))
    assert hess == pytest.approx(2.0 * np.eye(2), rel=1e-3)


def test_hessian_singular_stencil_error():
    def fn(x):
        if abs(x[0] - 1.0) > 1e-12:
            return math.inf
        return 0.0

    with pytest.raises(SingularStencilError):
        hessian_fd(fn, np.array([1.0]))
    with pytest.raises(SingularStencilError):
        hessian_fd(lambda x: math.inf, np.array([1.0]))


def test_covariance_diagonal_example():
    result = covariance_from_hessian(np.diag([4.0, 25.0]))
    assert result.covariance == pytest.approx(np.diag([0.25, 0.04]))
    assert result.std_errors == pytest.approx([0.5, 0.2])
    assert result.condition_number == pytest.approx(6.25)


def test_covariance_not_positive_definite():
    result = covariance_from_hessian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert result.covariance is None
    assert result.std_errors is None


def test_covariance_singular_to_working_precision():
    # an eigenvalue below dim * eps of the largest is a zero, not a 1e17
    # condition number
    result = covariance_from_hessian(np.diag([1.0, 1e-17]))
    assert result.covariance is None
    assert result.std_errors is None


def test_covariance_indefinite_with_a_zero_eigenvalue():
    # the smallest eigenvalue is negative, but the smallest in magnitude is
    # an exact zero: the condition number is infinite, with no division
    result = covariance_from_hessian(np.diag([-1.0, 0.0, 2.0]))
    assert result.covariance is None
    assert result.condition_number == math.inf


def test_covariance_condition_warning():
    # scale disparity + correlation 0.999999 pushes the condition number
    # past the 1e10 threshold while staying positive definite
    rho = 0.999999
    h = np.array([[1.0, 1000.0 * rho], [1000.0 * rho, 1000.0 ** 2]])
    with pytest.warns(UserWarning):
        result = covariance_from_hessian(h)
    assert result.covariance is not None
    assert result.condition_number > inference.CONDITION_WARN_THRESHOLD


def test_conditional_std_errors():
    h = np.array([[16.0, 1.0], [1.0, 25.0]])
    assert curvature_std_errors(h) == pytest.approx([0.25, 0.2])
    mixed = curvature_std_errors(np.diag([4.0, -1.0]))
    assert mixed[0] == 0.5 and math.isnan(mixed[1])


def test_wald_basics():
    intervals = wald_intervals([1.0, 0.1], [0.2, 0.2], 0.95)
    z = 1.959963984540054
    assert intervals[0] == pytest.approx((1.0 - 0.2 * z, 1.0 + 0.2 * z))
    assert intervals[1][0] == 0.0  # truncated exactly at zero
    degenerate = wald_intervals([0.5], [0.0], 0.95)
    assert degenerate[0] == (0.5, 0.5)
    missing = wald_intervals([0.5], [float("nan")], 0.95)
    assert missing[0] is None
    with pytest.raises(DomainError):
        wald_intervals([0.5], [0.1], 1.5)


# the means below lie far enough from 0 that no point is clipped
def test_ellipse_unit_circle():
    level = 1.0 - math.exp(-0.5)  # chi2(2) quantile equals exactly 1
    spec = EllipseSpec(mean=(2.0, 3.0), covariance=((1.0, 0.0), (0.0, 1.0)),
                       level=level)
    pts = ellipse_points(spec)
    radii = np.hypot(pts[:, 0] - 2.0, pts[:, 1] - 3.0)
    assert radii == pytest.approx(np.ones(128), abs=1e-12)


def test_ellipse_quadratic_form_residual():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    mean = np.array([5.3, 5.4])
    spec = EllipseSpec(mean=tuple(mean), covariance=tuple(map(tuple, cov)),
                       level=0.95)
    pts = ellipse_points(spec)
    assert pts.min() > 0.0
    inv = np.linalg.inv(cov)
    c = chi2_quantile_2dof(0.95)
    for p in pts:
        d = p - mean
        assert float(d @ inv @ d) == pytest.approx(c, abs=1e-10)


def test_ellipse_clipping_truncates_at_zero():
    # the contour, of radius 0.0245, crosses both axes
    spec = EllipseSpec(mean=(0.001, 0.001),
                       covariance=((1e-4, 0.0), (0.0, 1e-4)), level=0.95)
    pts = ellipse_points(spec)
    assert pts.min() == 0.0
    assert (pts[:, 0] == 0.0).any() and (pts[:, 1] == 0.0).any()


def test_ellipse_validation():
    with pytest.raises(DomainError):
        EllipseSpec(mean=(0.0, 0.0), covariance=((1.0, 2.0), (2.0, 1.0)),
                    level=0.95)


def test_mwanza_ellipse_contains_cfa_and_analytical(mwanza):
    from pairinfer import analytic_estimates, cfa

    fit = fit_mle("nongender", mwanza, seed=0)
    inv = np.linalg.inv(fit.covariance)
    c95 = chi2_quantile_2dof(0.95)
    analytic = analytic_estimates(mwanza)
    start = cfa(mwanza)
    for point in ((start.lam, start.tau),
                  (analytic.lambda_hat, analytic.tau_hat_rootsolve)):
        d = np.array(point) - fit.estimates
        assert float(d @ inv @ d) < c95


def test_infections_nongender_example():
    table = infections_per_year(NonGenderParams(0.00303, 0.0561),
                                PairCounts(1742, 43, 17))
    external, internal = table.rows
    assert external.infections == pytest.approx(0.00303 * 3527, abs=1e-9)
    assert external.infections == pytest.approx(10.7, abs=0.05)
    assert internal.infections == pytest.approx(2.41, abs=0.01)
    assert external.per_thousand == pytest.approx(3.03, abs=1e-9)
    assert internal.per_thousand == pytest.approx(56.1, abs=1e-9)
    assert table.total_infections == pytest.approx(10.687 + 2.412, abs=0.01)


def test_infections_gender_at_published_rates():
    table = infections_per_year(GenderParams(0.004, 0.002, 0.047, 0.068),
                                GenderPairCounts(1742, 22, 21, 17))
    values = [r.infections for r in table.rows]
    assert values == pytest.approx([7.052, 3.528, 1.034, 1.428], abs=1e-9)
    assert values == pytest.approx([7.05, 3.52, 1.03, 1.43], abs=0.05)


def test_infections_zero_rates():
    table = infections_per_year(NonGenderParams(0.0, 0.0),
                                PairCounts(100, 10, 5))
    assert all(r.infections == 0.0 for r in table.rows)
    assert table.total_infections == 0.0


def test_infections_kind_mismatch():
    with pytest.raises(DomainError):
        infections_per_year(NonGenderParams(0.1, 0.1),
                            GenderPairCounts(10, 1, 1, 1))


def test_fit_mwanza_nongender(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0, levels=(0.95,))
    assert abs(fit.estimates[0] - 0.003) <= 0.0005
    assert abs(fit.estimates[1] - 0.056) <= 0.005
    assert fit.converged
    assert fit.identifiability == "ok"
    assert fit.se_method == "joint-covariance"
    assert fit.warm_start_source == "closed-form"
    assert not oracles.on_boundary(fit.estimates, *np.transpose(fit.bounds))
    # never regress below the warm start
    from pairinfer import log_likelihood_nongender

    warm_value = log_likelihood_nongender(
        NonGenderParams(*fit.warm_start), mwanza)
    assert fit.loglik_at_max >= warm_value


def test_fit_mwanza_standard_errors(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    assert abs(fit.std_errors[0] - 0.001) <= 0.0005
    assert abs(fit.std_errors[1] - 0.046) <= 0.01
    assert fit.covariance is not None
    information = score_and_information("nongender", mwanza, fit.estimates)[1]
    assert information == pytest.approx(information.T)


def test_fit_deterministic(mwanza):
    a = fit_mle("nongender", mwanza, seed=123)
    b = fit_mle("nongender", mwanza, seed=123)
    assert np.array_equal(a.estimates, b.estimates)
    assert a.loglik_at_max == b.loglik_at_max
    assert a.iterations == b.iterations


def test_fit_recovers_rounded_expectations():
    truth = NonGenderParams(0.004, 0.07)
    init = PairCounts(1742, 43, 17)
    state = solve_nongender(truth, init, 2.0)
    rounded = tuple(round(v) for v in state.as_tuple())
    rounded = (rounded[0], rounded[1], init.total - rounded[0] - rounded[1])
    data = nongender_dataset((0.0, 2.0), [init.as_tuple(), rounded])
    fit = fit_mle("nongender", data, seed=0)
    # rounding the counts by +/-0.5 perturbs the saturating MLE by a bounded
    # amount: d(lambda) ~ 0.5/(4*ss) and d(tau) scales with 0.5/|dP_SI/dtau|
    assert abs(fit.estimates[0] - truth.lam) <= 2e-4
    assert abs(fit.estimates[1] - truth.tau) <= 2e-2


def test_fit_mwanza_gender(mwanza_gender):
    fit = fit_mle("gender", mwanza_gender, seed=0, levels=(0.95,))
    published = (0.004, 0.002, 0.047, 0.068)
    tolerance = (0.001, 0.001, 0.01, 0.015)
    for est, ref, tol in zip(fit.estimates, published, tolerance):
        assert abs(est - ref) <= tol
    assert fit.identifiability == "saturated-ridge"
    assert fit.se_method == "conditional-curvature"
    assert fit.saturated_gap < 1e-6
    assert fit.warm_start_source == "closed-form-ridge"


def test_gender_warm_start_skips_uncertainty(mwanza_gender, monkeypatch):
    # the non-gendered warm-start fit uses only its estimates: the one
    # information evaluation is the gendered fit's own
    import pairinfer.inference as inference

    calls = []
    real = inference.score_and_information

    def counting_information(kind, data, rates):
        calls.append(len(rates))
        return real(kind, data, rates)

    monkeypatch.setattr(inference, "score_and_information",
                        counting_information)
    fit_mle("gender", mwanza_gender, seed=0)
    assert calls == [4]


def test_fit_gender_intervals_match_published(mwanza_gender):
    fit = fit_mle("gender", mwanza_gender, seed=0, levels=(0.95,))
    published = {"lambda_m": (0.0006, 0.0073), "lambda_f": (0.0, 0.0051),
                 "tau_mf": (0.0, 0.1819), "tau_fm": (0.0, 0.2271)}
    z = 1.959963984540054
    for name, interval, sigma in zip(PARAM_NAMES["gender"],
                                     fit.intervals[0.95], fit.std_errors):
        ref = published[name]
        half = z * sigma
        if ref[0] == 0.0:
            assert interval[0] == 0.0
        else:
            assert abs(interval[0] - ref[0]) <= 0.15 * half
        assert abs(interval[1] - ref[1]) <= 0.15 * half


def test_fit_infeasible_data_error():
    # SS observed later despite zero initial SS pairs: impossible under the
    # model for every parameter value
    data = nongender_dataset((0.0, 1.0), [(0, 60, 40), (10, 50, 40)])
    with pytest.raises(InfeasibleDataError):
        fit_mle("nongender", data, seed=0)


# Non-gendered, three times: the Newton climb from the two-time MLE of the
# first and last observations converges after 6 evaluations.
THREE_TIME_COHORT = nongender_dataset((0.0, 1.5, 4.0), [
    (1500, 250, 52), (1460, 268, 74), (1400, 281, 121)])


def test_fit_nonconvergence_flagged():
    fit = fit_mle("nongender", THREE_TIME_COHORT, seed=0, max_evals=3)
    assert not fit.converged
    assert fit.iterations <= 3


def test_fit_three_observation_times():
    truth = NonGenderParams(0.005, 0.08)
    init = PairCounts(1500, 250, 52)
    times = (0.0, 1.5, 4.0)
    states = [init.as_tuple()] + [
        solve_nongender(truth, init, t).as_tuple() for t in times[1:]]
    data = nongender_dataset(times, states)
    fit = fit_mle("nongender", data, seed=0)
    assert fit.estimates[0] == pytest.approx(truth.lam, abs=1e-5)
    assert fit.estimates[1] == pytest.approx(truth.tau, abs=1e-4)
    assert fit.identifiability == "ok"


# A gendered cohort (N = 20,000, three times) whose tau_mf estimate sits on
# its bound at 0.  A finite-difference stencil around it left the box and
# gave no standard errors.
BOUNDARY_COHORT = gender_dataset((0.0, 1.0, 3.0), [
    (19335, 244, 233, 188), (19222, 302, 256, 220), (18971, 445, 298, 286)])
# Gendered N = 20,000, four times, |loglik| about 14,120.
FOUR_TIME_COHORT = gender_dataset((0.0, 1.0, 2.0, 4.0), [
    (19329, 244, 233, 194), (19221, 312, 243, 224),
    (19119, 365, 258, 258), (18908, 473, 295, 324)])


def test_boundary_fit_has_standard_errors():
    fit = fit_mle("gender", BOUNDARY_COHORT, seed=0)
    assert fit.estimates[2] == 0.0
    assert oracles.on_boundary(fit.estimates, *np.transpose(fit.bounds))
    assert fit.identifiability == "ok"
    assert np.all(fit.std_errors > 0) and np.all(np.isfinite(fit.std_errors))


# Gendered, four times, nothing changed: the maximum, every rate 0, lies
# on the saturated bound, and the information there is singular.
NOTHING_CHANGED_COHORT = Dataset(
    (0.0, 1.1175333213037812, 2.6175333213037812, 3.6175333213037812),
    (GenderPairCounts(870, 52, 52, 9),) * 4)
# two times, and no rates reproduce the counts at T: the fit climbs
OFF_RIDGE_COHORT = gender_dataset((0.0, 2.0), [(485, 6, 5, 4), (481, 7, 8, 4)])


def _floor(data):
    """The objective's floor: rounding noise above the saturated bound."""
    saturated = saturated_log_likelihood(data)
    return -saturated + inference._NOISE * (1.0 + abs(saturated))


def _tight_simplex(kind, data, fit):
    return minimize_simplex(inference._objective(kind, data), fit.warm_start,
                            fit.bounds, seed=fit.seed, floor=_floor(data))


@pytest.mark.parametrize("kind, data", [
    ("nongender", THREE_TIME_COHORT),
    ("gender", BOUNDARY_COHORT),
    ("nongender", None),
    ("gender", None),
    ("gender", OFF_RIDGE_COHORT),
], ids=["nongender-3-times", "gender-boundary", "bundled", "bundled-gender",
        "gender-off-ridge"])
def test_budget_is_a_hard_cap(kind, data, mwanza, mwanza_gender):
    if data is None:
        data = mwanza if kind == "nongender" else mwanza_gender
    full = fit_mle(kind, data, seed=0)
    for budget in [*range(1, 13), full.iterations]:
        # a spent budget returns the best point reached, never an error
        fit = fit_mle(kind, data, seed=0, max_evals=budget)
        assert fit.iterations <= budget
        if fit.converged:  # the fit finished within the budget
            assert np.array_equal(fit.estimates, full.estimates)
    assert fit.converged and fit.iterations == full.iterations


@pytest.mark.parametrize("kind, data", [
    ("nongender", THREE_TIME_COHORT),
    ("gender", BOUNDARY_COHORT),
    ("gender", FOUR_TIME_COHORT),
], ids=["nongender-3-times", "gender-boundary", "gender-4-times"])
def test_final_climb_reuses_the_hand_over_derivatives(kind, data,
                                                      monkeypatch):
    # the last climb starts where the winning hand-over climb converged,
    # which evaluated the derivatives there already
    points = []
    real = inference.score_and_information

    def recording(kind, data, rates):
        points.append((data, rates.tobytes()))
        return real(kind, data, rates)

    monkeypatch.setattr(inference, "score_and_information", recording)
    fit = fit_mle(kind, data, seed=0)
    assert fit.converged and fit.identifiability == "ok"
    assert len(set(points)) == len(points)


# Non-gendered, times 0/3/7: no SS pair is lost and every SI pair is gone by
# the second time, so lambda goes to 0 and tau to its upper bound, where
# the information is singular.
SINGULAR_COHORT = nongender_dataset((0.0, 3.0, 7.0), [
    (2044, 281, 23), (2044, 0, 304), (2044, 0, 304)])


def test_singular_information_fit_ends_on_the_climb():
    # the climb converges there on the expected information; when it ran
    # the simplex fallback instead, the fit took 1,687 evaluations
    fit = fit_mle("nongender", SINGULAR_COHORT, seed=0)
    assert fit.converged
    assert fit.identifiability == "singular-hessian"
    assert fit.iterations < 300
    tight = _tight_simplex("nongender", SINGULAR_COHORT, fit)
    assert abs(fit.loglik_at_max + tight.fun) <= 1e-9 * (1.0 + abs(tight.fun))


def test_climb_returns_the_observed_information():
    # gendered, times 0/4/5, the MF pairs all gone by the second time: the
    # climb from the warm start converges along a flat direction on a step
    # solved on the expected information, and returns the observed one
    data = gender_dataset((0.0, 4.0, 5.0), [
        (12278, 1993, 1993, 164), (12278, 0, 5, 4145), (12278, 0, 1, 4149)])
    fit = fit_mle("gender", data, seed=0)
    assert fit.converged and fit.identifiability == "singular-hessian"
    objective = inference._objective("gender", data)
    start = fit.warm_start
    x, _, derivatives, _ = inference._newton(
        "gender", data, objective, start, objective(start), fit.bounds,
        inference._HANDOVER_DECREMENT, 1_000)
    observed = score_and_information("gender", data, x)[1]
    assert np.array_equal(derivatives[1], observed)
    assert np.linalg.eigvalsh(observed).min() < 0.0


@pytest.mark.parametrize("kind, data", [
    ("nongender", None),
    ("nongender", THREE_TIME_COHORT),
    ("gender", BOUNDARY_COHORT),
    ("gender", FOUR_TIME_COHORT),
    # both tau on their bound; the loose simplex stops just inside it
    ("gender", gender_dataset((0.0, 1.0, 3.0), [
        (485, 6, 5, 4), (484, 6, 6, 4), (474, 13, 9, 4)])),
], ids=["bundled", "nongender-3-times", "gender-boundary", "gender-4-times",
        "gender-two-bounds"])
def test_polished_fit_is_stationary_and_never_worse(kind, data, mwanza):
    data = mwanza if data is None else data
    fit = fit_mle(kind, data, seed=0)
    # the simplex run to its tolerances, with no floor: the floor would end
    # it at the bundled fit's closed-form start
    tight = minimize_simplex(inference._objective(kind, data), fit.warm_start,
                             fit.bounds, seed=fit.seed)
    assert fit.converged
    assert fit.iterations < tight.n_evals
    assert fit.loglik_at_max >= -tight.fun - 1e-12 * (1.0 + abs(tight.fun))
    # the projected Newton step left at the estimates is negligible
    score, information, _ = score_and_information(kind, data, fit.estimates)
    free = ~((fit.estimates == 0.0) & (score < 0.0))
    step = np.linalg.solve(information[np.ix_(free, free)], score[free])
    assert np.abs(step).max() <= 1e-8 * np.abs(fit.estimates).max()


# Non-gendered, N = 29,296, SS almost empty by the second time and every
# pair in II from the third: the value path's noise near the maximum,
# about 3e-12, is set by N, not by |loglik| (11.3)
DEPLETED_COHORT = nongender_dataset(
    (0.0, 3.724836505604963, 17.725717789195958, 17.943945857699045),
    [(2203, 22031, 5062), (0, 1, 29295), (0, 0, 29296), (0, 0, 29296)])


def test_polish_stops_at_the_value_paths_noise():
    # the polish from the warm climb's end: its last full Newton step gains
    # less than the noise, and the value path rejects it.  When that stop
    # allowed one ulp of |loglik| alone, the climb chased the noise through
    # 983 evaluations and returned unconverged
    data = DEPLETED_COHORT
    fit = fit_mle("nongender", data, seed=0)
    assert fit.converged and fit.identifiability == "ok"
    objective = inference._objective("nongender", data)
    start = fit.warm_start
    x, f, derivatives, _ = inference._newton(
        "nongender", data, objective, start, objective(start), fit.bounds,
        inference._HANDOVER_DECREMENT, 1_000)
    assert derivatives is not None
    x, f, derivatives, evals = inference._newton(
        "nongender", data, objective, x, f, fit.bounds,
        inference._POLISH_DECREMENT, 1_000, derivatives)
    assert derivatives is not None and evals <= 5
    assert -f >= fit.loglik_at_max - 1e-12 * (1.0 + abs(f))


def _failing_climb(evaluations):
    """A Newton climb that fails after ``evaluations`` evaluations."""
    def climb(kind, data, objective, x, f, bounds, decrement_tol, max_evals,
              derivatives=None, found=None):
        return x, f, None, evaluations
    return climb


def test_failed_polish_falls_back_to_the_tight_simplex(monkeypatch):
    # no rates reproduce these counts (N_SI^T lies above P_SI at tau = 0),
    # so the fit starts at the CFA, off the saturated bound's floor: the
    # loose simplex runs to its tolerances and the polish goes on from it
    data = nongender_dataset((0.0, 1.0), [(1000, 50, 10), (990, 65, 5)])
    monkeypatch.setattr(inference, "_newton", _failing_climb(7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the CFA clamps
        fit = fit_mle("nongender", data, seed=0)
    assert fit.warm_start_source == "CFA"
    objective = inference._objective("nongender", data)
    loose = minimize_simplex(objective, fit.warm_start, fit.bounds, seed=0,
                             diameter_tol=inference._LOOSE_DIAMETER,
                             spread_tol=inference._LOOSE_SPREAD,
                             floor=_floor(data))
    assert loose.converged and loose.n_evals > 1
    assert loose.fun > _floor(data)
    tight = minimize_simplex(objective, fit.warm_start, fit.bounds, seed=0,
                             max_evals=50_000 - loose.n_evals - 7,
                             floor=_floor(data))
    assert tight.fun <= loose.fun
    assert np.array_equal(fit.estimates, tight.x)
    assert fit.loglik_at_max == -tight.fun
    assert fit.iterations == loose.n_evals + 7 + tight.n_evals
    assert fit.converged and fit.identifiability == "ok"


def test_over_parameterised_fit_keeps_the_tight_simplex(mwanza_gender):
    # two times, four rates: the warm start is the lambda_m midpoint of the
    # closed-form ridge, on the saturated bound's floor, where the fit ends
    # at its first evaluation, as the tight simplex would
    fit = fit_mle("gender", mwanza_gender, seed=0)
    low, point, high = two_time_mle(mwanza_gender, fit.bounds, 0.0)
    assert fit.warm_start_source == "closed-form-ridge"
    assert np.array_equal(fit.warm_start, point)
    assert point[0] == 0.5 * (low[0] + high[0])
    assert fit.ridge_ends == (low, high)
    tight = _tight_simplex("gender", mwanza_gender, fit)
    assert tight.n_evals == 1
    assert np.array_equal(fit.estimates, tight.x)
    assert fit.iterations == tight.n_evals


def _path_without_floor(data, start):
    """The identified optimizer stage as it ran before the saturated floor:
    the loose simplex, the Newton climb and, if that fails, the tight
    simplex."""
    bounds = (inference.DEFAULT_BOUNDS, inference.DEFAULT_BOUNDS)
    objective = inference._objective("nongender", data)
    loose = minimize_simplex(objective, start, bounds, seed=0,
                             diameter_tol=inference._LOOSE_DIAMETER,
                             spread_tol=inference._LOOSE_SPREAD)
    x, f, information, evals = inference._newton(
        "nongender", data, objective, loose.x, loose.fun, bounds,
        inference._POLISH_DECREMENT, 50_000 - loose.n_evals)
    used = loose.n_evals + evals
    if information is not None:
        return x, used
    tight = minimize_simplex(objective, start, bounds, seed=0,
                             max_evals=50_000 - used)
    return tight.x, used + tight.n_evals


@pytest.mark.parametrize("counts, horizon", [
    ([(100, 50, 50), (0, 60, 140)], 0.5),       # N_SS^T = 0
    ([(500, 30, 20), (510, 20, 20)], 1.0),      # N_SS^T > N_SS^0
    ([(1000, 50, 10), (990, 65, 5)], 1.0),      # N_SI^T above P_SI(tau=0)
    ([(1000, 100, 0), (100, 400, 600)], 0.1),   # lambda_hat = 11.5 > 10
], ids=["ss-depleted", "ss-rises", "si-above-tau-zero", "lambda-above-box"])
def test_closed_form_falls_back_to_cfa(counts, horizon):
    data = nongender_dataset((0.0, horizon), counts)
    assert two_time_mle(data, ((0.0, 10.0), (0.0, 10.0)), 0.1) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the CFA clamps
        start = np.clip(cfa(data), *inference.DEFAULT_BOUNDS)
    fit = fit_mle("nongender", data, seed=0)
    assert fit.warm_start_source == "CFA"
    assert np.array_equal(fit.warm_start, start)
    x, evaluations = _path_without_floor(data, start)
    assert np.array_equal(fit.estimates, x)
    assert fit.iterations == evaluations


def test_closed_form_with_unchanged_ss_has_lambda_zero():
    # no SS pair lost: lambda_hat = 0, inside the box, and P_SI decays
    # at tau alone
    data = nongender_dataset((0.0, 3.0), [(500, 30, 20), (500, 25, 25)])
    fit = fit_mle("nongender", data, seed=0)
    assert fit.warm_start_source == "closed-form"
    assert fit.estimates[0] == 0.0
    assert fit.estimates[1] == pytest.approx(math.log(30 / 25) / 3.0,
                                             rel=1e-12)
    assert fit.iterations == 1


def test_recovery_replicates_on_the_floor_take_one_evaluation(mwanza,
                                                              monkeypatch):
    # machine-independent: the criterion-9 sweep counts the value and
    # derivative evaluations of each refit.  A closed-form start reproduces
    # every count at T, on the saturated bound's floor, and ends its fit
    # at that one value
    calls = {"value": 0, "derivatives": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(inference, "log_likelihood",
                        counting("value", inference.log_likelihood))
    monkeypatch.setattr(inference, "score_and_information",
                        counting("derivatives",
                                 inference.score_and_information))
    fits = []

    def fit(kind, data, seed):
        calls.update(value=0, derivatives=0)
        result = fit_mle(kind, data, seed=seed, uncertainty=False)
        fits.append((result.warm_start_source, result.iterations,
                     calls["value"], calls["derivatives"]))
        return result

    truth_grid = [NonGenderParams(lam, tau) for lam in (0.002, 0.005, 0.01)
                  for tau in (0.02, 0.05, 0.1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the CFA clamps
        records = validation_sweep(truth_grid, mwanza.initial, (0.0, 2.0), 50,
                                   4242, fit)
    assert len(fits) == len(records) == 450
    closed = [f for f in fits if f[0] == "closed-form"]
    assert len(closed) > 400
    assert all(f[1:] == (1, 1, 0) for f in closed)
    # every fit counts each evaluation once
    assert all(iterations == value + derivatives
               for _, iterations, value, derivatives in fits)


@st.composite
def two_time_cohorts(draw):
    """Two-time non-gendered counts: the rounded expectations of a truth."""
    n = draw(st.integers(10, 200_000))
    horizon = draw(st.floats(0.1, 20.0))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    truth = NonGenderParams(draw(rate), draw(rate))
    ss0 = draw(st.integers(1, n))
    si0 = draw(st.integers(0, n - ss0))
    init = PairCounts(ss0, si0, n - ss0 - si0)
    state = solve_nongender(truth, init, horizon)
    ss = round(state[0])
    si = min(round(state[1]), n - ss)
    return nongender_dataset((0.0, horizon),
                             [init.as_tuple(), (ss, si, n - ss - si)])


def _tight_polished(data, fit):
    """A tight simplex from the CFA start, then the Newton climb."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = np.clip(cfa(data), *inference.DEFAULT_BOUNDS)
    except DomainError:
        start = np.array([1e-3, 1e-3])
    objective = inference._objective("nongender", data)
    tight = minimize_simplex(objective, start, fit.bounds, seed=0)
    x, f, information, _ = inference._newton(
        "nongender", data, objective, tight.x, tight.fun, fit.bounds,
        inference._POLISH_DECREMENT, 50_000 - tight.n_evals)
    return (x, f) if information is not None else (tight.x, tight.fun)


@settings(max_examples=150, deadline=None)
@given(two_time_cohorts())
def test_closed_form_fit_attains_the_saturated_bound(data):
    fit = fit_mle("nongender", data, seed=0, uncertainty=False)
    if fit.warm_start_source != "closed-form":
        return  # the pinned fallback cases cover the CFA path
    saturated = saturated_log_likelihood(data)
    # rounding noise of the value path: each term n*log(p/N) carries a few
    # ulps of n, and P_II = N - P_SS - P_SI a few ulps of N
    eta = 1e-15 * (abs(saturated) + 3.0 * data.n)
    noise = inference._NOISE * (1.0 + abs(saturated))
    assert fit.loglik_at_max >= saturated - max(noise, eta)
    # the MLE reproduces every count at T
    state = solve_nongender(NonGenderParams(*fit.estimates), data.initial,
                            data.times[1])
    assert state.as_tuple() == pytest.approx(data.observations[1].as_tuple(),
                                             rel=1e-9, abs=1e-9)
    x, f = _tight_polished(data, fit)
    assert fit.loglik_at_max >= -f - max(1e-12 * (1.0 + abs(f)), eta)
    # 1e-6 relative, or what the value path resolves where that is more:
    # noise eta hides a move d with |g|*d + I*d^2/2 below it (score g,
    # information I), so d under min(sqrt(2*eta/I), eta/|g|)
    score, information, _ = score_and_information("nongender", data,
                                                  fit.estimates)
    with np.errstate(divide="ignore", invalid="ignore"):
        resolution = np.fmin(np.sqrt(2.0 * eta / np.diag(information)),
                             eta / np.abs(score))
    scale = np.maximum(1e-6 * np.abs(x), resolution)
    assert np.all(np.abs(fit.estimates - x) <= scale)


def test_fits_do_not_use_finite_differences(mwanza, mwanza_gender,
                                            monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("standard errors come from the exact information")

    monkeypatch.setattr(inference, "hessian_fd", refuse)
    for kind, data in (("nongender", mwanza), ("gender", mwanza_gender),
                       ("gender", BOUNDARY_COHORT)):
        assert fit_mle(kind, data, seed=0).std_errors is not None


def test_information_matches_finite_difference_oracle(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    objective = inference._objective("nongender", mwanza)
    oracle = richardson_hessian(objective, fit.estimates,
                                8e-4 * fit.estimates)
    information = score_and_information("nongender", mwanza, fit.estimates)[1]
    assert information == pytest.approx(oracle, rel=1e-5)
    # the fit's standard errors come from this information
    assert fit.covariance == pytest.approx(np.linalg.inv(information), rel=1e-9)


def test_stationary_zero_rates_fit():
    # nothing moves: every rate is 0 at the maximum, the score vanishes
    # there, and the information is singular
    data = gender_dataset((0.0, 1.0, 2.0), [(100, 10, 5, 3)] * 3)
    fit = fit_mle("gender", data, seed=0)
    assert np.array_equal(fit.estimates, np.zeros(4))
    assert fit.converged
    assert fit.identifiability == "singular-hessian"
    assert fit.std_errors is None


@pytest.mark.parametrize("kind, data", [
    ("nongender", THREE_TIME_COHORT),
    ("gender", BOUNDARY_COHORT),
], ids=["nongender", "gender"])
def test_failed_scoring_falls_back_to_the_simplex_path(kind, data,
                                                       monkeypatch):
    monkeypatch.setattr(inference, "_newton", _failing_climb(5))
    fit = fit_mle(kind, data, seed=0)
    # the warm start and each of its corners: one value, five evaluations;
    # then the tight simplex from the warm start on the budget left
    used = 6 * (1 + np.count_nonzero(fit.warm_start > 0.0))
    tight = minimize_simplex(inference._objective(kind, data), fit.warm_start,
                             fit.bounds, seed=0, max_evals=50_000 - used,
                             floor=_floor(data))
    assert np.array_equal(fit.estimates, tight.x)
    assert fit.iterations == used + tight.n_evals
    assert fit.converged


def test_two_time_fits_keep_the_simplex(mwanza, mwanza_gender, monkeypatch):
    # the closed-form starts meet the saturated bound at their first
    # evaluation, which ends the fit.  The non-gendered fit makes it by the
    # loose simplex, which keeps the simplex on the path of the
    # benchmark's recovery, report and cohorts workloads; the
    # over-parameterised gendered fit, which starts on its closed-form
    # ridge, makes it by the objective alone
    calls = []
    real = inference.minimize_simplex

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "minimize_simplex", counting)
    assert fit_mle("nongender", mwanza, seed=0).iterations == 1
    assert len(calls) == 1
    assert fit_mle("gender", mwanza_gender, seed=0).iterations == 1
    assert [len(bounds) for bounds in calls] == [2]


@st.composite
def gender_two_time_cohorts(draw):
    """Gendered two-time cohorts, N 500-200,000, sampled from the model."""
    n = draw(st.integers(500, 200_000))
    horizon = draw(st.floats(0.25, 5.0))
    lam = st.one_of(st.just(0.0), st.floats(0.0, 0.02))
    tau = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
    truth = GenderParams(draw(lam), draw(lam), draw(tau), draw(tau))
    each = max(1, int(n * draw(st.floats(0.01, 0.3)) / 2))
    init = GenderPairCounts(n - 2 * each - n // 100, each, each, n // 100)
    end = exact_sample(truth, init, horizon, draw(st.integers(0, 2**31)))
    return Dataset((0.0, horizon), (init, end))


@settings(max_examples=40, deadline=None)
@given(gender_two_time_cohorts())
# one SS pair becomes SI and no pair reaches II: an external rate that
# feeds SI also moves discordant pairs on to II, so no rates reproduce
# these counts and the saturated bound is out of reach
@example(Dataset((0.0, 1.0), (GenderPairCounts(371, 62, 62, 5),
                              GenderPairCounts(370, 62, 63, 5))))
# the counts lie a hair outside the box, beyond lambda_f = 0, so there is
# no ridge start; the climb ends within the floor where the information is
# singular, and that point is the maximum
@example(Dataset((0.0, 0.296875), (GenderPairCounts(4903, 812, 812, 65),
                                   GenderPairCounts(4899, 816, 810, 67))))
# no ridge start, and the climb ends on the saturated bound, where the
# information is singular: without the floor the tight simplex converges
# 7e-12 above that point, which confirms it
@example(Dataset((0.0, 3.34375), (GenderPairCounts(1065, 148, 148, 13),
                                  GenderPairCounts(1058, 155, 147, 14))))
def test_floor_stop_keeps_the_ridge_fit(data):
    # a ridge start lies on the saturated bound's floor, where the fit
    # ends at its first evaluation; elsewhere the fit climbs.  Without the
    # floor every start climbs, and the simplex runs to its tolerances: the
    # fit is never worse, with the same status and no more evaluations
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ill-conditioned covariances
        fit = fit_mle("gender", data, seed=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_floor", lambda data: -math.inf)
            slow = fit_mle("gender", data, seed=0)
    assert (fit.identifiability, fit.converged, fit.se_method) == (
        slow.identifiability, slow.converged, slow.se_method)
    assert fit.iterations <= slow.iterations
    assert fit.loglik_at_max >= slow.loglik_at_max - 1e-9 * (
        1.0 + abs(slow.loglik_at_max))
    if fit.warm_start_source == "closed-form-ridge":
        objective = inference._objective("gender", data)
        assert objective(fit.warm_start) <= _floor(data)
        assert fit.iterations == 1
        assert fit.identifiability == "saturated-ridge"


@pytest.mark.parametrize("end", [(481, 7, 8, 4), (478, 12, 6, 4)])
def test_fits_off_the_ridge_climb(end):
    # SS lost pairs that no external rate sends to IS and SI in these
    # shares without moving pairs on to II, so no rates reproduce the
    # counts: the maximum lies with both tau on 0, where lambda_m and
    # lambda_f are identified.  The tight simplex took 2,155 and 3,269
    # evaluations to reach it.
    data = gender_dataset((0.0, 2.0), [(485, 6, 5, 4), end])
    fit = fit_mle("gender", data, seed=0)
    assert fit.warm_start_source == "symmetric-nongender"
    assert fit.converged and fit.iterations <= 60
    assert (fit.identifiability, fit.se_method) == ("ok", "joint-covariance")
    assert np.array_equal(fit.estimates[2:], [0.0, 0.0])
    tight = minimize_simplex(inference._objective("gender", data),
                             fit.warm_start, fit.bounds, seed=0)
    assert fit.loglik_at_max >= -tight.fun - 1e-9 * (1.0 + abs(tight.fun))


@pytest.mark.parametrize("budget", [5, inference.DEFAULT_MAX_EVALS])
@pytest.mark.parametrize("data", [BOUNDARY_COHORT, None, OFF_RIDGE_COHORT],
                         ids=["gender-boundary", "bundled-gender",
                              "gender-off-ridge"])
def test_gendered_fit_runs_one_optimizer_on_one_budget(data, budget,
                                                       mwanza_gender,
                                                       monkeypatch):
    # the warm start is closed form: every likelihood evaluation is the
    # optimizer's, counted in iterations, but the one information the
    # standard errors take where the optimizer ended off a climb
    data = mwanza_gender if data is None else data
    calls = {"values": 0, "derivatives": 0, "maximize": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name, attribute in (("values", "log_likelihood"),
                            ("derivatives", "score_and_information"),
                            ("maximize", "_maximize")):
        monkeypatch.setattr(inference, attribute,
                            counting(name, getattr(inference, attribute)))
    fit = fit_mle("gender", data, seed=0, max_evals=budget)
    assert calls["maximize"] == 1
    assert fit.iterations <= budget
    extra = 0 if fit.converged and fit.identifiability == "ok" else 1
    assert calls["values"] + calls["derivatives"] == fit.iterations + extra


# lambda = 2.04e-4 and tau = 7.3e-6 over 16 years: the maximum of these
# exact expectations is the truth, tau inside the box but below the loose
# simplex's diameter tolerance
TRUTH_NEAR_BOUND = NonGenderParams(2.04e-4, 7.3e-6)
NEAR_BOUND_COHORT = nongender_dataset((0.0, 8.0, 16.0), [
    solve_nongender(TRUTH_NEAR_BOUND, PairCounts(5115, 1391, 1168),
                    t).as_tuple() for t in (0.0, 8.0, 16.0)])


def test_polish_reaches_an_interior_optimum_near_a_bound():
    data = NEAR_BOUND_COHORT
    objective = inference._objective("nongender", data)
    saturated = saturated_log_likelihood(data)
    # where a loose simplex once stopped: the polish held tau for lying
    # within 1e-5 of its bound and reported convergence there
    start = np.array([2.04e-4, 7.81e-6])
    x, f, information, _ = inference._newton(
        "nongender", data, objective, start, objective(start),
        (inference.DEFAULT_BOUNDS, inference.DEFAULT_BOUNDS),
        inference._POLISH_DECREMENT, 50_000)
    assert information is not None
    assert x == pytest.approx(TRUTH_NEAR_BOUND, rel=1e-5)
    assert -f >= saturated - 1e-12 * (1.0 + abs(saturated))
    fit = fit_mle("nongender", data, seed=0)
    assert fit.converged and fit.identifiability == "ok"
    assert fit.estimates == pytest.approx(TRUTH_NEAR_BOUND,
                                          rel=1e-5)
    # the start: the two-time MLE of the first and last observations
    ends = nongender_dataset((0.0, 16.0), [data.observations[0], data.observations[-1]])
    assert fit.warm_start_source == "closed-form-first-last"
    assert np.array_equal(fit.warm_start,
                          two_time_mle(ends, fit.bounds, 1e-3)[1])


def test_corner_starts_reach_the_higher_maximum():
    # N = 200 with one discordant pair per class: the climb from the
    # symmetric start reaches a maximum with tau_fm = 0, 0.0033 below
    # the one with lambda_m = 0 that the corner start reaches
    data = gender_dataset((0.0, 5.0, 8.05258154227635, 11.795497776281028), [
        (196, 1, 1, 2), (194, 1, 1, 4), (191, 1, 2, 6), (189, 0, 3, 8)])
    fit = fit_mle("gender", data, seed=0)
    tight = _tight_simplex("gender", data, fit)
    assert fit.converged
    assert fit.loglik_at_max >= -tight.fun - 1e-9 * (1.0 + abs(tight.fun))
    assert fit.estimates[0] == 0.0 and fit.estimates[3] > 0.0
    objective = inference._objective("gender", data)
    start = fit.warm_start
    x, f, _, _ = inference._newton("gender", data, objective, start,
                                   objective(start), fit.bounds,
                                   inference._HANDOVER_DECREMENT, 1_000)
    assert -f < fit.loglik_at_max - 1e-3 and x[3] == 0.0


@pytest.mark.parametrize("times, counts", [
    # the expected and observed informations differ along a weakly
    # identified direction: steps on the expected one alone overshoot it
    # every time, and these fits took 255 and 461 evaluations
    ((0.0, 3.77, 6.88, 10.72), [(1569, 336, 336, 22), (1376, 355, 349, 183),
                                (1246, 349, 317, 351), (1102, 321, 290, 550)]),
    ((0.0, 0.58, 2.54, 6.42), [(325, 6, 6, 3), (324, 7, 5, 4),
                               (307, 13, 12, 8), (279, 16, 13, 32)]),
    # lambda_m goes to its bound: a clipped step that keeps the other
    # rates' moves, solved for the full step, zigzags there (811)
    ((0.0, 0.41, 5.16), [(4140, 173, 173, 45), (4122, 174, 173, 62),
                         (3886, 157, 160, 328)]),
], ids=["observed-N-2263", "observed-N-340", "bound-N-4531"])
def test_scoring_converges_where_plain_steps_crawl(times, counts):
    fit = fit_mle("gender", gender_dataset(times, counts), seed=0)
    assert fit.converged and fit.identifiability == "ok"
    assert fit.iterations < 100


@st.composite
def multi_time_cohorts(draw):
    """Three- and four-time cohorts of both kinds, sampled from the model."""
    kind = draw(st.sampled_from(["nongender", "gender"]))
    n = draw(st.integers(200, 200_000))
    gaps = draw(st.lists(st.floats(0.25, 5.0), min_size=2, max_size=3))
    lam = st.one_of(st.just(0.0), st.floats(0.0, 0.02))
    tau = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
    discordant = draw(st.floats(0.01, 0.3))
    ii = n // 100
    if kind == "nongender":
        truth = NonGenderParams(draw(lam), draw(tau))
        si = max(1, int(n * discordant))
        state = PairCounts(n - si - ii, si, ii)
    else:
        truth = GenderParams(draw(lam), draw(lam), draw(tau), draw(tau))
        each = max(1, int(n * discordant / 2))
        state = GenderPairCounts(n - 2 * each - ii, each, each, ii)
    seed = draw(st.integers(0, 2**31))
    states = [state]
    for k, gap in enumerate(gaps):
        states.append(exact_sample(truth, states[-1], gap, seed + k))
    times = tuple(float(t) for t in np.cumsum([0.0] + gaps))
    return kind, Dataset(times, tuple(states))


@settings(max_examples=40, deadline=None)
@given(multi_time_cohorts())
# N = 200,000: with tau_mf held on 0, the last climb's Newton step gains
# 1e-13, below one ulp of the log-likelihood (2.9e-11), and the value path
# rejects it for noise; the climb once ran to its iteration limit there,
# unconverged
@example(("gender", Dataset(
    (0.0, 0.2734375, 3.6803802645360837),
    (GenderPairCounts(171364, 13318, 13318, 1999),
     GenderPairCounts(170891, 13532, 13512, 2064),
     GenderPairCounts(164792, 16344, 16003, 2860)))))
@example(("gender", NOTHING_CHANGED_COHORT))
def test_scoring_fits_reach_the_tight_simplex(case):
    kind, data = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ill-conditioned covariances
        fit = fit_mle(kind, data, seed=0)
    tight = _tight_simplex(kind, data, fit)
    assert fit.converged
    assert fit.loglik_at_max >= -tight.fun - 1e-9 * (1.0 + abs(tight.fun))
    # where the information at the maximum is singular (nothing changed,
    # or a state emptied and the rate out of it went to the box edge) the
    # climb can fail and the tight simplex run
    if fit.identifiability == "ok":
        assert fit.iterations < 150


def test_nothing_changed_cohort_ends_at_its_warm_start():
    # every rate 0 reproduces every count, and the warm start, the split of
    # the marginal closed form, is there, on the saturated bound's floor.
    # A climb from it drifts to rates of about 1e-17, one ulp below the
    # tight simplex's point on the floor, where the singular information
    # lets no Newton stop confirm it
    fit = fit_mle("gender", NOTHING_CHANGED_COHORT, seed=0)
    assert fit.converged and fit.iterations == 1
    assert np.array_equal(fit.estimates, np.zeros(4))
    assert np.array_equal(fit.estimates, fit.warm_start)
    assert fit.loglik_at_max >= -_floor(NOTHING_CHANGED_COHORT)


# Cohorts of the stress sweep (tests/stress_sweep.py) where a corner's
# climb beats the warm start's converged climb, by 0.63 and 2.12
# log-likelihood units
CORNER_WIN_COHORTS = [
    gender_dataset(
        (0.0, 3.255286895146323, 3.525331036521991, 14.3091530178141),
        [(55, 8, 69, 25), (19, 1, 40, 97), (19, 0, 38, 100), (3, 0, 6, 148)]),
    gender_dataset(
        (0.0, 5.873170245937022, 11.079536807856098),
        [(577, 395, 100, 84), (216, 36, 0, 904), (79, 6, 0, 1071)]),
]


@pytest.mark.parametrize("data, margin", zip(CORNER_WIN_COHORTS,
                                             [0.6297, 2.1235]),
                         ids=["4-times", "3-times"])
def test_corner_wins_survive_the_found_stop(data, margin):
    # the warm climb converges, below the maximum a corner's climb reaches:
    # the stop must not end that climb on a maximum already found
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ill-conditioned covariances
        fit = fit_mle("gender", data, seed=0)
    assert fit.converged
    objective = inference._objective("gender", data)
    start = fit.warm_start
    x, f, derivatives, _ = inference._newton(
        "gender", data, objective, start, objective(start), fit.bounds,
        inference._HANDOVER_DECREMENT, 1_000)
    assert derivatives is not None
    assert fit.loglik_at_max + f == pytest.approx(margin, abs=1e-4)


def test_corner_climbs_stop_on_the_maximum_found():
    # every corner's climb returns to the warm climb's maximum, and the stop
    # ends each once its step lands there: fewer evaluations, the same fit
    data = FOUR_TIME_COHORT
    fit = fit_mle("gender", data, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_FOUND_RADIUS", -math.inf)
        full = fit_mle("gender", data, seed=0)
    assert fit.converged and full.converged
    assert fit.iterations < full.iterations
    assert fit.loglik_at_max >= full.loglik_at_max - 1e-12 * (
        1.0 + abs(full.loglik_at_max))
    assert fit.estimates == pytest.approx(full.estimates, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(multi_time_cohorts())
@example(("gender", CORNER_WIN_COHORTS[0]))
@example(("gender", CORNER_WIN_COHORTS[1]))
@example(("nongender", DEPLETED_COHORT))
def test_found_stop_keeps_the_best_value(case):
    # with and without the stop, the fit reaches the same best value and
    # the stop never costs it its convergence
    kind, data = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ill-conditioned covariances
        fit = fit_mle(kind, data, seed=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_FOUND_RADIUS", -math.inf)
            full = fit_mle(kind, data, seed=0)
    assert abs(fit.loglik_at_max - full.loglik_at_max) <= 1e-9 * (
        1.0 + abs(full.loglik_at_max))
    assert fit.converged or not full.converged


@st.composite
def newton_systems(draw):
    """Newton systems of both models at 2-4 observation times.

    The score and the observed or expected information of a sampled cohort
    at rates on and off the box's bounds, with the coordinates the climb
    holds (on a bound, the gradient pointing out) and others moved onto a
    bound, as bending the step into the box moves them.
    """
    kind = draw(st.sampled_from(["nongender", "gender"]))
    n = draw(st.integers(50, 200_000))
    gaps = draw(st.lists(st.floats(0.25, 5.0), min_size=1, max_size=3))
    ii = max(1, n // 100)
    if kind == "nongender":
        truth = NonGenderParams(0.004, 0.07)
        si = max(1, n // 20)
        state = PairCounts(n - si - ii, si, ii)
    else:
        truth = GenderParams(0.004, 0.002, 0.047, 0.068)
        each = max(1, n // 40)
        state = GenderPairCounts(n - 2 * each - ii, each, each, ii)
    seed = draw(st.integers(0, 2**31))
    states = [state]
    for k, gap in enumerate(gaps):
        states.append(exact_sample(truth, states[-1], gap, seed + k))
    data = Dataset(tuple(float(t) for t in np.cumsum([0.0] + gaps)),
                   tuple(states))
    rate = st.one_of(st.just(0.0), st.just(10.0), st.floats(0.0, 0.2),
                     st.floats(0.0, 10.0))
    x = np.array([draw(rate) for _ in PARAM_NAMES[kind]])
    derivatives = oracles.score_and_information(kind, data, x)
    assume(derivatives is not None and np.isfinite(derivatives[1]).all())
    score, observed, expected = derivatives
    information = observed if draw(st.booleans()) else expected()
    lo, hi = np.zeros(x.size), np.full(x.size, 10.0)
    gradient = -score
    to_lo = (x <= lo) & (gradient > 0)
    to_hi = (x >= hi) & (gradient < 0)
    for i in range(x.size):
        if not (to_lo[i] or to_hi[i]) and draw(st.integers(0, 3)) == 0:
            bound = to_lo if draw(st.booleans()) else to_hi
            bound[i] = True
    return x, gradient, information, lo, hi, to_lo, to_hi


@settings(max_examples=300, deadline=None)
@given(system=newton_systems())
def test_newton_step_matches_the_numpy_cholesky_property(system):
    """The step solved on Python floats against numpy's Cholesky factor and
    solves.  Held coordinates move exactly onto their bounds.  Each free
    entry is within 1e-12 of its scale: the condition number of the free
    block times the step's size, plus the inverse block's magnitudes times
    those of the right-hand side's terms.  None exactly where the
    reference gives none, wherever the free block is clearly (by 1e-8 of
    its largest eigenvalue) positive definite or indefinite."""
    x, gradient, information, lo, hi, to_lo, to_hi = system
    ours = inference._newton_step(x, gradient, information, lo, hi, to_lo,
                                  to_hi)
    reference = oracles.newton_step(x, gradient, information, lo, hi,
                                    to_lo.copy(), to_hi.copy())
    free = ~(to_lo | to_hi)
    held = ~free
    block = information[np.ix_(free, free)]
    if free.any():
        eigenvalues = np.linalg.eigvalsh(block)
        margin = 1e-8 * np.abs(eigenvalues).max()
        if abs(eigenvalues.min()) <= margin:
            return
    assert (ours is None) == (reference is None)
    if ours is None:
        return
    assert np.array_equal(ours[held], reference[held])
    if free.any():
        rhs_scale = (np.abs(gradient[free]) + np.abs(
            information[np.ix_(free, held)]) @ np.abs(reference[held]))
        scale = (np.linalg.cond(block) * np.abs(reference[free]).max()
                 + np.abs(np.linalg.inv(block)) @ rhs_scale)
        assert np.all(np.abs(ours[free] - reference[free]) <= 1e-12 * scale)
