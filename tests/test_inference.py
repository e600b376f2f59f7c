"""Fitting, Hessians, covariance, intervals, ellipses, infection tables."""

import math

import numpy as np
import pytest

from pairinfer import (DomainError, EllipseSpec, GenderPairCounts,
                       GenderParams, InfeasibleDataError, NonGenderParams,
                       PairCounts, SingularStencilError, chi2_quantile_2dof,
                       covariance_from_hessian, curvature_std_errors,
                       ellipse_points, fit_mle, hessian_fd,
                       infections_per_year, nongender_dataset,
                       solve_nongender, wald_intervals)

from oracles import richardson_hessian


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
    assert result.positive_definite
    assert result.covariance == pytest.approx(np.diag([0.25, 0.04]))
    assert result.std_errors == pytest.approx([0.5, 0.2])
    assert not result.condition_warning


def test_covariance_not_positive_definite():
    result = covariance_from_hessian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not result.positive_definite
    assert result.covariance is None
    assert result.std_errors is None


def test_covariance_condition_warning():
    # scale disparity + correlation 0.999999 pushes the condition number
    # past the 1e10 threshold while staying positive definite
    rho = 0.999999
    h = np.array([[1.0, 1000.0 * rho], [1000.0 * rho, 1000.0 ** 2]])
    with pytest.warns(UserWarning):
        result = covariance_from_hessian(h)
    assert result.positive_definite
    assert result.condition_number > 1e10
    assert result.condition_warning


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


def test_ellipse_unit_circle():
    level = 1.0 - math.exp(-0.5)  # chi2(2) quantile equals exactly 1
    spec = EllipseSpec(mean=(0.0, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)),
                       level=level, n_points=16)
    pts = ellipse_points(spec, clip=False)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii == pytest.approx(np.ones(16), abs=1e-12)


def test_ellipse_quadratic_form_residual():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    spec = EllipseSpec(mean=(0.3, 0.4), covariance=tuple(map(tuple, cov)),
                       level=0.95, n_points=64)
    pts = ellipse_points(spec, clip=False)
    inv = np.linalg.inv(cov)
    c = chi2_quantile_2dof(0.95)
    for p in pts:
        d = p - np.array([0.3, 0.4])
        assert float(d @ inv @ d) == pytest.approx(c, abs=1e-10)


def test_ellipse_clipping_truncates_at_zero():
    spec = EllipseSpec(mean=(0.001, 0.001),
                       covariance=((1e-4, 0.0), (0.0, 1e-4)), level=0.95)
    pts = ellipse_points(spec)
    assert pts.min() == 0.0
    raw = ellipse_points(spec, clip=False)
    assert raw.min() < 0.0


def test_ellipse_validation():
    with pytest.raises(DomainError):
        EllipseSpec(mean=(0.0, 0.0), covariance=((1.0, 2.0), (2.0, 1.0)),
                    level=0.95)
    with pytest.raises(DomainError):
        EllipseSpec(mean=(0.0, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)),
                    level=0.95, n_points=4)


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
    assert table.per_thousand_total_inconsistent


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
    assert fit.warm_start_source == "CFA"
    assert not fit.on_boundary
    # never regress below the warm start
    from pairinfer import log_likelihood_nongender

    warm_value = log_likelihood_nongender(
        NonGenderParams(*fit.warm_start), mwanza)
    assert fit.loglik_at_max >= warm_value


def test_fit_mwanza_standard_errors(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    assert abs(fit.std_errors[0] - 0.001) <= 0.0005
    assert abs(fit.std_errors[1] - 0.046) <= 0.01
    assert fit.hessian_positive_definite
    assert fit.hessian == pytest.approx(fit.hessian.T)


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
    assert fit.warm_start_source == "symmetric-nongender"


def test_gender_warm_start_skips_uncertainty(mwanza_gender, monkeypatch):
    # the non-gendered warm-start fit uses only its estimates
    import pairinfer.inference as inference

    calls = []

    def counting_hessian(objective, point):
        calls.append(len(point))
        return hessian_fd(objective, point)

    monkeypatch.setattr(inference, "hessian_fd", counting_hessian)
    fit_mle("gender", mwanza_gender, seed=0)
    assert calls == [4]


def test_fit_gender_intervals_match_published(mwanza_gender):
    fit = fit_mle("gender", mwanza_gender, seed=0, levels=(0.95,))
    published = {"lambda_m": (0.0006, 0.0073), "lambda_f": (0.0, 0.0051),
                 "tau_mf": (0.0, 0.1819), "tau_fm": (0.0, 0.2271)}
    z = 1.959963984540054
    for name, interval, sigma in zip(fit.param_names, fit.intervals[0.95],
                                     fit.std_errors):
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


def test_fit_nonconvergence_flagged(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0, max_evals=15)
    assert not fit.converged
    assert fit.iterations <= 15


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
