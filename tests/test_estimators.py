"""Analytical estimators: closed-form lambda, phi expansion, tau root solve, CFA."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairinfer import (Dataset, DomainError, ExpansionUndefinedError,
                       GenderPairCounts, GenderParams,
                       NoRootError, NonGenderParams, PairCounts, cfa, fit_mle,
                       gender_dataset, gender_theta_approx,
                       lambda_hat_closed_form, log_likelihood_nongender,
                       nongender_dataset, phi_hat_binomial, solve_gender,
                       solve_nongender, tau_hat_rootsolve)
import pairinfer.estimators as estimators
from pairinfer.estimators import two_time_mle

import oracles
from oracles import exact_sample, make_consistent_dataset

MWANZA_PHI = -7.745390610418912          # printed series formula on Table-1 counts
MWANZA_TAU_ROOT = 0.055654062074429106   # bisection at lambda_hat, tol 1e-10
MWANZA_THETA_Q23 = (6.791586522929799, 9.004412005904545)


def test_lambda_hat_mwanza(mwanza):
    value = lambda_hat_closed_form(mwanza)
    assert value == pytest.approx(math.log(1742 / 1721) / 4.0, abs=1e-15)
    assert value == pytest.approx(0.003, abs=5e-5)


def test_lambda_hat_no_depletion():
    data = nongender_dataset((0.0, 3.0), [(500, 30, 20), (500, 25, 25)])
    assert lambda_hat_closed_form(data) == 0.0


def test_lambda_hat_constructed_exponential():
    ss_t = round(1000 * math.exp(-0.02))
    data = nongender_dataset((0.0, 1.0), [(1000, 50, 10),
                                          (ss_t, 60, 1060 - ss_t - 60 + 0)])
    assert lambda_hat_closed_form(data) == pytest.approx(0.01, abs=2e-4)


def test_lambda_hat_negative_warns():
    data = nongender_dataset((0.0, 2.0), [(1000, 50, 10), (1010, 40, 10)])
    with pytest.warns(UserWarning):
        value = lambda_hat_closed_form(data)
    assert value < 0


def test_lambda_hat_domain_errors():
    data = nongender_dataset((0.0, 1.0, 2.0),
                             [(100, 10, 5), (98, 11, 6), (96, 12, 7)])
    with pytest.raises(DomainError):
        lambda_hat_closed_form(data)  # needs exactly two observation times
    zero_ss = nongender_dataset((0.0, 1.0), [(0, 50, 50), (0, 40, 60)])
    with pytest.raises(DomainError):
        lambda_hat_closed_form(zero_ss)


def test_phi_hat_mwanza_frozen(mwanza):
    phi = phi_hat_binomial(mwanza)
    assert phi.phi_hat == pytest.approx(MWANZA_PHI, abs=1e-9)
    lam = lambda_hat_closed_form(mwanza)
    assert phi.tau_two_phi_plus_one == pytest.approx((2 * MWANZA_PHI + 1) * lam,
                                                     abs=1e-12)
    assert phi.tau_phi_plus_one == pytest.approx((MWANZA_PHI + 1) * lam,
                                                 abs=1e-12)


def test_phi_hat_near_zero_when_tau_equals_lambda():
    lam = 0.0005
    init = PairCounts(1742, 43, 17)
    state = solve_nongender(NonGenderParams(lam, lam), init, 2.0)
    data = nongender_dataset((0.0, 2.0), [init.as_tuple(), state.as_tuple()])
    phi = phi_hat_binomial(data)
    # first-order residual of the series at phi = 0, measured at build time
    assert abs(phi.phi_hat) < 0.05


def test_phi_hat_fallback_signal():
    data = nongender_dataset((0.0, 2.0), [(1000, 40, 10), (1000, 20, 30)])
    with pytest.raises(ExpansionUndefinedError):
        phi_hat_binomial(data)


def test_tau_rootsolve_mwanza_frozen(mwanza):
    lam = lambda_hat_closed_form(mwanza)
    tau = tau_hat_rootsolve(mwanza, lam)
    assert tau == pytest.approx(MWANZA_TAU_ROOT, abs=1e-8)
    assert tau == pytest.approx(0.056, abs=5e-4)


def test_tau_rootsolve_inverts_forward_solve():
    # the stationarity target only matches the exact forward law when the
    # initial II/SI ratio equals the model's own ratio at time T, so the
    # initial II count is constructed to satisfy that (see oracles module)
    truth = NonGenderParams(0.005, 0.05)
    ss0, si0 = 1742.0, 43.0
    probe = solve_nongender(truth, PairCounts(ss0, si0, 0.0), 2.0)
    ii0 = si0 * (ss0 + si0 - probe.p_ss - probe.p_si) / (probe.p_si - si0)
    assert ii0 > 0
    init = PairCounts(ss0, si0, ii0)
    state = solve_nongender(truth, init, 2.0)
    data = nongender_dataset((0.0, 2.0), [init.as_tuple(), state.as_tuple()])
    lam = lambda_hat_closed_form(data)
    assert lam == pytest.approx(0.005, abs=1e-12)
    tau = tau_hat_rootsolve(data, lam)
    assert tau == pytest.approx(0.05, abs=1e-6)


def test_tau_rootsolve_boundary_returns_lambda():
    # choose N so the stationarity target equals P_SI at tau = lambda exactly:
    # N = c*d*ss0 / ((si0+c)*d - si0) with c = 2*lam*ss0*T and d = exp(-2*lam*T)
    lam, big_t = 0.05, 1.0
    ss0, si0 = 100.0, 10.0
    c = 2.0 * lam * ss0 * big_t
    d = math.exp(-2.0 * lam * big_t)
    n = c * d * ss0 / ((si0 + c) * d - si0)
    ii0 = n - ss0 - si0
    assert ii0 > 0
    ss_t = ss0 * d                       # forces lambda_hat == lam
    si_t = (si0 + c) * d                 # the tau = lambda prediction
    data = nongender_dataset(
        (0.0, big_t), [(ss0, si0, ii0), (ss_t, si_t, n - ss_t - si_t)])
    lam_hat = lambda_hat_closed_form(data)
    assert lam_hat == pytest.approx(lam, abs=1e-12)
    tau = tau_hat_rootsolve(data, lam_hat)
    assert tau == pytest.approx(lam, abs=1e-9)


def test_tau_rootsolve_no_root():
    data = nongender_dataset((0.0, 1.0), [(100, 10, 0), (90, 10, 10)])
    # target 10*(110-90)/10 = 20 exceeds the maximum attainable P_SI (~18.5)
    lam = lambda_hat_closed_form(data)
    with pytest.raises(NoRootError):
        tau_hat_rootsolve(data, lam)


def test_tau_rootsolve_negative_lambda_rejected(mwanza):
    with pytest.raises(DomainError):
        tau_hat_rootsolve(mwanza, -0.01)


@pytest.mark.parametrize("seed", [None, 0.0, 10.0], ids=["cfa", "lo", "hi"])
def test_two_time_mle_mwanza(mwanza, monkeypatch, seed):
    # the bundled cohort's MLE reproduces its counts at T; from the CFA
    # seed the solve takes the two bracket ends and four Newton steps on
    # log P_SI, and from either end of the box at most six steps
    calls = []
    real = estimators._inflow_moments

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimators, "_inflow_moments", counting)
    tau_seed = cfa(mwanza).tau if seed is None else seed
    low, (lam, tau), high = two_time_mle(mwanza, ((0.0, 10.0), (0.0, 10.0)),
                                         tau_seed)
    assert low == high == (lam, tau)  # a segment of one point
    assert lam == math.log(1742 / 1721) / 4.0
    assert tau == pytest.approx(0.056175471620382986, rel=1e-12)
    assert len(calls) <= (6 if seed is None else 8)
    state = solve_nongender(NonGenderParams(lam, tau), mwanza.initial, 2.0)
    assert state.as_tuple() == pytest.approx(
        mwanza.observations[1].as_tuple(), rel=1e-13)


def test_two_time_mle_of_an_unchanged_cohort():
    # nothing moved: the MLE is the corner (0, 0), found from the bracket
    # ends alone whatever the seed
    data = nongender_dataset((0.0, 3.0), [(500, 30, 20)] * 2)
    assert two_time_mle(data, ((0.0, 10.0), (0.0, 10.0)), 1.0) == (
        ((0.0, 0.0),) * 3)
    fit = fit_mle("nongender", data, seed=0)
    assert fit.warm_start_source == "closed-form"
    assert np.array_equal(fit.estimates, [0.0, 0.0])


BOX = ((0.0, 10.0),) * 4


def _cohort(end, horizon=2.0, start=(485, 6, 5, 4)):
    return gender_dataset((0.0, horizon), [start, end])


@st.composite
def gender_two_time_cases(draw):
    """Gendered two-time cohorts, N 50-200,000, sampled from the model at
    rates 0-10, with the default box."""
    n = draw(st.integers(50, 200_000))
    horizon = draw(st.floats(0.25, 5.0))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.0, 10.0))
    truth = GenderParams(*(draw(rate) for _ in range(4)))
    each = max(1, int(n * draw(st.floats(0.01, 0.3)) / 2))
    ii = max(1, n // 100)
    init = GenderPairCounts(n - 2 * each - ii, each, each, ii)
    end = exact_sample(truth, init, horizon, draw(st.integers(0, 2**31)))
    return Dataset((0.0, horizon), (init, end)), BOX


@settings(max_examples=60, deadline=None)
@given(gender_two_time_cases())
# nothing left SS, so h = 0 and both lambda are 0; SI did not move, so
# tau_fm's root is its lower bound
@example((_cohort((485, 5, 5, 5)), BOX))
# every SS pair lost went to IS and none left it: one point, lambda_f = 0
@example((_cohort((481, 10, 3, 6)), BOX))
# SI fell faster than SS: the upper end is lambda_f = 0, both tau inside
@example((_cohort((479, 9, 4, 8)), BOX))
# the bundled cohort with tau_mf up to 0.1: the upper end is where tau_mf
# reaches that bound, not where tau_fm reaches 0
@example((gender_dataset((0.0, 2.0), [(1742, 22, 21, 17), (1721, 33, 25, 23)]),
          ((0.0, 10.0), (0.0, 10.0), (0.0, 0.1), (0.0, 10.0))))
# SS lost 4, IS gained 1 and SI 3, II none: no rates reproduce this
@example((_cohort((481, 7, 8, 4)), BOX))
def test_ridge_matches_the_mpmath_oracle(case):
    data, bounds = case
    got = two_time_mle(data, bounds, 0.0)
    want = oracles.ridge_mp(data, bounds)
    if got is None or want is None:
        # where the segment is one point, rounding decides whether the
        # observed counts are reached at all
        found = got or want
        assert found is None or found[0] == pytest.approx(found[2], rel=1e-9,
                                                          abs=1e-12)
        return
    for ours, theirs in zip(got, want):
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-12)
    low, point, high = got
    assert point[0] == 0.5 * (low[0] + high[0])
    # every point reproduces the counts at T
    for rates in got:
        state = solve_gender(GenderParams(*np.clip(rates, 0.0, None)),
                             data.initial, data.times[1])
        assert state.as_tuple() == pytest.approx(
            data.observations[1].as_tuple(), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("end, ridge", [
    ((485, 5, 5, 5), True),
    ((481, 10, 3, 6), True),
    ((481, 7, 8, 4), False),
    ((478, 12, 6, 4), False),
])
def test_degenerate_ridges(end, ridge):
    # h = 0, a segment of one point, and two cohorts with no segment: where
    # a solve returns a point, it is the oracle's, on the saturated bound
    data = _cohort(end)
    got = two_time_mle(data, BOX, 0.0)
    assert (got is not None) == ridge
    if ridge:
        assert got[0] == got[1] == got[2]
        assert got[1] == pytest.approx(oracles.ridge_mp(data, BOX)[1],
                                       rel=1e-9, abs=1e-12)


def test_cfa_mwanza(mwanza):
    params = cfa(mwanza)
    assert params.lam == pytest.approx(15 / 6968, abs=1e-15)
    assert params.tau == pytest.approx(6 / 172, abs=1e-15)


def test_cfa_no_change():
    data = nongender_dataset((0.0, 2.0), [(900, 60, 40), (900, 60, 40)])
    params = cfa(data)
    assert params.lam == 0.0
    assert params.tau == 0.0


def test_cfa_clamps_with_warning():
    data = nongender_dataset((0.0, 2.0), [(900, 60, 40), (905, 50, 45)])
    with pytest.warns(UserWarning):
        params = cfa(data)
    assert params.lam == 0.0


def test_cfa_zero_denominator():
    data = nongender_dataset((0.0, 2.0), [(900, 0, 100), (890, 10, 100)])
    with pytest.raises(DomainError):
        cfa(data)


def test_theta_approx_symmetric_data():
    data = gender_dataset((0.0, 2.0), [(1700, 30, 30, 42), (1680, 40, 40, 42)])
    theta_m, theta_f = gender_theta_approx(data, 0.5, 0.003)
    assert theta_m == pytest.approx(theta_f, rel=1e-12)


def test_theta_approx_mwanza_recorded(mwanza_gender):
    lam = lambda_hat_closed_form(mwanza_gender)
    theta = gender_theta_approx(mwanza_gender, 2.0 / 3.0, lam)
    assert theta == pytest.approx(MWANZA_THETA_Q23, rel=1e-9)
    assert all(math.isfinite(v) for v in theta)


def test_theta_approx_recovers_truth_at_tiny_depletion():
    # forward-solve at known (lambda, q, theta_m, theta_f), then invert:
    # lambda_m = 2*lambda*q and tau_mf = 2*lambda*(q + theta_m), and
    # likewise with 1 - q for women
    lam, q = 0.0004, 0.55
    lam2 = 2.0 * lam
    rates = GenderParams(lam2 * q, lam2 * (1.0 - q), lam2 * (q + 2.0),
                         lam2 * (1.0 - q + 3.0))
    init = (1742.0, 40.0, 35.0, 17.0)
    from pairinfer import GenderPairCounts

    state = solve_gender(rates, GenderPairCounts(*init), 2.0)
    data = gender_dataset((0.0, 2.0), [init, state.as_tuple()])
    theta_m, theta_f = gender_theta_approx(data, q, lam)
    dss = abs(state.p_ss - init[0]) / state.p_ss
    # error is first order in theta * dSS/SS; the constant measured over a
    # 8x depletion range sits at 5.1-6.4, so 8 gives margin without losing
    # the scaling claim
    for got, true in ((theta_m, 2.0), (theta_f, 3.0)):
        assert abs(got - true) <= 8.0 * abs(true) * dss


def test_theta_approx_domain_errors(mwanza_gender):
    with pytest.raises(DomainError):
        gender_theta_approx(mwanza_gender, 1.5, 0.003)
    flat = gender_dataset((0.0, 2.0), [(1700, 30, 30, 42), (1700, 35, 25, 42)])
    with pytest.raises(DomainError):
        gender_theta_approx(flat, 0.5, 0.003)


def test_lambda_hat_is_likelihood_argmax_on_consistent_data():
    """The joint MLE's lambda equals the closed form; scan 50 datasets."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        truth, data = make_consistent_dataset(rng)
        lam_hat = lambda_hat_closed_form(data)
        assert lam_hat == pytest.approx(truth.lam, abs=1e-10)
        tau_root = tau_hat_rootsolve(data, lam_hat)
        # dense scan over lambda with tau fixed at the analytic tau
        lams = np.linspace(max(lam_hat - 0.002, 1e-5), lam_hat + 0.002, 801)
        values = [log_likelihood_nongender(NonGenderParams(l, tau_root), data)
                  for l in lams]
        best = lams[int(np.argmax(values))]
        step = lams[1] - lams[0]
        assert abs(best - lam_hat) <= 2 * step


def test_rootsolve_agrees_with_numeric_mle():
    """Root-solved tau tracks fit_mle's tau to 1e-3 on consistent data."""
    rng = np.random.default_rng(77)
    for k in range(50):
        truth, data = make_consistent_dataset(rng)
        lam_hat = lambda_hat_closed_form(data)
        tau_root = tau_hat_rootsolve(data, lam_hat)
        fit = fit_mle("nongender", data, seed=k)
        assert abs(tau_root - fit.estimates[1]) < 1e-3
        assert abs(lam_hat - fit.estimates[0]) < 1e-4


def test_mwanza_rootsolve_vs_mle_gap(mwanza):
    lam_hat = lambda_hat_closed_form(mwanza)
    tau_root = tau_hat_rootsolve(mwanza, lam_hat)
    fit = fit_mle("nongender", mwanza, seed=0)
    assert abs(tau_root - fit.estimates[1]) < 1e-3
    assert abs(lam_hat - fit.estimates[0]) < 1e-4


def test_warm_start_candidates_inside_feasible_box(mwanza):
    params = cfa(mwanza)
    assert 0.0 <= params.lam <= 10.0
    assert 0.0 <= params.tau <= 10.0
    # a cohort losing a tenth of its SS pairs in 0.001 years has no
    # closed-form start in the box, and its CFA lambda, about 50, leaves
    # it: the fit clips its warm start into the box
    data = nongender_dataset((0.0, 0.001), [(1000, 50, 0), (900, 150, 0)])
    assert cfa(data).lam > 10.0
    fit = fit_mle("nongender", data, seed=0)
    assert fit.warm_start_source == "CFA"
    assert np.array_equal(fit.warm_start, [10.0, 0.0])
