"""Closed-form forward solutions against the ODE-integration oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinfer import (GENDER, NONGENDER, DomainError, GenderPairCounts,
                       GenderParams, GenderReparam, NonGenderParams,
                       PairCounts, rates_to_reparam, reparam_to_rates,
                       solve_gender, solve_nongender)
from pairinfer.model import EPS_SINGULAR, count_derivatives

from oracles import (count_derivatives_mp, integrate_gender,
                     integrate_nongender)

MWANZA_INIT = PairCounts(1742, 43, 17)
MWANZA_G_INIT = GenderPairCounts(1742, 22, 21, 17)

# Oracle values frozen from DOP853 integration (rtol=atol=1e-12).
ORACLE_NG_EXAMPLE = (1720.9937376381577, 58.01305186946877, 22.993210492373628)
ORACLE_NG_SINGULAR = (94.17645335842487, 15.068232537347983, 0.7553141042271495)
ORACLE_G_EXAMPLE = (1721.2209238054832, 33.14055806548419,
                    24.633475033072017, 23.005043095960804)


def test_zero_rates_freeze_state():
    state = solve_nongender(NonGenderParams(0.0, 0.0), MWANZA_INIT, 5.0)
    assert state.as_tuple() == (1742.0, 43.0, 17.0)


def test_t_zero_returns_init_exactly():
    state = solve_nongender(NonGenderParams(0.123, 0.456), MWANZA_INIT, 0.0)
    assert state.as_tuple() == (1742.0, 43.0, 17.0)
    gstate = solve_gender(GenderParams(0.1, 0.2, 0.3, 0.4), MWANZA_G_INIT, 0.0)
    assert gstate.as_tuple() == (1742.0, 22.0, 21.0, 17.0)


def test_nongender_matches_frozen_oracle_values():
    state = solve_nongender(NonGenderParams(0.003033, 0.0561), MWANZA_INIT, 2.0)
    assert state.as_tuple() == pytest.approx(ORACLE_NG_EXAMPLE, abs=1e-8)
    # headline values: ss is analytically forced by lambda = log(1742/1721)/4
    assert state.p_ss == pytest.approx(1721.0, abs=0.05)
    assert state.p_si == pytest.approx(58.0, abs=0.05)
    assert state.p_ii == pytest.approx(23.0, abs=0.05)


def test_singular_branch_matches_frozen_oracle():
    state = solve_nongender(NonGenderParams(0.01, 0.01), PairCounts(100, 10, 0), 3.0)
    assert state.as_tuple() == pytest.approx(ORACLE_NG_SINGULAR, abs=1e-8)


def test_gender_matches_frozen_oracle_at_fitted_rates():
    params = GenderParams(0.004, 0.002, 0.047, 0.068)
    state = solve_gender(params, MWANZA_G_INIT, 2.0)
    assert state.as_tuple() == pytest.approx(ORACLE_G_EXAMPLE, abs=1e-8)


def test_gender_all_zero_rates():
    state = solve_gender(GenderParams(0, 0, 0, 0), MWANZA_G_INIT, 2.0)
    assert state.as_tuple() == (1742.0, 22.0, 21.0, 17.0)


def test_gender_marginalizes_to_nongender_under_symmetric_rates():
    lam, tau = 0.004, 0.06
    g = solve_gender(GenderParams(lam, lam, tau, tau), MWANZA_G_INIT, 2.0)
    ng = solve_nongender(NonGenderParams(lam, tau), MWANZA_INIT, 2.0)
    assert g.p_ss == pytest.approx(ng.p_ss, abs=1e-10)
    assert g.p_ii == pytest.approx(ng.p_ii, abs=1e-10)
    assert g.p_is + g.p_si == pytest.approx(ng.p_si, abs=1e-10)


def test_oracle_equivalence_random_draws():
    rng = np.random.default_rng(42)
    for k in range(200):
        lam = rng.uniform(0.0, 0.5)
        tau = rng.uniform(0.0, 0.5)
        if k % 10 == 0:
            tau = lam  # pin to the singular manifold
        t = rng.uniform(0.0, 10.0)
        n = rng.integers(10, 10_000)
        ss = 0.8 * n
        si = 0.15 * n
        init = PairCounts(ss, si, n - ss - si)
        params = NonGenderParams(lam, tau)
        closed = np.array(solve_nongender(params, init, t).as_tuple())
        exact = integrate_nongender(params, init, t)
        assert np.max(np.abs(closed - exact)) < 1e-8

        gparams = GenderParams(rng.uniform(0, 0.5), rng.uniform(0, 0.5),
                               rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        if k % 10 == 5:
            gparams = GenderParams(gparams.lam_m, gparams.lam_f,
                                   gparams.lam_m, gparams.lam_f)
        ginit = GenderPairCounts(ss, si / 2, si / 2, n - ss - si)
        gclosed = np.array(solve_gender(gparams, ginit, t).as_tuple())
        gexact = integrate_gender(gparams, ginit, t)
        assert np.max(np.abs(gclosed - gexact)) < 1e-8


rate = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
time_value = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(lam=rate, tau=rate, t=time_value)
def test_conservation_property(lam, tau, t):
    state = solve_nongender(NonGenderParams(lam, tau), MWANZA_INIT, t)
    n = MWANZA_INIT.total
    assert abs(state.total - n) < 1e-9 * n
    assert all(-1e-9 <= c <= n * (1 + 1e-12) for c in state.as_tuple())


@settings(max_examples=100, deadline=None)
@given(lam=rate, tau=rate, lam2=rate, tau2=rate, t=time_value)
def test_gender_conservation_property(lam, tau, lam2, tau2, t):
    state = solve_gender(GenderParams(lam, lam2, tau, tau2), MWANZA_G_INIT, t)
    n = MWANZA_G_INIT.total
    assert abs(state.total - n) < 1e-9 * n


@settings(max_examples=100, deadline=None)
@given(lam=rate, tau=rate)
def test_monotonicity_property(lam, tau):
    params = NonGenderParams(lam, tau)
    times = np.linspace(0.0, 8.0, 30)
    states = [solve_nongender(params, MWANZA_INIT, t) for t in times]
    ss = [s.p_ss for s in states]
    ii = [s.p_ii for s in states]
    assert all(b <= a + 1e-9 for a, b in zip(ss, ss[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(ii, ii[1:]))


def test_continuity_at_singular_branch():
    n = MWANZA_INIT.total
    lam = 0.02
    reference = solve_nongender(NonGenderParams(lam, lam), MWANZA_INIT, 3.0)
    for tau in (lam - 1e-9, lam + 1e-9):
        nearby = solve_nongender(NonGenderParams(lam, tau), MWANZA_INIT, 3.0)
        diff = max(abs(a - b) for a, b in
                   zip(nearby.as_tuple(), reference.as_tuple()))
        assert diff < 1e-6 * n


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_nongender(NonGenderParams(0.1, 0.1), MWANZA_INIT, -1.0)
    with pytest.raises(DomainError):
        NonGenderParams(-0.1, 0.1)
    with pytest.raises(DomainError):
        NonGenderParams(float("nan"), 0.1)
    with pytest.raises(DomainError):
        GenderParams(0.1, -0.2, 0.1, 0.1)
    with pytest.raises(DomainError):
        PairCounts(-1, 0, 0)
    with pytest.raises(DomainError):
        solve_nongender(NonGenderParams(0.1, 0.1), PairCounts(0, 0, 0), 1.0)


def test_reparam_symmetric_zero_excess():
    rates = reparam_to_rates(GenderReparam(0.003, 0.5, 0.0, 0.0))
    assert rates.lam_m == pytest.approx(0.003, abs=1e-15)
    assert rates.lam_f == pytest.approx(0.003, abs=1e-15)
    assert rates.tau_mf == pytest.approx(0.003, abs=1e-15)
    assert rates.tau_fm == pytest.approx(0.003, abs=1e-15)


def test_reparam_from_fitted_lambdas():
    r = rates_to_reparam(GenderParams(0.004, 0.002, 0.047, 0.068))
    assert r.lam == pytest.approx(0.003, abs=1e-15)
    assert r.q == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_reparam_undefined_at_zero_external():
    from pairinfer import UndefinedReparamError

    with pytest.raises(UndefinedReparamError):
        rates_to_reparam(GenderParams(0.0, 0.0, 0.1, 0.1))


positive_rate = st.floats(min_value=1e-6, max_value=0.5, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(lam_m=positive_rate, lam_f=positive_rate,
       tau_mf=positive_rate, tau_fm=positive_rate)
def test_reparam_round_trip_property(lam_m, lam_f, tau_mf, tau_fm):
    rates = GenderParams(lam_m, lam_f, tau_mf, tau_fm)
    back = reparam_to_rates(rates_to_reparam(rates))
    scale = lam_m + lam_f + tau_mf + tau_fm
    for a, b in zip(rates.as_vector(), back.as_vector()):
        assert b == pytest.approx(a, rel=1e-14, abs=1e-14 * scale)


def test_theta_and_phi_accessors():
    params = NonGenderParams(0.003, 0.056)
    assert params.theta == pytest.approx(0.053)
    assert params.phi == pytest.approx((0.056 / 0.003 - 1) / 2)
    with pytest.raises(DomainError):
        _ = NonGenderParams(0.0, 0.1).phi


def test_long_horizon_tau_below_lambda_stays_finite():
    # exp(-(tau - lambda)*t) alone overflows here; the combined exponent
    # exp(-(tau + lambda)*t) underflows harmlessly instead
    state = solve_nongender(NonGenderParams(10, 0), PairCounts(100, 5, 0), 80)
    assert state.as_tuple() == (0.0, 0.0, 105.0)
    # men infected at rate 10, nothing else moves: every SS pair ends in IS
    gstate = solve_gender(GenderParams(10, 0, 0, 0),
                          GenderPairCounts(100, 5, 5, 0), 80)
    assert gstate.as_tuple() == (0.0, 105.0, 0.0, 5.0)


def _internal_rate(draw, lam, times):
    """An internal rate in one of the derivative routine's x regimes."""
    regime = draw(st.sampled_from(("any", "singular", "series", "zero")))
    if regime == "singular":
        return max(lam + draw(st.floats(-EPS_SINGULAR, EPS_SINGULAR)), 0.0)
    if regime == "series":
        # |x*t| on both sides of the series band's edge at 1
        return max(lam + draw(st.floats(-1.5, 1.5)) / times[0], 0.0)
    if regime == "zero":
        return 0.0
    return draw(st.floats(0.0, 10.0))


@st.composite
def derivative_cases(draw):
    kind = draw(st.sampled_from((NONGENDER, GENDER)))
    times = sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=1,
                                 max_size=3, unique=True)))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    if kind == NONGENDER:
        lam = draw(rate)
        rates = [lam, _internal_rate(draw, lam, times)]
    else:
        lam_m, lam_f = draw(rate), draw(rate)
        rates = [lam_m, lam_f, _internal_rate(draw, lam_m, times),
                 _internal_rate(draw, lam_f, times)]
    states = 3 if kind == NONGENDER else 4
    counts = draw(st.lists(st.integers(0, 5000), min_size=states,
                           max_size=states).filter(any))
    builder = PairCounts if kind == NONGENDER else GenderPairCounts
    return kind, rates, builder(*counts), times


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=derivative_cases())
def test_count_derivatives_match_mpmath_property(case):
    """Analytic rate derivatives of every expected count against mpmath.

    Both models, rates 0-10 with exact zeros, horizons to 100 y, up to three
    elapsed times, the singular band, both sides of the series band and
    x < 0.  Errors are relative to the largest derivative of the state, and
    for II (N minus the rest) to the largest of any state.  1e-300 absorbs
    subnormal results, which float64 holds to fewer digits.
    """
    kind, rates, init, times = case
    p, grad, hess = count_derivatives(kind, init, rates, times)
    for k, t in enumerate(times):
        counts, *exact = count_derivatives_mp(kind, rates, init.as_tuple(), t)
        assert p[k, :-1] == pytest.approx(counts, rel=1e-12, abs=1e-300)
        for ours, ref in zip((grad[k], hess[k]), exact):
            scales = np.abs(ref.reshape(len(ref), -1)).max(axis=1)
            scales[-1] = scales.max()
            for s, scale in enumerate(scales):
                assert np.abs(ours[s] - ref[s]).max() <= 1e-8 * scale + 1e-300
