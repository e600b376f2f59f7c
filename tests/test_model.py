"""Closed-form forward solutions against the ODE-integration oracle, and
the model's value types."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinfer import (GENDER, NONGENDER, DomainError, GenderPairCounts,
                       GenderParams, NonGenderParams, PairCounts, PairState,
                       solve_gender, solve_nongender)
from pairinfer import likelihood, model
from pairinfer.likelihood import count_derivatives
from pairinfer.model import EPS_SINGULAR

import oracles
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
    assert state == pytest.approx((1721.0, 58.0, 23.0), abs=0.05)


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
    assert g[0] == pytest.approx(ng[0], abs=1e-10)
    assert g[-1] == pytest.approx(ng[-1], abs=1e-10)
    assert g[1] + g[2] == pytest.approx(ng[1], abs=1e-10)


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
    ss = [s[0] for s in states]
    ii = [s[-1] for s in states]
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
    # ints past the float range once raised OverflowError
    with pytest.raises(DomainError, match="time must be finite"):
        solve_nongender(NonGenderParams(0.1, 0.1), MWANZA_INIT, 10**400)
    with pytest.raises(DomainError, match="ss must be finite"):
        PairCounts(10**400, 0, 0)


# Each value type, one instance, and one of its fields with its position.
VALUES = {
    "counts": (MWANZA_INIT, "si", 1),
    "gender-counts": (MWANZA_G_INIT, "is_", 1),
    "params": (NonGenderParams(0.003, 0.056), "tau", 1),
    "gender-params": (GenderParams(0.004, 0.002, 0.047, 0.068), "tau_fm", 3),
    "state": (solve_nongender(NonGenderParams(0.003, 0.056), MWANZA_INIT, 2.0),
              None, None),
    "gender-state": (solve_gender(GenderParams(0.004, 0.002, 0.047, 0.068),
                                  MWANZA_G_INIT, 2.0), None, None),
}


@pytest.mark.parametrize("value, field, index", VALUES.values(), ids=VALUES)
def test_value_types_are_immutable_tuples(value, field, index):
    assert value.as_tuple() is value and value == tuple(value)
    if field is not None:
        assert getattr(value, field) == value[index]
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        value.extra = 0.0
    for clone in (copy.copy(value), copy.deepcopy(value),
                  *(pickle.loads(pickle.dumps(value, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is type(value) and clone == value


def test_value_types_keep_tuple_semantics_and_int_counts():
    counts = PairCounts(1, 2, 3)
    assert counts == (1, 2, 3) and hash(counts) == hash((1, 2, 3))
    assert (counts.ss, counts.si, counts.ii) == (1, 2, 3)
    assert type(counts.total) is int and counts.total == 6
    rates = GenderParams(1, 2, 3, 4)
    assert (rates.lam_m, rates.lam_f, rates.tau_mf, rates.tau_fm) == (1, 2, 3, 4)
    assert NonGenderParams(0.5, 2.0).lam == 0.5


@pytest.mark.parametrize("make", [
    lambda: PairCounts(1, 2),
    lambda: GenderPairCounts(1, 2, 3),
    lambda: NonGenderParams(0.1, 0.2, 0.3),
    lambda: GenderParams(0.1, 0.2),
    lambda: PairState(1.0, 2.0),
    lambda: PairState(1.0, 2.0, 3.0, 4.0, 5.0),
    lambda: PairState(),
    lambda: PairCounts(),
], ids=["counts", "gender-counts", "params", "gender-params", "state-2",
        "state-5", "state-0", "counts-0"])
def test_value_types_reject_a_wrong_arity(make):
    with pytest.raises(TypeError, match="takes 3|takes 4|takes 2"):
        make()


def test_model_specs_are_read_only_and_copy():
    spec = model.MODELS[GENDER]
    with pytest.raises(AttributeError, match="read-only"):
        spec.kind = NONGENDER
    for clone in (copy.copy(spec), copy.deepcopy(spec)):
        assert clone.param_names == spec.param_names
        assert clone.classes is spec.classes


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


def _rate_vector(draw, kind, times):
    """Rates 0-10 with exact zeros, each internal rate in one x regime."""
    rate = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    if kind == NONGENDER:
        lam = draw(rate)
        return [lam, _internal_rate(draw, lam, times)]
    lam_m, lam_f = draw(rate), draw(rate)
    return [lam_m, lam_f, _internal_rate(draw, lam_m, times),
            _internal_rate(draw, lam_f, times)]


@st.composite
def derivative_cases(draw):
    kind = draw(st.sampled_from((NONGENDER, GENDER)))
    times = sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=1,
                                 max_size=3, unique=True)))
    rates = _rate_vector(draw, kind, times)
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


@settings(max_examples=300, deadline=None)
@given(case=derivative_cases())
def test_count_derivatives_match_the_class_by_class_chain_property(case):
    """The one chain product against the class-by-class numpy chain it
    replaced: both models, 2-4 observation times, rates 0-10 with exact
    zeros, horizons to 100 y, the singular band, both sides of the series
    band and x < 0.  Each entry within 1e-12 of its scale, the sum of its
    terms' magnitudes; 1e-300 absorbs subnormal results."""
    kind, rates, init, times = case
    ours = count_derivatives(kind, init, rates, times)
    reference = oracles.count_derivatives(kind, init, rates, times)
    scales = oracles.count_derivatives(kind, init, rates, times,
                                       magnitudes=True)
    for value, exact, scale in zip(ours, reference, scales):
        assert value.shape == exact.shape
        assert np.all(np.abs(value - exact) <= 1e-12 * scale + 1e-300)


def _bits(values):
    return [float(v).hex() for v in values]


def _series_moments_int_counter(y):
    """The series moments as written with an int counter, each division
    converting it."""
    s0 = s1 = s2 = 0.0
    term = 1.0
    j = 0
    while abs(term) >= 1e-17:
        s0 += term / (j + 1)
        s1 += term / (j + 2)
        s2 += term / (j + 3)
        j += 1
        term *= y / j
    return s0, s1, s2


def test_series_moments_match_the_int_counter_bit_for_bit():
    """Converting an int to a float is exact, so the float counter divides
    by the same numbers: the same bits on 10,000 draws of |y| < 1."""
    ys = np.random.default_rng(16).uniform(-1.0, 1.0, 10_000)
    for y in [0.0, -0.0, *ys.tolist()]:
        assert (_bits(model._series_moments(y))
                == _bits(_series_moments_int_counter(y)))


def test_class_jacobian_is_the_written_out_linear_form():
    """The coefficients read from the model table at unit vectors."""
    for kind in (NONGENDER, GENDER):
        ours, written = likelihood._CLASS_JACOBIAN[kind], oracles.CLASS_JACOBIAN[kind]
        assert ours.shape == written.shape
        assert _bits(ours.ravel()) == _bits(written.ravel())


@settings(max_examples=300, deadline=None)
@given(case=derivative_cases())
def test_table_terms_match_the_written_out_linear_form_property(case):
    """The hazard and each class's start count, inflow and x, as
    count_derivatives takes them from the table, carry the bits of the
    written-out form's dot products (SS being the class with none)."""
    kind, rates, init, _ = case
    spec = model.MODELS[kind]
    hazard, classes = oracles.LINEAR_FORM[kind]

    def dot(coefficients):
        return sum(c * v for c, v in zip(coefficients, rates))

    counts = init.as_tuple()
    ours = [(counts[0], 0.0, 0.0)] + [
        (counts[start], inflow, x)
        for start, inflow, x, _ in spec.classes(rates)]
    written = [(getattr(init, field), dot(inflow), dot(x_coef))
               for field, inflow, x_coef in classes]
    assert _bits([spec.hazard(rates)]) == _bits([dot(hazard)])
    assert [_bits(term) for term in ours] == [_bits(term) for term in written]


# the rate whose difference with a rate gives x: lambda <-> tau per class
_PARTNER = {NONGENDER: (1, 0), GENDER: (2, 3, 0, 1)}


@st.composite
def column_cases(draw):
    """A row axis and a column axis of two rates, the others scalars.

    Axis values are 0-10 with exact zeros, or within the singular band of
    the scalar partner rate, so one grid holds x < 0, the band and x > 0.
    """
    kind, _, init, times = draw(derivative_cases())
    base = _rate_vector(draw, kind, times)
    row, col = draw(st.permutations(range(len(base))))[:2]

    def axis(k):
        partner = base[_PARTNER[kind][k]]
        value = st.one_of(
            st.just(0.0), st.floats(0.0, 10.0),
            st.floats(-EPS_SINGULAR, EPS_SINGULAR).map(
                lambda d: max(partner + d, 0.0)))
        return np.array(draw(st.lists(value, min_size=1, max_size=5)))

    columns = [np.float64(v) for v in base]
    columns[row] = axis(row)[:, None]
    columns[col] = axis(col)[None, :]
    t = draw(st.sampled_from((0.0, *times)))
    return kind, columns, init, t


@settings(max_examples=300, deadline=None)
@given(case=column_cases())
def test_column_kernel_matches_the_written_out_solver_property(case):
    """The kernel on broadcast columns (a row axis, a column axis and
    scalars), and the scalar solver at each cell's rates, against the
    per-model batch solver on the materialised grid: both models, rates
    0-10 with exact zeros, horizons to 100 y, the singular band and x < 0,
    bit for bit.  The SS count spans only the rates of its hazard."""
    kind, columns, init, t = case
    shape = np.broadcast(*columns).shape
    rates = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(
        -1, len(columns))
    states = likelihood.solve_columns_at(kind, init, columns, (t,))[0]
    ours = np.stack([np.broadcast_to(s, shape).ravel() for s in states])
    written = oracles.solve_batch(kind, init, rates, t)
    assert ours.tobytes() == written.tobytes()
    solve = solve_nongender if kind == NONGENDER else solve_gender
    scalar = np.array([
        solve(model.params_from_vector(kind, row), init, t).as_tuple()
        for row in rates.tolist()]).T
    assert scalar.shape == (len(model.MODELS[kind].state_labels), len(rates))
    assert scalar.tobytes() == written.tobytes()
    hazard_rates = [c for c, unit in zip(columns, np.eye(len(columns)))
                    if model.MODELS[kind].hazard(unit)]
    assert np.shape(states[0]) == np.broadcast(*hazard_rates).shape
