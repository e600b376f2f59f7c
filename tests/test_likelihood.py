"""Likelihood values, sentinels, grids and slices."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinfer.likelihood
import pairinfer.model
from pairinfer import (GENDER, NONGENDER, PARAM_NAMES, ConfigError,
                       DomainError, GenderParams, GridAxis, GridSpec,
                       NonGenderParams, PairinferError, fit_mle,
                       gender_dataset, likelihood_surface, log_likelihood,
                       log_likelihood_gender, log_likelihood_nongender,
                       nongender_dataset, saturated_log_likelihood,
                       slice_profile)
from pairinfer.io import default_manifest, run_manifest
from pairinfer.likelihood import (count_derivatives, log_likelihood_columns,
                                  score_and_information)
from pairinfer.model import EPS_SINGULAR, params_from_vector

import oracles
from oracles import loglik_derivatives_mp


def test_entropy_bound_attained_when_proportions_match():
    # lambda = 0 keeps SS flat; tau = log(2) halves the SI pool in one year
    data = nongender_dataset((0.0, 1.0), [(100, 40, 10), (100, 20, 30)])
    params = NonGenderParams(0.0, math.log(2.0))
    bound = sum(c * math.log(c / 150.0) for c in (100, 20, 30))
    value = log_likelihood_nongender(params, data)
    assert value == pytest.approx(bound, abs=1e-10)
    assert value == pytest.approx(saturated_log_likelihood(data), abs=1e-12)
    for other in (NonGenderParams(0.001, math.log(2.0)),
                  NonGenderParams(0.0, 0.5),
                  NonGenderParams(0.01, 0.9)):
        assert log_likelihood_nongender(other, data) < value


def test_mwanza_ordering(mwanza):
    good = log_likelihood_nongender(NonGenderParams(0.003033, 0.0561), mwanza)
    worse = log_likelihood_nongender(NonGenderParams(0.01, 0.0561), mwanza)
    assert math.isfinite(good)
    assert good > worse


def test_zero_rates_on_shrinking_ss_is_finite_but_poor(mwanza):
    value = log_likelihood_nongender(NonGenderParams(0.0, 0.0), mwanza)
    assert math.isfinite(value)
    mle_value = log_likelihood_nongender(NonGenderParams(0.003033, 0.0561), mwanza)
    assert value < mle_value


def test_sentinel_for_impossible_data():
    # no SS pairs initially, yet SS observed later: predicted 0, observed > 0
    data = nongender_dataset((0.0, 1.0), [(0, 50, 50), (10, 40, 50)])
    assert log_likelihood_nongender(NonGenderParams(0.01, 0.02), data) == -math.inf


def test_zero_count_terms_vanish():
    # observed SS hits zero while predicted stays positive: term contributes 0
    data = nongender_dataset((0.0, 1.0), [(10, 60, 30), (0, 55, 45)])
    value = log_likelihood_nongender(NonGenderParams(0.05, 0.1), data)
    assert math.isfinite(value)


def test_t0_observation_never_contributes(mwanza):
    # the value equals the manual sum over t > 0 terms only
    params = NonGenderParams(0.004, 0.03)
    from pairinfer import solve_nongender

    state = solve_nongender(params, mwanza.initial, 2.0)
    manual = sum(n * math.log(p / mwanza.n)
                 for n, p in zip(mwanza.observations[1].as_tuple(),
                                 state.as_tuple()))
    assert log_likelihood_nongender(params, mwanza) == pytest.approx(
        manual, abs=1e-12)


def test_scaling_counts_moves_value_but_not_argmax():
    base = nongender_dataset((0.0, 2.0), [(400, 30, 10), (386, 39, 15)])
    tripled = nongender_dataset((0.0, 2.0), [(1200, 90, 30), (1158, 117, 45)])
    lams = np.linspace(0.001, 0.02, 40)
    taus = np.linspace(0.01, 0.2, 40)

    def argmax(data):
        best, best_ij = -math.inf, None
        for i, lam in enumerate(lams):
            for j, tau in enumerate(taus):
                v = log_likelihood_nongender(NonGenderParams(lam, tau), data)
                if v > best:
                    best, best_ij = v, (i, j)
        return best, best_ij

    v1, ij1 = argmax(base)
    v3, ij3 = argmax(tripled)
    assert ij1 == ij3
    assert v3 == pytest.approx(3.0 * v1, rel=1e-9)


def test_gender_marginalization_consistency(mwanza, mwanza_gender):
    lam, tau = 0.003, 0.056
    gparams = GenderParams(lam, lam, tau, tau)
    from pairinfer import solve_gender, solve_nongender

    g = solve_gender(gparams, mwanza_gender.initial, 2.0)
    ng = solve_nongender(NonGenderParams(lam, tau), mwanza.initial, 2.0)
    assert g[1] + g[2] == pytest.approx(ng[1], abs=1e-10)
    assert g[0] == pytest.approx(ng[0], abs=1e-10)
    assert g[-1] == pytest.approx(ng[-1], abs=1e-10)
    # ss and ii likelihood terms are therefore identical across the models
    obs = mwanza.observations[1]
    term_ng = obs.ss * math.log(ng[0] / mwanza.n) + obs.ii * math.log(ng[-1] / mwanza.n)
    gobs = mwanza_gender.observations[1]
    term_g = gobs.ss * math.log(g[0] / mwanza.n) + gobs.ii * math.log(g[-1] / mwanza.n)
    assert term_g == pytest.approx(term_ng, abs=1e-12)


def test_gender_value_beats_random_search(mwanza_gender):
    published = GenderParams(0.004, 0.002, 0.047, 0.068)
    reference = log_likelihood_gender(published, mwanza_gender)
    rng = np.random.default_rng(12345)
    draws = rng.uniform(0.0, 0.2, size=(10_000, 4))
    values = np.array([
        log_likelihood_gender(GenderParams(*draw), mwanza_gender)
        for draw in draws])
    assert reference >= values.max()


def test_gender_zero_count_is_finite():
    data = gender_dataset((0.0, 2.0), [(1700, 40, 40, 22), (1680, 0, 56, 66)])
    value = log_likelihood_gender(GenderParams(0.003, 0.003, 0.05, 0.05), data)
    assert math.isfinite(value)


def test_surface_single_cell_normalizes_to_zero(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    lam, tau = fit.estimates
    grid = GridSpec((GridAxis("lambda", lam, lam, 1), GridAxis("tau", tau, tau, 1)))
    surface = likelihood_surface("nongender", mwanza, grid)
    assert surface.normalized.shape == (1, 1)
    assert surface.normalized[0, 0] == 0.0


def test_surface_unique_interior_maximum(mwanza):
    grid = GridSpec((GridAxis("lambda", 0.0005, 0.01, 101),
                     GridAxis("tau", 0.001, 0.3, 101)))
    surface = likelihood_surface("nongender", mwanza, grid)
    values = surface.normalized
    interior_maxima = []
    for i in range(1, 100):
        for j in range(1, 100):
            window = values[i - 1:i + 2, j - 1:j + 2].copy()
            center = window[1, 1]
            window[1, 1] = -math.inf
            if center > window.max():
                interior_maxima.append((i, j))
    assert len(interior_maxima) == 1
    i, j = interior_maxima[0]
    lam_step = surface.axis_values[0][1] - surface.axis_values[0][0]
    tau_step = surface.axis_values[1][1] - surface.axis_values[1][0]
    assert abs(surface.axis_values[0][i] - 0.003) <= 2 * lam_step
    assert abs(surface.axis_values[1][j] - 0.056) <= 2 * tau_step
    assert values[np.isfinite(values)].max() == 0.0


def test_surface_sentinels_recorded_not_raised():
    data = nongender_dataset((0.0, 1.0), [(100, 0, 0), (90, 8, 2)])
    grid = GridSpec((GridAxis("lambda", 0.0, 0.1, 5),
                     GridAxis("tau", 0.05, 0.05, 1)))
    surface = likelihood_surface("nongender", data, grid)
    # lambda = 0 with si0 = 0 predicts P_SI = 0 against observed 8
    assert surface.loglik[0, 0] == -math.inf
    assert np.isfinite(surface.loglik[1:, 0]).all()
    # extreme lambda underflows P_SS to exactly 0 against observed 90
    wide = GridSpec((GridAxis("lambda", 0.001, 500.0, 2),
                     GridAxis("tau", 0.05, 0.05, 1)))
    surface2 = likelihood_surface("nongender", data, wide)
    assert np.isfinite(surface2.loglik[0, 0])
    assert surface2.loglik[1, 0] == -math.inf
    assert surface2.normalized[0, 0] == 0.0
    # every cell impossible: no finite maximum to normalise by
    none = likelihood_surface("nongender", data, GridSpec(
        (GridAxis("lambda", 0.0, 0.0, 1), GridAxis("tau", 0.05, 0.05, 1))))
    assert (none.loglik == -math.inf).all()
    assert none.normalized.tobytes() == none.loglik.tobytes()


def test_log_spaced_axis():
    axis = GridAxis("tau", 0.001, 0.1, 3, log=True)
    assert axis.values() == pytest.approx([0.001, 0.01, 0.1])
    with pytest.raises(ConfigError):
        GridAxis("tau", 0.0, 0.1, 3, log=True)


def test_surface_recompute_bit_for_bit(mwanza):
    grid = GridSpec((GridAxis("lambda", 0.001, 0.008, 7),
                     GridAxis("tau", 0.01, 0.2, 9)))
    surface = likelihood_surface("nongender", mwanza, grid)
    for i, lam in enumerate(surface.axis_values[0]):
        for j, tau in enumerate(surface.axis_values[1]):
            value = log_likelihood_nongender(
                NonGenderParams(float(lam), float(tau)), mwanza)
            assert value == surface.loglik[i, j]


def test_surface_axis_validation(mwanza):
    with pytest.raises(ConfigError):
        likelihood_surface("nongender", mwanza, GridSpec(
            (GridAxis("nope", 0.0, 0.1, 3), GridAxis("tau", 0.0, 0.1, 3))))
    with pytest.raises(ConfigError):
        likelihood_surface("nongender", mwanza, GridSpec(
            (GridAxis("lambda", 0.0, 0.1, 3),)))
    with pytest.raises(ConfigError):
        likelihood_surface("nongender", mwanza, GridSpec(
            (GridAxis("lambda", 0.0, 0.1, 3), GridAxis("tau", 0.0, 0.1, 3))),
            fixed={"tau": 0.01})
    with pytest.raises(ConfigError):
        GridAxis("lambda", 0.1, 0.01, 5)
    with pytest.raises(ConfigError):
        GridAxis("lambda", -0.1, 0.01, 5)


def test_profile_peaks_at_mle(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    lam_hat, tau_hat = fit.estimates
    axis = GridAxis("tau", 0.005, 0.2, 201)
    curve = slice_profile("nongender", mwanza, axis, fit.params)
    best = curve.values[np.argmax(curve.loglik)]
    step = curve.values[1] - curve.values[0]
    assert abs(best - tau_hat) <= step


def test_lambda_profile_smooth_single_peak(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    axis = GridAxis("lambda", 0.0005, 0.01, 400)
    curve = slice_profile("nongender", mwanza, axis, fit.params)
    diffs = np.sign(np.diff(curve.loglik))
    changes = np.count_nonzero(np.diff(diffs[diffs != 0]))
    assert changes == 1  # rises then falls exactly once


def test_tau_profile_width_overlaps_wald_band(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    tau_hat = fit.estimates[1]
    sigma_tau = fit.std_errors[1]
    axis = GridAxis("tau", 0.001, 0.35, 2001)
    curve = slice_profile("nongender", mwanza, axis, fit.params)
    drop = curve.loglik.max() - 1.92
    inside = curve.values[curve.loglik >= drop]
    lo, hi = inside.min(), inside.max()
    wald_lo, wald_hi = max(tau_hat - 2 * sigma_tau, 0.0), tau_hat + 2 * sigma_tau
    assert lo < wald_hi and wald_lo < hi  # the two intervals overlap


def test_profile_unknown_parameter(mwanza):
    fit = fit_mle("nongender", mwanza, seed=0)
    with pytest.raises(ConfigError, match="unknown parameter 'sigma'"):
        slice_profile("nongender", mwanza, GridAxis("sigma", 0.0, 0.1, 5),
                      fit.params)


def _scalar(kind, data, rates):
    return np.array([log_likelihood(kind, params_from_vector(kind, row), data)
                     for row in np.asarray(rates).tolist()])


def test_gender_surface_bit_for_bit(mwanza_gender):
    # tau_mf runs from below lambda_m (the x < 0 branch) to well above it
    grid = GridSpec((GridAxis("lambda_m", 0.0, 0.01, 6),
                     GridAxis("tau_mf", 0.0, 0.2, 7)))
    fixed = {"lambda_f": 0.002, "tau_fm": 0.068}
    surface = likelihood_surface("gender", mwanza_gender, grid, fixed)
    for i, lam_m in enumerate(surface.axis_values[0]):
        for j, tau_mf in enumerate(surface.axis_values[1]):
            value = log_likelihood_gender(
                GenderParams(float(lam_m), 0.002, float(tau_mf), 0.068),
                mwanza_gender)
            assert value == surface.loglik[i, j]


@pytest.mark.parametrize("kind, anchor", [
    (NONGENDER, NonGenderParams(0.003, 0.056)),
    (GENDER, GenderParams(0.004, 0.002, 0.047, 0.068)),
])
def test_slice_profiles_bit_for_bit(kind, anchor, mwanza, mwanza_gender):
    data = mwanza if kind == NONGENDER else mwanza_gender
    for k, name in enumerate(PARAM_NAMES[kind]):
        curve = slice_profile(kind, data, GridAxis(name, 0.0, 0.3, 31), anchor)
        rates = np.tile(anchor, (31, 1))
        rates[:, k] = curve.values
        assert curve.loglik.tobytes() == _scalar(kind, data, rates).tobytes()


def test_batch_rejects_bad_rates_like_scalar(mwanza):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError) as batch_exc:
            log_likelihood_columns(NONGENDER, mwanza,
                                   ([0.003, 0.003], [0.05, bad]))
        with pytest.raises(DomainError) as scalar_exc:
            NonGenderParams(0.003, bad)
        assert str(batch_exc.value) == str(scalar_exc.value)
    with pytest.raises(ConfigError):
        log_likelihood_columns(NONGENDER, mwanza, ([0.003], [0.05], [0.1]))


def test_grids_never_evaluate_cell_by_cell(monkeypatch, mwanza_gender):
    def refuse(*args, **kwargs):
        raise AssertionError("grid fell back to the scalar path")

    for module, name in ((pairinfer.likelihood, "log_likelihood"),
                         (pairinfer.likelihood, "log_likelihood_nongender"),
                         (pairinfer.likelihood, "log_likelihood_gender"),
                         (pairinfer.likelihood, "solve_nongender"),
                         (pairinfer.likelihood, "solve_gender"),
                         (pairinfer.model, "solve_nongender"),
                         (pairinfer.model, "solve_gender")):
        monkeypatch.setattr(module, name, refuse)
    grid = GridSpec((GridAxis("lambda_m", 0.001, 0.01, 4),
                     GridAxis("tau_fm", 0.01, 0.2, 5)))
    surface = likelihood_surface("gender", mwanza_gender, grid,
                                 {"lambda_f": 0.002, "tau_mf": 0.047})
    assert np.isfinite(surface.loglik).all()
    curve = slice_profile("gender", mwanza_gender,
                          GridAxis("tau_mf", 0.0, 0.2, 9),
                          GenderParams(0.004, 0.002, 0.047, 0.068))
    assert np.isfinite(curve.loglik).all()


def test_surface_rejects_bad_fixed_rates_like_scalar(mwanza_gender):
    """A fixed rate is one scalar column and is checked like a grid row."""
    grid = GridSpec((GridAxis("lambda_m", 0.001, 0.01, 4),
                     GridAxis("tau_mf", 0.01, 0.2, 5)))
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError) as surface_exc:
            likelihood_surface(GENDER, mwanza_gender, grid,
                               {"lambda_f": bad, "tau_fm": 0.068})
        with pytest.raises(DomainError) as scalar_exc:
            GenderParams(0.001, bad, 0.01, 0.068)
        assert str(surface_exc.value) == str(scalar_exc.value)


def test_columns_report_the_first_bad_cell_in_row_major_order(mwanza):
    """Cell (0, 1) has a bad tau and cell (1, 0) a bad lambda: the scalar
    path, cell by cell, meets the tau first."""
    columns = (np.array([[0.003], [math.nan]]), np.array([[0.05, -1.0]]))
    with pytest.raises(DomainError) as batch_exc:
        log_likelihood_columns(NONGENDER, mwanza, columns)
    with pytest.raises(DomainError) as scalar_exc:
        _scalar(NONGENDER, mwanza, np.stack(
            np.broadcast_arrays(*columns), axis=-1).reshape(-1, 2))
    assert str(batch_exc.value) == str(scalar_exc.value)
    assert "tau" in str(batch_exc.value)


def test_default_grids_evaluate_each_transcendental_once_per_argument(
        monkeypatch, tmp_path):
    """Machine-independent cost of the default report's seven surfaces
    (20,287 cells) and six profiles: the elements sent through
    ``apply_libm``.  Evaluating every cell of the materialised grids took
    156,828; each expression on the shape it varies over takes 82,588."""
    evaluated = []
    counted = pairinfer.likelihood.apply_libm

    def counting(fn, values):
        evaluated.append(np.size(values))
        return counted(fn, values)

    monkeypatch.setattr(pairinfer.likelihood, "apply_libm", counting)
    run_manifest(default_manifest(), tmp_path)
    assert sum(evaluated) == 82_588


def test_a_grid_over_four_times_checks_its_columns_once(monkeypatch):
    """The three later times of a four-time dataset share one column check
    and one set of each class's x, exit rate and branch masks, and every
    cell stays bit for bit the scalar value."""
    calls = {"_checked_columns": 0, "_discordant_columns": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(pairinfer.likelihood,
                                                        name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(pairinfer.likelihood, name, counting)
    data = gender_dataset((0.0, 1.0, 2.5, 4.0),
                          [(1742, 22, 21, 17), (1730, 28, 23, 21),
                           (1715, 36, 27, 24), (1700, 42, 31, 29)])
    lam_m = np.array([[0.0], [0.002], [0.047]])
    tau_fm = np.array([[0.0, 0.002, 0.068, 10.0]])
    columns = (lam_m, 0.002, 0.047, tau_fm)
    grid = log_likelihood_columns(GENDER, data, columns)
    assert calls == {"_checked_columns": 1, "_discordant_columns": 2}
    cells = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, 4)
    assert grid.tobytes() == _scalar(GENDER, data, cells).tobytes()


def _counts(draw, total, states):
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=states - 1,
                                max_size=states - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@st.composite
def likelihood_cases(draw):
    kind = draw(st.sampled_from((NONGENDER, GENDER)))
    dim = len(PARAM_NAMES[kind])
    states = 3 if kind == NONGENDER else 4
    later = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3,
                          unique=True))
    times = [0.0] + sorted(later)
    total = draw(st.integers(1, 5000))
    counts = [_counts(draw, total, states) for _ in times]
    if draw(st.booleans()):
        # an empty initial SS class observed non-empty later: -inf cells
        counts[0] = (0,) + counts[0][1:-1] + (counts[0][-1] + counts[0][0],)
    build = nongender_dataset if kind == NONGENDER else gender_dataset
    data = build(times, counts)
    rows = draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=dim,
                                  max_size=dim), min_size=1, max_size=6))
    pairs = ((0, 1),) if kind == NONGENDER else ((0, 2), (1, 3))
    for row in rows:
        # pin internal rates into the singular band around their lambda
        for lam_col, tau_col in pairs:
            if draw(st.booleans()):
                offset = draw(st.floats(-EPS_SINGULAR, EPS_SINGULAR))
                row[tau_col] = max(row[lam_col] + offset, 0.0)
    return kind, data, np.array(rows, dtype=float)


def _outcome(evaluate):
    try:
        return evaluate()
    except PairinferError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(case=likelihood_cases())
def test_batch_matches_scalar_property(case):
    kind, data, rates = case
    batch = _outcome(lambda: log_likelihood_columns(kind, data,
                                                    tuple(rates.T)))
    scalar = _outcome(lambda: _scalar(kind, data, rates))
    if isinstance(batch, type) or isinstance(scalar, type):
        assert batch == scalar
        return
    assert batch.tobytes() == scalar.tobytes()
    assert (np.isfinite(batch) | (batch == -math.inf)).all()


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(case=likelihood_cases(), zeros=st.lists(st.booleans(), min_size=4,
                                                 max_size=4))
def test_float_rates_match_numpy_rates_property(case, zeros):
    """The fit objective passes Python floats; numpy scalars give the same
    bits, and no division meets a zero divisor (a numpy warning here would
    be a ZeroDivisionError on floats)."""
    kind, data, rates = case
    rates[:, np.array(zeros[:rates.shape[1]])] = 0.0
    for row in rates:
        as_numpy = _outcome(lambda: log_likelihood(
            kind, params_from_vector(kind, row), data))
        as_float = _outcome(lambda: log_likelihood(
            kind, params_from_vector(kind, row.tolist()), data))
        if isinstance(as_numpy, type) or isinstance(as_float, type):
            assert as_numpy == as_float
        else:
            assert np.float64(as_numpy).tobytes() == np.float64(as_float).tobytes()


@st.composite
def score_cases(draw):
    kind, data, rates = draw(likelihood_cases())
    states = 3 if kind == NONGENDER else 4
    # every initial class occupied, II included: II is N minus the rest,
    # and from II0 >= 1 it cannot cancel below II0 in either precision.
    # Later rows keep their zero counts; II takes up the added pairs.
    initial = tuple(c + 1 for c in data.observations[0].as_tuple())
    later = [obs.as_tuple()[:-1] + (obs.as_tuple()[-1] + states,)
             for obs in data.observations[1:]]
    build = nongender_dataset if kind == NONGENDER else gender_dataset
    data = build(data.times, [initial] + later)
    row = rates[0]
    for col in range(len(row)):
        if draw(st.booleans()):
            row[col] = 0.0
    return kind, data, row


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=score_cases())
def test_score_and_information_match_mpmath_property(case):
    """Score and observed information against mpmath.diff of the
    log-likelihood, over 2-4 observation times, rates 0-10 with exact
    zeros, horizons to 100 y, the singular band and x < 0.  Each entry's
    error is relative to the sum of its terms' magnitudes, a count's
    derivative counted at the count's largest derivative.  Without
    derivatives (an observed count at 0) the value must be -inf.  Where an
    expected proportion falls below 1e-100 the case is skipped: the
    oracle's working precision grows with twice its decimal exponent
    (240 digits at 1e-100), and below 1e-290 float64 holds fewer digits.
    """
    kind, data, rates = case
    derivatives = score_and_information(kind, data, rates)
    value = log_likelihood(kind, params_from_vector(kind, rates), data)
    if derivatives is None:
        assert value == -math.inf
        return
    p, grad, hess = count_derivatives(kind, data.initial, rates,
                                      data.elapsed()[1:])
    counts = np.array([o.as_tuple() for o in data.observations[1:]], float)
    if p.min() / data.n < 1e-100:
        return
    score, information, _ = derivatives
    exact_score, exact_information = loglik_derivatives_mp(kind, rates, data)
    if not np.isfinite(information).all():
        # only where the exact information leaves the float64 range
        assert not np.isfinite(exact_information).all()
        return
    # each count's derivatives carry rounding relative to its largest
    # derivative, and II (N minus the rest) that of all the others
    grad = np.broadcast_to(np.abs(grad).max(axis=2, keepdims=True),
                           grad.shape).copy()
    hess = np.broadcast_to(np.abs(hess).max(axis=(2, 3), keepdims=True),
                           hess.shape).copy()
    grad[:, -1] = grad[:, :-1].sum(axis=1)
    hess[:, -1] = hess[:, :-1].sum(axis=1)
    seen = counts > 0
    n, p, grad, hess = counts[seen], p[seen], grad[seen], hess[seen]
    relative = grad / p[:, None]
    score_scale = n @ relative
    info_scale = (np.einsum("s,sj,sk->jk", n, relative, relative)
                  + np.einsum("s,sjk->jk", n / p, hess))
    assert np.all(np.abs(score - exact_score) <= 1e-8 * score_scale)
    assert np.all(np.abs(information - exact_information) <= 1e-8 * info_scale)
    assert np.array_equal(information, information.T)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=score_cases())
def test_score_and_information_match_the_numpy_reference_property(case):
    """The score and both informations against the numpy formulation they
    replaced: both models, 2-4 observation times, rates 0-10 with exact
    zeros, horizons to 100 y, the singular band and x < 0.  Each entry
    within 1e-12 of its scale, the sum of its terms' magnitudes, with each
    count's derivatives at theirs.  None exactly where the reference has
    none.  An entry beyond the float64 range overflows in both (with a
    RuntimeWarning from each, silenced here) and is compared by its
    finiteness."""
    kind, data, rates = case
    with np.errstate(over="ignore", invalid="ignore"):
        ours = score_and_information(kind, data, rates)
        reference = oracles.score_and_information(kind, data, rates)
    if reference is None:
        assert ours is None
        return
    if not np.isfinite(reference[1]).all():
        assert not np.isfinite(ours[1]).all()
        return
    times = data.elapsed()[1:]
    p, _, _ = oracles.count_derivatives(kind, data.initial, rates, times)
    _, grad, hess = oracles.count_derivatives(kind, data.initial, rates,
                                              times, magnitudes=True)
    counts = np.array(data.observations[1:], dtype=float)
    seen = counts > 0
    n, relative = counts[seen], grad[seen] / p[seen][:, None]
    score_scale = n @ relative
    info_scale = (np.einsum("s,sj,sk->jk", n, relative, relative)
                  + np.einsum("s,sjk->jk", n,
                              hess[seen] / p[seen][:, None, None]))
    positive = p > 0.0
    root = grad[positive] / np.sqrt(p[positive])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ours[2](), reference[2]()
        expected_scale = root.T @ root
    compared = [(ours[0], reference[0], score_scale),
                (ours[1], reference[1], info_scale)]
    if np.isfinite(expected[1]).all():
        compared.append((*expected, expected_scale))
    else:
        assert not np.isfinite(expected[0]).all()
    for value, exact, scale in compared:
        assert np.all(np.abs(value - exact) <= 1e-12 * scale + 1e-300)
    assert np.array_equal(ours[1], ours[1].T)


@pytest.mark.filterwarnings("error")
def test_information_at_a_subnormal_proportion_is_finite():
    """At rates (10, 1) over 35.5 y the SS proportion is exp(-710), ~4e-309,
    a subnormal: counts / P overflowed there, and the information came out
    [[-inf, nan], [nan, nan]] with a RuntimeWarning.  Its lambda-lambda
    entry cancels from terms of 71^2 = 5041 to ~7e-167, so it is held to
    the terms' size; the others to their own."""
    data = nongender_dataset((0.0, 35.5), [(1, 0, 999), (1, 0, 999)])
    score, information, _ = score_and_information(NONGENDER, data,
                                                  [10.0, 1.0])
    exact_score, exact_information = loglik_derivatives_mp(
        NONGENDER, [10.0, 1.0], data)
    assert np.isfinite(information).all()
    assert score == pytest.approx(exact_score, rel=1e-12)
    assert abs(information[0, 0] - exact_information[0, 0]) <= 1e-8 * 71.0**2
    assert information[1] == pytest.approx(exact_information[1], rel=1e-12)


def test_information_beyond_the_float64_range_raises_no_warning():
    """At rates (0, 8.5) over 83 y the SI proportion is ~4e-307 and its
    d2P/P overflows.  The information holds inf there, as the exact one
    would, without numpy's overflow warning: an error under the suite's
    ``error::RuntimeWarning`` filter."""
    data = nongender_dataset((0.0, 83.0), [(1, 1, 2), (0, 1, 3)])
    score, information, _ = score_and_information(NONGENDER, data, [0.0, 8.5])
    assert np.isfinite(score).all()
    assert not np.isfinite(information).all()


@pytest.mark.parametrize("kind, truth, initial", [
    (NONGENDER, (0.004, 0.07), (1742, 43, 17)),
    (GENDER, (0.004, 0.002, 0.047, 0.068), (1742, 22, 21, 17)),
])
def test_expected_information_is_the_observed_one_at_an_exact_fit(
        kind, truth, initial):
    # counts equal to their expectations: the score vanishes and the
    # observed information loses its sum_s n_s d2P_s / P_s = sum_s d2P_s,
    # which is 0 (the counts sum to N), leaving the expected one
    times = (0.0, 1.0, 2.5, 4.0)
    p, _, _ = count_derivatives(kind, pairinfer.model.model_spec(kind)
                                .counts_type(*initial), truth, times[1:])
    build = nongender_dataset if kind == NONGENDER else gender_dataset
    data = build(times, [initial] + [tuple(row) for row in p])
    score, observed, expected = score_and_information(kind, data, truth)
    expected = expected()
    assert np.abs(score).max() <= 1e-9 * np.abs(expected).max()
    assert observed == pytest.approx(expected, rel=1e-8)
    # away from it, the expected one is sum_s dP_s dP_s^T / P_s of the same
    # count derivatives, and stays positive definite where the observed one
    # need not be
    rates = [10.0 * r for r in truth]
    expected = score_and_information(kind, data, rates)[2]()
    p, grad, _ = count_derivatives(kind, data.initial, rates, times[1:])
    reference = np.einsum("tsj,tsk,ts->jk", grad, grad, 1.0 / p)
    assert expected == pytest.approx(reference, rel=1e-12)
    assert np.array_equal(expected, expected.T)
    assert np.linalg.eigvalsh(expected).min() > 0.0


@st.composite
def grid_axes(draw, name):
    """A linear, log-spaced or single-point axis over rates 0-10."""
    n = draw(st.sampled_from((1, 2, 3, 5)))
    log = n > 1 and draw(st.booleans())
    lo = draw(st.floats(1e-6, 9.0) if log
              else st.one_of(st.just(0.0), st.floats(0.0, 9.0)))
    hi = lo if n == 1 else draw(st.floats(lo, 10.0, exclude_min=True))
    return GridAxis(name, lo, hi, n, log)


def _class_rates(draw, regime):
    """A (lambda, tau) pair, rates 0-10, with x = tau - lambda below the
    singular band, in it or above it."""
    if regime == "below":
        lam = draw(st.floats(1e-6, 10.0))
        return lam, lam * draw(st.floats(0.0, 0.99))
    if regime == "band":
        lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
        return lam, max(lam + draw(st.floats(-EPS_SINGULAR, EPS_SINGULAR)), 0.0)
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 9.0)))
    return lam, draw(st.floats(lam + 1e-6, 10.0))


@st.composite
def grid_cases(draw):
    """A random dataset (2-4 times, N to 5,000, -inf cells included), rates
    whose classes have x < 0, x in the singular band or x > 0, and one axis
    per rate."""
    kind, data, _ = draw(likelihood_cases())
    regimes = st.sampled_from(("below", "band", "above"))
    if kind == NONGENDER:
        rates = _class_rates(draw, draw(regimes))
    else:
        (lam_m, tau_mf), (lam_f, tau_fm) = (_class_rates(draw, draw(regimes))
                                            for _ in range(2))
        rates = (lam_m, lam_f, tau_mf, tau_fm)
    axes = [draw(grid_axes(name)) for name in PARAM_NAMES[kind]]
    return kind, data, rates, axes


def _check_surfaces_and_profiles(kind, data, rates, axes):
    """Every axis pair of the model, with the other rates fixed, and a
    profile of every rate: each cell bit for bit the scalar value."""
    names = PARAM_NAMES[kind]
    for (i, ax0), (j, ax1) in itertools.combinations(enumerate(axes), 2):
        fixed = {n: v for n, v in zip(names, rates)
                 if n not in (ax0.name, ax1.name)}
        surface = likelihood_surface(kind, data, GridSpec((ax0, ax1)), fixed)
        cells = np.tile(rates, (ax0.n, ax1.n, 1))
        cells[:, :, i] = ax0.values()[:, None]
        cells[:, :, j] = ax1.values()[None, :]
        scalar = _scalar(kind, data, cells.reshape(-1, len(names)))
        assert surface.loglik.tobytes() == scalar.tobytes()
    anchor = params_from_vector(kind, rates)
    for k, axis in enumerate(axes):
        curve = slice_profile(kind, data, axis, anchor)
        cells = np.tile(rates, (axis.n, 1))
        cells[:, k] = axis.values()
        assert curve.loglik.tobytes() == _scalar(kind, data, cells).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=grid_cases())
def test_surfaces_and_profiles_match_scalar_property(case):
    _check_surfaces_and_profiles(*case)


@pytest.mark.parametrize("hi", [1e300, 1e308])
@pytest.mark.parametrize("kind, anchor", [
    (NONGENDER, NonGenderParams(0.003, 0.056)),
    (GENDER, GenderParams(0.004, 0.002, 0.047, 0.068)),
])
def test_grids_to_the_float64_limit_match_scalar_without_warnings(
        hi, kind, anchor, mwanza, mwanza_gender):
    """Axes that reach 1e300 or 1e308: hazards and inflows overflow to inf,
    and inf * 0 makes nan, as in the scalar sums, which raise no warning.
    numpy's warnings for them would be errors under the suite's
    ``error::RuntimeWarning`` filter."""
    axes = [GridAxis(name, 0.0, hi, 5) if k % 2 else
            GridAxis(name, 1e-3, hi, 7, log=True)
            for k, name in enumerate(PARAM_NAMES[kind])]
    _check_surfaces_and_profiles(
        kind, mwanza if kind == NONGENDER else mwanza_gender,
        anchor, axes)
