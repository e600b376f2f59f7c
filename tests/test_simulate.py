"""Stochastic simulator: event-driven chains, exact sampler, recovery sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from pairinfer import (GENDER, NONGENDER, PARAM_NAMES, GenderPairCounts,
                       GenderParams, NonGenderParams, PairCounts, derive_seed,
                       fit_mle, gillespie_simulate, solve_gender,
                       solve_nongender, validation_sweep)
from pairinfer.model import params_from_vector
from pairinfer.simulate import _channels

import oracles
from oracles import exact_sample

MWANZA_PARAMS = NonGenderParams(0.003033, 0.0561)
MWANZA_INIT = PairCounts(1742, 43, 17)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seen = {derive_seed(42, i, j) for i in range(30) for j in range(30)}
    assert len(seen) == 900
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_zero_rates_constant_counts():
    out = gillespie_simulate(NonGenderParams(0.0, 0.0), MWANZA_INIT,
                             (0.0, 1.0, 5.0, 25.0), seed=9)
    assert [o.as_tuple() for o in out] == [(1742, 43, 17)] * 4


def test_snapshot_at_zero_is_init():
    out = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, (0.0, 2.0), seed=1)
    assert out[0].as_tuple() == (1742, 43, 17)


def test_counts_conserved_and_monotone_per_path():
    times = tuple(np.linspace(0.0, 6.0, 13))
    for seed in range(5):
        out = gillespie_simulate(NonGenderParams(0.01, 0.08), MWANZA_INIT,
                                 times, seed=seed)
        totals = {o.total for o in out}
        assert totals == {1802}
        ss = [o.ss for o in out]
        ii = [o.ii for o in out]
        assert all(b <= a for a, b in zip(ss, ss[1:]))
        assert all(b >= a for a, b in zip(ii, ii[1:]))


def test_gender_counts_conserved_and_absorbing():
    params = GenderParams(0.01, 0.005, 0.08, 0.06)
    init = GenderPairCounts(1742, 22, 21, 17)
    times = tuple(np.linspace(0.0, 6.0, 13))
    for seed in range(3):
        out = gillespie_simulate(params, init, times, seed=seed)
        assert {o.total for o in out} == {1802}
        ss = [o.ss for o in out]
        ii = [o.ii for o in out]
        assert all(b <= a for a, b in zip(ss, ss[1:]))
        assert all(b >= a for a, b in zip(ii, ii[1:]))  # II is absorbing


def test_gillespie_deterministic_per_seed():
    a = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, (0.0, 2.0), seed=77)
    b = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, (0.0, 2.0), seed=77)
    assert [x.as_tuple() for x in a] == [x.as_tuple() for x in b]


def test_single_pair_mean_conversion_time():
    """10^6 independent SI pairs with tau = 0.5: mean conversion time 2.0.

    Pairs are independent, so one cohort of 10^6 SI pairs is distributionally
    identical to 10^6 single-pair replicates; the mean conversion time is the
    integral of the SI survival curve, taken by trapezoid over a fine grid
    (discretization bias ~5e-5, far below the Monte Carlo band).
    """
    m = 1_000_000
    horizon = 40.0
    times = tuple(np.linspace(0.0, horizon, 801))
    out = gillespie_simulate(NonGenderParams(0.0, 0.5), PairCounts(0, m, 0),
                             times, seed=2024)
    survival = np.array([o.si for o in out], dtype=float) / m
    mean_time = np.trapezoid(survival, times)
    se = 2.0 / math.sqrt(m)  # sd of Exp(0.5) is 2
    assert abs(mean_time - 2.0) <= 3 * se


def test_gillespie_means_match_closed_form():
    reps = 10_000
    sums = np.zeros(3)
    for rep in range(reps):
        out = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, (2.0,),
                                 seed=derive_seed(5150, rep))
        sums += out[0].as_tuple()
    means = sums / reps
    expected = np.array(solve_nongender(MWANZA_PARAMS, MWANZA_INIT, 2.0).as_tuple())
    # per-state sd from the sum of the three initial-class multinomials
    variances = np.zeros(3)
    for n_class, one_hot in ((1742, (1, 0, 0)), (43, (0, 1, 0)), (17, (0, 0, 1))):
        probs = np.array(solve_nongender(
            MWANZA_PARAMS, PairCounts(*one_hot), 2.0).as_tuple())
        variances += n_class * probs * (1.0 - probs)
    se = np.sqrt(variances / reps)
    assert np.all(np.abs(means - expected) <= 3 * se)


def test_exact_sample_t0_identity():
    out = exact_sample(MWANZA_PARAMS, MWANZA_INIT, 0.0, seed=3)
    assert out.as_tuple() == (1742, 43, 17)


def test_exact_sample_absorbing_ii():
    out = exact_sample(MWANZA_PARAMS, PairCounts(0, 0, 500), 7.0, seed=3)
    assert out.as_tuple() == (0, 0, 500)
    gout = exact_sample(GenderParams(0.1, 0.1, 0.2, 0.2),
                        GenderPairCounts(0, 0, 0, 99), 3.0, seed=4)
    assert gout.as_tuple() == (0, 0, 0, 99)


def test_exact_sample_internal_consistency_guard(monkeypatch):
    def broken(params, init, t):
        class Bad:
            def as_tuple(self):
                return (1.5, -0.5, 0.0)

        return Bad()

    monkeypatch.setattr(oracles, "solve_nongender", broken)
    with pytest.raises(oracles.InternalConsistencyError):
        exact_sample(MWANZA_PARAMS, MWANZA_INIT, 1.0, seed=0)


def test_exact_sample_agrees_with_gillespie_nongender():
    reps = 1500
    table = np.zeros((2, 3))
    for rep in range(reps):
        g = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, (2.0,),
                               seed=derive_seed(11, rep))[0]
        e = exact_sample(MWANZA_PARAMS, MWANZA_INIT, 2.0,
                         seed=derive_seed(13, rep))
        table[0] += g.as_tuple()
        table[1] += e.as_tuple()
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


def test_exact_sample_agrees_with_gillespie_gender():
    params = GenderParams(0.004, 0.002, 0.047, 0.068)
    init = GenderPairCounts(1742, 22, 21, 17)
    reps = 1500
    table = np.zeros((2, 4))
    for rep in range(reps):
        g = gillespie_simulate(params, init, (2.0,), seed=derive_seed(21, rep))[0]
        e = exact_sample(params, init, 2.0, seed=derive_seed(23, rep))
        table[0] += g.as_tuple()
        table[1] += e.as_tuple()
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001
    expected = np.array(solve_gender(params, init, 2.0).as_tuple())
    assert np.all(np.abs(table[1] / reps - expected) <= 4 * np.sqrt(expected))


def _quick_fit(kind, data, seed):
    return fit_mle(kind, data, seed=seed, max_evals=20_000, uncertainty=False)


def test_validation_sweep_deterministic():
    grid = [NonGenderParams(0.003, 0.05)]
    a = validation_sweep(grid, MWANZA_INIT, (0.0, 2.0), 1, 99, _quick_fit)
    b = validation_sweep(grid, MWANZA_INIT, (0.0, 2.0), 1, 99, _quick_fit)
    assert a == b
    assert len(a) == 1
    assert a[0].grid_index == 0 and a[0].replicate == 0


def test_validation_sweep_degenerate_truth_no_crash():
    grid = [NonGenderParams(0.01, 0.01)]  # singular manifold tau = lambda
    records = validation_sweep(grid, MWANZA_INIT, (0.0, 2.0), 3, 7, _quick_fit)
    assert len(records) == 3
    for rec in records:
        assert all(math.isfinite(v) for v in rec.estimates)
        assert all(v >= 0 for v in rec.estimates)


def test_validation_sweep_order_and_flags():
    grid = [NonGenderParams(0.002, 0.03), NonGenderParams(0.005, 0.08)]
    records = validation_sweep(grid, MWANZA_INIT, (0.0, 2.0), 2, 123, _quick_fit)
    assert [(r.grid_index, r.replicate) for r in records] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(r.converged, bool) for r in records)


def test_validation_sweep_lambda_unbiased_sign_test():
    """Pooled sign test on (lambda_hat - truth) not significant at 1%."""
    grid = [NonGenderParams(lam, tau)
            for lam in (0.002, 0.005, 0.01) for tau in (0.02, 0.05, 0.1)]
    records = validation_sweep(grid, MWANZA_INIT, (0.0, 2.0), 20, 31337,
                               _quick_fit)
    positive = negative = 0
    for rec in records:
        diff = rec.estimates[0] - rec.true_params[0]
        if diff > 0:
            positive += 1
        elif diff < 0:
            negative += 1
    n = positive + negative
    z = (positive - n / 2.0) / math.sqrt(n / 4.0)
    assert abs(z) < 2.5758  # two-sided normal threshold at alpha = 0.01


class _UnitDraws:
    """Stands in for the Philox generator: every draw is 1.0."""

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.ones(size)


def test_choice_rounded_up_to_total_never_fires_zero_rate_channel(monkeypatch):
    from pairinfer import simulate as sim

    # u = 1.0 * total == total: no channel passes u < acc, so the pick falls
    # back to the last channel with a positive rate; at the start that is
    # IS -> II, because SI -> II has no pairs and so zero rate
    monkeypatch.setattr(sim, "_rng", lambda seed: _UnitDraws())
    params = GenderParams(0.004, 0.002, 0.047, 0.068)
    # events are at least 1/0.305 years apart: yearly snapshots see each one
    times = tuple(float(t) for t in range(1001))
    out = gillespie_simulate(params, GenderPairCounts(10, 5, 0, 0), times, seed=0)
    states = [o.as_tuple() for o in out]
    path = [s for s, before in zip(states, [None] + states) if s != before]
    assert path[:6] == [(10, 5 - k, 0, k) for k in range(6)]
    # then SS -> SI (the last positive channel once IS is empty), SI -> II
    assert path[6:8] == [(9, 0, 1, 5), (9, 0, 0, 6)]
    assert len(path) == 26 and path[-1] == (0, 0, 0, 15)
    assert all(min(s) >= 0 for s in path)


def test_gillespie_stream_pinned():
    """Exact snapshots of one seed per model.

    The pin changes only on purpose: it fixes the random stream (block
    draws, channel order, the choice and waiting-time arithmetic), so every
    seeded `pairinfer simulate` and validation output changes with it.
    """
    times = (0.0, 1.0, 2.0, 5.0)
    out = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, times, seed=2026)
    assert [o.as_tuple() for o in out] == [
        (1742, 43, 17), (1727, 53, 22), (1717, 60, 25), (1690, 73, 39)]
    out = gillespie_simulate(GenderParams(0.004, 0.002, 0.047, 0.068),
                             GenderPairCounts(1742, 22, 21, 17), times, seed=2026)
    assert [o.as_tuple() for o in out] == [
        (1742, 22, 21, 17), (1727, 29, 24, 22), (1717, 33, 27, 25),
        (1690, 45, 28, 39)]


def test_gillespie_draws_random_numbers_in_blocks(monkeypatch):
    from pairinfer import simulate as sim

    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.rng, name)

    real = sim._rng
    monkeypatch.setattr(sim, "_rng", lambda seed: Counting(real(seed)))
    # 2,000 SI pairs and no external infection: exactly 2,000 events
    out = gillespie_simulate(NonGenderParams(0.0, 1.0), PairCounts(0, 2000, 0),
                             (0.0, 100.0), seed=4)
    assert out[-1].as_tuple() == (0, 0, 2000)
    # 4 refills, each of 512 exponentials and 512 uniforms
    assert len(calls) == 2 * math.ceil(2000 / 512)


rate = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from((NONGENDER, GENDER)), data=st.data())
def test_channels_match_the_written_out_tables_property(kind, data):
    """The channel table built from the model table: the written-out
    per-model tuples bit for bit, in their order (so seeded streams hold)."""
    dim = len(PARAM_NAMES[kind])
    rates = data.draw(st.lists(rate, min_size=dim, max_size=dim))
    params = params_from_vector(kind, rates)
    init = MWANZA_INIT if kind == NONGENDER else GenderPairCounts(1742, 22, 21, 17)
    ours, ours_type = _channels(params, init)
    written, written_type = oracles.gillespie_channels(params, init)
    assert ours_type is written_type
    assert ([(c.hex(), s, d) for c, s, d in ours]
            == [(c.hex(), s, d) for c, s, d in written])
