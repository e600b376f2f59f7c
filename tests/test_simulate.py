"""Stochastic simulator: the first-reaction sampler, its arbiters (the
event-driven loop and the exact sampler) and the recovery sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from pairinfer import (GENDER, NONGENDER, PARAM_NAMES, DomainError,
                       GenderPairCounts, GenderParams, NonGenderParams,
                       PairCounts, derive_seed, fit_mle, gillespie_simulate,
                       solve_gender, solve_nongender, validation_sweep)
from pairinfer.model import params_from_vector
from pairinfer.simulate import _bins, _channels

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
    # a mean wait of 1e308 years: most waits overflow to inf, with no
    # overflow warning
    out = gillespie_simulate(NonGenderParams(0.0, 1e-308), MWANZA_INIT,
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
    # u = 1.0 * total == total: no channel passes u < acc, so the event
    # loop's pick falls back to the last channel with a positive rate; at
    # the start that is IS -> II, because SI -> II has no pairs and so zero
    # rate
    monkeypatch.setattr(oracles, "_rng", lambda seed: _UnitDraws())
    params = GenderParams(0.004, 0.002, 0.047, 0.068)
    # events are at least 1/0.305 years apart: yearly snapshots see each one
    times = tuple(float(t) for t in range(1001))
    out = oracles.gillespie_loop(params, GenderPairCounts(10, 5, 0, 0), times,
                                 seed=0)
    states = [o.as_tuple() for o in out]
    path = [s for s, before in zip(states, [None] + states) if s != before]
    assert path[:6] == [(10, 5 - k, 0, k) for k in range(6)]
    # then SS -> SI (the last positive channel once IS is empty), SI -> II
    assert path[6:8] == [(9, 0, 1, 5), (9, 0, 0, 6)]
    assert len(path) == 26 and path[-1] == (0, 0, 0, 15)
    assert all(min(s) >= 0 for s in path)


def test_gillespie_loop_keeps_the_event_driven_stream():
    """The arbiter is the event-driven simulator, stream and all: these are
    the snapshots it gave for this seed before the first-reaction sampler
    took its place."""
    times = (0.0, 1.0, 2.0, 5.0)
    out = oracles.gillespie_loop(MWANZA_PARAMS, MWANZA_INIT, times, seed=2026)
    assert [o.as_tuple() for o in out] == [
        (1742, 43, 17), (1727, 53, 22), (1717, 60, 25), (1690, 73, 39)]
    out = oracles.gillespie_loop(GenderParams(0.004, 0.002, 0.047, 0.068),
                                 GenderPairCounts(1742, 22, 21, 17), times,
                                 seed=2026)
    assert [o.as_tuple() for o in out] == [
        (1742, 22, 21, 17), (1727, 29, 24, 22), (1717, 33, 27, 25),
        (1690, 45, 28, 39)]


def test_gillespie_stream_pinned():
    """Exact snapshots of one seed per model.

    The pin changes only on purpose: it fixes the random stream (the three
    generator calls and their sizes, the channel order, the inverse-CDF
    exit times and the categorical draw), so every seeded `pairinfer
    simulate` and validation output changes with it.
    """
    times = (0.0, 1.0, 2.0, 5.0)
    out = gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, times, seed=2026)
    assert [o.as_tuple() for o in out] == [
        (1742, 43, 17), (1728, 55, 19), (1722, 60, 20), (1683, 86, 33)]
    out = gillespie_simulate(GenderParams(0.004, 0.002, 0.047, 0.068),
                             GenderPairCounts(1742, 22, 21, 17), times, seed=2026)
    assert [o.as_tuple() for o in out] == [
        (1742, 22, 21, 17), (1729, 29, 25, 19), (1723, 32, 28, 19),
        (1684, 53, 32, 33)]


def test_gillespie_stream_pinned_at_survey_scale():
    """Exact snapshots of one seed per model at the survey's 200,000 pairs:
    thousands of events per run, split over both gendered classes."""
    times = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    out = gillespie_simulate(NonGenderParams(0.003, 0.056),
                             PairCounts(193_342, 4_772, 1_886), times,
                             seed=2027)
    assert [o.as_tuple() for o in out] == [
        (193342, 4772, 1886), (192149, 5652, 2199), (190992, 6449, 2559),
        (189831, 7245, 2924), (188693, 7941, 3366), (187594, 8535, 3871)]
    out = gillespie_simulate(GenderParams(0.004, 0.002, 0.047, 0.068),
                             GenderPairCounts(193_343, 2_441, 2_330, 1_886),
                             times, seed=2027)
    assert [o.as_tuple() for o in out] == [
        (193343, 2441, 2330, 1886), (192150, 3108, 2544, 2198),
        (190993, 3708, 2732, 2567), (189832, 4335, 2917, 2916),
        (188694, 4848, 3092, 3366), (187595, 5310, 3256, 3839)]


def test_no_snapshot_times_is_a_domain_error():
    with pytest.raises(DomainError, match="snapshot times must be"):
        gillespie_simulate(MWANZA_PARAMS, MWANZA_INIT, [], seed=0)


@pytest.mark.parametrize("params, init", [
    (MWANZA_PARAMS, PairCounts(1e30, 0, 0)),
    (MWANZA_PARAMS, PairCounts(2.0**63, 0, 0)),
    (GenderParams(0.004, 0.002, 0.047, 0.068),
     GenderPairCounts(2.0**63, 0, 0, 0)),
], ids=["1e30", "2**63", "gender-2**63"])
def test_initial_counts_beyond_int64_are_domain_errors(params, init):
    # numpy's binomial draw takes its count as an int64
    with pytest.raises(DomainError, match="initial counts up to"):
        gillespie_simulate(params, init, (0.0, 1.0), seed=0)


def test_largest_int64_initial_count_simulates():
    # 2**63 - 1024, the largest float in the int64 range; no pair moves
    big = PairCounts(2.0**63 - 1024, 0, 0)
    out = gillespie_simulate(NonGenderParams(0.0, 0.1), big, (0.0, 1.0),
                             seed=0)
    assert [o.as_tuple() for o in out] == [(2**63 - 1024, 0, 0)] * 2


class _Counting:
    """Wraps a generator and records the name of each method called."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_gillespie_draws_random_numbers_in_blocks(monkeypatch):
    calls = []
    real = oracles._rng
    monkeypatch.setattr(oracles, "_rng",
                        lambda seed: _Counting(real(seed), calls))
    # 2,000 SI pairs and no external infection: exactly 2,000 events
    out = oracles.gillespie_loop(NonGenderParams(0.0, 1.0),
                                 PairCounts(0, 2000, 0), (0.0, 100.0), seed=4)
    assert out[-1].as_tuple() == (0, 0, 2000)
    # 4 refills, each of 512 exponentials and 512 uniforms
    assert len(calls) == 2 * math.ceil(2000 / oracles._BLOCK)


# ---------------------------------------------------------------------------
# the first-reaction sampler against its arbiters

def _chained_exact(params, init, times, seed):
    """The exact sampler chained from snapshot to snapshot.

    The process is Markov, so each snapshot drawn from the one before it
    gives the joint law over the snapshots, not only each marginal.
    """
    out, state, before = [], init, 0.0
    for j, t in enumerate(times):
        state = exact_sample(params, state, t - before, derive_seed(seed, j))
        out.append(state)
        before = t
    return out


def _paths(sampler, params, init, times, reps, master):
    """(replicates, snapshots, states) counts from ``sampler``."""
    return np.array([[o.as_tuple() for o in
                      sampler(params, init, times, derive_seed(master, rep))]
                     for rep in range(reps)])


def _chi2_p(table):
    """Two-sample chi-square p-value of a 2-row table, its empty columns
    left out."""
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0  # both samples in one column: nothing to tell apart
    return chi2_contingency(table)[1]


def _agreement_p_values(ours, theirs):
    """Criterion 8's check at every snapshot, and one on the joint law.

    Per snapshot: the counts summed over replicates, one column per state.
    Per pair of consecutive snapshots: the histogram, over replicates, of
    the pairs that left SS and of those that reached II between them,
    binned at the pooled octiles.
    """
    p_values = [_chi2_p(np.array([ours[:, j].sum(axis=0),
                                  theirs[:, j].sum(axis=0)]))
                for j in range(ours.shape[1])]
    for state, sign in ((0, -1), (-1, 1)):
        moved = [sign * np.diff(paths[:, :, state], axis=1)
                 for paths in (ours, theirs)]
        for j in range(moved[0].shape[1]):
            a, b = moved[0][:, j], moved[1][:, j]
            edges = np.unique(np.quantile(np.concatenate((a, b)),
                                          np.arange(1, 8) / 8.0))
            p_values.append(_chi2_p(np.array(
                [np.bincount(edges.searchsorted(x, "right"),
                             minlength=len(edges) + 1) for x in (a, b)])))
    return p_values


AGREEMENT_CASES = {
    # Mwanza rates and counts, snapshots from 0
    "nongender-mwanza": (MWANZA_PARAMS, MWANZA_INIT, (0.0, 1.0, 2.0, 5.0)),
    # fast conversion, snapshots from 0.05 years out to 100
    "nongender-fast-100y": (NonGenderParams(0.5, 10.0),
                            PairCounts(200, 50, 10), (0.05, 0.2, 1.0, 100.0)),
    "gender-mwanza": (GenderParams(0.004, 0.002, 0.047, 0.068),
                      GenderPairCounts(1742, 22, 21, 17), (0.0, 2.0, 5.0)),
    # no inflow to IS (lambda_m = 0), no exit from SI (lambda_m + tau_fm = 0)
    "gender-zero-channels": (GenderParams(0.0, 0.3, 0.5, 0.0),
                             GenderPairCounts(300, 40, 30, 5),
                             (0.5, 2.0, 10.0)),
    "gender-fast-100y": (GenderParams(1.0, 2.0, 10.0, 5.0),
                         GenderPairCounts(150, 20, 20, 10),
                         (0.01, 0.1, 0.5, 100.0)),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_first_reaction_agrees_with_the_arbiters(case):
    """The sampler against the event loop and the chained exact sampler.

    Every p-value of both comparisons is held to 0.001 over their number,
    so the case as a whole rejects at 0.001.
    """
    params, init, times = AGREEMENT_CASES[case]
    reps = 800
    ours = _paths(gillespie_simulate, params, init, times, reps, 61)
    assert np.all(ours.sum(axis=2) == sum(init.as_tuple()))
    p_values = (
        _agreement_p_values(ours, _paths(oracles.gillespie_loop, params, init,
                                         times, reps, 62))
        + _agreement_p_values(ours, _paths(_chained_exact, params, init, times,
                                           reps, 63)))
    assert min(p_values) > 0.001 / len(p_values)


class _FixedDraws:
    """Stands in for the Philox generator with fixed draws.

    Every SS pair leaves.  The first half of the uniforms, which time the
    leavers' exits, are ``exit_u``; the second half, which pick their
    classes, are ``class_u``; every exponential wait is ``wait``.
    """

    def __init__(self, exit_u, class_u, wait):
        self.exit_u, self.class_u, self.wait = exit_u, class_u, wait

    def binomial(self, n, p):
        return n

    def random(self, size):
        return np.repeat([self.exit_u, self.class_u], size // 2)

    def standard_exponential(self, size):
        return np.full(size, self.wait)


def test_zero_uniform_exit_keeps_the_initial_snapshot(monkeypatch):
    from pairinfer import simulate as sim

    # u = 0 gives an exit time of exactly 0, and an event at a snapshot
    # time falls after it
    monkeypatch.setattr(sim, "_rng", lambda seed: _FixedDraws(0.0, 0.5, 1.0))
    out = gillespie_simulate(NonGenderParams(0.1, 0.2), PairCounts(10, 5, 1),
                             (0.0, 1e-9, 10.0), seed=0)
    # every leaver has entered SI just after 0; each exits 1/0.3 years later
    assert [o.as_tuple() for o in out] == [(10, 5, 1), (0, 15, 1), (0, 0, 16)]
    gout = gillespie_simulate(GenderParams(0.0, 0.1, 0.2, 0.3),
                              GenderPairCounts(10, 5, 4, 1), (0.0, 1e-9),
                              seed=0)
    assert [o.as_tuple() for o in gout] == [(10, 5, 4, 1), (0, 5, 14, 1)]


def test_exit_at_a_snapshot_time_falls_after_it(monkeypatch):
    from pairinfer import simulate as sim

    # every exit rate is 0.5, so a unit wait is exactly 2 years: the initial
    # discordant pairs exit at 2, and the leavers, who enter at 0 (u = 0),
    # exit at 0 + 2
    draws = lambda seed: _FixedDraws(0.0, 0.5, 1.0)
    monkeypatch.setattr(sim, "_rng", draws)
    monkeypatch.setattr(oracles, "_rng", draws)
    times = (0.0, 2.0, 2.5)
    cases = [
        (NonGenderParams(0.25, 0.25), PairCounts(10, 5, 1),
         [(10, 5, 1), (0, 15, 1), (0, 0, 16)]),
        # u * hazard = 0.25 is the top edge of IS: every leaver enters SI
        (GenderParams(0.25, 0.25, 0.25, 0.25), GenderPairCounts(10, 5, 4, 1),
         [(10, 5, 4, 1), (0, 5, 14, 1), (0, 0, 0, 20)])]
    for params, init, expected in cases:
        out = gillespie_simulate(params, init, times, 0)
        assert [o.as_tuple() for o in out] == expected
        assert out == oracles.binned_simulate(params, init, times, 0)


def test_categorical_round_up_never_enters_a_class_without_inflow(monkeypatch):
    from pairinfer import simulate as sim

    # u = 1.0 puts u * hazard at the hazard itself, the top of the last
    # class: with lambda_f = 0 that class (SI) has no inflow, so the draw
    # belongs to IS, the last class with a positive one
    monkeypatch.setattr(sim, "_rng", lambda seed: _FixedDraws(0.5, 1.0, 1e9))
    out = gillespie_simulate(GenderParams(0.004, 0.0, 0.047, 0.068),
                             GenderPairCounts(10, 5, 0, 0), (0.0, 1.0, 2.0),
                             seed=0)
    # exits at the median of SS's exit time truncated to 2 years, ~1 year;
    # the waits to II are far beyond the horizon
    assert [o.as_tuple() for o in out] == [(10, 5, 0, 0), (0, 15, 0, 0),
                                           (0, 15, 0, 0)]


def test_generator_calls_do_not_grow_with_the_cohort(monkeypatch):
    from pairinfer import simulate as sim

    calls = []
    real = sim._rng
    monkeypatch.setattr(sim, "_rng", lambda seed: _Counting(real(seed), calls))
    params = GenderParams(0.004, 0.002, 0.047, 0.068)
    times = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    gillespie_simulate(params, GenderPairCounts(193_340, 2_442, 2_331, 1_887),
                       times, seed=5)
    survey = list(calls)
    calls.clear()
    gillespie_simulate(params, GenderPairCounts(7, 1, 1, 1), times, seed=5)
    assert calls == survey == ["binomial", "random", "standard_exponential"]


rate = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.one_of(st.floats(0.0, 20.0), st.just(2.5)),
                     max_size=5, unique=True),
       keys=st.lists(st.one_of(st.floats(0.0, 20.0), st.just(math.nan),
                               st.just(math.inf), st.sampled_from([0.0, 2.5])),
                     max_size=60))
def test_bins_match_searchsorted_property(edges, keys):
    # the class draw bins by summed comparisons; a nan or inf key falls
    # after every edge, and a key on an edge falls after it
    edges = sorted(edges)
    keys = np.array(keys, dtype=float)
    assert np.array_equal(_bins(keys, edges),
                          np.array(edges).searchsorted(keys, "right"))
    assert _bins(keys, edges).dtype == np.intp


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


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from((NONGENDER, GENDER)), data=st.data())
def test_counts_match_the_binned_sampler_property(kind, data):
    """Counting each channel's events below each snapshot gives the counts
    of binning every event, bit for bit: the same draws, zero-rate channels
    (nan waits) and events on a snapshot time included."""
    dim = len(PARAM_NAMES[kind])
    params = params_from_vector(
        kind, data.draw(st.lists(rate, min_size=dim, max_size=dim)))
    states = 3 if kind == NONGENDER else 4
    counts = st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 3000))
    init = data.draw(st.lists(counts, min_size=states, max_size=states))
    init = (PairCounts if kind == NONGENDER else GenderPairCounts)(*init)
    times = sorted(data.draw(st.lists(
        st.one_of(st.floats(0.0, 30.0), st.sampled_from([1.0, 2.0, 5.0])),
        min_size=1, max_size=8, unique=True)))
    if data.draw(st.booleans()) and times[0] > 0.0 and len(times) < 8:
        times.insert(0, 0.0)
    seed = data.draw(st.integers(0, 2**64 - 1))
    assert (gillespie_simulate(params, init, times, seed)
            == oracles.binned_simulate(params, init, times, seed))
