"""Stochastic cohort simulation and the parameter-recovery sweep.

Each pair is an independent continuous-time Markov chain: non-gendered pairs
move SS -> SI at rate 2*lambda and SI -> II at rate lambda + tau; gendered
pairs leave SS at lambda_m (male infected) or lambda_f (female infected) and
each discordant class converts to II at internal-plus-external hazard.
Because pairs are independent, event-driven simulation of the aggregated
counts (classic direct-method sampling with exponential waiting times) is
distributionally identical to simulating every pair separately, and a
one-shot categorical sampler built from the closed-form per-pair state
distribution provides an O(pairs) cross-check.

The event-driven simulator keeps one channel table per model: channel k is
``(coefficient, source, destination)``, fires at rate ``coefficient *
counts[source]`` and moves one pair from ``source`` to ``destination``.
Per event the rates are summed in table order, the waiting time is an
exponential(1) draw over the total rate and the channel is picked by a
cumulative sum against a uniform draw times the total.  Both kinds of
draw come from the generator in blocks of ``_BLOCK``, not two calls per
event.

Randomness comes from numpy's counter-based Philox generator.  Seed
splitting is explicit: child = splitmix64(master XOR splitmix64(index_1 + 1)
XOR ... ), applied in index order, so replicate streams are independent by
construction and stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, InfeasibleDataError, InternalConsistencyError
from .model import (GENDER, NONGENDER, GenderPairCounts, GenderParams,
                    NonGenderParams, PairCounts, solve_gender, solve_nongender)

_MASK64 = (1 << 64) - 1

# Random numbers drawn per generator call in gillespie_simulate.
_BLOCK = 512


def _splitmix64(value):
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def derive_seed(master, *indices):
    """Derive a child seed from a master seed and integer indices.

    The rule is child = splitmix64(master ^ splitmix64(i_1 + 1) ^ ...),
    folding indices in order, so distinct index tuples give independent
    streams deterministically.
    """
    acc = master & _MASK64
    for idx in indices:
        acc ^= _splitmix64((int(idx) + 1) & _MASK64)
        acc = _splitmix64(acc)
    return acc


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True)
class ValidationRecord:
    """Truth vs estimate for one simulated replicate."""

    true_params: tuple
    estimates: tuple
    converged: bool
    grid_index: int
    replicate: int
    seed: int


def _channels(params, init):
    """The model's transition channels and its counts type.

    Channel k is ``(coefficient, source, destination)``: it fires at rate
    ``coefficient * counts[source]`` and moves one pair from ``source`` to
    ``destination``.
    """
    if isinstance(params, NonGenderParams) and isinstance(init, PairCounts):
        lam, tau = params.lam, params.tau
        return ((2.0 * lam, 0, 1), (lam + tau, 1, 2)), PairCounts
    if isinstance(params, GenderParams) and isinstance(init, GenderPairCounts):
        p = params
        return ((p.lam_m, 0, 1), (p.lam_f, 0, 2), (p.tau_mf + p.lam_f, 1, 3),
                (p.lam_m + p.tau_fm, 2, 3)), GenderPairCounts
    raise DomainError("params and init must belong to the same model kind")


def gillespie_simulate(params, init, times, seed):
    """Event-driven simulation; returns counts at each requested time.

    Counts are snapshotted at the exact requested times (the state is
    constant between events).  Deterministic for a fixed seed.
    """
    channels, counts_type = _channels(params, init)
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError("snapshot times must be nonnegative and increasing")
    for c in init.as_tuple():
        if c != int(c):
            raise DomainError("simulation requires integer initial counts")

    rng = _rng(seed)
    coefs = [c for c, _, _ in channels]
    sources = [s for _, s, _ in channels]
    dests = [d for _, _, d in channels]
    ks = range(len(channels))
    rates = [0.0] * len(channels)
    counts = [int(c) for c in init.as_tuple()]
    waits = choices = ()
    i = _BLOCK
    t = 0.0
    out = []
    pending = list(times)
    horizon = times[-1]
    while True:
        total = 0.0
        for k in ks:
            rate = coefs[k] * counts[sources[k]]
            rates[k] = rate
            total += rate
        if total > 0:
            if i == _BLOCK:
                waits = rng.standard_exponential(_BLOCK).tolist()
                choices = rng.random(_BLOCK).tolist()
                i = 0
            t_next = t + waits[i] / total
        else:
            t_next = np.inf
        while pending and pending[0] <= t_next:
            out.append(counts_type(*counts))
            pending.pop(0)
        if not pending or t_next > horizon:
            break
        t = t_next
        u = choices[i] * total
        i += 1
        acc = 0.0
        for k in ks:
            acc += rates[k]
            if u < acc:
                break
        else:
            # u rounded up to total: the last channel that can fire
            k = max(k for k in ks if rates[k] > 0)
        counts[sources[k]] -= 1
        counts[dests[k]] += 1
    return out


def _class_distributions(params, init, t):
    """Per-pair state distribution at time t for each initial state class."""
    if isinstance(params, NonGenderParams):
        dists = [
            solve_nongender(params, PairCounts(1, 0, 0), t).as_tuple(),
            solve_nongender(params, PairCounts(0, 1, 0), t).as_tuple(),
            (0.0, 0.0, 1.0),  # II is absorbing
        ]
    else:
        dists = [
            solve_gender(params, GenderPairCounts(1, 0, 0, 0), t).as_tuple(),
            solve_gender(params, GenderPairCounts(0, 1, 0, 0), t).as_tuple(),
            solve_gender(params, GenderPairCounts(0, 0, 1, 0), t).as_tuple(),
            (0.0, 0.0, 0.0, 1.0),
        ]
    checked = []
    for dist in dists:
        probs = np.asarray(dist, dtype=float)
        if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
            raise InternalConsistencyError(
                f"per-pair probabilities left [0, 1]: {probs}")
        probs = np.clip(probs, 0.0, None)
        checked.append(probs / probs.sum())
    return checked


def exact_sample(params, init, t, seed):
    """Sample pair counts at time t directly from the closed-form law.

    Each initial-state class contributes a multinomial draw from its
    per-pair state distribution; the draws are summed.
    """
    if isinstance(params, NonGenderParams) and isinstance(init, PairCounts):
        counts_type = PairCounts
    elif isinstance(params, GenderParams) and isinstance(init, GenderPairCounts):
        counts_type = GenderPairCounts
    else:
        raise DomainError("params and init must belong to the same model kind")
    rng = _rng(seed)
    dists = _class_distributions(params, init, float(t))
    total = np.zeros(len(dists), dtype=np.int64)
    for n_class, dist in zip(init.as_tuple(), dists):
        if n_class != int(n_class):
            raise DomainError("sampling requires integer initial counts")
        if n_class > 0:
            total += rng.multinomial(int(n_class), dist)
    return counts_type(*(int(c) for c in total))


def validation_sweep(truth_grid, init, times, n_replicates, master_seed,
                     fit, bounds=None) -> list:
    """Simulate-and-refit over a grid of true parameters.

    ``fit`` is the fitting callable (kind, dataset, seed) -> FitResult-like
    with ``estimates`` and ``converged``; non-converged fits are recorded
    with their flag rather than dropped.  Records arrive in deterministic
    (grid, replicate) order.
    """
    records = []
    kind = NONGENDER if isinstance(init, PairCounts) else GENDER
    for grid_index, params in enumerate(truth_grid):
        for replicate in range(n_replicates):
            seed = derive_seed(master_seed, grid_index, replicate)
            observations = gillespie_simulate(params, init, times, seed)
            data = Dataset(tuple(times), tuple(observations))
            fit_seed = derive_seed(master_seed, grid_index, replicate, 1)
            try:
                result = fit(kind, data, fit_seed)
                estimates = tuple(float(v) for v in result.estimates)
                converged = bool(result.converged)
            except InfeasibleDataError:
                estimates = tuple(float("nan") for _ in params.as_vector())
                converged = False
            records.append(ValidationRecord(
                true_params=tuple(params.as_vector()),
                estimates=estimates,
                converged=converged,
                grid_index=grid_index,
                replicate=replicate,
                seed=seed,
            ))
    return records
