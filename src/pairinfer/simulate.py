"""Stochastic cohort simulation and the parameter-recovery sweep.

Each pair is an independent continuous-time Markov chain: non-gendered pairs
move SS -> SI at rate 2*lambda and SI -> II at rate lambda + tau; gendered
pairs leave SS at lambda_m (male infected) or lambda_f (female infected) and
each discordant class converts to II at internal-plus-external hazard.
Because pairs are independent, event-driven simulation of the aggregated
counts (classic direct-method sampling with exponential waiting times) is
distributionally identical to simulating every pair separately.  The
test suite checks it against a one-shot sampler that draws each initial
class's multinomial from the closed-form per-pair state distribution.

The event-driven simulator builds one channel table per run from the
model's entry in :data:`model.MODELS`: each discordant class gives an
inflow channel from SS (rate coefficient ``inflow``) and an exit channel
to II (``rate``), inflows first.  Channel k is ``(coefficient, source,
destination)``, fires at rate ``coefficient * counts[source]`` and moves
one pair from ``source`` to ``destination``.
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

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, InfeasibleDataError
from .model import model_of

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
    ``destination``.  The inflows from SS come first, then the exits to
    II, each in class order.
    """
    spec = model_of(init, params)
    classes = spec.classes(params.as_vector())
    ii = len(spec.state_labels) - 1
    channels = ([(inflow, 0, start) for start, inflow, _, _ in classes]
                + [(rate, start, ii) for start, _, _, rate in classes])
    return channels, spec.counts_type


def gillespie_simulate(params, init, times, seed):
    """Event-driven simulation; returns counts at each requested time.

    Counts are snapshotted at the exact requested times (the state is
    constant between events).  Deterministic for a fixed seed.
    """
    channels, counts_type = _channels(params, init)
    times = [float(t) for t in times]
    # the chained comparison is False for nan as well as for inf
    if (not all(0.0 <= t < math.inf for t in times)
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise DomainError("snapshot times must be finite, nonnegative and "
                          "increasing")
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


def validation_sweep(truth_grid, init, times, n_replicates, master_seed,
                     fit) -> list:
    """Simulate-and-refit over a grid of true parameters.

    ``fit`` is the fitting callable (kind, dataset, seed) -> FitResult-like
    with ``estimates`` and ``converged``; non-converged fits are recorded
    with their flag rather than dropped.  Records arrive in deterministic
    (grid, replicate) order.
    """
    records = []
    kind = model_of(init).kind
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
