"""Stochastic cohort simulation and the parameter-recovery sweep.

Each pair is an independent continuous-time Markov chain: non-gendered pairs
move SS -> SI at rate 2*lambda and SI -> II at rate lambda + tau; gendered
pairs leave SS at lambda_m (male infected) or lambda_f (female infected) and
each discordant class converts to II at internal-plus-external hazard.

The simulator builds one channel table per run from the model's entry in
:data:`model.MODELS`: each discordant class gives an inflow channel from SS
(rate coefficient ``inflow``) and an exit channel to II (``rate``), inflows
first.  Channel k is ``(coefficient, source, destination)``, fires at rate
``coefficient * counts[source]`` and moves one pair from ``source`` to
``destination``.

Pairs are independent and the graph is acyclic, so Gillespie's
first-reaction method (J. Comput. Phys. 22:403, 1976) runs per pair and all
pairs at once, from the rates alone:

- the number of SS pairs that leave by the last time T is
  Binomial(SS_0, p) with p = -expm1(-h*T), h the summed inflow;
- each leaver's exit time is drawn from the exponential truncated to T, by
  inverse CDF: -log1p(-u*p)/h;
- its class is a categorical draw on the inflow coefficients;
- every discordant pair, initial or entered, reaches II an exponential wait
  over its class's exit rate after it entered; a class with zero exit rate
  never does;
- the counts at each snapshot are the initial counts plus the moves of the
  events before it.

The events are never gathered into one array.  Each channel's count below a
snapshot time is counted on the event times as they are drawn: the initial
pairs' exits class by class, and the leavers' entries and exits, split by
class (the last class takes the rest).  An event at exactly a snapshot
time, and a nan or inf time, fails ``<`` and so falls after it.

A run makes three generator calls whatever the cohort's size, and no array
grows with SS_0: only with the leavers and the initial discordant pairs.
The test suite checks the sampler against the event-driven Gillespie loop it
replaced and against a one-shot sampler of the closed-form law, both kept in
``tests/oracles.py``.

Randomness comes from numpy's counter-based Philox generator.  Seed
splitting is explicit: child = splitmix64(master XOR splitmix64(index_1 + 1)
XOR ... ), applied in index order, so replicate streams are independent by
construction and stable across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, InfeasibleDataError
from .model import model_of

_MASK64 = (1 << 64) - 1
# the largest count numpy's binomial draw takes
_MAX_COUNT = int(np.iinfo(np.int64).max)


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


def _bins(keys, edges):
    """``np.searchsorted(edges, keys, "right")`` for a short sorted list
    ``edges``: the number of edges at or below each key, every edge for a
    nan key.  The sampler's class draw uses it, the class edges being the
    cumulative inflows: summed comparisons, one pass over the keys per edge,
    beat the binary search per key at survey scale."""
    out = np.zeros(keys.shape, dtype=np.intp)
    for edge in edges:
        out += ~(keys < edge)
    return out


def _below(events, times, classes=()):
    """How many of the event times ``events`` fall before each snapshot
    time, split by the boolean masks ``classes`` with the events in none of
    them last: one row per class, one column per snapshot.  An event at
    exactly a snapshot time falls after it, and nan (a channel that never
    fires) and inf (a wait beyond the float64 range) fall after every one:
    ``<`` is False for both."""
    columns = []
    for t in times:
        below = events < t
        split = [np.count_nonzero(below & mask) for mask in classes]
        columns.append(split + [np.count_nonzero(below) - sum(split)])
    return list(zip(*columns))


def snapshot_times(times):
    """``times`` as floats, checked: one or more finite, nonnegative and
    increasing times, else a DomainError."""
    times = [float(t) for t in times]
    # the chained comparison is False for nan as well as for inf
    if (not times or not all(0.0 <= t < math.inf for t in times)
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise DomainError("snapshot times must be one or more finite, "
                          "nonnegative and increasing times")
    return times


def gillespie_simulate(params, init, times, seed):
    """Simulate the cohort; returns the counts at each requested time.

    Counts are snapshotted at the exact requested times from a start at
    time 0; an event at exactly a snapshot time falls after it.
    Deterministic for a fixed seed.
    """
    channels, counts_type = _channels(params, init)
    times = snapshot_times(times)
    for c in init.as_tuple():
        if c > _MAX_COUNT:
            raise DomainError(f"simulation takes initial counts up to "
                              f"{_MAX_COUNT}, got {c:g}")
        if c != int(c):
            raise DomainError("simulation requires integer initial counts")

    n_classes = len(channels) // 2
    counts = [int(c) for c in init.as_tuple()]
    discordant = [counts[d] for _, _, d in channels[:n_classes]]
    inflows = [c for c, _, _ in channels[:n_classes]]
    cumulative = list(itertools.accumulate(inflows))
    hazard = cumulative[-1]
    p_leave = -math.expm1(-hazard * times[-1])
    # the last class with a positive inflow takes every draw above the
    # classes before it, so a draw u*hazard that rounds up to the hazard
    # lands in it and none lands in a class without inflow
    last_open = max((k for k, c in enumerate(inflows) if c > 0.0), default=0)
    edges = cumulative[:last_open]
    # each class's mean wait to II, nan for one that never exits: its exit
    # times are nan, before no snapshot
    exit_wait = np.array([1.0 / c if c > 0.0 else math.nan
                          for c, _, _ in channels[n_classes:]])

    rng = _rng(seed)
    leavers = int(rng.binomial(counts[0], p_leave))
    uniforms = rng.random(2 * leavers)
    waits = rng.standard_exponential(sum(discordant) + leavers)

    # the leavers' entry times, from SS's exponential truncated to the
    # horizon, and their classes
    entry = np.log1p(uniforms[:leavers] * -p_leave) / -hazard
    leaver_class = _bins(uniforms[leavers:] * hazard, edges)
    # fired[k, j]: how often channel k fired before snapshot j; the waits
    # are the initial discordant pairs' class by class, then the leavers'
    fired = np.zeros((len(channels), len(times)), dtype=np.int64)
    first = 0
    with np.errstate(over="ignore"):  # a wait beyond the float64 range
        for k, size in enumerate(discordant):
            initial = waits[first:first + size]
            initial *= exit_wait[k]
            fired[n_classes + k] = _below(initial, times)[0]
            first += size
        exits = waits[first:]
        exits *= exit_wait.take(leaver_class)
    exits += entry
    # the leavers of each class but the last, which takes the rest
    classes = [leaver_class == k for k in range(n_classes - 1)]
    fired[:n_classes] += _below(entry, times, classes)
    fired[n_classes:] += _below(exits, times, classes)

    # column k moves one pair from channel k's source to its destination
    moves = np.array([[(state == d) - (state == s) for _, s, d in channels]
                      for state in range(len(counts))])
    table = (moves @ fired).T + counts
    return [counts_type(*row) for row in table.tolist()]


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
