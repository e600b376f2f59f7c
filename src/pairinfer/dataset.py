"""Observed cohort data: pair-state counts at two or more times."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .model import GenderPairCounts, PairCounts, model_of

# Observations are conceptually integer counts; real-valued entries are
# accepted so model-generated expectations can be used as synthetic data.
_SUM_RTOL = 1e-6


@dataclass(frozen=True)
class Dataset:
    """Observation times with aligned pair counts; the first time is t = 0.

    All observations must sum to the same constant pair total N, and at
    least two observation times are required.
    """

    times: tuple
    observations: tuple
    # every likelihood evaluation reads these, so they are computed once
    kind: str = field(init=False, repr=False, compare=False)
    n: float = field(init=False, repr=False, compare=False)  # pair total N
    counts: tuple = field(init=False, repr=False, compare=False)
    _elapsed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "observations", tuple(self.observations))
        if len(self.times) != len(self.observations):
            raise DomainError("times and observations must have equal length")
        if len(self.times) < 2:
            raise DomainError("at least two observation times required")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise DomainError(
                    f"observation times must strictly increase, got {a} then {b}")
        if len({type(obs) for obs in self.observations}) != 1:
            raise DomainError("observations must be all PairCounts or all "
                              "GenderPairCounts")
        spec = model_of(self.observations[0])
        n0 = self.observations[0].total
        if n0 <= 0:
            raise DomainError("pair total N must be positive")
        for t, obs in zip(self.times, self.observations):
            if abs(obs.total - n0) > _SUM_RTOL * n0:
                raise DomainError(
                    f"counts at time {t:g} sum to {obs.total:g}, expected N={n0:g}")
        t0 = self.times[0]
        object.__setattr__(self, "kind", spec.kind)
        object.__setattr__(self, "n", n0)
        object.__setattr__(self, "counts", tuple(obs.as_tuple()
                                                 for obs in self.observations))
        object.__setattr__(self, "_elapsed", tuple(t - t0 for t in self.times))

    @property
    def initial(self):
        """The first observation, used as the deterministic initial state."""
        return self.observations[0]

    def elapsed(self):
        """Observation times measured from the first one."""
        return self._elapsed


def nongender_dataset(times, counts) -> Dataset:
    """Dataset from (ss, si, ii) tuples aligned with ``times``."""
    return Dataset(tuple(times), tuple(PairCounts(*c) for c in counts))


def gender_dataset(times, counts) -> Dataset:
    """Dataset from (ss, is_, si, ii) tuples aligned with ``times``."""
    return Dataset(tuple(times), tuple(GenderPairCounts(*c) for c in counts))
