"""Correctness checks on the program's outputs.

Each check raises CheckFailure with a message; a failed check counts the
item (or, for the run-level checks, the run) as failed.
"""

from __future__ import annotations

import numpy as np

import oracle
from oracle import GENDER, NONGENDER


class CheckFailure(Exception):
    """An output of the program is wrong."""


PARAM_NAMES = {NONGENDER: ("lambda", "tau"),
               GENDER: ("lambda_m", "lambda_f", "tau_mf", "tau_fm")}

# Acceptance criteria 2 and 4: the bundled Mwanza estimates.
PUBLISHED = {NONGENDER: ((0.003, 0.056), (0.0005, 0.005)),
             GENDER: ((0.004, 0.002, 0.047, 0.068), (0.001, 0.001, 0.01, 0.015))}

# Acceptance criterion 9: worst per-cell median relative error.
RECOVERY_LIMITS = (0.25, 0.75)
RECOVERY_MIN_PER_CELL = 10

# Simulated means must lie within this many standard errors of the closed form.
MEAN_SIGMAS = 5.0

# The fitted log-likelihood may fall short of the truth's by this relative
# amount (summary.json rounds estimates to six significant digits).
LOGLIK_RTOL = 1e-6


def estimates_of(kind, summary) -> tuple:
    """Estimates of one model from a parsed summary.json, in model order."""
    mle = summary["models"][kind]["mle"]["estimates"]
    return tuple(mle[name] for name in PARAM_NAMES[kind])


def check_published(summary):
    """The report's bundled-cohort estimates meet criteria 2 and 4."""
    for kind, (published, tolerance) in PUBLISHED.items():
        got = estimates_of(kind, summary)
        for name, g, p, tol in zip(PARAM_NAMES[kind], got, published, tolerance):
            if not abs(g - p) <= tol:
                raise CheckFailure(f"{kind} {name}={g} is not within {tol} of {p}")


def check_repeat(seen, key, digest):
    """Outputs for a repeated key are byte-identical to the first ones."""
    first = seen.setdefault(key, digest)
    if first != digest:
        raise CheckFailure(f"summary.json for seed {key} changed between items")


def check_fit(kind, truth, times, counts, estimates, reported_loglik, rtol):
    """A fit is at least as likely as the truth and at most saturated.

    ``reported_loglik`` must match the oracle's log-likelihood at
    ``estimates`` within relative ``rtol``.
    """
    at_fit = oracle.log_likelihood(kind, estimates, times, counts)
    at_truth = oracle.log_likelihood(kind, truth, times, counts)
    saturated = oracle.saturated_log_likelihood(counts)
    tol = LOGLIK_RTOL * (1.0 + abs(at_truth))
    if not abs(reported_loglik - at_fit) <= rtol * (1.0 + abs(at_fit)):
        raise CheckFailure(f"reported log-likelihood {reported_loglik} but "
                           f"{at_fit} at the estimates")
    if not at_fit >= at_truth - tol:
        raise CheckFailure(f"fit log-likelihood {at_fit} below the truth's "
                           f"{at_truth}")
    if not at_fit <= saturated + tol:
        raise CheckFailure(f"fit log-likelihood {at_fit} above the saturated "
                           f"bound {saturated}")


def check_simulated(initial, times, got_times, counts):
    """A simulated path keeps N, starts at ``initial``, and is monotone."""
    counts = np.asarray(counts, dtype=np.int64)
    if tuple(got_times) != tuple(times):
        raise CheckFailure(f"snapshot times {got_times}, expected {times}")
    if tuple(counts[0]) != tuple(initial):
        raise CheckFailure(f"initial counts {counts[0]}, expected {initial}")
    if np.any(counts.sum(axis=1) != sum(initial)):
        raise CheckFailure("pair total N is not conserved")
    if np.any(np.diff(counts[:, 0]) > 0):
        raise CheckFailure("SS rose between snapshots")
    if np.any(np.diff(counts[:, -1]) < 0):
        raise CheckFailure("II fell between snapshots")


def check_recovery(records):
    """Criterion 9 on (truth, estimates) pairs grouped by truth."""
    cells = {}
    for truth, estimates in records:
        cells.setdefault(tuple(truth), []).append(estimates)
    for truth, estimates in sorted(cells.items()):
        if len(estimates) < RECOVERY_MIN_PER_CELL:
            raise CheckFailure(f"only {len(estimates)} replicates at {truth}")
        median = np.median(np.asarray(estimates), axis=0)
        errors = np.abs(median - truth) / np.asarray(truth)
        if np.any(errors > RECOVERY_LIMITS):
            raise CheckFailure(f"median relative errors {errors} at {truth} "
                               f"exceed {RECOVERY_LIMITS}")


def check_means(kind, rates, initial, times, paths):
    """Mean simulated counts lie within MEAN_SIGMAS standard errors."""
    paths = np.asarray(paths, dtype=float)
    k = len(paths)
    for j, t in enumerate(times[1:], start=1):
        expected, variance = oracle.expected_counts(kind, rates, initial, t - times[0])
        error = np.abs(paths[:, j].mean(axis=0) - expected)
        if np.any(error > MEAN_SIGMAS * np.sqrt(variance / k) + 1e-9):
            raise CheckFailure(f"{kind} mean counts at t={t} are "
                               f"{paths[:, j].mean(axis=0)}, expected {expected}")
