"""Closed-form pair-model oracle, written independently of pairinfer.

The benchmark uses it to generate cohort inputs and to check the program's
outputs, so neither depends on the code under measurement.  States are
ordered (SS, SI, II) for the non-gendered model and (SS, IS, SI, II) for the
gendered one; rates are (lambda, tau) and (lambda_m, lambda_f, tau_mf,
tau_fm).  Each pair is a continuous-time Markov chain: SS -> SI at 2*lambda
and SI -> II at lambda + tau; gendered SS -> IS at lambda_m, SS -> SI at
lambda_f, IS -> II at tau_mf + lambda_f and SI -> II at lambda_m + tau_fm.
"""

from __future__ import annotations

import math

import numpy as np

NONGENDER = "nongender"
GENDER = "gender"
STATES = {NONGENDER: ("SS", "SI", "II"), GENDER: ("SS", "IS", "SI", "II")}


def _leave_integral(rate_in, rate_out, t):
    """Integral over s in [0, t] of exp(-rate_in*s - rate_out*(t - s)).

    This is the chance density of entering a transient state from SS (left
    at total rate ``rate_in``) and still being there at t (left at
    ``rate_out``), without the entry-rate factor.
    """
    x = rate_out - rate_in
    if abs(x) < 1e-12:
        return t * math.exp(-rate_in * t)
    return math.exp(-rate_in * t) * -math.expm1(-x * t) / x


def transition_matrix(kind, rates, t) -> np.ndarray:
    """Row-stochastic per-pair transition matrix over an interval of length t."""
    if kind == NONGENDER:
        lam, tau = rates
        p = np.zeros((3, 3))
        p[0, 0] = math.exp(-2.0 * lam * t)
        p[0, 1] = 2.0 * lam * _leave_integral(2.0 * lam, lam + tau, t)
        p[1, 1] = math.exp(-(lam + tau) * t)
    elif kind == GENDER:
        lam_m, lam_f, tau_mf, tau_fm = rates
        out_ss = lam_m + lam_f
        p = np.zeros((4, 4))
        p[0, 0] = math.exp(-out_ss * t)
        p[0, 1] = lam_m * _leave_integral(out_ss, tau_mf + lam_f, t)
        p[0, 2] = lam_f * _leave_integral(out_ss, lam_m + tau_fm, t)
        p[1, 1] = math.exp(-(tau_mf + lam_f) * t)
        p[2, 2] = math.exp(-(lam_m + tau_fm) * t)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    p[:, -1] = np.maximum(1.0 - p[:, :-1].sum(axis=1), 0.0)
    return p


def expected_counts(kind, rates, initial, t):
    """Expected counts at elapsed time t and their per-state variances."""
    init = np.asarray(initial, dtype=float)
    p = transition_matrix(kind, rates, t)
    return init @ p, init @ (p * (1.0 - p))


def sample_path(kind, rates, initial, times, rng) -> np.ndarray:
    """Counts at each of ``times``, chained with one multinomial per class.

    Chaining over intervals is exact by the Markov property.  Returns an
    integer array of shape (len(times), states); row 0 is ``initial``.
    """
    rows = [np.asarray(initial, dtype=np.int64)]
    for a, b in zip(times, times[1:]):
        p = transition_matrix(kind, rates, b - a)
        nxt = np.zeros(len(p), dtype=np.int64)
        for n_class, row in zip(rows[-1], p):
            if n_class > 0:
                nxt += rng.multinomial(int(n_class), row / row.sum())
        rows.append(nxt)
    return np.stack(rows)


def log_likelihood(kind, rates, times, counts) -> float:
    """Multinomial log-likelihood, conditioning on the first observation."""
    counts = np.asarray(counts, dtype=float)
    n = counts[0].sum()
    total = 0.0
    for t, row in zip(times[1:], counts[1:]):
        probs = counts[0] @ transition_matrix(kind, rates, t - times[0]) / n
        seen = row > 0
        if np.any(probs[seen] <= 0.0):
            return -math.inf
        total += float(np.sum(row[seen] * np.log(probs[seen])))
    return total


def saturated_log_likelihood(counts) -> float:
    """Upper bound on the log-likelihood: predictions equal observed shares."""
    counts = np.asarray(counts, dtype=float)
    n = counts[0].sum()
    later = counts[1:]
    seen = later > 0
    return float(np.sum(later[seen] * np.log(later[seen] / n)))
