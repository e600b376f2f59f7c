"""Seeded inputs for the workloads.

Inputs come from numpy's counter-based Philox generator and the benchmark's
own closed-form oracle, never from pairinfer's samplers, so a change to the
program's seeded streams leaves the inputs unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import oracle
from oracle import GENDER, NONGENDER

# Mwanza enrolment shares (Hugonnet et al. 2002) scale every initial state.
MWANZA_INITIAL = {NONGENDER: (1742, 43, 17), GENDER: (1742, 22, 21, 17)}
# Rates near the published Mwanza estimates, per year.
TRUTH = {NONGENDER: (0.003, 0.056), GENDER: (0.004, 0.002, 0.047, 0.068)}

# The cohorts design: both models, 2-4 observation times, N from 500 to
# 200,000.  Formats alternate so each model is read as JSON and as CSV.
# Non-gendered fits are the cheaper ones.  With 15 of them against 9
# gendered, the median item falls in the middle of the 4-time non-gendered
# fits, where item costs are dense, not in the sparse tail above them.
COHORT_TIMES = ((0.0, 2.0), (0.0, 1.0, 3.0), (0.0, 1.0, 2.0, 4.0))
COHORT_SIZES = {NONGENDER: (500, 2_000, 5_000, 20_000, 200_000),
                GENDER: (500, 20_000, 200_000)}

# The criterion-9 truth grid of the recovery workload.
RECOVERY_GRID = tuple((lam, tau) for lam in (0.002, 0.005, 0.01)
                      for tau in (0.02, 0.05, 0.1))

# Survey-scale simulate workload: N = 200,000, yearly snapshots to 5 years.
SURVEY_SIZE = 200_000
SURVEY_TIMES = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)


def _entropy(seed, stream):
    return np.random.SeedSequence([seed % 2**64, *stream])


def rng_for(seed, *stream):
    """Philox generator keyed by the workload seed and a stream label."""
    words = _entropy(seed, stream).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


def scaled_initial(kind, n) -> tuple:
    """Mwanza enrolment shares scaled to n pairs, summing to n exactly."""
    base = np.asarray(MWANZA_INITIAL[kind], dtype=float)
    counts = np.floor(base / base.sum() * n).astype(np.int64)
    counts[0] += n - counts.sum()
    return tuple(int(c) for c in counts)


def program_seed(seed, *stream) -> int:
    """A 32-bit seed for pairinfer, derived from the workload seed."""
    return int(_entropy(seed, stream).generate_state(1)[0])


def _json_text(kind, times, counts):
    doc = {"schema_version": 1, "model": kind,
           "observations": [
               {"time": t, "counts": dict(zip(oracle.STATES[kind],
                                              (int(c) for c in row)))}
               for t, row in zip(times, counts)]}
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(kind, times, counts):
    lines = [",".join(("time",) + oracle.STATES[kind])]
    lines += [",".join([f"{t:g}"] + [str(int(c)) for c in row])
              for t, row in zip(times, counts)]
    return "\n".join(lines) + "\n"


def write_cohorts(seed, out_dir, set_index=0) -> list:
    """Write one cohort set of the design for ``seed`` into out_dir.

    Returns one dict per file with its path, model, times and counts.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohorts = []
    for kind in (NONGENDER, GENDER):
        for times in COHORT_TIMES:
            for n in COHORT_SIZES[kind]:
                index = len(cohorts)
                counts = oracle.sample_path(
                    kind, TRUTH[kind], scaled_initial(kind, n), times,
                    rng_for(seed, 1, set_index, index))
                if index % 2 == 0:
                    name, text = f"cohort{index:02d}.json", _json_text(kind, times, counts)
                else:
                    name, text = f"cohort{index:02d}.csv", _csv_text(kind, times, counts)
                path = out_dir / name
                path.write_text(text)
                cohorts.append({"path": path, "kind": kind, "times": times,
                                "counts": counts})
    return cohorts


def digest(paths) -> str:
    """sha256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return h.hexdigest()
