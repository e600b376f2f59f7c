"""The stress sweep: maximum-likelihood fits of random cohorts that reach
the fit's fallback paths, summed per design.

The benchmark's cohorts draw rates near the Mwanza estimates over at most
4 years, so their fits rarely leave the closed-form and Newton paths.
These cohorts do: rates span 1e-4 to 10 per year, horizons reach 20 years,
and the initial state is a random split of N.  Run by hand, from the
repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/stress_sweep.py [--cohorts 1500] [--json F]

Cohort i draws from ``np.random.default_rng(0)`` in order: the models
alternate, non-gendered first; 2-4 observation times, 0 and then sorted
``uniform(0.05, 20)``; N = ``int(10**uniform(1.7, 5.3))``; rates
``10**uniform(-4, 1)``; the initial state N split by ``dirichlet(ones)``,
floored, with the rest in SS.  Its counts come from
``gillespie_simulate(..., seed=i)`` and its fit is ``fit_mle(kind, data,
seed=0)``.  Per design (model and number of times) the sweep prints:

- ``evals/fit``: optimizer evaluations (``iterations``) per fit;
- ``tight``: calls of the tight simplex, the fallback of a failed climb;
- ``unconv``: fits that return unconverged;
- ``wins``: fits where a corner climb converged more than 1e-6 relative
  above a converged climb from the warm start;
- ``errors``: fits that raise a ``PairinferError`` (impossible data).

``--json`` writes one record per cohort (log-likelihood, ``converged``,
``iterations``, ``se_method``, ``identifiability``), so that two versions
of the program can be compared fit by fit.
"""

from __future__ import annotations

import argparse
import json
import math
import warnings
from collections import defaultdict

import numpy as np

import pairinfer.inference as inference
from pairinfer import (GENDER, NONGENDER, Dataset, PairinferError, fit_mle,
                       gillespie_simulate)
from pairinfer.model import model_spec

WIN_MARGIN = 1e-6


def draw_cohort(rng, index):
    """The kind and dataset of cohort ``index``, from the shared stream."""
    kind = (NONGENDER, GENDER)[index % 2]
    spec = model_spec(kind)
    n_times = int(rng.integers(2, 5))
    times = (0.0, *sorted(float(t) for t in rng.uniform(0.05, 20.0,
                                                        n_times - 1)))
    n = int(10 ** rng.uniform(1.7, 5.3))
    rates = 10 ** rng.uniform(-4.0, 1.0, len(spec.param_names))
    shares = rng.dirichlet(np.ones(len(spec.state_labels)))
    init = [int(c) for c in np.floor(n * shares)]
    init[0] += n - sum(init)
    counts = gillespie_simulate(spec.params_type(*rates.tolist()),
                                spec.counts_type(*init), times, index)
    return kind, Dataset(times, tuple(counts))


class Recorder:
    """Wraps the climb and the simplex of :mod:`pairinfer.inference`."""

    def __init__(self):
        self.climbs, self.tight = [], 0
        self._newton = inference._newton
        self._simplex = inference.minimize_simplex

    def newton(self, *args, **kwargs):
        out = self._newton(*args, **kwargs)
        decrement_tol = args[6] if len(args) > 6 else kwargs["decrement_tol"]
        if decrement_tol == inference._HANDOVER_DECREMENT:
            self.climbs.append((out[1], out[2] is not None))
        return out

    def simplex(self, *args, **kwargs):
        if "diameter_tol" not in kwargs:
            self.tight += 1
        return self._simplex(*args, **kwargs)

    def __enter__(self):
        inference._newton = self.newton
        inference.minimize_simplex = self.simplex
        return self

    def __exit__(self, *exc):
        inference._newton = self._newton
        inference.minimize_simplex = self._simplex

    def start_fit(self):
        self.climbs, self.tight = [], 0

    def corner_won(self):
        """A corner converged above the warm start's converged climb."""
        if not self.climbs or not self.climbs[0][1]:
            return False
        warm = self.climbs[0][0]
        return any(ok and f < warm - WIN_MARGIN * (1.0 + abs(warm))
                   for f, ok in self.climbs[1:])


def sweep(n_cohorts):
    rng = np.random.default_rng(0)
    records = []
    with Recorder() as recorder:
        for index in range(n_cohorts):
            kind, data = draw_cohort(rng, index)
            recorder.start_fit()
            record = {"index": index, "kind": kind,
                      "times": len(data.times)}
            try:
                fit = fit_mle(kind, data, seed=0)
            except PairinferError as exc:
                record["error"] = type(exc).__name__
            else:
                record.update(
                    loglik=fit.loglik_at_max, converged=fit.converged,
                    iterations=fit.iterations, se_method=fit.se_method,
                    identifiability=fit.identifiability)
            record.update(tight=recorder.tight,
                          corner_win=recorder.corner_won())
            records.append(record)
    return records


def summarize(records):
    rows = defaultdict(lambda: defaultdict(int))
    for r in records:
        for key in ((r["kind"], r["times"]), ("all", "-")):
            row = rows[key]
            row["fits"] += 1
            row["tight"] += r["tight"]
            row["wins"] += r["corner_win"]
            if "error" in r:
                row["errors"] += 1
                continue
            row["evals"] += r["iterations"]
            row["unconv"] += not r["converged"]
    print(f"{'design':<14}{'fits':>6}{'evals':>10}{'evals/fit':>11}"
          f"{'tight':>7}{'unconv':>8}{'wins':>6}{'errors':>8}")
    for (kind, times), row in sorted(
            rows.items(), key=lambda kv: (kv[0][0] == "all", str(kv[0]))):
        fitted = row["fits"] - row["errors"]
        per_fit = row["evals"] / fitted if fitted else math.nan
        print(f"{kind + ' ' + str(times):<14}{row['fits']:>6}"
              f"{row['evals']:>10}{per_fit:>11.1f}{row['tight']:>7}"
              f"{row['unconv']:>8}{row['wins']:>6}{row['errors']:>8}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cohorts", type=int, default=1500)
    parser.add_argument("--json", help="write per-cohort records here")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # CFA clamps, ill-conditioned covariances, numpy overflow
        warnings.simplefilter("ignore")
        records = sweep(args.cohorts)
    summarize(records)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(records, out, indent=1)


if __name__ == "__main__":
    main()
