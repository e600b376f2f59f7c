"""The four workloads: closed loop, one client, one process.

A workload hands out rounds of items.  Each item is one call into a public
entry point of pairinfer (``cli.main`` or ``validation_sweep``); its output
is checked after the timed call.  A round has the workload's full input mix,
so runs that stop after whole rounds always measure the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import numpy as np

import checks
import inputs
from oracle import GENDER, NONGENDER

MAX_EVALS = 50_000  # pairinfer's default optimizer budget
NONCONVERGED = 4    # pairinfer's exit code for a fit that did not converge

# Rounds 1 and 2 run in every run, so counts taken from them repeat exactly
# for a seed whatever the run length.
COUNTED_ROUNDS = (1, 2)


def _cli(argv):
    """Run ``pairinfer.cli.main``; return its exit code and stdout."""
    import pairinfer.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pairinfer.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _exit_ok(code, allowed=(0,)):
    if code not in allowed:
        raise checks.CheckFailure(f"pairinfer exited with code {code}")


class Item:
    """One timed call and the check of its output."""

    def __init__(self, call, check):
        self.call = call
        self.check = check


class Report:
    """Repeated default ``report-all``: both bundled models with surfaces,
    profiles and ellipses.  Likelihood grids dominate, and it writes the
    largest artifacts; nothing here simulates."""

    name = "report"
    layers = ("cli", "io", "estimators", "inference", "neldermead",
              "likelihood", "model")
    repeats = 3  # distinct report seeds; later items repeat them

    def __init__(self, seed, work):
        self.out = work / "report"
        self.seeds = [inputs.program_seed(seed, 0, k) for k in range(self.repeats)]
        self.digests = {}
        self.evals = {}
        self.info = {}

    def round(self, index):
        seed = self.seeds[index % self.repeats]
        return [Item(lambda: _cli(["report-all", "--out", self.out,
                                   "--seed", seed]),
                     lambda result: self._check(index, seed, result))]

    def _check(self, index, seed, result):
        _exit_ok(result[0])
        raw = (self.out / "summary.json").read_bytes()
        summary = json.loads(raw)
        if index in COUNTED_ROUNDS:
            self.evals[index] = sum(m["mle"]["iterations"]
                                    for m in summary["models"].values())
        checks.check_published(summary)
        checks.check_repeat(self.digests, seed, hashlib.sha256(raw).hexdigest())

    def finish(self):
        pass


class Recovery:
    """Simulate-and-refit replicates over the criterion-9 truth grid at the
    bundled N=1802, times 0 and 2, uncertainty off, as ``pairinfer
    validate`` runs them.  Optimizer and scalar likelihood dominate; there
    are no grids, no parsing and no emission."""

    name = "recovery"
    layers = ("simulate", "estimators", "inference", "neldermead",
              "likelihood", "model")
    times = (0.0, 2.0)

    def __init__(self, seed, work):
        import pairinfer
        self.seed = seed
        self.initial = pairinfer.load_bundled(NONGENDER).initial
        self.records = {}
        self.nonconverged = set()
        self.info = {}

    def round(self, index):
        return [self._item(index * len(inputs.RECOVERY_GRID) + k, truth)
                for k, truth in enumerate(inputs.RECOVERY_GRID)]

    def _item(self, serial, truth):
        import pairinfer
        fitted = []

        def fit(kind, data, seed):
            result = pairinfer.inference.fit_mle(
                kind, data, seed=seed, max_evals=MAX_EVALS, uncertainty=False)
            fitted.append((data, result))
            return result

        def call():
            return pairinfer.validation_sweep(
                [pairinfer.NonGenderParams(*truth)], self.initial, self.times,
                1, inputs.program_seed(self.seed, 2, serial), fit)

        def check(records):
            (record,), ((data, result),) = records, fitted
            if not record.converged:
                self.nonconverged.add(serial)
            counts = [obs.as_tuple() for obs in data.observations]
            checks.check_fit(NONGENDER, truth, data.times, counts,
                             record.estimates, result.loglik_at_max, 1e-9)
            self.records[serial] = (truth, record.estimates)
        return Item(call, check)

    def finish(self):
        self.info["nonconverged_fits"] = len(self.nonconverged)
        checks.check_recovery(self.records.values())


class Cohorts:
    """``pairinfer fit`` on generated dataset files: both models, 2-4
    observation times, N from 500 to 200,000, JSON and CSV.  Uncertainty is
    on, fits have up to four parameters and their cost grows with N; the
    only workload that parses input."""

    name = "cohorts"
    layers = ("cli", "io", "estimators", "inference", "neldermead",
              "likelihood", "model")
    pool = 16  # cohort sets; round r fits set r mod pool

    def __init__(self, seed, work):
        self.out = work / "cohorts-out"
        self.seed = seed
        self.sets = [inputs.write_cohorts(seed, work / f"cohorts{k:02d}", set_index=k)
                     for k in range(self.pool)]
        self.evals = {}
        self.se_available = {}
        self.nonconverged = set()
        self.exhausted = set()  # fits that used the whole evaluation budget
        self.info = {"input_digest": inputs.digest(
            c["path"] for cohorts in self.sets for c in cohorts)}

    def round(self, index):
        return [self._item(index, k, c)
                for k, c in enumerate(self.sets[index % self.pool])]

    def _item(self, index, k, cohort):
        kind = cohort["kind"]
        seed = inputs.program_seed(self.seed, 3, index)

        def check(result):
            # Exit 4 still writes the results, flagged; they are checked
            # like any other and the non-convergence is counted apart.
            _exit_ok(result[0], allowed=(0, NONCONVERGED))
            if result[0] == NONCONVERGED:
                self.nonconverged.add((index, k))
            mle = json.loads((self.out / "summary.json").read_text())["models"][kind]["mle"]
            if mle["converged"] != (result[0] == 0):
                raise checks.CheckFailure("exit code disagrees with the "
                                          "converged flag in summary.json")
            if mle["iterations"] >= MAX_EVALS - 4:
                self.exhausted.add((index, k))
            if index in COUNTED_ROUNDS:
                self.evals[index, k] = mle["iterations"]
                self.se_available[index, k] = mle["se_method"] != "unavailable"
            estimates = tuple(mle["estimates"][n] for n in checks.PARAM_NAMES[kind])
            checks.check_fit(kind, inputs.TRUTH[kind], cohort["times"],
                             cohort["counts"], estimates, mle["loglik"], 1e-5)
        return Item(lambda: _cli(["fit", "--model", kind, "--input", cohort["path"],
                                  "--out", self.out, "--seed", seed]), check)

    def finish(self):
        self.info["nonconverged_fits"] = len(self.nonconverged)
        self.info["budget_exhausted_fits"] = len(self.exhausted)


class Simulate:
    """``pairinfer simulate`` at survey scale: N=200,000 pairs, yearly
    snapshots to 5 years.  One item simulates the survey in both model
    resolutions.  The simulator is almost all of the work here."""

    name = "simulate"
    layers = ("cli", "io", "simulate")

    def __init__(self, seed, work):
        self.out = work / "simulate"
        self.seed = seed
        self.initial = {kind: inputs.scaled_initial(kind, inputs.SURVEY_SIZE)
                        for kind in (NONGENDER, GENDER)}
        self.paths = {}  # (kind, round) -> simulated counts
        self.info = {}

    def round(self, index):
        seed = inputs.program_seed(self.seed, 4, index)
        times = ",".join(f"{t:g}" for t in inputs.SURVEY_TIMES)
        argv = {}
        for kind in (NONGENDER, GENDER):
            rates = ",".join(f"{n}={v!r}" for n, v in
                             zip(checks.PARAM_NAMES[kind], inputs.TRUTH[kind]))
            argv[kind] = ["simulate", "--model", kind, "--rates", rates,
                          "--init", ":".join(map(str, self.initial[kind])),
                          "--times", times, "--reps", 1, "--seed", seed,
                          "--out", self.out]

        def call():
            return [_cli(argv[kind]) for kind in (NONGENDER, GENDER)]
        return [Item(call, lambda results: self._check(index, results))]

    def _check(self, index, results):
        import pairinfer
        for kind, (code, _) in zip((NONGENDER, GENDER), results):
            _exit_ok(code)
            data = pairinfer.io.parse_dataset(
                self.out / f"dataset_{kind}_rep0000.json")
            counts = [obs.as_tuple() for obs in data.observations]
            checks.check_simulated(self.initial[kind], inputs.SURVEY_TIMES,
                                   data.times, counts)
            self.paths[kind, index] = np.asarray(counts, dtype=np.int64)

    def finish(self):
        for kind in (NONGENDER, GENDER):
            paths = [p for (k, _), p in self.paths.items() if k == kind]
            checks.check_means(kind, inputs.TRUTH[kind], self.initial[kind],
                               inputs.SURVEY_TIMES, paths)


WORKLOADS = {w.name: w for w in (Report, Recovery, Cohorts, Simulate)}
