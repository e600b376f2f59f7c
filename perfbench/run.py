"""pairinfer benchmark: one closed-loop client, one process, four workloads.

    python3 perfbench/run.py --workload report --seed 1 --seconds 28 --trace 0

``--workload all`` runs the four workloads one after another.  Run from the
root of a source checkout; pairinfer is imported from src/.  Times are
reported at reference speed (see reference.py); raw wall times are printed
in the lines before the result.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
untraced and traced and prints the per-layer metrics, measured with spans
around the calls into each module, and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from reference import NUMPY_IMPORT_S, REFERENCE_MS, Reference  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup_s is the median of this many fresh interpreters, spread evenly over
# the run, after one more that fills the bytecode cache.
SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import pairinfer; "
              "pairinfer.load_bundled('nongender'); pairinfer.load_bundled('gender')")
IMPORT_CODE = "import numpy"


def import_program():
    """Import pairinfer from this checkout's src/, or exit with an error."""
    try:
        import pairinfer
        import pairinfer.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pairinfer from {SRC}: {exc}")
    if SRC not in Path(pairinfer.__file__).resolve().parents:
        sys.exit(f"perfbench: pairinfer imported from {pairinfer.__file__}, "
                 f"not from {SRC}")


def launch(code) -> float:
    """Wall time for a fresh interpreter to run ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup():
    """One set-up launch, which imports pairinfer and loads both bundled
    cohorts: (wall seconds, scale to reference speed).  The scale comes
    from a launch that only imports numpy, right after it on the same CPU.
    """
    seconds = launch(SETUP_CODE)
    return seconds, NUMPY_IMPORT_S / launch(IMPORT_CODE)


class Loop:
    """Runs whole rounds until the time is up; times only the program.

    The reference kernel runs after every item, outside the timed
    interval.  Each item's time is kept with the clock time it ended at.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = Reference()
        # Latencies of completed items, keyed by traced, then by position in
        # the round; a position gets the same kind of input every round.
        self.latency = {False: {}, True: {}}
        self.setups = []        # set-up launches: (seconds, scale)
        self.attempted = 0
        self.failures = []      # messages of failed items
        self.items = 0

    def run_round(self, index, traced, warmup=False):
        for position, item in enumerate(self.workload.round(index)[:1 if warmup else None]):
            self.items += 1
            if traced:
                self.tracer.install(self.items)
            start = time.perf_counter()
            try:
                result = item.call()
            except (Exception, SystemExit) as exc:  # the item failed; go on
                result, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
            if error is None:
                try:
                    item.check(result)
                except checks.CheckFailure as exc:
                    error = exc
            sample = (elapsed, start + elapsed)
            self.reference.measure()
            if warmup:
                continue
            self.attempted += 1
            if error is None:
                self.latency[traced].setdefault(position, []).append(sample)
            else:
                self.failures.append(f"item {self.items}: "
                                     f"{type(error).__name__}: {error}")

    def run(self, seconds, trace):
        """With ``trace``, every round runs twice, untraced and traced, in
        alternating order, so both modes measure the same inputs.  Without
        it, set-up launches go between rounds, evenly over the run."""
        for _ in range(10):  # so that the first items have a window too
            self.reference.measure()
        self.run_round(0, traced=False, warmup=True)
        if not trace:
            measure_setup()  # fills the bytecode cache
        start = time.perf_counter()
        index = 1
        while (index <= 2 or time.perf_counter() < start + seconds
               or (not trace and len(self.setups) < SETUP_REPEATS)):
            due = len(self.setups) * seconds / SETUP_REPEATS
            if (not trace and len(self.setups) < SETUP_REPEATS
                    and time.perf_counter() - start >= due):
                self.setups.append(measure_setup())
            modes = ((False, True) if index % 2 else (True, False)) if trace else (False,)
            for traced in modes:
                self.run_round(index, traced)
            index += 1

    def scaled(self, samples) -> list:
        """Times of (seconds, clock time) samples at reference speed."""
        return [t * self.reference.scale(at) for t, at in samples]


def latencies(loop, traced=False, raw=False) -> list:
    """Item latencies in seconds, at reference speed unless ``raw``."""
    samples = [s for times in loop.latency[traced].values() for s in times]
    return [t for t, _ in samples] if raw else loop.scaled(samples)


def items_per_s(loop, traced=False):
    """Items per second of program time for a round of median-cost items.

    Each position in a round has its own input mix, so a round of typical
    cost takes the sum of the positions' median latencies.  Unlike a total
    over the run, this does not swing with the few fits that run to the
    evaluation budget.
    """
    medians = [statistics.median(loop.scaled(t)) for t in loop.latency[traced].values()]
    return len(medians) / sum(medians)


def end_to_end(loop):
    ms = np.asarray(latencies(loop)) * 1e3
    return {
        "items_per_s": items_per_s(loop),
        "item_p50_ms": float(np.percentile(ms, 50)),
        "item_p90_ms": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(t * scale for t, scale in loop.setups),
    }


def per_layer(loop, table: SpanTable):
    """Per-item totals and ratios over the spans of the traced items."""
    items = len(latencies(loop, traced=True))

    def per_item(value):
        return value / items if items else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    ll = ("likelihood.log_likelihood_nongender", "likelihood.log_likelihood_gender")
    solve = ("model.solve_nongender", "model.solve_gender")
    evals = sum(table.calls(k) for k in ll)
    eval_s = sum(table.seconds(k) for k in ll)
    events = table.total("simulate.gillespie_simulate", "a")
    gillespie_s = table.seconds("simulate.gillespie_simulate")
    nm_calls = table.calls("neldermead.minimize_simplex")
    fits_with_se = table.total("inference.fit_mle", "b")
    return {
        "likelihood.surface_ms": per_item(table.seconds("likelihood.likelihood_surface") * 1e3),
        "likelihood.surface_cells": per_item(table.total("likelihood.likelihood_surface", "a")),
        "likelihood.profile_ms": per_item(table.seconds("likelihood.slice_profile") * 1e3),
        "likelihood.eval_calls": per_item(evals),
        "likelihood.us_per_eval": ratio(eval_s * 1e6, evals),
        "likelihood.neg_inf_ratio": ratio(sum(table.total(k, "a") for k in ll), evals),
        "model.solve_calls": per_item(sum(table.calls(k) for k in solve)),
        "model.solve_ms": per_item(sum(table.seconds(k) for k in solve) * 1e3),
        "neldermead.calls": per_item(nm_calls),
        "neldermead.evals_per_call": ratio(table.total("neldermead.minimize_simplex", "a"), nm_calls),
        "neldermead.self_ms": per_item(table.seconds("neldermead.minimize_simplex", own=True) * 1e3),
        "neldermead.converged_ratio": ratio(table.total("neldermead.minimize_simplex", "b"), nm_calls),
        "inference.fit_self_ms": per_item(table.seconds("inference.fit_mle", own=True) * 1e3),
        "inference.hessian_ms": per_item(table.seconds("inference.hessian_fd") * 1e3),
        "inference.hessian_evals": per_item(sum(table.within(k, "inference.hessian_fd") for k in ll)),
        "inference.se_unavailable_ratio": ratio(table.total("inference.fit_mle", "a"), fits_with_se),
        "estimators.analytic_ms": per_item(table.seconds("estimators.analytic_estimates") * 1e3),
        "estimators.cfa_ms": per_item(table.seconds("estimators.cfa") * 1e3),
        "simulate.gillespie_ms": per_item(gillespie_s * 1e3),
        "simulate.events": per_item(events),
        "simulate.events_per_s": ratio(events, gillespie_s),
        "io.parse_ms": per_item(table.seconds("io.parse_dataset") * 1e3),
        "io.emit_ms": per_item(table.seconds("io.emit_report") * 1e3),
        "io.write_dataset_ms": per_item(table.seconds("io.write_dataset") * 1e3),
        "io.bytes_written": per_item(table.total("io.emit_report", "b")
                                     + table.total("io.write_dataset", "b")),
        "io.files_written": per_item(table.total("io.emit_report", "a")
                                     + table.total("io.write_dataset", "a")),
        "io.run_manifest_self_ms": per_item(table.seconds("io.run_manifest", own=True) * 1e3),
        "io.analyze_self_ms": per_item(table.seconds("io.analyze", own=True) * 1e3),
        "cli.main_self_ms": per_item(table.seconds("cli.main", own=True) * 1e3),
        "trace_overhead_ratio": items_per_s(loop, traced=True) / items_per_s(loop),
    }


def program_counts(workload):
    """Exact counts read from the program's own outputs."""
    evals = list(getattr(workload, "evals", {}).values())
    se = list(getattr(workload, "se_available", {}).values())
    return {"optimizer_evals_per_item": statistics.fmean(evals) if evals else 0.0,
            "se_available_ratio": statistics.fmean(se) if se else 0.0}


def run(workload_name, seed, seconds, trace, work):
    """Run one workload; returns (result object, lines to print first)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    workload = WORKLOADS[workload_name](seed, work)
    tracer = Tracer() if trace else None
    loop = Loop(workload, tracer)
    loop.run(seconds, trace=bool(trace))
    try:
        workload.finish()
        run_failure = None
    except checks.CheckFailure as exc:
        run_failure = str(exc)

    counts = program_counts(workload)
    raw_ms = np.asarray(latencies(loop, bool(trace), raw=True)) * 1e3
    lines = [f"environment: nproc={os.cpu_count()} numpy={np.__version__} "
             f"python={platform.python_version()} cpus={sorted(os.sched_getaffinity(0))}",
             f"workload: {workload_name} seed={seed} seconds={seconds} "
             f"trace={trace} items={loop.attempted} "
             f"untraced={len(latencies(loop))} traced={len(latencies(loop, True))}",
             f"reference: kernel median {statistics.median(loop.reference.ms):.4g} ms "
             f"(REFERENCE_MS {REFERENCE_MS:g}) over {len(loop.reference.ms)} runs; "
             f"raw item p50 {np.percentile(raw_ms, 50):.6g} ms, "
             f"p90 {np.percentile(raw_ms, 90):.6g} ms"]
    if loop.setups:
        lines.append(f"reference: raw setup median "
                     f"{statistics.median(t for t, _ in loop.setups):.6g} s")
    lines += [f"info: {k} = {v}" for k, v in workload.info.items()]
    failed = len(loop.failures)
    lines.append(f"fail_ratio = {failed / loop.attempted:.6g} ({failed} of "
                 f"{loop.attempted} items)")
    lines += [f"failure: {f}" for f in loop.failures[:20]]
    if run_failure:
        lines.append(f"failure: run-level check: {run_failure}")
    lines += [f"count: {k} = {v:.6g}" for k, v in counts.items()]

    if trace:
        spans = tracer.spans()
        table = SpanTable(spans, tracer.names)
        silent = [layer for layer in workload.layers if table.layer_calls(layer) == 0]
        if silent:
            sys.exit(f"perfbench: declared layers recorded no calls on "
                     f"{workload_name}: {silent}")
        tracer.save(WORK / f"spans-{workload_name}.npy", spans)
        values = per_layer(loop, table)
        values.update(counts)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = end_to_end(loop)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        samples = (f"n={len(loop.setups)} interpreters" if name == "setup_s"
                   else f"n={len(latencies(loop, bool(trace)))} items")
        lines.append(f"metric: {name} = {m['value']:.6g} {m['unit']} ({samples})")
    result = {"correct": run_failure is None and failed == 0, "attempted": loop.attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh process of its own."""
    code = 0
    for name in WORKLOADS:
        code = max(code, subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # One CPU for the benchmark, its set-up interpreters and the reference
    # kernel, so that all three run at the same host speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
