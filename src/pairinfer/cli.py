"""Command-line interface.

Subcommands: fit, surface, profile, simulate, validate, report-all.  Every
subcommand but simulate translates its options into a manifest and runs
it through :func:`pairinfer.io.run_manifest`, the one analysis pipeline;
the manifest is echoed under ``config`` in ``summary.json``, so
``report-all --manifest`` replays it.  simulate writes datasets, not
reports.  This module only parses options and maps errors to exit codes:
0 success, 1 invalid option value or configuration (an output directory
that cannot be written included), 2 parse error, 3 infeasible data, 4
non-convergence of a run's fit (results are still written, with flags).
The PAIRINFER_OUT_DIR environment variable overrides every command's
``--out``; it is read here, and the library writes where it is told.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import io as pio
from .dataset import Dataset
from .errors import (ConfigError, InfeasibleDataError, PairinferError,
                     ParseError)
from .model import MODELS, PARAM_NAMES, params_from_vector
from .neldermead import DEFAULT_MAX_EVALS
from .simulate import derive_seed, gillespie_simulate

DEFAULT_OUT = "pairinfer-out"
OUTPUT_DIR_ENV = "PAIRINFER_OUT_DIR"


def _integer_option(option):
    """An argparse ``type`` whose bad values are ConfigErrors, not usage
    errors (argparse would print usage and exit 2, the parse-error code)."""
    return functools.partial(pio.to_number, what=option, convert=int)


def _count_option(option):
    """:func:`_integer_option` for a count, which must be at least 1."""
    return functools.partial(pio.to_count, what=option)


def _parse_levels(text):
    return [pio.to_number(v, "confidence level") for v in text.split(",")]


def _parse_grid_axis(text) -> list:
    """``name:min:max:n[:log]`` as the manifest axis of :func:`io.grid_axis`."""
    name, *rest = text.split(":")
    if len(rest) not in (3, 4):
        raise ConfigError(f"grid spec must be name:min:max:n[:log], got {text!r}")
    lo, hi, n = rest[:3]
    return [name, pio.to_number(lo, "grid minimum"),
            pio.to_number(hi, "grid maximum"),
            pio.to_number(n, "grid point count", int), *rest[3:]]


def _parse_times(text):
    return tuple(pio.to_number(t, "time") for t in text.split(","))


def _parse_assignments(text, names):
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in names:
            raise ConfigError(f"unknown parameter {name!r}; expected one of {names}")
        out[name] = pio.to_number(value, name)
    missing = [n for n in names if n not in out]
    if missing:
        raise ConfigError(f"missing parameters: {missing}")
    return out


def _manifest(args, runs=(), **settings):
    """The default manifest with this command's seed, budget and runs."""
    return {**pio.default_manifest(args.seed), "max_evals": args.max_evals,
            "runs": list(runs), **settings}


def _run_of(args, **sections):
    return {"model": args.model, "input": args.input or "bundled", **sections}


def _fit_manifest(args):
    return _manifest(args, [_run_of(args)], levels=list(args.levels))


def _surface_manifest(args):
    if args.grid:
        surface = {"axes": [_parse_grid_axis(g) for g in args.grid]}
    else:  # the surface report-all draws for this model
        surface = next(run["surface"] for run in pio.default_manifest()["runs"]
                       if run["model"] == args.model)
    return _manifest(args, [_run_of(args, surface=surface)])


def _profile_manifest(args):
    profiles = ({"axes": [_parse_grid_axis(g) for g in args.grid]} if args.grid
                else dict(pio.DEFAULT_PROFILES))
    return _manifest(args, [_run_of(args, profiles=profiles)])


def _validate_manifest(args):
    axes = [pio.grid_axis(_parse_grid_axis(g)) for g in args.grid or []]
    return _manifest(args, validation={
        "model": args.model,
        "grid": {axis.name: axis.values().tolist() for axis in axes},
        "replicates": args.reps, "times": _parse_times(args.times),
        "init": "bundled"})


def _report_all_manifest(args):
    manifest = (pio.load_manifest(args.manifest) if args.manifest
                else pio.default_manifest())
    if args.seed is not None:
        manifest["seed"] = args.seed
    return manifest


def _cmd_simulate(args):
    names = PARAM_NAMES[args.model]
    params = params_from_vector(
        args.model, [
            _parse_assignments(args.rates, names)[n] for n in names])
    init = (pio.initial_counts(args.model, args.init.split(":"), "--init")
            if args.init else pio.load_bundled(args.model).initial)
    times = _parse_times(args.times)
    for rep in range(args.reps):
        seed = derive_seed(args.seed, rep)
        observations = gillespie_simulate(params, init, times, seed)
        data = Dataset(times, tuple(observations))
        if rep == 0:  # only now, so that a rejected input leaves no --out
            os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out,
                            f"dataset_{args.model}_rep{rep:04d}.json")
        pio.write_dataset(data, path,
                          description=f"simulated cohort (seed {seed})")
        print(path)
    return 0


def _cmd_analysis(args):
    written, converged = pio.run_manifest(args.manifest_of(args), args.out)
    for path in written:
        print(path)
    return 0 if converged else 4


def _add_common(parser, fits=True, reads=True):
    """The options of a command; ``fits`` adds the evaluation budget and
    ``reads`` the dataset file."""
    parser.add_argument("--model", choices=tuple(MODELS), required=True,
                        help="model kind")
    if reads:
        parser.add_argument("--input",
                            help="dataset file (default: bundled cohort)")
    parser.add_argument("--out", default=DEFAULT_OUT, help="output directory")
    parser.add_argument("--seed", type=_integer_option("--seed"), default=0,
                        help="random seed")
    if fits:
        parser.add_argument("--max-evals", type=_count_option("--max-evals"),
                            default=DEFAULT_MAX_EVALS,
                            help="optimizer evaluation budget")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that.

    ``parse_args`` fills a fresh namespace on every call, so one parser
    serves any number of ``main`` calls in a process.
    """
    parser = argparse.ArgumentParser(
        prog="pairinfer",
        description="Within/between-partnership transmission-rate inference "
                    "from paired cohort counts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="maximum-likelihood fit with uncertainty")
    _add_common(p)
    p.add_argument("--levels", type=_parse_levels, default=pio.DEFAULT_LEVELS,
                   help="comma-separated confidence levels")
    p.set_defaults(func=_cmd_analysis, manifest_of=_fit_manifest)

    p = sub.add_parser("surface", help="log-likelihood grid for heatmaps")
    _add_common(p)
    p.add_argument("--grid", action="append",
                   help="axis spec name:min:max:n (twice)")
    p.set_defaults(func=_cmd_analysis, manifest_of=_surface_manifest)

    p = sub.add_parser("profile", help="fixed-slice likelihood curves")
    _add_common(p)
    p.add_argument("--grid", action="append",
                   help="axis spec name:min:max:n (default: all parameters)")
    p.set_defaults(func=_cmd_analysis, manifest_of=_profile_manifest)

    p = sub.add_parser("simulate", help="generate synthetic cohort datasets")
    _add_common(p, fits=False, reads=False)
    p.add_argument("--rates", required=True,
                   help="true rates, e.g. lambda=0.003,tau=0.056")
    p.add_argument("--init", help="initial counts ss:si:ii (or ss:is:si:ii)")
    p.add_argument("--times", default="0,2", help="snapshot times (years)")
    p.add_argument("--reps", type=_count_option("--reps"), default=1,
                   help="number of datasets")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="simulate-and-refit recovery sweep")
    _add_common(p, reads=False)
    p.add_argument("--grid", action="append",
                   help="truth axis spec name:min:max:n (one per parameter)")
    p.add_argument("--reps", type=_count_option("--reps"), default=50,
                   help="replicates per cell")
    p.add_argument("--times", default="0,2", help="observation times (years)")
    p.set_defaults(func=_cmd_analysis, manifest_of=_validate_manifest)

    p = sub.add_parser("report-all", help="run the full reproduction pipeline")
    p.add_argument("--manifest", help="manifest JSON (default: bundled runs)")
    p.add_argument("--out", default=DEFAULT_OUT, help="output directory")
    p.add_argument("--seed", type=_integer_option("--seed"), default=None,
                   help="override manifest seed")
    p.set_defaults(func=_cmd_analysis, manifest_of=_report_all_manifest)
    return parser


def _run(argv):
    args = build_parser().parse_args(argv)
    args.out = os.environ.get(OUTPUT_DIR_ENV) or args.out
    try:
        return args.func(args)
    except OSError as exc:
        # every input is read through a reader that raises ParseError, so
        # an OSError here comes from an --out that cannot be written
        raise ConfigError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    try:
        return _run(argv)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PairinferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
