"""Command-line interface.

Subcommands: fit, surface, profile, simulate, validate, report-all.  Exit
codes: 0 success, 1 invalid option value or configuration (an output
directory that cannot be written included), 2 parse error, 3 infeasible
data, 4 non-convergence (results are still written, with flags).  The
PAIRINFER_OUT_DIR environment variable overrides the output directory.
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
from .likelihood import GridAxis, GridSpec, likelihood_surface, slice_profile
from .model import (GENDER, NONGENDER, PARAM_NAMES, GenderPairCounts,
                    PairCounts, params_from_vector)
from .simulate import derive_seed, gillespie_simulate

DEFAULT_OUT = "pairinfer-out"


def _resolve_out(value):
    return os.environ.get(pio.OUTPUT_DIR_ENV) or value


def _number(text, what, convert=float):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None


def _integer_option(option):
    """An argparse ``type`` whose bad values are ConfigErrors, not usage
    errors (argparse would print usage and exit 2, the parse-error code)."""
    return functools.partial(_number, what=option, convert=int)


def _parse_levels(text):
    levels = tuple(_number(v, "confidence level") for v in text.split(","))
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ConfigError(f"confidence level {level} outside (0, 1)")
    return levels


def _parse_grid_axis(text) -> GridAxis:
    parts = text.split(":")
    if len(parts) == 5 and parts[4] == "log":
        log = True
        parts = parts[:4]
    elif len(parts) == 4:
        log = False
    else:
        raise ConfigError(f"grid spec must be name:min:max:n[:log], got {text!r}")
    name, lo, hi, n = parts
    return GridAxis(name, _number(lo, "grid minimum"),
                    _number(hi, "grid maximum"),
                    _number(n, "grid point count", int), log=log)


def _parse_times(text):
    return tuple(_number(t, "time") for t in text.split(","))


def _parse_assignments(text, names):
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in names:
            raise ConfigError(f"unknown parameter {name!r}; expected one of {names}")
        out[name] = _number(value, name)
    missing = [n for n in names if n not in out]
    if missing:
        raise ConfigError(f"missing parameters: {missing}")
    return out


def _load_input(args):
    if args.input:
        data = pio.parse_dataset(args.input)
        label = args.input
    else:
        data = pio.load_bundled(args.model)
        label = f"bundled:mwanza_{args.model}"
    if data.kind != args.model:
        raise ConfigError(f"dataset {label} is {data.kind!r}, but --model "
                          f"says {args.model!r}")
    return data, label


def _cmd_fit(args):
    data, label = _load_input(args)
    bundle = pio.analyze(data, seed=args.seed, levels=_parse_levels(args.levels),
                         max_evals=args.max_evals, input_label=label)
    out = _resolve_out(args.out)
    written = pio.emit_report(out, [bundle],
                              config={"seed": args.seed,
                                      "levels": list(_parse_levels(args.levels)),
                                      "command": "fit"})
    for path in written:
        print(path)
    return 0 if bundle.fit.converged else 4


def _cmd_surface(args):
    data, label = _load_input(args)
    axes = [_parse_grid_axis(g) for g in args.grid or []]
    if not axes and args.model == NONGENDER:
        axes = [GridAxis(*spec) for spec in pio.DEFAULT_SURFACE_AXES]
    if len(axes) != 2:
        raise ConfigError("surface needs exactly two --grid axes")
    bundle = pio.analyze(data, seed=args.seed, max_evals=args.max_evals,
                         input_label=label)
    free = {a.name for a in axes}
    fixed = {n: float(v)
             for n, v in zip(PARAM_NAMES[args.model], bundle.fit.estimates)
             if n not in free}
    surface = likelihood_surface(args.model, data, GridSpec(tuple(axes)), fixed)
    out = _resolve_out(args.out)
    key = f"{args.model}_{axes[0].name}_{axes[1].name}"
    written = pio.emit_report(out, [bundle], surfaces={key: surface},
                              config={"seed": args.seed, "levels": [],
                                      "command": "surface"})
    for path in written:
        print(path)
    return 0


def _cmd_profile(args):
    data, label = _load_input(args)
    bundle = pio.analyze(data, seed=args.seed, max_evals=args.max_evals,
                         input_label=label)
    profiles = {}
    if args.grid:
        for text in args.grid:
            axis = _parse_grid_axis(text)
            profiles[f"{args.model}_{axis.name}"] = slice_profile(
                args.model, data, axis.name, axis, bundle.fit.params)
    else:
        pio._run_profiles(bundle, {"points": 101, "half_width_sigmas": 4.0},
                          profiles)
    out = _resolve_out(args.out)
    written = pio.emit_report(out, [bundle], profiles=profiles,
                              config={"seed": args.seed, "levels": [],
                                      "command": "profile"})
    for path in written:
        print(path)
    return 0


def _cmd_simulate(args):
    names = PARAM_NAMES[args.model]
    params = params_from_vector(
        args.model, [
            _parse_assignments(args.rates, names)[n] for n in names])
    if args.init:
        builder, states = ((PairCounts, 3) if args.model == NONGENDER
                           else (GenderPairCounts, 4))
        fields = [_number(v, "initial count") for v in args.init.split(":")]
        if len(fields) != states:
            raise ConfigError(f"--init needs {states} counts separated by "
                              f"':', got {args.init!r}")
        init = builder(*fields)
    else:
        init = pio.load_bundled(args.model).initial
    times = _parse_times(args.times)
    pio.check_replicates(args.reps, "--reps")
    out = _resolve_out(args.out)
    os.makedirs(out, exist_ok=True)
    for rep in range(args.reps):
        seed = derive_seed(args.seed, rep)
        observations = gillespie_simulate(params, init, times, seed)
        data = Dataset(times, tuple(observations))
        path = os.path.join(out, f"dataset_{args.model}_rep{rep:04d}.json")
        pio.write_dataset(data, path,
                          description=f"simulated cohort (seed {seed})")
        print(path)
    return 0


def _cmd_validate(args):
    names = PARAM_NAMES[args.model]
    axes = {a.name: a for a in (_parse_grid_axis(g) for g in args.grid or [])}
    missing = [n for n in names if n not in axes]
    if missing:
        raise ConfigError(f"validate needs a --grid for each parameter; "
                          f"missing {missing}")
    grid_cfg = {n: [float(v) for v in axes[n].values()] for n in names}
    pio.check_replicates(args.reps, "--reps")
    config = {"model": args.model, "grid": grid_cfg,
              "replicates": args.reps,
              "times": list(_parse_times(args.times)),
              "init": "bundled"}
    kind, records = pio._run_validation(config, args.seed, args.max_evals)
    out = _resolve_out(args.out)
    written = pio.emit_report(out, [], validation=records, validation_kind=kind,
                              config={"seed": args.seed, "levels": [],
                                      "command": "validate",
                                      "validation": config})
    for path in written:
        print(path)
    return 0


def _cmd_report_all(args):
    manifest = (pio.load_manifest(args.manifest) if args.manifest
                else pio.default_manifest())
    if args.seed is not None:
        manifest["seed"] = args.seed
    out = _resolve_out(args.out)
    written = pio.run_manifest(manifest, out)
    for path in written:
        print(path)
    return 0


def _add_common(parser, model_required=True):
    parser.add_argument("--model", choices=(NONGENDER, GENDER),
                        required=model_required, help="model kind")
    parser.add_argument("--input", help="dataset file (default: bundled cohort)")
    parser.add_argument("--out", default=DEFAULT_OUT, help="output directory")
    parser.add_argument("--seed", type=_integer_option("--seed"), default=0,
                        help="random seed")
    parser.add_argument("--max-evals", type=_integer_option("--max-evals"),
                        default=50_000,
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
    p.add_argument("--levels", default="0.67,0.95",
                   help="comma-separated confidence levels")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("surface", help="log-likelihood grid for heatmaps")
    _add_common(p)
    p.add_argument("--grid", action="append",
                   help="axis spec name:min:max:n (twice)")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("profile", help="fixed-slice likelihood curves")
    _add_common(p)
    p.add_argument("--grid", action="append",
                   help="axis spec name:min:max:n (default: all parameters)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("simulate", help="generate synthetic cohort datasets")
    _add_common(p)
    p.add_argument("--rates", required=True,
                   help="true rates, e.g. lambda=0.003,tau=0.056")
    p.add_argument("--init", help="initial counts ss:si:ii (or ss:is:si:ii)")
    p.add_argument("--times", default="0,2", help="snapshot times (years)")
    p.add_argument("--reps", type=_integer_option("--reps"), default=1,
                   help="number of datasets")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="simulate-and-refit recovery sweep")
    _add_common(p)
    p.add_argument("--grid", action="append",
                   help="truth axis spec name:min:max:n (one per parameter)")
    p.add_argument("--reps", type=_integer_option("--reps"), default=50,
                   help="replicates per cell")
    p.add_argument("--times", default="0,2", help="observation times (years)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report-all", help="run the full reproduction pipeline")
    p.add_argument("--manifest", help="manifest JSON (default: bundled runs)")
    p.add_argument("--out", default=DEFAULT_OUT, help="output directory")
    p.add_argument("--seed", type=_integer_option("--seed"), default=None,
                   help="override manifest seed")
    p.set_defaults(func=_cmd_report_all)
    return parser


def _run(argv):
    args = build_parser().parse_args(argv)
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
