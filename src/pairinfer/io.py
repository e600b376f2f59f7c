"""The analysis pipeline, report emission and dataset writing.

Datasets are read in :mod:`pairinfer.dataset`; ``parse_dataset`` and
``load_bundled`` are imported here too, so the pipeline reads through them.
Reports comprise plain delimited artifacts (estimates, infections, surfaces,
profiles, ellipse point lists, validation records), one human-readable
``report.txt`` and one machine-readable ``summary.json``.  Every number in
the report is printed with six significant digits and also appears in the
summary; all outputs are byte-reproducible for identical inputs and seeds.
The estimates and infections tables are built once, from the rounded
summary, and rendered both as CSV files and as ``report.txt`` sections.

:func:`run_manifest` is the one analysis pipeline: every analysis command
of the CLI is a manifest run by it.  It checks every manifest value (a bad
one is a ConfigError) and reads every dataset before the first fit, and
echoes the manifest under ``config`` in ``summary.json``, so the echo
replays the run.

Every output file, report artifact or dataset, goes through one writer,
:func:`write_file`, which rewrites a file in place: it opens without
``O_TRUNC``, writes the new bytes over the old ones and then truncates at
their end.  Truncating a file that holds data to zero and writing it again
makes ext4 (``auto_da_alloc``, its default) start writeback at ``close()``:
rewriting the default report's 21 files (221 kB) that way took about
1,050 us on the ext4 virtual disk of a 2-CPU KVM host, in place about
120 us.  Rerunning a command into the same output directory, the usual
case, rewrites every file.  Neither way is atomic.  A crash while
rewriting in place can leave a torn file, old bytes behind new ones, where
the truncating write could leave a truncated one; either way the artifact
set can be partial.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, load_bundled, parse_dataset, require_two_times
from .errors import ConfigError, DomainError, NoRootError, ParseError
from .estimators import (AnalyticEstimate, analytic_estimates, cfa,
                         gender_theta_approx, lambda_hat_closed_form)
from .inference import (EllipseSpec, FitResult, InfectionsTable, ellipse_points,
                        fit_mle, infections_per_year)
from .likelihood import GridAxis, GridSpec, likelihood_surface, slice_profile
from .model import (GENDER, MODELS, NONGENDER, PARAM_NAMES, NonGenderParams,
                    model_spec, params_from_vector)
from .neldermead import DEFAULT_MAX_EVALS
from .simulate import snapshot_times, validation_sweep

# Analysis defaults of a manifest and of the commands that build one.
DEFAULT_SEED = 20260801
DEFAULT_LEVELS = (0.67, 0.95)
DEFAULT_SURFACE_AXES = (("lambda", 0.0005, 0.01, 101),
                        ("tau", 0.001, 0.3, 101))
# a surface for each pair of parameters, or a profile of each parameter,
# over this many points within this many standard errors of the estimate
DEFAULT_PAIRWISE_SURFACES = {"pairwise_points": 41, "half_width_sigmas": 3.0}
DEFAULT_PROFILES = {"points": 101, "half_width_sigmas": 4.0}

# Values reported by the original published analysis of the bundled Mwanza
# cohort.  They feed the discrepancy section of reports, where this engine's
# arithmetic disagrees with a published number and both are shown, and the
# infections table at the published rates.
REFERENCE_MWANZA = {
    "phi_hat": 16.95,
    "tau_analytical": 0.054,
    "nongender_mle": {"lambda": 0.003, "tau": 0.056},
    "nongender_infections": {"internal": 2.48},
    "gender_mle": {"lambda_m": 0.004, "lambda_f": 0.002,
                   "tau_mf": 0.047, "tau_fm": 0.068},
}


def fmt(x):
    """Render a number with six significant digits."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def _round6(value):
    """Recursively round floats to six significant digits for the summary."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "-inf" if v < 0 else "inf"
        return float(f"{v:.6g}")
    if isinstance(value, dict):
        return {str(k): _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_round6(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# dataset writing

def _count_value(x):
    return int(x) if float(x) == int(x) else float(x)


def dataset_to_document(data: Dataset, description=None) -> dict:
    keys = MODELS[data.kind].state_labels
    doc = {"schema_version": 1, "model": data.kind}
    if description:
        doc["description"] = description
    doc["observations"] = [
        {"time": _count_value(t),
         "counts": {k: _count_value(v) for k, v in zip(keys, counts)}}
        for t, counts in zip(data.times, data.observations)
    ]
    return doc


def write_file(path, text):
    """Write ``text`` as the whole UTF-8 content of ``path``, in place.

    The file is created (mode 0o666 less the umask, as ``Path.write_text``
    creates it) or overwritten from its start, then truncated at the end of
    the new bytes; see the module docstring for why it is not truncated
    first.  Every output file of the package is written here.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_dataset(data: Dataset, path, description=None):
    """Write a dataset as a canonical JSON document (round-trips exactly)."""
    path = Path(path)
    doc = dataset_to_document(data, description)
    write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# analysis pipeline

@dataclass
class AnalysisBundle:
    """Everything one model's report section needs."""

    kind: str
    input_label: str
    data: Dataset
    fit: FitResult
    infections: InfectionsTable
    analytic: AnalyticEstimate | None = None
    cfa_params: NonGenderParams | None = None
    theta_approx: tuple | None = None
    infections_at_reference: InfectionsTable | None = None
    is_bundled: bool = False


def analyze(data: Dataset, seed=0, levels=DEFAULT_LEVELS,
            max_evals=DEFAULT_MAX_EVALS, input_label="dataset") -> AnalysisBundle:
    """Run the full pipeline for one dataset: analytics, warm start, MLE."""
    kind = data.kind
    analytic = None
    cfa_params = None
    theta = None
    # analytics are supplementary: degrade to absent on degenerate counts.
    # Their warnings, a negative lambda_hat or a CFA rate clamped to 0, stay
    # off stderr: summary.json records them as analytical.lambda_negative
    # and the cfa rates, and the gendered call clamps lambda_hat itself.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if kind == NONGENDER and len(data.times) == 2:
            try:
                analytic = analytic_estimates(data)
            except (DomainError, NoRootError):
                analytic = None
            try:
                cfa_params = cfa(data)
            except DomainError:
                cfa_params = None
        elif kind == GENDER and len(data.times) == 2:
            try:
                theta = gender_theta_approx(
                    data, 0.5, max(lambda_hat_closed_form(data), 0.0))
            except DomainError:
                theta = None
    fit = fit_mle(kind, data, seed=seed, levels=levels, max_evals=max_evals)
    infections = infections_per_year(fit.params, data.initial)
    bundled = data == load_bundled(kind)
    at_reference = None
    if bundled:
        ref = REFERENCE_MWANZA[f"{kind}_mle"]
        ref_params = params_from_vector(kind, [ref[n] for n in PARAM_NAMES[kind]])
        at_reference = infections_per_year(ref_params, data.initial)
    return AnalysisBundle(
        kind=kind,
        input_label=input_label,
        data=data,
        fit=fit,
        infections=infections,
        analytic=analytic,
        cfa_params=cfa_params,
        theta_approx=theta,
        infections_at_reference=at_reference,
        is_bundled=bundled,
    )


def _discrepancies(bundle: AnalysisBundle):
    """Known conflicts between this engine's arithmetic and published values."""
    if not (bundle.is_bundled and bundle.kind == NONGENDER and bundle.analytic):
        return []
    analytic = bundle.analytic
    internal = next(r for r in bundle.infections.rows if r.label == "internal")
    out = [
        {
            "id": "phi-series-arithmetic",
            "description": ("the printed phi series formula evaluates to a "
                            "different value than the published one on the "
                            "same counts"),
            "computed": analytic.phi.phi_hat if analytic.phi else None,
            "published": REFERENCE_MWANZA["phi_hat"],
        },
        {
            "id": "tau-reparam-inconsistency",
            "description": ("tau = (2*phi+1)*lambda (methods) and tau = "
                            "(phi+1)*lambda (results) disagree; the published "
                            "analytical tau used the latter; the root-solved "
                            "tau is authoritative here"),
            "computed_two_phi_plus_one": (analytic.phi.tau_two_phi_plus_one
                                          if analytic.phi else None),
            "computed_phi_plus_one": (analytic.phi.tau_phi_plus_one
                                      if analytic.phi else None),
            "computed_rootsolve": analytic.tau_hat_rootsolve,
            "published": REFERENCE_MWANZA["tau_analytical"],
        },
        {
            "id": "internal-infections-cell",
            "description": ("tau_hat * N_SI^0 disagrees with the published "
                            "internal infections/year cell"),
            "computed": internal.infections,
            "published": REFERENCE_MWANZA["nongender_infections"]["internal"],
        },
    ]
    return out


# ---------------------------------------------------------------------------
# emission

def _interval_key(level):
    return f"{level:g}"


def _bundle_summary(bundle: AnalysisBundle) -> dict:
    names = PARAM_NAMES[bundle.kind]
    fit = bundle.fit
    est = {n: float(v) for n, v in zip(names, fit.estimates)}
    se = {n: (float(v) if fit.std_errors is not None else None)
          for n, v in zip(names, fit.std_errors
                          if fit.std_errors is not None else [None] * len(names))}
    intervals = {}
    for level, pairs in fit.intervals.items():
        intervals[_interval_key(level)] = {
            n: (None if p is None else [p[0], p[1]])
            for n, p in zip(names, pairs)
        }
    summary = {
        "input": bundle.input_label,
        "model": bundle.kind,
        "n_pairs": bundle.data.n,
        "times": list(bundle.data.times),
        "observations": [list(obs) for obs in bundle.data.observations],
        "mle": {
            "estimates": est,
            "loglik": fit.loglik_at_max,
            "std_errors": se,
            "std_errors_joint": (None if fit.std_errors_joint is None
                                 else {n: float(v) for n, v in
                                       zip(names, fit.std_errors_joint)}),
            "std_errors_conditional": {n: float(v) for n, v in
                                       zip(names, fit.std_errors_conditional)},
            "se_method": fit.se_method,
            "intervals": intervals,
            "converged": fit.converged,
            "iterations": fit.iterations,
            "warm_start": {n: float(v) for n, v in zip(names, fit.warm_start)},
            "warm_start_source": fit.warm_start_source,
            "identifiability": fit.identifiability,
            "condition_number": fit.condition_number,
            "saturated_gap": fit.saturated_gap,
            "seed": fit.seed,
        },
        "infections": _infections_summary(bundle.infections),
    }
    if fit.ridge_ends is not None:
        # the saturated ridge in closed form: its ends in lambda_m
        summary["mle"]["ridge_ends"] = [dict(zip(names, end))
                                        for end in fit.ridge_ends]
    if bundle.analytic:
        a = bundle.analytic
        summary["analytical"] = {
            "lambda_hat": a.lambda_hat,
            "lambda_negative": a.lambda_hat < 0,
            "tau_hat_rootsolve": a.tau_hat_rootsolve,
            "phi_hat": a.phi.phi_hat if a.phi else None,
            "tau_from_two_phi_plus_one": (a.phi.tau_two_phi_plus_one
                                          if a.phi else None),
            "tau_from_phi_plus_one": a.phi.tau_phi_plus_one if a.phi else None,
            "phi_fallback": a.phi is None,
        }
    if bundle.cfa_params:
        summary["cfa"] = {"lambda": bundle.cfa_params.lam,
                          "tau": bundle.cfa_params.tau}
    if bundle.theta_approx:
        summary["theta_approx"] = {"q": 0.5,
                                   "theta_m": bundle.theta_approx[0],
                                   "theta_f": bundle.theta_approx[1]}
    if bundle.infections_at_reference:
        summary["infections_at_published_rates"] = _infections_summary(
            bundle.infections_at_reference)
    return summary


def _infections_summary(table: InfectionsTable) -> dict:
    return {
        "rows": [{"route": r.label, "rate": r.rate, "infections": r.infections,
                  "per_1000": r.per_thousand} for r in table.rows],
        "total_infections": table.total_infections,
        "total_per_1000": table.total_per_thousand,
        # the total sums rates over different denominators
        "per_1000_total_inconsistent": True,
    }


def _estimates_rows(kind, model) -> list:
    """The estimates table of a rounded model summary: a header, then one
    row per parameter; None is a blank cell.  Interval columns follow the
    manifest's level order."""
    mle = model["mle"]
    analytical = model.get("analytical", {})
    by_name = {"lambda": analytical.get("lambda_hat"),
               "tau": analytical.get("tau_hat_rootsolve")}
    cfa_vals = model.get("cfa", {})
    rows = [["parameter", "analytical", "cfa", "mle", "std_error"]
            + [f"ci{key}_{end}" for key in mle["intervals"]
               for end in ("lo", "hi")]]
    for name in PARAM_NAMES[kind]:
        rows.append([name, by_name.get(name), cfa_vals.get(name),
                     mle["estimates"][name], mle["std_errors"][name]]
                    + [v for ci in mle["intervals"].values()
                       for v in (ci[name] or (None, None))])
    return rows


_TOTAL_NOTE = "per-1000 total sums rates over different denominators"
_INFECTIONS_HEADER = ["route", "rate", "infections", "per_1000"]


def _infections_rows(infections) -> list:
    """The rows of a rounded infections summary: one per route, then the
    total; None is a blank cell."""
    return ([[r["route"], r["rate"], r["infections"], r["per_1000"]]
             for r in infections["rows"]]
            + [["TOTAL", None, infections["total_infections"],
                infections["total_per_1000"]]])


def _cells(row, blank) -> list:
    """A table row as text: labels as they are, numbers by :func:`fmt`,
    ``blank`` for None."""
    return [blank if c is None else c if isinstance(c, str) else fmt(c)
            for c in row]


def _csv_table(rows) -> str:
    return "".join(",".join(_cells(row, "")) + "\n" for row in rows)


def _text_table(rows) -> list:
    return ["  " + " | ".join(_cells(row, "-")) for row in rows]


def _infections_csv(infections) -> str:
    *routes, total = _infections_rows(infections)
    return _csv_table([["route", "rate", "infections_per_year",
                        "per_1000_per_year", "note"]]
                      + [row + [None] for row in routes]
                      + [total + [_TOTAL_NOTE]])


def _float_rows(header, rows) -> str:
    """CSV text of ``header`` and rows of floats, one ``%`` format per row.

    ``"%.6g" % v`` is :func:`fmt` of every float, so the text is the same
    as joining ``fmt`` of each value, at a fraction of the cost.
    """
    rows = np.asarray(rows, dtype=float)
    row_format = ",".join(["%.6g"] * rows.shape[1])
    lines = [header] + [row_format % tuple(row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def _surface_csv(surface) -> str:
    ax0, ax1 = surface.axis_names
    v0, v1 = surface.axis_values
    header = ",".join([f"{ax0}\\{ax1}"] + [fmt(v) for v in v1])
    return _float_rows(header, np.column_stack([v0, surface.normalized]))


def _profile_csv(curve) -> str:
    return _float_rows(f"{curve.name},loglik",
                       np.column_stack([curve.values, curve.loglik]))


def _ellipse_csv(names, points) -> str:
    return _float_rows(",".join(names), points)


def _validation_csv(records, names) -> str:
    header = (["grid_index", "replicate", "seed"]
              + [f"true_{n}" for n in names] + [f"est_{n}" for n in names]
              + ["converged"])
    return _csv_table([header] + [
        [rec.grid_index, rec.replicate, rec.seed, *rec.true_params,
         *rec.estimates, rec.converged] for rec in records])


def _report_text(summary) -> str:
    out = []
    push = out.append
    push("pairinfer report")
    push("================")
    push(f"seed: {summary['config']['seed']}")
    push("levels: " + ", ".join(fmt(v) for v in summary["config"]["levels"]))
    push("")
    model_order = [k for k in MODELS if k in summary["models"]]
    for kind in model_order:
        model = summary["models"][kind]
        push(f"model: {kind}")
        push(f"input: {model['input']}")
        push(f"pairs: N = {fmt(model['n_pairs'])}; observation times (years): "
             + ", ".join(fmt(t) for t in model["times"]))
        push("")
        push("estimates (rates per year)")
        out += _text_table(_estimates_rows(kind, model))
        push("")
        push(f"log-likelihood at maximum: {fmt(model['mle']['loglik'])}")
        evaluations = model["mle"]["iterations"]
        push(f"converged: {str(model['mle']['converged']).lower()} "
             f"({evaluations} evaluation{'' if evaluations == 1 else 's'}); "
             f"warm start: {model['mle']['warm_start_source']}")
        push(f"uncertainty method: {model['mle']['se_method']}; "
             f"identifiability: {model['mle']['identifiability']}")
        if model["mle"]["identifiability"] == "saturated-ridge":
            push("  note: the model fits the data exactly with more parameters "
                 "than the data has free dimensions; the maximum is a flat")
            push("  ridge, the joint covariance is rank-deficient along it, and "
                 "intervals use conditional (held-fixed) standard errors.")
            if "ridge_ends" in model["mle"]:
                low, high = (end["lambda_m"] for end in model["mle"]["ridge_ends"])
                push(f"  ridge: lambda_m from {fmt(low)} to {fmt(high)}, with "
                     "lambda_m + lambda_f fixed; the reported point is its "
                     "lambda_m midpoint.")
        push("")
        push("expected infections per year at the MLE")
        out += _text_table([_INFECTIONS_HEADER,
                            *_infections_rows(model["infections"])])
        out[-1] += f"  [{_TOTAL_NOTE}]"
        if "infections_at_published_rates" in model:
            push("")
            push("expected infections per year at the published rates")
            out += _text_table([_INFECTIONS_HEADER, *_infections_rows(
                model["infections_at_published_rates"])[:-1]])
        push("")
    if summary["discrepancies"]:
        push("known discrepancies vs the published analysis of this cohort")
        for d in summary["discrepancies"]:
            if d["id"] == "phi-series-arithmetic":
                push(f"  - phi series estimator: printed formula gives "
                     f"{fmt(d['computed'])} on these counts; published value "
                     f"{fmt(d['published'])} (both retained).")
            elif d["id"] == "tau-reparam-inconsistency":
                push(f"  - tau reparameterization: (2*phi+1)*lambda gives "
                     f"{fmt(d['computed_two_phi_plus_one'])}, (phi+1)*lambda "
                     f"gives {fmt(d['computed_phi_plus_one'])}; published "
                     f"analytical tau {fmt(d['published'])}; root-solved tau "
                     f"{fmt(d['computed_rootsolve'])} is authoritative.")
            elif d["id"] == "internal-infections-cell":
                push(f"  - internal infections/year: computed "
                     f"{fmt(d['computed'])}; published table prints "
                     f"{fmt(d['published'])}.")
        push("")
    if summary["validation"]["present"]:
        push(f"validation records: {summary['validation']['n_records']} "
             f"(file {summary['validation']['file']})")
    else:
        push("validation: not run (no validation configuration)")
    push("")
    return "\n".join(out)


def emit_report(out_dir, bundles, surfaces=None, profiles=None, ellipses=None,
                validation=None, validation_kind=None, config=None) -> list:
    """Write all report artifacts; returns the written paths.

    All content is assembled in memory first, so an unusable output
    directory raises before anything (in particular the summary) is
    partially written.  Output is byte-identical across runs with the same
    inputs and seeds.  Each file is rewritten in place by
    :func:`write_file`, which skips the flush that ext4 starts when a
    truncated file is closed; a crash part way can leave a torn file and a
    partial artifact set (see the module docstring).
    """
    out_dir = Path(out_dir)
    files = {}
    summary = {
        "tool": "pairinfer",
        "config": dict(config or {"seed": None, "levels": []}),
        "models": {},
        "discrepancies": [],
        "validation": {"present": False,
                       "note": "no validation configuration supplied"},
    }
    for bundle in bundles:
        summary["models"][bundle.kind] = _bundle_summary(bundle)
        summary["discrepancies"].extend(_discrepancies(bundle))
    for name, surface in (surfaces or {}).items():
        files[f"surface_{name}.csv"] = _surface_csv(surface)
    for name, curve in (profiles or {}).items():
        files[f"profile_{name}.csv"] = _profile_csv(curve)
    for name, (axis_names, points) in (ellipses or {}).items():
        files[f"ellipse_{name}.csv"] = _ellipse_csv(axis_names, points)
    if validation is not None:
        names = PARAM_NAMES[validation_kind]
        files["validation.csv"] = _validation_csv(validation, names)
        summary["validation"] = {"present": True, "n_records": len(validation),
                                 "file": "validation.csv"}
    summary = _round6(summary)
    for kind, model in summary["models"].items():
        files[f"estimates_{kind}.csv"] = _csv_table(_estimates_rows(kind, model))
        files[f"infections_{kind}.csv"] = _infections_csv(model["infections"])
    files["report.txt"] = _report_text(summary)
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    if out_dir.exists() and not out_dir.is_dir():
        raise IOError(f"output path {out_dir} exists and is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise IOError(f"output directory {out_dir} is not writable")
    written = []
    for name in sorted(files):
        path = out_dir / name
        write_file(path, files[name])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# manifest-driven pipeline (one command reproduces every report artifact)

def default_manifest(seed=DEFAULT_SEED) -> dict:
    """The configuration used by ``report-all`` when no manifest is given."""
    return {
        "seed": seed,
        "levels": list(DEFAULT_LEVELS),
        "max_evals": DEFAULT_MAX_EVALS,
        "runs": [
            {"model": NONGENDER, "input": "bundled",
             "surface": {"axes": [list(a) for a in DEFAULT_SURFACE_AXES]},
             "profiles": dict(DEFAULT_PROFILES), "ellipses": True},
            {"model": GENDER, "input": "bundled",
             "surface": dict(DEFAULT_PAIRWISE_SURFACES),
             "profiles": dict(DEFAULT_PROFILES), "ellipses": True},
        ],
        "validation": None,
    }


def load_manifest(path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict) or "runs" not in doc:
        raise ParseError(f"{path}: manifest must be an object with a 'runs' list")
    base = default_manifest()
    base.update(doc)
    return base


def _profile_axis(name, estimate, sigma, points, half_width_sigmas):
    if sigma is None or not math.isfinite(sigma) or sigma <= 0:
        half = max(abs(estimate), 1e-3)
    else:
        half = half_width_sigmas * sigma
    lo = max(estimate - half, 0.0)
    hi = estimate + half
    if hi <= lo:
        hi = lo + 1e-3
    return GridAxis(name, lo, hi, points)


def _section_axes(bundle: AnalysisBundle, section):
    """The axes of a checked surface or profiles section for this fit."""
    axes, points, half_width = section
    if axes is not None:
        return axes
    fit = bundle.fit
    se = (fit.std_errors if fit.std_errors is not None
          else [None] * len(fit.estimates))
    return [_profile_axis(name, float(est), None if s is None else float(s),
                          points, half_width)
            for name, est, s in zip(PARAM_NAMES[bundle.kind], fit.estimates, se)]


def _run_surfaces(bundle: AnalysisBundle, section, surfaces):
    if section is None:
        return
    kind = bundle.kind
    for ax0, ax1 in itertools.combinations(_section_axes(bundle, section), 2):
        fixed = {n: float(v) for n, v in zip(PARAM_NAMES[kind], bundle.fit.estimates)
                 if n not in (ax0.name, ax1.name)}
        surfaces[f"{kind}_{ax0.name}_{ax1.name}"] = likelihood_surface(
            kind, bundle.data, GridSpec((ax0, ax1)), fixed)


def _run_profiles(bundle: AnalysisBundle, section, profiles):
    if section is None:
        return
    for axis in _section_axes(bundle, section):
        profiles[f"{bundle.kind}_{axis.name}"] = slice_profile(
            bundle.kind, bundle.data, axis, bundle.fit.params)


def _run_ellipses(bundle: AnalysisBundle, enabled, levels, ellipses):
    """Confidence ellipses from 2x2 covariance blocks.

    Skipped (with the reason recorded in the fit diagnostics) when the joint
    covariance is unavailable or the fit sits on a saturated ridge.
    """
    if not enabled:
        return
    fit = bundle.fit
    if fit.covariance is None or fit.identifiability != "ok":
        return
    names = PARAM_NAMES[bundle.kind]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            mean = (float(fit.estimates[i]), float(fit.estimates[j]))
            cov = ((fit.covariance[i, i], fit.covariance[i, j]),
                   (fit.covariance[j, i], fit.covariance[j, j]))
            for level in levels:
                spec = EllipseSpec(mean=mean, covariance=cov, level=level)
                key = f"{bundle.kind}_{names[i]}_{names[j]}_{int(round(level * 100))}"
                ellipses[key] = ((names[i], names[j]), ellipse_points(spec))


def to_number(value, what, convert=float):
    """``convert(value)``, a value it rejects being a ConfigError on ``what``.

    Serves option text and manifest values alike.
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def to_count(value, what):
    """A count of at least 1 (replicates, an evaluation budget), wherever
    it comes from; anything else is a ConfigError."""
    count = to_number(value, what, int)
    if count < 1:
        raise ConfigError(f"{what} must be >= 1, got {count}")
    return count


def _listed(value, what) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return list(value)


def _numbers(value, what, convert=float) -> list:
    return [to_number(v, what, convert) for v in _listed(value, what)]


def initial_counts(kind, values, what):
    """The initial pair counts of model ``kind`` from the list ``values``,
    one number per state; a bad list is a ConfigError on ``what``, and a
    negative count a DomainError."""
    spec = model_spec(kind)
    counts = _numbers(values, what)
    if len(counts) != len(spec.state_labels):
        raise ConfigError(f"{what} needs the {len(spec.state_labels)} counts "
                          f"{','.join(spec.state_labels)}, got {values!r}")
    return spec.counts_type(*counts)


def grid_axis(spec, what="grid axis") -> GridAxis:
    """The axis ``[name, min, max, n]``, log-spaced with ``"log"`` appended.

    Manifest surface and profile axes take this form, and so does the
    command line's ``--grid name:min:max:n[:log]`` once split.
    """
    if not (isinstance(spec, (list, tuple)) and len(spec) in (4, 5)
            and tuple(spec[4:]) in ((), ("log",))):
        raise ConfigError(f'{what} must be [name, min, max, n] or '
                          f'[name, min, max, n, "log"], got {spec!r}')
    name, lo, hi, n = spec[:4]
    return GridAxis(name, to_number(lo, f"{what} minimum"),
                    to_number(hi, f"{what} maximum"),
                    to_number(n, f"{what} point count", int),
                    log=len(spec) == 5)


def _grid_section(run, key, defaults):
    """A run's ``surface`` or ``profiles`` section, or None if it has none.

    The section is ``(axes, points, half_width)``: its explicit axes, or
    None for ``points``-point axes spanning ``half_width`` standard
    errors either side of each estimate.  ``defaults`` gives the points
    (under its first key) and half width a section leaves out.
    """
    section = run.get(key)
    if not section:
        return None
    if not isinstance(section, dict):
        raise ConfigError(f"manifest {key} must be an object, got {section!r}")
    if "axes" in section:
        return ([grid_axis(a, f"{key} axis")
                 for a in _listed(section["axes"], f"{key} axes")], None, None)
    points_key = next(iter(defaults))
    settings = {**defaults, **section}
    return (None, to_count(settings[points_key], f"{key} {points_key}"),
            to_number(settings["half_width_sigmas"], f"{key} half_width_sigmas"))


def _run_settings(run):
    """A manifest run, checked and loaded: (data, label, surface, profiles,
    ellipses)."""
    if not isinstance(run, dict):
        raise ConfigError(f"manifest run must be an object, got {run!r}")
    kind = model_spec(run.get("model")).kind
    source = run.get("input", "bundled")
    if source == "bundled":
        data, label = load_bundled(kind), f"bundled:mwanza_{kind}"
    elif isinstance(source, str):
        data, label = parse_dataset(source), source
    else:
        raise ConfigError(f"manifest input must be a path, got {source!r}")
    if data.kind != kind:
        raise ConfigError(f"dataset {label} has kind {data.kind!r}, "
                          f"manifest says {kind!r}")
    surface = _grid_section(run, "surface", DEFAULT_PAIRWISE_SURFACES)
    if surface and surface[0] is not None and len(surface[0]) != 2:
        raise ConfigError(f"a surface needs exactly two axes, got "
                          f"{len(surface[0])}")
    return (data, label, surface,
            _grid_section(run, "profiles", DEFAULT_PROFILES),
            bool(run.get("ellipses")))


def _validation_settings(config):
    """A manifest's validation section, checked: (kind, truth grid,
    initial counts, times, replicates)."""
    if not isinstance(config, dict):
        raise ConfigError(f"manifest validation must be an object, got {config!r}")
    spec = model_spec(config.get("model", NONGENDER))
    grid = config.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("validation configuration needs a 'grid' mapping")
    unknown = sorted(set(grid) - set(spec.param_names))
    if unknown:
        raise ConfigError(f"validation grid has unknown parameters {unknown}")
    value_lists = []
    for name in spec.param_names:
        if name not in grid:
            raise ConfigError(f"validation grid missing parameter {name!r}")
        value_lists.append(_numbers(grid[name], f"validation grid {name}"))
    # row-major cartesian product in parameter order
    truth_grid = [params_from_vector(spec.kind, v)
                  for v in itertools.product(*value_lists)]
    times = tuple(snapshot_times(_numbers(config.get("times", (0.0, 2.0)),
                                          "validation times")))
    require_two_times(times)
    init = config.get("init", "bundled")
    init = (load_bundled(spec.kind).initial if init == "bundled"
            else initial_counts(spec.kind, init, "validation init"))
    reps = to_count(config.get("replicates", 50), "validation replicates")
    return spec.kind, truth_grid, init, times, reps


def run_manifest(manifest, out_dir) -> tuple:
    """Execute a manifest end to end and emit every artifact into out_dir.

    Every value is checked, and every dataset read, before the first fit.
    Returns the written paths and whether every run's fit converged; the
    validation replicates carry their own flags in ``validation.csv``.
    """
    seed = to_number(manifest.get("seed", DEFAULT_SEED), "manifest seed", int)
    levels = tuple(_numbers(manifest.get("levels", DEFAULT_LEVELS),
                            "manifest levels"))
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ConfigError(f"manifest level {level} outside (0, 1)")
    keys = [_interval_key(level) for level in levels]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"manifest levels {list(levels)} repeat an interval "
                          f"key: levels must differ in 6 significant digits")
    max_evals = to_count(manifest.get("max_evals", DEFAULT_MAX_EVALS),
                         "manifest max_evals")
    runs = [_run_settings(run)
            for run in _listed(manifest.get("runs"), "manifest runs")]
    validation = (_validation_settings(manifest["validation"])
                  if manifest.get("validation") else None)
    bundles = []
    surfaces = {}
    profiles = {}
    ellipses = {}
    for data, label, surface, profile, show_ellipses in runs:
        bundle = analyze(data, seed=seed, levels=levels, max_evals=max_evals,
                         input_label=label)
        bundles.append(bundle)
        _run_surfaces(bundle, surface, surfaces)
        _run_profiles(bundle, profile, profiles)
        _run_ellipses(bundle, show_ellipses, levels, ellipses)
    records = validation_kind = None
    if validation:
        validation_kind, truth_grid, init, times, reps = validation

        def fit(fit_kind, data, fit_seed):
            # recovery records carry point estimates only: no information stage
            return fit_mle(fit_kind, data, seed=fit_seed, max_evals=max_evals,
                           uncertainty=False)

        records = validation_sweep(truth_grid, init, times, reps, seed, fit)
    config_echo = {"seed": seed, "levels": list(levels),
                   "max_evals": max_evals, "manifest": manifest}
    written = emit_report(out_dir, bundles, surfaces=surfaces,
                          profiles=profiles, ellipses=ellipses,
                          validation=records, validation_kind=validation_kind,
                          config=config_echo)
    return written, all(bundle.fit.converged for bundle in bundles)
