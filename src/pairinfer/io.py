"""Dataset ingestion, the analysis pipeline, and report emission.

Datasets are accepted in two formats: a JSON document with a schema version,
the model kind and a list of {time, counts} records, or a delimited table
(comma or tab) with a ``time,SS,SI,II`` or ``time,SS,IS,SI,II`` header.
Reports comprise plain delimited artifacts (estimates, infections, surfaces,
profiles, ellipse point lists, validation records), one human-readable
``report.txt`` and one machine-readable ``summary.json``.  Every number in
the report is printed with six significant digits and also appears in the
summary; all outputs are byte-reproducible for identical inputs and seeds.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DomainError, NoRootError, ParseError
from .estimators import (AnalyticEstimate, analytic_estimates, cfa,
                         gender_theta_approx, lambda_hat_closed_form)
from .inference import (EllipseSpec, FitResult, InfectionsTable, ellipse_points,
                        fit_mle, infections_per_year)
from .likelihood import GridAxis, GridSpec, likelihood_surface, slice_profile
from .model import (GENDER, MODELS, NONGENDER, PARAM_NAMES, NonGenderParams,
                    model_spec, params_from_vector)
from .simulate import validation_sweep

OUTPUT_DIR_ENV = "PAIRINFER_OUT_DIR"

# Values reported by the original published analysis of the bundled Mwanza
# cohort.  They feed the discrepancy section of reports: where this engine's
# arithmetic disagrees with a published number, both are shown.
REFERENCE_MWANZA = {
    "phi_hat": 16.95,
    "tau_analytical": 0.054,
    "nongender_mle": {"lambda": 0.003, "tau": 0.056},
    "nongender_std_errors": {"lambda": 0.001, "tau": 0.046},
    "nongender_infections": {"external": 10.6, "internal": 2.48,
                             "total": 13.1, "total_per_thousand": 59.1},
    "gender_mle": {"lambda_m": 0.004, "lambda_f": 0.002,
                   "tau_mf": 0.047, "tau_fm": 0.068},
    "gender_intervals_95": {"lambda_m": (0.0006, 0.0073),
                            "lambda_f": (0.0, 0.0051),
                            "tau_mf": (0.0, 0.1819),
                            "tau_fm": (0.0, 0.2271)},
    "gender_infections": {"external_m": 7.05, "external_f": 3.52,
                          "internal_mf": 1.03, "internal_fm": 1.45},
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
# dataset parsing and writing

def _parse_json_dataset(text, source):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: expected a JSON object")
    version = doc.get("schema_version")
    if version != 1:
        raise ParseError(f"{source}: field 'schema_version' must be 1, "
                         f"got {version!r}")
    model = doc.get("model")
    if not (isinstance(model, str) and model in MODELS):
        raise ParseError(f"{source}: field 'model' must be 'nongender' or "
                         f"'gender', got {model!r}")
    spec = MODELS[model]
    observations = doc.get("observations")
    if not isinstance(observations, list) or not observations:
        raise ParseError(f"{source}: field 'observations' must be a "
                         "non-empty list")
    times = []
    counts = []
    for k, entry in enumerate(observations):
        where = f"{source}: observations[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        if "time" not in entry:
            raise ParseError(f"{where}: missing field 'time'")
        if "counts" not in entry or not isinstance(entry["counts"], dict):
            raise ParseError(f"{where}: missing or invalid field 'counts'")
        # bool is a subclass of int: reject true/false before float() reads 1/0
        if isinstance(entry["time"], bool):
            raise ParseError(f"{where}: field 'time' must be a number")
        try:
            times.append(float(entry["time"]))
        except (TypeError, ValueError):
            raise ParseError(f"{where}: field 'time' must be a number") from None
        for key, val in entry["counts"].items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ParseError(f"{where}: counts.{key} must be a number")
        if set(entry["counts"]) != set(spec.state_labels):
            raise ParseError(f"{where}: counts of model '{model}' must have "
                             f"keys {','.join(spec.state_labels)}, got "
                             f"{sorted(entry['counts'])}")
        try:
            counts.append(spec.counts_type(*(entry["counts"][key]
                                             for key in spec.state_labels)))
        except DomainError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return Dataset(tuple(times), tuple(counts))
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def _parse_table_dataset(text, source):
    delimiter = "\t" if "\t" in text.splitlines()[0] else ","
    reader = csv.reader(_io.StringIO(text), delimiter=delimiter)
    rows = [(k + 1, [cell.strip() for cell in row])
            for k, row in enumerate(reader)
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{source}: empty table")
    header_line, header = rows[0]
    header_up = [h.upper() for h in header]
    for spec in MODELS.values():
        if header_up == ["TIME", *spec.state_labels]:
            builder, width = spec.counts_type, len(header_up)
            break
    else:
        raise ParseError(f"{source}: line {header_line}: header must be "
                         "time,SS,SI,II or time,SS,IS,SI,II")
    times = []
    counts = []
    for line, row in rows[1:]:
        if len(row) != width:
            raise ParseError(f"{source}: line {line}: expected {width} "
                             f"columns, got {len(row)}")
        values = []
        for name, cell in zip(header, row):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(f"{source}: line {line}: field {name!r} is "
                                 f"not a number: {cell!r}") from None
        times.append(values[0])
        try:
            counts.append(builder(*values[1:]))
        except DomainError as exc:
            raise ParseError(f"{source}: line {line}: {exc}") from exc
    try:
        return Dataset(tuple(times), tuple(counts))
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def parse_dataset(path) -> Dataset:
    """Parse a dataset file (JSON document or delimited table)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    if not text.strip():
        raise ParseError(f"{path}: file is empty")
    if text.lstrip().startswith("{"):
        return _parse_json_dataset(text, str(path))
    return _parse_table_dataset(text, str(path))


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
        for t, counts in zip(data.times, data.counts)
    ]
    return doc


def write_dataset(data: Dataset, path, description=None):
    """Write a dataset as a canonical JSON document (round-trips exactly)."""
    path = Path(path)
    doc = dataset_to_document(data, description)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_bundled(kind) -> Dataset:
    """Load the bundled Mwanza cohort dataset for the given model kind."""
    model_spec(kind)  # an unknown kind is a ConfigError
    name = f"mwanza_{kind}.json"
    text = resources.files("pairinfer.data").joinpath(name).read_text()
    return _parse_json_dataset(text, f"bundled:{name}")


def _is_bundled_counts(data: Dataset) -> bool:
    try:
        bundled = load_bundled(data.kind)
    except Exception:  # pragma: no cover - bundled data always present
        return False
    return (data.times == bundled.times
            and data.observations == bundled.observations)


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
    levels: tuple = (0.67, 0.95)


def analyze(data: Dataset, seed=0, levels=(0.67, 0.95), max_evals=50_000,
            input_label="dataset") -> AnalysisBundle:
    """Run the full pipeline for one dataset: analytics, warm start, MLE."""
    kind = data.kind
    analytic = None
    cfa_params = None
    theta = None
    # analytics are supplementary: degrade to absent on degenerate counts
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
    bundled = _is_bundled_counts(data)
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
        levels=tuple(levels),
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
        "observations": [list(obs.as_tuple()) for obs in bundle.data.observations],
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
    if bundle.analytic:
        a = bundle.analytic
        summary["analytical"] = {
            "lambda_hat": a.lambda_hat,
            "lambda_negative": a.lambda_negative,
            "tau_hat_rootsolve": a.tau_hat_rootsolve,
            "phi_hat": a.phi.phi_hat if a.phi else None,
            "tau_from_two_phi_plus_one": (a.phi.tau_two_phi_plus_one
                                          if a.phi else None),
            "tau_from_phi_plus_one": a.phi.tau_phi_plus_one if a.phi else None,
            "phi_fallback": a.phi_fallback,
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
        "per_1000_total_inconsistent": table.per_thousand_total_inconsistent,
    }


def _estimates_csv(bundle: AnalysisBundle, summary) -> str:
    names = PARAM_NAMES[bundle.kind]
    levels = [_interval_key(level) for level in bundle.fit.intervals]
    header = ["parameter", "analytical", "cfa", "mle", "std_error"]
    for key in levels:
        header += [f"ci{key}_lo", f"ci{key}_hi"]
    analytical = {}
    if bundle.analytic:
        analytical = {"lambda": bundle.analytic.lambda_hat,
                      "tau": bundle.analytic.tau_hat_rootsolve}
    cfa_vals = {}
    if bundle.cfa_params:
        cfa_vals = {"lambda": bundle.cfa_params.lam, "tau": bundle.cfa_params.tau}
    lines = [",".join(header)]
    mle = summary["mle"]
    for name in names:
        se = mle["std_errors"][name]
        row = [name,
               fmt(analytical[name]) if name in analytical else "",
               fmt(cfa_vals[name]) if name in cfa_vals else "",
               fmt(mle["estimates"][name]),
               fmt(se) if se is not None and not math.isnan(se) else ""]
        for key in levels:
            ci = mle["intervals"][key][name]
            row += ([fmt(ci[0]), fmt(ci[1])] if ci is not None else ["", ""])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _infections_csv(summary_inf) -> str:
    lines = ["route,rate,infections_per_year,per_1000_per_year,note"]
    for row in summary_inf["rows"]:
        lines.append(",".join([row["route"], fmt(row["rate"]),
                               fmt(row["infections"]), fmt(row["per_1000"]), ""]))
    lines.append(",".join(["TOTAL", "", fmt(summary_inf["total_infections"]),
                           fmt(summary_inf["total_per_1000"]),
                           "per-1000 total sums rates over different denominators"]))
    return "\n".join(lines) + "\n"


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
    lines = [",".join(header)]
    for rec in records:
        lines.append(",".join(
            [str(rec.grid_index), str(rec.replicate), str(rec.seed)]
            + [fmt(v) for v in rec.true_params]
            + [fmt(v) for v in rec.estimates]
            + [str(rec.converged).lower()]))
    return "\n".join(lines) + "\n"


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
        names = PARAM_NAMES[kind]
        push(f"model: {kind}")
        push(f"input: {model['input']}")
        push(f"pairs: N = {fmt(model['n_pairs'])}; observation times (years): "
             + ", ".join(fmt(t) for t in model["times"]))
        push("")
        push("estimates (rates per year)")
        levels = sorted(model["mle"]["intervals"])
        header = ["parameter", "analytical", "cfa", "mle", "std_error"]
        for key in levels:
            header += [f"ci{key}_lo", f"ci{key}_hi"]
        push("  " + " | ".join(header))
        analytical = model.get("analytical", {})
        analytical_by_name = {"lambda": analytical.get("lambda_hat"),
                              "tau": analytical.get("tau_hat_rootsolve")}
        cfa_vals = model.get("cfa", {})
        for name in names:
            row = [name]
            a = analytical_by_name.get(name)
            row.append(fmt(a) if a is not None else "-")
            c = cfa_vals.get(name)
            row.append(fmt(c) if c is not None else "-")
            row.append(fmt(model["mle"]["estimates"][name]))
            se = model["mle"]["std_errors"][name]
            row.append(fmt(se) if se is not None else "-")
            for key in levels:
                ci = model["mle"]["intervals"][key][name]
                row += ([fmt(ci[0]), fmt(ci[1])] if ci is not None else ["-", "-"])
            push("  " + " | ".join(row))
        push("")
        push(f"log-likelihood at maximum: {fmt(model['mle']['loglik'])}")
        push(f"converged: {str(model['mle']['converged']).lower()} "
             f"({model['mle']['iterations']} evaluations); warm start: "
             f"{model['mle']['warm_start_source']}")
        push(f"uncertainty method: {model['mle']['se_method']}; "
             f"identifiability: {model['mle']['identifiability']}")
        if model["mle"]["identifiability"] == "saturated-ridge":
            push("  note: the model fits the data exactly with more parameters "
                 "than the data has free dimensions; the maximum is a flat")
            push("  ridge, the joint covariance is rank-deficient along it, and "
                 "intervals use conditional (held-fixed) standard errors.")
        push("")
        push("expected infections per year at the MLE")
        push("  route | rate | infections | per_1000")
        for row in model["infections"]["rows"]:
            push("  " + " | ".join([row["route"], fmt(row["rate"]),
                                    fmt(row["infections"]), fmt(row["per_1000"])]))
        push("  TOTAL | - | " + fmt(model["infections"]["total_infections"])
             + " | " + fmt(model["infections"]["total_per_1000"])
             + "  [per-1000 total sums rates over different denominators]")
        if "infections_at_published_rates" in model:
            push("")
            push("expected infections per year at the published rates")
            push("  route | rate | infections | per_1000")
            for row in model["infections_at_published_rates"]["rows"]:
                push("  " + " | ".join([row["route"], fmt(row["rate"]),
                                        fmt(row["infections"]),
                                        fmt(row["per_1000"])]))
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
    inputs and seeds.
    """
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or out_dir)
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
        model_summary = _bundle_summary(bundle)
        summary["models"][bundle.kind] = model_summary
        summary["discrepancies"].extend(_discrepancies(bundle))
        files[f"estimates_{bundle.kind}.csv"] = _estimates_csv(bundle, model_summary)
        files[f"infections_{bundle.kind}.csv"] = _infections_csv(
            model_summary["infections"])
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
        path.write_text(files[name])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# manifest-driven pipeline (one command reproduces every report artifact)

DEFAULT_SEED = 20260801

DEFAULT_SURFACE_AXES = (("lambda", 0.0005, 0.01, 101),
                        ("tau", 0.001, 0.3, 101))


def default_manifest(seed=DEFAULT_SEED) -> dict:
    """The configuration used by ``report-all`` when no manifest is given."""
    return {
        "seed": seed,
        "levels": [0.67, 0.95],
        "max_evals": 50_000,
        "runs": [
            {"model": NONGENDER, "input": "bundled",
             "surface": {"axes": [list(a) for a in DEFAULT_SURFACE_AXES]},
             "profiles": {"points": 101, "half_width_sigmas": 4.0},
             "ellipses": True},
            {"model": GENDER, "input": "bundled",
             "surface": {"pairwise_points": 41, "half_width_sigmas": 3.0},
             "profiles": {"points": 101, "half_width_sigmas": 4.0},
             "ellipses": True},
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


def _run_surfaces(bundle: AnalysisBundle, config, surfaces):
    if not config:
        return
    kind = bundle.kind
    names = PARAM_NAMES[kind]
    fit = bundle.fit
    if "axes" in config:
        ax0, ax1 = (GridAxis(a[0], a[1], a[2], int(a[3]))
                    for a in config["axes"])
        fixed = {n: float(v) for n, v in zip(names, fit.estimates)
                 if n not in (ax0.name, ax1.name)}
        result = likelihood_surface(kind, bundle.data,
                                    GridSpec((ax0, ax1)), fixed)
        surfaces[f"{kind}_{ax0.name}_{ax1.name}"] = result
        return
    points = int(config.get("pairwise_points", 41))
    hw = float(config.get("half_width_sigmas", 3.0))
    se = fit.std_errors if fit.std_errors is not None else [None] * len(names)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            ax0 = _profile_axis(names[i], float(fit.estimates[i]),
                                None if se[i] is None else float(se[i]),
                                points, hw)
            ax1 = _profile_axis(names[j], float(fit.estimates[j]),
                                None if se[j] is None else float(se[j]),
                                points, hw)
            fixed = {n: float(v) for n, v in zip(names, fit.estimates)
                     if n not in (ax0.name, ax1.name)}
            result = likelihood_surface(kind, bundle.data,
                                        GridSpec((ax0, ax1)), fixed)
            surfaces[f"{kind}_{ax0.name}_{ax1.name}"] = result


def _run_profiles(bundle: AnalysisBundle, config, profiles):
    if not config:
        return
    kind = bundle.kind
    names = PARAM_NAMES[kind]
    fit = bundle.fit
    points = int(config.get("points", 101))
    hw = float(config.get("half_width_sigmas", 4.0))
    se = fit.std_errors if fit.std_errors is not None else [None] * len(names)
    for k, name in enumerate(names):
        axis = _profile_axis(name, float(fit.estimates[k]),
                             None if se[k] is None else float(se[k]),
                             points, hw)
        profiles[f"{kind}_{name}"] = slice_profile(kind, bundle.data, name,
                                                   axis, fit.params)


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


def _run_validation(config, master_seed, max_evals):
    kind = config.get("model", NONGENDER)
    spec = model_spec(kind)
    names = spec.param_names
    grid_cfg = config.get("grid")
    if not grid_cfg:
        raise ConfigError("validation configuration needs a 'grid' mapping")
    value_lists = []
    for name in names:
        if name not in grid_cfg:
            raise ConfigError(f"validation grid missing parameter {name!r}")
        value_lists.append([float(v) for v in grid_cfg[name]])
    truth_grid = []

    # row-major cartesian product in parameter order
    def build(prefix, remaining):
        if not remaining:
            truth_grid.append(params_from_vector(kind, prefix))
            return
        for v in remaining[0]:
            build(prefix + [v], remaining[1:])
    build([], value_lists)
    times = tuple(float(t) for t in config.get("times", (0.0, 2.0)))
    init_cfg = config.get("init", "bundled")
    if init_cfg == "bundled":
        init = load_bundled(kind).initial
    else:
        init = spec.counts_type(*init_cfg)
    reps = to_count(config.get("replicates", 50), "validation replicates")

    def fit(fit_kind, data, seed):
        # recovery records carry point estimates only: no information stage
        return fit_mle(fit_kind, data, seed=seed, max_evals=max_evals,
                       uncertainty=False)

    records = validation_sweep(truth_grid, init, times, reps, master_seed, fit)
    return kind, records


def run_manifest(manifest, out_dir) -> list:
    """Execute a manifest end to end and emit every artifact into out_dir."""
    seed = to_number(manifest.get("seed", DEFAULT_SEED), "manifest seed", int)
    levels = tuple(to_number(v, "manifest level")
                   for v in manifest.get("levels", (0.67, 0.95)))
    max_evals = to_count(manifest.get("max_evals", 50_000), "manifest max_evals")
    bundles = []
    surfaces = {}
    profiles = {}
    ellipses = {}
    for run in manifest["runs"]:
        kind = run["model"]
        if kind not in PARAM_NAMES:
            raise ConfigError(f"unknown model kind {kind!r} in manifest")
        source = run.get("input", "bundled")
        if source == "bundled":
            data = load_bundled(kind)
            label = f"bundled:mwanza_{kind}"
        else:
            data = parse_dataset(source)
            label = str(source)
        if data.kind != kind:
            raise ConfigError(f"dataset {label} has kind {data.kind!r}, "
                              f"manifest says {kind!r}")
        bundle = analyze(data, seed=seed, levels=levels, max_evals=max_evals,
                         input_label=label)
        bundles.append(bundle)
        _run_surfaces(bundle, run.get("surface"), surfaces)
        _run_profiles(bundle, run.get("profiles"), profiles)
        _run_ellipses(bundle, run.get("ellipses"), levels, ellipses)
    validation = None
    validation_kind = None
    if manifest.get("validation"):
        validation_kind, validation = _run_validation(
            manifest["validation"], seed, max_evals)
    config_echo = {"seed": seed, "levels": list(levels),
                   "max_evals": max_evals, "manifest": manifest}
    return emit_report(out_dir, bundles, surfaces=surfaces, profiles=profiles,
                       ellipses=ellipses, validation=validation,
                       validation_kind=validation_kind, config=config_echo)
