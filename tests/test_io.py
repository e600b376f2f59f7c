"""Dataset files, report emission, CLI behavior and exit codes."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinfer.cli
import pairinfer.io
from pairinfer import (Dataset, GridAxis, GridSpec, ParseError, analyze,
                       emit_report, fit_mle, likelihood_surface, load_bundled,
                       nongender_dataset, parse_dataset, write_dataset)
from pairinfer.cli import main
from pairinfer.io import fmt


def test_bundled_nongender_counts(mwanza):
    assert mwanza.times == (0.0, 2.0)
    assert mwanza.n == 1802
    assert mwanza.observations[0].as_tuple() == (1742, 43, 17)
    assert mwanza.observations[1].as_tuple() == (1721, 58, 23)


def test_bundled_gender_counts(mwanza_gender):
    assert mwanza_gender.observations[0].as_tuple() == (1742, 22, 21, 17)
    assert mwanza_gender.observations[1].as_tuple() == (1721, 33, 25, 23)
    assert mwanza_gender.n == 1802


def test_json_round_trip(tmp_path, mwanza):
    path = tmp_path / "cohort.json"
    write_dataset(mwanza, path)
    again = parse_dataset(path)
    assert again == mwanza
    # writing the re-parsed dataset reproduces the same document
    path2 = tmp_path / "cohort2.json"
    write_dataset(again, path2)
    assert path.read_text() == path2.read_text()


def test_csv_parse_comma_and_tab(tmp_path):
    csv_path = tmp_path / "cohort.csv"
    csv_path.write_text("time,SS,SI,II\n0,100,30,20\n2,95,32,23\n")
    data = parse_dataset(csv_path)
    assert data.kind == "nongender"
    assert data.observations[1].as_tuple() == (95.0, 32.0, 23.0)

    tsv_path = tmp_path / "cohort.tsv"
    tsv_path.write_text("time\tSS\tIS\tSI\tII\n0\t90\t4\t3\t3\n1\t85\t6\t5\t4\n")
    gdata = parse_dataset(tsv_path)
    assert gdata.kind == "gender"
    assert gdata.observations[0].as_tuple() == (90.0, 4.0, 3.0, 3.0)


def test_parse_errors_name_the_problem(tmp_path):
    bad_sum = tmp_path / "bad_sum.csv"
    bad_sum.write_text("time,SS,SI,II\n0,100,30,20\n2,95,32,26\n")
    with pytest.raises(ParseError, match="time 2"):
        parse_dataset(bad_sum)

    single = tmp_path / "single.json"
    single.write_text(json.dumps({
        "schema_version": 1, "model": "nongender",
        "observations": [{"time": 0, "counts": {"SS": 10, "SI": 5, "II": 1}}],
    }))
    with pytest.raises(ParseError, match="at least two observation times"):
        parse_dataset(single)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("t,SS,SI,II\n0,100,30,20\n")
    with pytest.raises(ParseError, match="header"):
        parse_dataset(bad_header)

    bad_value = tmp_path / "bad_value.csv"
    bad_value.write_text("time,SS,SI,II\n0,100,thirty,20\n2,95,32,23\n")
    with pytest.raises(ParseError, match="line 2.*SI"):
        parse_dataset(bad_value)

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_dataset(bad_json)

    bad_version = tmp_path / "bad_version.json"
    bad_version.write_text(json.dumps({
        "schema_version": 2, "model": "nongender",
        "observations": [{"time": 0, "counts": {"SS": 1, "SI": 0, "II": 0}},
                         {"time": 1, "counts": {"SS": 1, "SI": 0, "II": 0}}]}))
    with pytest.raises(ParseError, match="schema_version"):
        parse_dataset(bad_version)

    bad_keys = tmp_path / "bad_keys.json"
    bad_keys.write_text(json.dumps({
        "schema_version": 1, "model": "nongender",
        "observations": [{"time": 0, "counts": {"SS": 1, "XX": 0, "II": 0}},
                         {"time": 1, "counts": {"SS": 1, "XX": 0, "II": 0}}]}))
    with pytest.raises(ParseError, match=r"observations\[0\]"):
        parse_dataset(bad_keys)

    decreasing = tmp_path / "decreasing.csv"
    decreasing.write_text("time,SS,SI,II\n2,95,32,23\n0,100,30,20\n")
    with pytest.raises(ParseError, match="increase"):
        parse_dataset(decreasing)


def test_emit_report_files_and_consistency(tmp_path, mwanza):
    bundle = analyze(mwanza, seed=1, levels=(0.67, 0.95),
                     input_label="bundled:mwanza_nongender")
    out = tmp_path / "out"
    written = emit_report(out, [bundle], config={"seed": 1, "levels": [0.67, 0.95]})
    names = {p.name for p in written}
    assert {"report.txt", "summary.json", "estimates_nongender.csv",
            "infections_nongender.csv"} <= names

    report = (out / "report.txt").read_text()
    summary = json.loads((out / "summary.json").read_text())
    model = summary["models"]["nongender"]
    # every reported number also lives in the summary (same 6-digit rendering)
    for name, value in model["mle"]["estimates"].items():
        assert fmt(value) in report
    for row in model["infections"]["rows"]:
        assert fmt(row["infections"]) in report
        assert fmt(row["per_1000"]) in report
    for entry in summary["discrepancies"]:
        for key in ("computed", "published"):
            if key in entry and entry[key] is not None:
                assert fmt(entry[key]) in report
    # discrepancy section carries the three known conflicts with both values
    ids = {d["id"] for d in summary["discrepancies"]}
    assert ids == {"phi-series-arithmetic", "tau-reparam-inconsistency",
                   "internal-infections-cell"}
    assert "16.95" in report and "2.48" in report
    assert summary["validation"] == {
        "present": False, "note": "no validation configuration supplied"}
    assert "validation.csv" not in names


def test_emit_report_byte_identical(tmp_path, mwanza):
    bundle = analyze(mwanza, seed=5, input_label="x")
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_report(a, [bundle], config={"seed": 5, "levels": [0.67, 0.95]})
    emit_report(b, [bundle], config={"seed": 5, "levels": [0.67, 0.95]})
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_emit_report_output_path_is_a_file(tmp_path, mwanza):
    bundle = analyze(mwanza, seed=1, input_label="x")
    blocker = tmp_path / "blocked"
    blocker.write_text("in the way")
    with pytest.raises(IOError):
        emit_report(blocker, [bundle], config={"seed": 1, "levels": []})
    assert blocker.read_text() == "in the way"  # nothing was written


def test_cli_fit_bundled(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["fit", "--model", "nongender", "--out", str(out), "--seed", "3"])
    assert code == 0
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    est = summary["models"]["nongender"]["mle"]["estimates"]
    assert abs(est["lambda"] - 0.003) < 5e-4
    assert abs(est["tau"] - 0.056) < 5e-3


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,SS,SI,II\n0,10,5,1\n")
    code = main(["fit", "--model", "nongender", "--input", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_infeasible_exit_3(tmp_path):
    doomed = tmp_path / "doomed.csv"
    doomed.write_text("time,SS,SI,II\n0,0,60,40\n1,10,50,40\n")
    code = main(["fit", "--model", "nongender", "--input", str(doomed),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_infeasible_fit_stops_early(tmp_path, monkeypatch):
    # every point is impossible, so every simplex vertex is +inf: each
    # start shrinks to the diameter tolerance and stops, where it once ran
    # to the 50,000-evaluation budget
    import pairinfer.inference as inference

    calls = []
    real = inference.log_likelihood

    def counting(kind, params, data):
        calls.append(1)
        return real(kind, params, data)

    monkeypatch.setattr(inference, "log_likelihood", counting)
    doomed = tmp_path / "doomed.csv"
    doomed.write_text("time,SS,SI,II\n0,0,60,40\n1,10,50,40\n")
    code = main(["fit", "--model", "nongender", "--input", str(doomed),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert 0 < len(calls) <= 1_000


def test_cli_nonconvergence_exit_4(tmp_path):
    # three times: no closed-form start, so 20 evaluations cannot converge
    cohort = tmp_path / "three_times.csv"
    cohort.write_text("time,SS,SI,II\n0,1500,250,52\n1.5,1460,268,74\n"
                      "4,1400,281,121\n")
    out = tmp_path / "shortrun"
    code = main(["fit", "--model", "nongender", "--input", str(cohort),
                 "--out", str(out), "--max-evals", "20", "--seed", "1"])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["models"]["nongender"]["mle"]["converged"] is False


def test_ridge_fit_reports_no_joint_uncertainty(tmp_path):
    # the bundled gendered two-time fit lies on a ridge of exact fits: its
    # joint information is singular, so joint standard errors and a
    # condition number would be set by rounding
    out = tmp_path / "ridge"
    assert main(["fit", "--model", "gender", "--out", str(out)]) == 0
    mle = json.loads((out / "summary.json").read_text())[
        "models"]["gender"]["mle"]
    assert mle["identifiability"] == "saturated-ridge"
    assert mle["std_errors_joint"] is None
    assert mle["condition_number"] is None
    assert mle["se_method"] == "conditional-curvature"
    assert mle["std_errors"] == mle["std_errors_conditional"]
    assert all(v > 0 for v in mle["std_errors_conditional"].values())


def test_cli_env_var_overrides_out_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_target"
    monkeypatch.setenv("PAIRINFER_OUT_DIR", str(env_dir))
    code = main(["fit", "--model", "nongender", "--out",
                 str(tmp_path / "ignored")])
    assert code == 0
    assert (env_dir / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_simulate_round_trip(tmp_path):
    out = tmp_path / "sims"
    code = main(["simulate", "--model", "nongender",
                 "--rates", "lambda=0.003,tau=0.056",
                 "--times", "0,2", "--reps", "2", "--seed", "11",
                 "--out", str(out)])
    assert code == 0
    files = sorted(out.iterdir())
    assert len(files) == 2
    data = parse_dataset(files[0])
    assert data.kind == "nongender"
    assert data.n == 1802  # bundled initial counts by default
    assert data.times == (0.0, 2.0)


def test_cli_surface_and_profile(tmp_path):
    out = tmp_path / "surf"
    code = main(["surface", "--model", "nongender", "--out", str(out),
                 "--grid", "lambda:0.001:0.008:5", "--grid", "tau:0.01:0.2:4",
                 "--seed", "2"])
    assert code == 0
    surface_file = out / "surface_nongender_lambda_tau.csv"
    assert surface_file.exists()
    lines = surface_file.read_text().strip().splitlines()
    assert len(lines) == 6  # header plus five lambda rows
    assert lines[0].startswith("lambda\\tau,")

    out2 = tmp_path / "prof"
    code = main(["profile", "--model", "nongender", "--out", str(out2),
                 "--grid", "tau:0.01:0.2:31", "--seed", "2"])
    assert code == 0
    prof = (out2 / "profile_nongender_tau.csv").read_text().splitlines()
    assert prof[0] == "tau,loglik"
    assert len(prof) == 32


def test_cli_report_all_deterministic(tmp_path):
    manifest = {
        "seed": 404,
        "levels": [0.67, 0.95],
        "max_evals": 50_000,
        "runs": [
            {"model": "nongender", "input": "bundled",
             "surface": {"axes": [["lambda", 0.0005, 0.01, 11],
                                  ["tau", 0.001, 0.3, 11]]},
             "profiles": {"points": 11, "half_width_sigmas": 4.0},
             "ellipses": True},
        ],
        "validation": {"model": "nongender",
                       "grid": {"lambda": [0.003], "tau": [0.05]},
                       "replicates": 2, "times": [0, 2], "init": "bundled"},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["report-all", "--manifest", str(mpath), "--out", str(out_a)]) == 0
    assert main(["report-all", "--manifest", str(mpath), "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    assert "validation.csv" in names_a
    assert "ellipse_nongender_lambda_tau_95.csv" in names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_cli_validate_subcommand(tmp_path):
    out = tmp_path / "val"
    code = main(["validate", "--model", "nongender",
                 "--grid", "lambda:0.003:0.003:1", "--grid", "tau:0.05:0.05:1",
                 "--reps", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = (out / "validation.csv").read_text().strip().splitlines()
    assert lines[0] == ("grid_index,replicate,seed,true_lambda,true_tau,"
                        "est_lambda,est_tau,converged")
    assert len(lines) == 3


def _json_dataset(path, first_ss, first_time):
    doc = {"schema_version": 1, "model": "nongender",
           "observations": [
               {"time": first_time,
                "counts": {"SS": first_ss, "SI": 5, "II": 0}},
               {"time": 2, "counts": {"SS": 4, "SI": 2, "II": 0}}]}
    path.write_text(json.dumps(doc))
    return path


def test_json_boolean_count_is_parse_error(tmp_path):
    path = _json_dataset(tmp_path / "bool_count.json", True, 0)
    with pytest.raises(ParseError, match="counts.SS must be a number"):
        parse_dataset(path)
    assert main(["fit", "--model", "nongender", "--input", str(path),
                 "--out", str(tmp_path / "o")]) == 2


def test_json_boolean_time_is_parse_error(tmp_path):
    path = _json_dataset(tmp_path / "bool_time.json", 1, False)
    with pytest.raises(ParseError, match="field 'time' must be a number"):
        parse_dataset(path)
    assert main(["fit", "--model", "nongender", "--input", str(path),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_surface_long_horizon_tau_below_lambda(tmp_path):
    data = tmp_path / "long.csv"
    data.write_text("time,SS,SI,II\n0,100,5,0\n80,10,3,92\n")
    out = tmp_path / "surf"
    code = main(["surface", "--model", "nongender", "--input", str(data),
                 "--grid", "lambda:0:10:5", "--grid", "tau:0:10:5",
                 "--out", str(out)])
    assert code == 0
    assert (out / "surface_nongender_lambda_tau.csv").exists()


def test_cli_surface_fits_once(tmp_path, monkeypatch):
    grid = ("lambda_m:0:0.01:5", "tau_mf:0:0.2:6")
    # reference: the surface built from a separate fit, as the command once did
    data = load_bundled("gender")
    fit = fit_mle("gender", data, seed=3)
    fixed = {"lambda_f": float(fit.estimates[1]),
             "tau_fm": float(fit.estimates[3])}
    axes = GridSpec((GridAxis("lambda_m", 0.0, 0.01, 5),
                     GridAxis("tau_mf", 0.0, 0.2, 6)))
    surface = likelihood_surface("gender", data, axes, fixed)
    bundle = analyze(data, seed=3, input_label="bundled:mwanza_gender")
    ref = tmp_path / "ref"
    emit_report(ref, [bundle], surfaces={"gender_lambda_m_tau_mf": surface},
                config={"seed": 3, "levels": [], "command": "surface"})

    fits = []
    real_fit = pairinfer.io.fit_mle

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    def no_fit(*args, **kwargs):
        raise AssertionError("surface must reuse the analysis fit")

    monkeypatch.setattr(pairinfer.io, "fit_mle", counting_fit)
    monkeypatch.setattr(pairinfer.cli, "fit_mle", no_fit, raising=False)
    out = tmp_path / "out"
    assert main(["surface", "--model", "gender", "--seed", "3",
                 "--grid", grid[0], "--grid", grid[1],
                 "--out", str(out)]) == 0
    assert len(fits) == 1
    names = sorted(os.listdir(ref))
    assert sorted(os.listdir(out)) == names
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes()


_SIM = ["simulate", "--model", "nongender", "--rates", "lambda=0.003,tau=0.056"]
_VALIDATE = ["validate", "--model", "nongender", "--grid", "lambda:0.002:0.004:2",
             "--grid", "tau:0.02:0.04:2"]


@pytest.mark.parametrize("argv", [
    _SIM + ["--init", "a:b:c"],
    _SIM + ["--init", "1:2"],
    _SIM + ["--times", "0,x"],
    ["simulate", "--model", "nongender", "--rates", "lambda=x,tau=0.056"],
    _SIM + ["--reps", "0"],
    _VALIDATE + ["--reps", "0"],
    _VALIDATE + ["--times", "0,x"],
    ["fit", "--model", "nongender", "--levels", "x"],
    ["surface", "--model", "nongender", "--grid", "lambda:a:1:3",
     "--grid", "tau:0.01:0.2:4"],
    ["surface", "--model", "nongender", "--grid", "lambda:0:1:x",
     "--grid", "tau:0.01:0.2:4"],
], ids=["init-text", "init-short", "times-text", "rates-text", "simulate-reps-0",
        "validate-reps-0", "validate-times-text", "levels-text", "grid-bound-text",
        "grid-count-text"])
def test_cli_bad_option_values_are_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_cli_consecutive_calls_share_no_values(tmp_path):
    surface = ["surface", "--model", "nongender", "--seed", "2",
               "--grid", "lambda:0.001:0.008:3", "--grid", "tau:0.01:0.2:3"]
    # a leaked --grid list would give the second call four axes
    assert main(surface + ["--out", str(tmp_path / "a")]) == 0
    assert main(surface + ["--out", str(tmp_path / "b")]) == 0
    assert main(["profile", "--model", "nongender", "--seed", "2",
                 "--out", str(tmp_path / "c")]) == 0
    # no --grid: the default 101-point profiles, not the surface's axes
    for name in ("lambda", "tau"):
        lines = (tmp_path / "c" / f"profile_nongender_{name}.csv").read_text()
        assert len(lines.splitlines()) == 102


_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                            5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True), _special),
             min_size=width, max_size=width),
    min_size=1, max_size=5)))
def test_float_rows_match_fmt_property(rows):
    text = pairinfer.io._float_rows("h", np.array(rows, dtype=np.float64))
    expected = ["h"] + [",".join(map(fmt, row))
                        for row in np.array(rows, dtype=np.float64)]
    assert text == "\n".join(expected) + "\n"


def test_manifest_zero_replicates_is_config_error(tmp_path, capsys):
    # a manifest's validation block keeps the --reps rule
    for reps in (0, -3, "x"):
        manifest = {"runs": [],
                    "validation": {"model": "nongender",
                                   "grid": {"lambda": [0.003], "tau": [0.05]},
                                   "replicates": reps}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(["report-all", "--manifest", str(path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: validation replicates")
        assert not out.exists()


@pytest.mark.parametrize("scalars", [
    {"seed": "x"}, {"levels": ["x"]}, {"max_evals": "x"}, {"max_evals": 0},
], ids=["seed", "levels", "max-evals", "max-evals-0"])
def test_manifest_bad_scalars_are_config_errors(scalars, tmp_path, capsys):
    # an evaluation budget below 1 used to end in exit 3, blaming the data
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"runs": [{"model": "nongender"}], **scalars}))
    out = tmp_path / "out"
    assert main(["report-all", "--manifest", str(path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    _SIM + ["--times", "0,nan"],
    _SIM + ["--times", "0,inf"],
    _VALIDATE + ["--times", "0,nan"],
], ids=["simulate-nan", "simulate-inf", "validate-nan"])
def test_cli_non_finite_times_are_domain_errors(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: snapshot times")


@pytest.mark.parametrize("argv", [
    _SIM + ["--reps", "x"],
    _VALIDATE + ["--reps", "x"],
    ["fit", "--model", "nongender", "--seed", "x"],
    ["report-all", "--seed", "1.5"],
    ["fit", "--model", "nongender", "--max-evals", "x"],
    ["fit", "--model", "nongender", "--max-evals", "0"],
    ["fit", "--model", "nongender", "--max-evals", "-5"],
], ids=["simulate-reps", "validate-reps", "fit-seed", "report-all-seed",
        "max-evals", "max-evals-0", "max-evals-negative"])
def test_cli_integer_option_type_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report-all"],
    ["fit", "--model", "nongender"],
    _SIM,
], ids=["report-all", "fit", "simulate"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_cli_unusable_out_is_config_error(argv, where, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    out = blocker if where == "file" else blocker / "sub"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output")
    assert blocker.read_text() == "in the way"
