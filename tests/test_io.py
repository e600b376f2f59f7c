"""Dataset files, report emission, CLI behavior and exit codes."""

import ast
import copy
import json
import math
import os
import pickle
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinfer.cli
import pairinfer.dataset
import pairinfer.io
from pairinfer import (ConfigError, DomainError, GridAxis, GridSpec,
                       ParseError, analyze, emit_report, fit_mle,
                       likelihood_surface, load_bundled, nongender_dataset,
                       parse_dataset, write_dataset)
from pairinfer.cli import main
from pairinfer.io import fmt, write_file


def test_bundled_nongender_counts(mwanza):
    assert mwanza.times == (0.0, 2.0)
    assert mwanza.n == 1802
    assert mwanza.observations[0].as_tuple() == (1742, 43, 17)
    assert mwanza.observations[1].as_tuple() == (1721, 58, 23)


def test_bundled_gender_counts(mwanza_gender):
    assert mwanza_gender.observations[0].as_tuple() == (1742, 22, 21, 17)
    assert mwanza_gender.observations[1].as_tuple() == (1721, 33, 25, 23)
    assert mwanza_gender.n == 1802


def test_bundled_dataset_is_read_once(monkeypatch):
    """Every fit compares its data with the bundled dataset, so a second
    load must read no resource; an unknown or unhashable kind is still a
    ConfigError."""
    reads = []
    files = pairinfer.dataset.resources.files

    def counting(package):
        reads.append(package)
        return files(package)

    monkeypatch.setattr(pairinfer.dataset.resources, "files", counting)
    pairinfer.dataset._read_bundled.cache_clear()
    first = load_bundled("gender")
    assert len(reads) == 1
    assert load_bundled("gender") is first
    assert len(reads) == 1
    assert first == parse_dataset(Path(pairinfer.dataset.__file__).parent
                                  / "data" / "mwanza_gender.json")
    for kind in ("sir", ["gender"], {"kind": "gender"}, None):
        with pytest.raises(ConfigError):
            load_bundled(kind)
    assert len(reads) == 1


def test_datasets_are_read_only_and_copy(mwanza_gender):
    with pytest.raises(AttributeError, match="read-only"):
        mwanza_gender.n = 1.0
    with pytest.raises(AttributeError, match="read-only"):
        del mwanza_gender.times
    for clone in (copy.copy(mwanza_gender), copy.deepcopy(mwanza_gender),
                  *(pickle.loads(pickle.dumps(mwanza_gender, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert clone == mwanza_gender and hash(clone) == hash(mwanza_gender)
        assert (clone.kind, clone.n, clone.elapsed()) == (
            mwanza_gender.kind, mwanza_gender.n, mwanza_gender.elapsed())


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


# Text of 0 to 64 k characters: a unit of 1 to 8 characters, repeated.
_file_text = st.builds(lambda unit, n: (unit * n)[:n],
                       st.text(min_size=1, max_size=8), st.integers(0, 65536))


@settings(max_examples=60, deadline=None)
@given(old=_file_text, new=_file_text)
def test_write_file_leaves_exactly_the_new_bytes_property(old, new,
                                                          tmp_path_factory):
    path = tmp_path_factory.mktemp("rewrite") / "artifact.txt"
    path.write_bytes(old.encode("utf-8"))
    write_file(path, new)
    assert path.read_bytes() == new.encode("utf-8")
    write_file(path, old)
    assert path.read_bytes() == old.encode("utf-8")


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002, 0o000])
def test_write_file_creates_with_the_mode_write_text_gives(mask, tmp_path):
    previous = os.umask(mask)
    try:
        (tmp_path / "by_write_text").write_text("x")
        write_file(tmp_path / "by_write_file", "x")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("by_write_text", "by_write_file")]
    assert modes[0] == modes[1] == 0o666 & ~mask


def _stale_copy(fresh, stale):
    """Seed ``stale`` with every file of ``fresh``, each longer than it is."""
    stale.mkdir()
    for path in fresh.iterdir():
        (stale / path.name).write_bytes(path.read_bytes() * 2 + b"stale tail\n")


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_report_all_rewrites_stale_artifacts_byte_identically(tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert main(["report-all", "--out", str(fresh)]) == 0
    _stale_copy(fresh, reused)
    for _ in range(2):
        assert main(["report-all", "--out", str(reused)]) == 0
        _same_files(fresh, reused)


def test_simulate_rewrites_stale_datasets_byte_identically(tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    argv = _SIM + ["--times", "0,1,2", "--reps", "2", "--seed", "8"]
    assert main(argv + ["--out", str(fresh)]) == 0
    _stale_copy(fresh, reused)
    for _ in range(2):
        assert main(argv + ["--out", str(reused)]) == 0
        _same_files(fresh, reused)


def test_artifact_name_taken_by_a_directory_is_config_error(tmp_path, capsys):
    (tmp_path / "out" / "summary.json").mkdir(parents=True)
    argv = ["fit", "--model", "nongender", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output")


def _writes_outside(tree, writer):
    """Calls in ``tree`` that can write a file, outside the function
    ``writer``: ``write_text``, ``write_bytes``, ``os.open``, ``os.fdopen``,
    and ``open`` with a write mode or a mode that is not a literal."""
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == writer
              for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if name in ("write_text", "write_bytes", "fdopen") or (
                name == "open" and owner == "os"):
            found.append((name, node.lineno))
        elif name == "open":
            # open(file, mode) as a function, path.open(mode) as a method
            position = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[position] if len(node.args) > position
                        else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append((name, node.lineno))
    return found


def test_only_the_one_writer_writes_files():
    package = Path(pairinfer.io.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        writer = "write_file" if path.name == "io.py" else None
        found = _writes_outside(tree, writer)
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_the_writer_scan_finds_every_kind_of_write():
    source = """
def write_file(path, text):
    os.open(path, 0)
def other(p):
    p.write_text("a")
    p.write_bytes(b"a")
    open(p, "w")
    open(p, mode="ab")
    p.open("r+")
    open(p, some_mode)
    os.open(p, 1)
    os.fdopen(3, "w")
    open(p)
    open(p, "rb")
    p.open()
"""
    found = _writes_outside(ast.parse(source), "write_file")
    assert [line for _, line in found] == list(range(5, 13))


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


def _nongender_json(ss="10", time="2"):
    # written as text: json.dumps would refuse an int of 5,000 digits
    return ('{"schema_version": 1, "model": "nongender", "observations": ['
            f'{{"time": 0, "counts": {{"SS": {ss}, "SI": 1, "II": 1}}}}, '
            f'{{"time": {time}, "counts": {{"SS": {ss}, "SI": 1, "II": 1}}}}]}}')


@pytest.mark.parametrize("name, text, message", [
    ("count.json", _nongender_json(ss=str(10**400)), "ss must be finite"),
    ("time.json", _nongender_json(time=str(10**400)), "'time' must be finite"),
    ("digits.json", _nongender_json(ss="1" * 5000), "invalid JSON"),
    ("sum.csv", "time,SS,SI,II\n0,1e308,1e308,0\n2,1e308,1e308,0\n",
     "sum past the largest float"),
    ("sum.json", _nongender_json(ss=str(10**308)).replace(
        '"SI": 1', f'"SI": {10**308}'), "sum past the largest float"),
], ids=["count-past-float", "time-past-float", "int-past-digit-limit",
        "table-sum-past-float", "json-int-sum-past-float"])
def test_cli_fit_inputs_past_the_float_range_are_parse_errors(
        name, text, message, tmp_path, capsys):
    # each once ended in an OverflowError or ValueError traceback
    path = tmp_path / name
    path.write_text(text)
    assert main(["fit", "--model", "nongender", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


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


def _three_time_cohort(path):
    # three times: scoring needs 6 evaluations, so 3 cannot converge
    path.write_text("time,SS,SI,II\n0,1500,250,52\n1.5,1460,268,74\n"
                    "4,1400,281,121\n")
    return path


def test_cli_nonconvergence_exit_4(tmp_path):
    cohort = _three_time_cohort(tmp_path / "three_times.csv")
    out = tmp_path / "shortrun"
    code = main(["fit", "--model", "nongender", "--input", str(cohort),
                 "--out", str(out), "--max-evals", "3", "--seed", "1"])
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["models"]["nongender"]["mle"]["converged"] is False


def test_fit_past_the_float64_range_warns_nothing(tmp_path, capsys):
    # over 1e308 years every count derivative but SS's is inf or nan; the
    # information's matrix product once printed numpy's "invalid value"
    # warning before the fit reported it not finite
    cohort = tmp_path / "far.csv"
    cohort.write_text("time,SS,SI,II\n0,10,2,1\n1e308,10,2,1\n")
    out = tmp_path / "far"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--model", "nongender", "--input", str(cohort),
                     "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    mle = json.loads((out / "summary.json").read_text())[
        "models"]["nongender"]["mle"]
    assert mle["identifiability"] == "information-not-finite"


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
    code = main(["simulate", "--model", "nongender",
                 "--rates", "lambda=0.003,tau=0.056", "--seed", "11",
                 "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (env_dir / "dataset_nongender_rep0000.json").exists()
    assert not (tmp_path / "ignored").exists()


# Cohorts whose supplementary analytics once printed UserWarnings from a
# successful fit: a CFA rate clamped to 0; a negative lambda_hat, twice,
# and a clamped CFA rate; a negative gendered lambda_hat.  summary.json
# records the non-gendered conditions.
@pytest.mark.parametrize("model, text, cfa, lambda_negative, estimates", [
    ("nongender", "time,SS,SI,II\n0,10,2,1\n2,0,0,13\n",
     {"lambda": 0.0, "tau": 1.5}, None, {"lambda": 10.0, "tau": 10.0}),
    ("nongender", "time,SS,SI,II\n0,10,2,1\n2,11,1,1\n",
     {"lambda": 0.0, "tau": 0.0}, True, {"lambda": 0.0, "tau": 0.143841}),
    ("gender", "time,SS,IS,SI,II\n0,10,1,1,1\n2,11,1,0,1\n", None, None,
     {"lambda_m": 0.0, "lambda_f": 0.0, "tau_mf": 0.0, "tau_fm": 10.0}),
])
def test_supplementary_analytics_warn_nothing(tmp_path, capsys, model, text,
                                              cfa, lambda_negative, estimates):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--model", model, "--input", str(cohort),
                     "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())["models"][model]
    assert summary["mle"]["estimates"] == estimates
    assert summary.get("cfa") == cfa
    assert summary.get("analytical", {}).get("lambda_negative") == lambda_negative
    assert summary["infections"]["per_1000_total_inconsistent"] is True


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


def test_cli_gender_surface_defaults_to_the_report_all_surfaces(tmp_path):
    # without --grid the gendered surface once exited 1 with "a surface
    # needs exactly two axes, got 0"
    seed = str(pairinfer.io.DEFAULT_SEED)
    assert main(["surface", "--model", "gender", "--seed", seed,
                 "--out", str(tmp_path / "surf")]) == 0
    assert main(["report-all", "--out", str(tmp_path / "all")]) == 0
    written = sorted(p.name for p in (tmp_path / "surf").glob("surface_*"))
    assert len(written) == 6  # each pair of the four rates
    for name in written:
        assert name.startswith("surface_gender_")
        assert ((tmp_path / "surf" / name).read_bytes()
                == (tmp_path / "all" / name).read_bytes())


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
    # the CFA clamps its negative lambda to 0, in summary.json, not stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["surface", "--model", "nongender", "--input", str(data),
                     "--grid", "lambda:0:10:5", "--grid", "tau:0:10:5",
                     "--out", str(out)])
    assert code == 0
    assert (out / "surface_nongender_lambda_tau.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["models"]["nongender"]["cfa"]["lambda"] == 0.0


def test_cli_surface_fits_once(tmp_path, monkeypatch):
    grid = ("lambda_m:0:0.01:5", "tau_mf:0:0.2:6")
    # reference: the surface built from a separate fit, as the command once
    # did, reported with the manifest the command echoes
    data = load_bundled("gender")
    fit = fit_mle("gender", data, seed=3)
    fixed = {"lambda_f": float(fit.estimates[1]),
             "tau_fm": float(fit.estimates[3])}
    axes = GridSpec((GridAxis("lambda_m", 0.0, 0.01, 5),
                     GridAxis("tau_mf", 0.0, 0.2, 6)))
    surface = likelihood_surface("gender", data, axes, fixed)
    bundle = analyze(data, seed=3, input_label="bundled:mwanza_gender")
    manifest = {"seed": 3, "levels": [0.67, 0.95], "max_evals": 50_000,
                "runs": [{"model": "gender", "input": "bundled",
                          "surface": {"axes": [["lambda_m", 0.0, 0.01, 5],
                                               ["tau_mf", 0.0, 0.2, 6]]}}],
                "validation": None}
    ref = tmp_path / "ref"
    emit_report(ref, [bundle], surfaces={"gender_lambda_m_tau_mf": surface},
                config={"seed": 3, "levels": [0.67, 0.95],
                        "max_evals": 50_000, "manifest": manifest})

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
    ["fit", "--model", "nongender", "--levels", "0.5,1.5"],
    # one interval key, "0.95", for both: one interval was silently dropped
    ["fit", "--model", "nongender", "--levels", "0.95,0.9500001"],
    ["surface", "--model", "nongender", "--grid", "lambda:a:1:3",
     "--grid", "tau:0.01:0.2:4"],
    ["surface", "--model", "nongender", "--grid", "lambda:0:1:x",
     "--grid", "tau:0.01:0.2:4"],
    ["surface", "--model", "nongender", "--grid", "lambda:0:inf:3",
     "--grid", "tau:0.01:0.2:4"],
], ids=["init-text", "init-short", "times-text", "rates-text", "simulate-reps-0",
        "validate-reps-0", "validate-times-text", "levels-text", "levels-range",
        "levels-same-key", "grid-bound-text",
        "grid-count-text", "grid-bound-inf"])
def test_cli_bad_option_values_are_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    _SIM + ["--input", "/nonexistent.csv"],
    _SIM + ["--max-evals", "3"],
    ["validate", "--model", "nongender", "--grid", "lambda:0.003:0.003:1",
     "--grid", "tau:0.05:0.05:1", "--reps", "1", "--input", "/nonexistent.csv"],
], ids=["simulate-input", "simulate-max-evals", "validate-input"])
def test_cli_rejects_options_a_command_would_ignore(argv, tmp_path, capsys):
    # simulate and validate start from the bundled counts and simulate
    # fits nothing, so these options once exited 0 unread
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "manifest"])
def test_negative_initial_counts_are_domain_errors(command, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "simulate":
        argv = _SIM + ["--init=1:-2:3"]
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"runs": [], "validation": {
            "model": "nongender", "replicates": 1, "init": [1, -2, 3],
            "grid": {"lambda": [0.003], "tau": [0.05]}}}))
        argv = ["report-all", "--manifest", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_report_interval_columns_follow_the_csv(tmp_path):
    # the report once sorted the interval columns as strings, so levels
    # 0.95,0.5 printed as ci0.5 before ci0.95 against the CSV's order
    out = tmp_path / "out"
    assert main(["fit", "--model", "nongender", "--levels", "0.95,0.5",
                 "--out", str(out)]) == 0
    csv_header = (out / "estimates_nongender.csv").read_text().splitlines()[0]
    report = (out / "report.txt").read_text().splitlines()
    text_header = report[report.index("estimates (rates per year)") + 1]
    assert text_header.strip().split(" | ") == csv_header.split(",")
    assert csv_header.split(",")[5:] == ["ci0.95_lo", "ci0.95_hi",
                                         "ci0.5_lo", "ci0.5_hi"]


def test_grid_log_flag_spaces_an_axis_geometrically(tmp_path):
    out = tmp_path / "prof"
    assert main(["profile", "--model", "nongender", "--out", str(out),
                 "--grid", "lambda:0.0001:0.01:3:log"]) == 0
    rows = (out / "profile_nongender_lambda.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0.0001", "0.001", "0.01"]


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


@pytest.mark.parametrize("times, message", [
    ([0, 2, 1], "snapshot times"), ([0], "at least two observation times"),
    ([-1, 2], "snapshot times"), ([0, math.nan], "snapshot times"),
], ids=["decreasing", "one", "negative", "nan"])
def test_manifest_bad_validation_times_fail_before_any_fit(
        times, message, monkeypatch, tmp_path):
    # they used to fail only after every run's fit
    def refuse(*args, **kwargs):
        raise AssertionError("a fit ran before the manifest was checked")

    monkeypatch.setattr(pairinfer.io, "analyze", refuse)
    manifest = {"seed": 1, "runs": [{"model": "nongender", "input": "bundled"}],
                "validation": {"model": "nongender",
                               "grid": {"lambda": [0.003], "tau": [0.05]},
                               "times": times, "replicates": 2}}
    with pytest.raises(DomainError, match=message):
        pairinfer.io.run_manifest(manifest, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scalars", [
    {"seed": "x"}, {"levels": ["x"]}, {"levels": [0.95, 0.95]},
    {"max_evals": "x"}, {"max_evals": 0},
], ids=["seed", "levels", "levels-repeated", "max-evals", "max-evals-0"])
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
    _SIM + ["--init", "1e30:0:0"],
    _SIM + ["--init", "9223372036854775808:0:0"],
    ["simulate", "--model", "gender", "--init", "1e30:0:0:0", "--rates",
     "lambda_m=0.004,lambda_f=0.002,tau_mf=0.047,tau_fm=0.068"],
], ids=["nongender-1e30", "nongender-2**63", "gender-1e30"])
def test_cli_initial_counts_beyond_int64_are_domain_errors(argv, tmp_path,
                                                           capsys):
    # numpy's binomial draw once raised its OverflowError as a traceback
    out = tmp_path / "out"
    assert main(argv + ["--times", "0,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: simulation takes")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    _SIM + ["--times", "0,nan"],
    _SIM + ["--times", "0,inf"],
    _VALIDATE + ["--times", "0,nan"],
], ids=["simulate-nan", "simulate-inf", "validate-nan"])
def test_cli_non_finite_times_are_domain_errors(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: snapshot times")
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["surface", "--model", "nongender"],
    ["profile", "--model", "nongender"],
    ["report-all", "--manifest", "manifest.json"],
], ids=["surface", "profile", "report-all"])
def test_every_analysis_command_exits_4_on_nonconvergence(argv, tmp_path,
                                                          monkeypatch):
    # report-all, surface and profile once exited 0 with converged false
    monkeypatch.chdir(tmp_path)
    _three_time_cohort(tmp_path / "three_times.csv")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "seed": 1, "max_evals": 3,
        "runs": [{"model": "nongender", "input": "three_times.csv",
                  "profiles": {"points": 11}}]}))
    if argv[0] != "report-all":
        argv = argv + ["--input", "three_times.csv", "--max-evals", "3",
                       "--seed", "1"]
    assert main(argv + ["--out", "out"]) == 4
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["models"]["nongender"]["mle"]["converged"] is False


@pytest.mark.parametrize("argv", [
    ["fit", "--model", "nongender", "--input", "cohort.csv",
     "--levels", "0.5,0.9", "--seed", "4"],
    ["surface", "--model", "nongender", "--seed", "2"],
    ["surface", "--model", "gender", "--grid", "lambda_m:0:0.01:5",
     "--grid", "tau_mf:0.001:0.2:6:log"],
    ["profile", "--model", "gender", "--seed", "1"],
    ["profile", "--model", "nongender", "--grid", "tau:0.01:0.2:31",
     "--grid", "lambda:0.0001:0.01:9:log"],
    ["validate", "--model", "nongender", "--grid", "lambda:0.002:0.004:2",
     "--grid", "tau:0.05:0.05:1", "--reps", "2", "--seed", "5"],
], ids=["fit", "surface", "surface-grid", "profile", "profile-grid",
        "validate"])
def test_command_summary_replays_through_report_all(argv, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cohort.csv").write_text(
        "time,SS,SI,II\n0,1742,43,17\n1,1733,49,20\n3,1710,62,30\n")
    assert main(argv + ["--out", "command"]) == 0
    config = json.loads((tmp_path / "command" / "summary.json").read_text())[
        "config"]
    (tmp_path / "manifest.json").write_text(json.dumps(config["manifest"]))
    assert main(["report-all", "--manifest", "manifest.json",
                 "--out", "replay"]) == 0
    names = sorted(os.listdir(tmp_path / "command"))
    assert sorted(os.listdir(tmp_path / "replay")) == names
    for name in names:
        assert ((tmp_path / "command" / name).read_bytes()
                == (tmp_path / "replay" / name).read_bytes()), name


_RUN = {"model": "nongender"}
_VALIDATION = {"model": "nongender", "replicates": 1,
               "grid": {"lambda": [0.003], "tau": [0.05]}}


@pytest.mark.parametrize("manifest", [
    {"runs": [], "validation": {**_VALIDATION, "init": [1, 2]}},
    {"runs": [_RUN], "levels": 1.5},
    {"runs": [{"input": "bundled"}]},
    {"runs": 5},
    {"runs": [{**_RUN, "surface": {"axes": [["lambda", "x", 0.01, 5],
                                            ["tau", 0.001, 0.3, 5]]}}]},
    {"runs": [{**_RUN, "profiles": {"points": "x"}}]},
    {"runs": [], "validation": {**_VALIDATION,
                                "grid": {"lambda": 0.003, "tau": [0.05]}}},
    {"runs": [{"model": "gender", "surface": {"axes": [
        [name, 0.001, 0.01, 3] for name in ("lambda_m", "lambda_f", "tau_mf")]}}]},
    {"runs": [{**_RUN, "input": 5}]},
    {"runs": [{**_RUN, "surface": 5}]},
    {"runs": [], "validation": {**_VALIDATION, "times": 2}},
    {"runs": [], "validation": {**_VALIDATION, "grid": {
        "lambda": [0.003], "tau": [0.05], "theta": [1.0]}}},
    # no standard errors on this fit, so no interval would check the level
    {"runs": [{"model": "gender", "input": "stationary.csv"}],
     "levels": [1.5]},
], ids=["init-short", "levels-scalar", "run-without-model", "runs-scalar",
        "surface-axis-text", "profile-points-text", "grid-scalar",
        "surface-three-axes", "input-number", "surface-scalar",
        "times-scalar", "grid-unknown-parameter", "level-range"])
def test_malformed_manifests_are_config_errors(manifest, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stationary.csv").write_text(
        "time,SS,IS,SI,II\n0,100,10,5,3\n1,100,10,5,3\n2,100,10,5,3\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["report-all", "--manifest", str(path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("time", ["inf", "nan"])
def test_non_finite_observation_times_are_parse_errors(time, tmp_path,
                                                        capsys):
    with pytest.raises(DomainError, match="finite"):
        nongender_dataset((0.0, float(time)), [(100, 30, 20), (90, 35, 25)])
    table = tmp_path / "cohort.csv"
    table.write_text(f"time,SS,SI,II\n0,100,30,20\n{time},90,35,25\n")
    assert main(["fit", "--model", "nongender", "--input", str(table),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
