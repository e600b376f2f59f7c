"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from pairinfer import (GenderPairCounts, GenderParams, GridAxis, GridSpec,
                       NonGenderParams, PairCounts, analyze, derive_seed,
                       fit_mle, gillespie_simulate, infections_per_year,
                       lambda_hat_closed_form, likelihood_surface,
                       solve_gender, solve_nongender, validation_sweep)
from pairinfer.cli import main
from pairinfer.io import emit_report

from oracles import exact_sample, integrate_gender, integrate_nongender


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def ng_fit(mwanza):
    return fit_mle("nongender", mwanza, seed=0, levels=(0.95,))


@pytest.fixture(scope="module")
def g_fit(mwanza_gender):
    return fit_mle("gender", mwanza_gender, seed=0, levels=(0.95,))


def test_criterion_01_analytical_lambda(mwanza):
    value = lambda_hat_closed_form(mwanza)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        lambda_hat_closed_form(mwanza)
        best = min(best, time.perf_counter() - start)
    ok = (abs(value - 0.0030328) <= 1e-6
          and value == pytest.approx(math.log(1742 / 1721) / 4, abs=1e-15)
          and best < 1e-3)
    _report(1, ok, f"lambda_hat={value:.8f} (target 0.0030328 +/- 1e-6), "
                   f"runtime {best * 1e6:.1f} us")


def test_criterion_02_nongender_mle(mwanza):
    start = time.perf_counter()
    fit = fit_mle("nongender", mwanza, seed=0)
    elapsed = time.perf_counter() - start
    lam, tau = fit.estimates
    ok = abs(lam - 0.003) <= 0.0005 and abs(tau - 0.056) <= 0.005 and elapsed < 1.0
    _report(2, ok, f"(lambda, tau)=({lam:.6f}, {tau:.6f}) vs (0.003, 0.056) "
                   f"+/- (0.0005, 0.005); fit in {elapsed:.3f}s")


def test_criterion_03_standard_errors(ng_fit):
    sigma_lam, sigma_tau = ng_fit.std_errors
    ok = abs(sigma_lam - 0.001) <= 0.0005 and abs(sigma_tau - 0.046) <= 0.01
    _report(3, ok, f"sigma=({sigma_lam:.6f}, {sigma_tau:.6f}) vs "
                   f"(0.001 +/- 0.0005, 0.046 +/- 0.01)")


def test_criterion_04_gender_mle_and_intervals(g_fit):
    published = (0.004, 0.002, 0.047, 0.068)
    tolerance = (0.001, 0.001, 0.01, 0.015)
    point_ok = all(abs(e - p) <= t for e, p, t in
                   zip(g_fit.estimates, published, tolerance))
    published_ci = ((0.0006, 0.0073), (0.0, 0.0051),
                    (0.0, 0.1819), (0.0, 0.2271))
    z = 1.959963984540054
    ci_ok = True
    details = []
    for (lo, hi), ref, sigma in zip(g_fit.intervals[0.95], published_ci,
                                    g_fit.std_errors):
        half = z * sigma
        if ref[0] == 0.0:
            ci_ok &= lo == 0.0
        else:
            ci_ok &= abs(lo - ref[0]) <= 0.15 * half
        ci_ok &= abs(hi - ref[1]) <= 0.15 * half
        details.append(f"({lo:.4f},{hi:.4f})")
    ok = point_ok and ci_ok
    _report(4, ok,
            "estimates=(" + ", ".join(f"{v:.5f}" for v in g_fit.estimates)
            + ") vs (0.004, 0.002, 0.047, 0.068); CIs " + " ".join(details)
            + " vs ((0.0006,0.0073) (0,0.0051) (0,0.1819) (0,0.2271)), "
              "endpoints within 15% of half-width, truncated lows exactly 0")


def test_criterion_05_infections_per_year(ng_fit, mwanza, mwanza_gender):
    table = infections_per_year(ng_fit.params, mwanza.initial)
    external, internal = (row.infections for row in table.rows)
    ng_ok = abs(external - 10.6) <= 0.3 and abs(internal - 2.4) <= 0.1
    # the gendered MLE sits on a flat ridge, so the published table is
    # reproduced at the published (rounded) rates rather than at whatever
    # ridge point the optimizer stops on
    gtable = infections_per_year(GenderParams(0.004, 0.002, 0.047, 0.068),
                                 mwanza_gender.initial)
    gvalues = [row.infections for row in gtable.rows]
    targets = (7.05, 3.52, 1.03, 1.45)
    g_ok = all(abs(v - t) <= 0.1 for v, t in zip(gvalues, targets))
    ok = ng_ok and g_ok
    _report(5, ok, f"nongender (external, internal)=({external:.3f}, "
                   f"{internal:.3f}) vs (10.6 +/- 0.3, 2.4 +/- 0.1); gendered "
                   + str([round(v, 3) for v in gvalues])
                   + " vs (7.05, 3.52, 1.03, 1.45) +/- 0.1")


def test_criterion_06_closed_form_vs_ode():
    rng = np.random.default_rng(20_26)
    start = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        lam = float(rng.uniform(0.0, 0.5))
        tau = float(rng.uniform(0.0, 0.5))
        if k % 10 == 0:
            tau = lam  # singular manifold
        t = float(rng.uniform(0.0, 10.0))
        n = int(rng.integers(10, 10_000))
        ss = 0.7 * n
        si = 0.2 * n
        init = PairCounts(ss, si, n - ss - si)
        params = NonGenderParams(lam, tau)
        closed = np.array(solve_nongender(params, init, t).as_tuple())
        worst = max(worst, float(np.max(np.abs(
            closed - integrate_nongender(params, init, t)))))

        gvec = rng.uniform(0.0, 0.5, size=4)
        if k % 10 == 5:
            gvec[2], gvec[3] = gvec[0], gvec[1]  # both gendered singular limits
        gparams = GenderParams(*map(float, gvec))
        ginit = GenderPairCounts(ss, si / 2, si / 2, n - ss - si)
        gclosed = np.array(solve_gender(gparams, ginit, t).as_tuple())
        worst = max(worst, float(np.max(np.abs(
            gclosed - integrate_gender(gparams, ginit, t)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(6, ok, f"max |closed - ODE| = {worst:.3g} over 1000 draws x both "
                   f"models (limit 1e-8), runtime {elapsed:.2f}s (limit 10s)")


def test_criterion_07_unimodal_surface(mwanza):
    grid = GridSpec((GridAxis("lambda", 0.0005, 0.01, 101),
                     GridAxis("tau", 0.001, 0.3, 101)))
    surface = likelihood_surface("nongender", mwanza, grid)
    values = surface.normalized
    count = 0
    for i in range(1, 100):
        for j in range(1, 100):
            window = values[i - 1:i + 2, j - 1:j + 2].copy()
            center = window[1, 1]
            window[1, 1] = -math.inf
            if center > window.max():
                count += 1
    ok = count == 1
    _report(7, ok, f"interior local maxima on the 101x101 grid: {count} "
                   "(expected exactly 1)")


def test_criterion_08_simulator_consistency(mwanza):
    params = NonGenderParams(0.003033, 0.0561)
    init = mwanza.initial
    reps = 5000
    table = np.zeros((2, 3))
    sums = np.zeros(3)
    for rep in range(reps):
        g = gillespie_simulate(params, init, (2.0,), seed=derive_seed(81, rep))[0]
        e = exact_sample(params, init, 2.0, seed=derive_seed(82, rep))
        table[0] += g.as_tuple()
        table[1] += e.as_tuple()
        sums += g.as_tuple()
    _, p_value, _, _ = chi2_contingency(table)
    expected = np.array(solve_nongender(params, init, 2.0).as_tuple())
    variances = np.zeros(3)
    for n_class, one_hot in ((init.ss, (1, 0, 0)), (init.si, (0, 1, 0)),
                             (init.ii, (0, 0, 1))):
        probs = np.array(solve_nongender(
            params, PairCounts(*one_hot), 2.0).as_tuple())
        variances += n_class * probs * (1.0 - probs)
    se = np.sqrt(variances / reps)
    mean_ok = bool(np.all(np.abs(sums / reps - expected) <= 3 * se))
    ok = p_value > 0.001 and mean_ok
    _report(8, ok, f"two-sample chi-square p={p_value:.4f} (reject below "
                   f"0.001); per-state means within 3 SE: {mean_ok}")


def test_criterion_09_parameter_recovery(mwanza):
    start = time.perf_counter()
    lam_grid = (0.002, 0.005, 0.01)
    tau_grid = (0.02, 0.05, 0.1)
    truth_grid = [NonGenderParams(lam, tau)
                  for lam in lam_grid for tau in tau_grid]

    def fit(kind, data, seed):
        return fit_mle(kind, data, seed=seed, uncertainty=False)

    records = validation_sweep(truth_grid, mwanza.initial, (0.0, 2.0), 50,
                               4242, fit)
    elapsed = time.perf_counter() - start
    ok = True
    worst_lam = worst_tau = 0.0
    for gi, truth in enumerate(truth_grid):
        cell = [r for r in records if r.grid_index == gi]
        med = np.median([r.estimates for r in cell], axis=0)
        rel_lam = abs(med[0] - truth.lam) / truth.lam
        rel_tau = abs(med[1] - truth.tau) / truth.tau
        worst_lam = max(worst_lam, rel_lam)
        worst_tau = max(worst_tau, rel_tau)
        ok &= rel_lam <= 0.25 and rel_tau <= 0.75
    flagged = all(isinstance(r.converged, bool) for r in records)
    unflagged_failures = any(not r.converged for r in records) and not flagged
    ok = ok and flagged and not unflagged_failures and elapsed < 120.0
    _report(9, ok, f"450 replicates at N=1802: worst median rel. error "
                   f"lambda {worst_lam:.3f} (limit 0.25), tau {worst_tau:.3f} "
                   f"(limit 0.75); convergence flags recorded; "
                   f"runtime {elapsed:.1f}s (limit 120s)")


def test_criterion_10_byte_determinism(tmp_path):
    manifest = {
        "seed": 777,
        "levels": [0.67, 0.95],
        "max_evals": 50_000,
        "runs": [
            {"model": "nongender", "input": "bundled",
             "surface": {"axes": [["lambda", 0.0005, 0.01, 21],
                                  ["tau", 0.001, 0.3, 21]]},
             "profiles": {"points": 21, "half_width_sigmas": 4.0},
             "ellipses": True},
            {"model": "gender", "input": "bundled",
             "surface": {"pairwise_points": 9},
             "profiles": {"points": 9, "half_width_sigmas": 4.0},
             "ellipses": True},
        ],
        "validation": {"model": "nongender",
                       "grid": {"lambda": [0.003], "tau": [0.05]},
                       "replicates": 3, "times": [0, 2], "init": "bundled"},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["report-all", "--manifest", str(mpath), "--out", str(out_a)])
    code_b = main(["report-all", "--manifest", str(mpath), "--out", str(out_b)])
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a)
    ok = code_a == 0 and code_b == 0 and identical
    _report(10, ok, f"two report-all runs with the same manifest and seed: "
                    f"{len(names_a)} files, byte-identical={identical}")


def test_criterion_11_discrepancy_ledger(tmp_path, mwanza):
    bundle = analyze(mwanza, seed=0, input_label="bundled:mwanza_nongender")
    out = tmp_path / "report"
    emit_report(out, [bundle], config={"seed": 0, "levels": [0.67, 0.95]})
    report = (out / "report.txt").read_text()
    summary = json.loads((out / "summary.json").read_text())
    entries = {d["id"]: d for d in summary["discrepancies"]}
    phi = entries.get("phi-series-arithmetic", {})
    tau = entries.get("tau-reparam-inconsistency", {})
    cell = entries.get("internal-infections-cell", {})
    ok = (
        phi.get("computed") == pytest.approx(-7.745, abs=0.01)
        and phi.get("published") == 16.95
        and tau.get("computed_two_phi_plus_one") is not None
        and tau.get("computed_phi_plus_one") is not None
        and tau.get("published") == 0.054
        and cell.get("computed") == pytest.approx(2.42, abs=0.05)
        and cell.get("published") == 2.48
        and "-7.745" in report and "16.95" in report and "2.48" in report
    )
    _report(11, ok, "report flags phi arithmetic (-7.745 vs 16.95), the "
                    "(2*phi+1) vs (phi+1) readings, and the internal-"
                    "infections cell (computed vs 2.48), each with both values")
