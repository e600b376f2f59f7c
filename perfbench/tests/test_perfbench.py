"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_MS, Reference  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402

import pairinfer  # noqa: E402
import pairinfer.cli  # noqa: E402,F401

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WORK", tmp_path)
    result, lines = run.run(workload, 7, 0.0, trace, tmp_path / "work")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.startswith(f"metric: {m['name']} = ")
                   and f" {m['unit']} (n=" in line for line in lines)
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(line.startswith("fail_ratio = ") for line in lines)
    assert any(line.startswith("environment: nproc=") for line in lines)


def test_failed_items_are_counted():
    def boom():
        raise RuntimeError("boom")

    def reject(_):
        raise checks.CheckFailure("wrong")

    class Fake:
        name = "fake"

        def round(self, index):
            return [workloads.Item(lambda: 1, lambda r: None),
                    workloads.Item(boom, lambda r: None),
                    workloads.Item(lambda: 2, reject),
                    workloads.Item(lambda: 0, lambda r: workloads._exit_ok(r)),
                    workloads.Item(lambda: 4, lambda r: workloads._exit_ok(r))]

    loop = run.Loop(Fake())
    loop.run_round(1, traced=False)
    assert loop.attempted == 5
    assert len(loop.failures) == 3
    assert len(run.latencies(loop)) == 2


def test_reference_scale_cancels_host_speed():
    loop = run.Loop(None)
    loop.reference.at = [0.1 * k for k in range(200)]
    loop.reference.ms = [2.0] * 100 + [3.0] * 100
    # The same work at two host speeds: the item and the kernel both slow.
    samples = [(0.010, 3.0), (0.015, 17.0)]
    assert loop.scaled(samples) == pytest.approx([0.010 * REFERENCE_MS / 2.0] * 2)
    # One preempted kernel run among its neighbours does not move the scale.
    ref = Reference()
    ref.at = [0.1 * k for k in range(30)]
    ref.ms = [2.0] * 15 + [40.0] + [2.0] * 14
    assert ref.scale(1.5) == REFERENCE_MS / 2.0


def _summary(nongender, gender):
    names = checks.PARAM_NAMES
    return {"models": {
        "nongender": {"mle": {"estimates": dict(zip(names["nongender"], nongender))}},
        "gender": {"mle": {"estimates": dict(zip(names["gender"], gender))}}}}


def test_published_check():
    checks.check_published(_summary((0.00303, 0.0562),
                                    (0.00404, 0.00202, 0.0522, 0.0611)))
    with pytest.raises(checks.CheckFailure):
        checks.check_published(_summary((0.0040, 0.0562),
                                        (0.00404, 0.00202, 0.0522, 0.0611)))
    with pytest.raises(checks.CheckFailure):
        checks.check_published(_summary((0.00303, 0.0562),
                                        (0.00404, 0.00202, 0.0522, 0.09)))


def test_repeat_check():
    seen = {}
    checks.check_repeat(seen, 5, "aa")
    checks.check_repeat(seen, 5, "aa")
    checks.check_repeat(seen, 6, "bb")
    with pytest.raises(checks.CheckFailure):
        checks.check_repeat(seen, 5, "ab")


@pytest.fixture
def cohort():
    times = (0.0, 1.0, 3.0)
    counts = oracle.sample_path(oracle.NONGENDER, (0.003, 0.056),
                                inputs.scaled_initial(oracle.NONGENDER, 20_000),
                                times, inputs.rng_for(3, 9))
    data = pairinfer.nongender_dataset(times, [tuple(int(c) for c in row)
                                               for row in counts])
    return times, counts, pairinfer.fit_mle("nongender", data, seed=1,
                                            uncertainty=False)


def test_fit_check_accepts_the_mle(cohort):
    times, counts, fit = cohort
    checks.check_fit("nongender", (0.003, 0.056), times, counts,
                     fit.estimates, fit.loglik_at_max, 1e-9)


def test_fit_check_rejects_a_worse_fit(cohort):
    times, counts, _ = cohort
    worse = (0.006, 0.056)
    ll = oracle.log_likelihood("nongender", worse, times, counts)
    with pytest.raises(checks.CheckFailure, match="below the truth"):
        checks.check_fit("nongender", (0.003, 0.056), times, counts, worse, ll, 1e-9)


def test_fit_check_rejects_a_misreported_loglik(cohort):
    times, counts, fit = cohort
    with pytest.raises(checks.CheckFailure, match="reported"):
        checks.check_fit("nongender", (0.003, 0.056), times, counts,
                         fit.estimates, fit.loglik_at_max + 1.0, 1e-9)


def test_fit_check_rejects_a_loglik_above_saturation(cohort, monkeypatch):
    times, counts, fit = cohort
    monkeypatch.setattr(oracle, "saturated_log_likelihood",
                        lambda c: fit.loglik_at_max - 1.0)
    with pytest.raises(checks.CheckFailure, match="saturated"):
        checks.check_fit("nongender", (0.003, 0.056), times, counts,
                         fit.estimates, fit.loglik_at_max, 1e-9)


@pytest.mark.parametrize("bad, message", [
    ([[10, 5, 5], [9, 6, 6], [9, 4, 7]], "not conserved"),
    ([[10, 5, 5], [11, 3, 6], [9, 4, 7]], "SS rose"),
    ([[10, 5, 5], [9, 6, 5], [9, 7, 4]], "II fell"),
    ([[11, 4, 5], [9, 6, 5], [9, 4, 7]], "initial"),
])
def test_simulated_path_check(bad, message):
    times = (0.0, 1.0, 2.0)
    checks.check_simulated((10, 5, 5), times, times,
                           [[10, 5, 5], [9, 6, 5], [9, 4, 7]])
    with pytest.raises(checks.CheckFailure, match=message):
        checks.check_simulated((10, 5, 5), times, times, bad)


def test_recovery_check():
    truth = (0.005, 0.05)
    good = [(truth, (0.0051, 0.049))] * 12
    checks.check_recovery(good)
    with pytest.raises(checks.CheckFailure, match="exceed"):
        checks.check_recovery([(truth, (0.0051, 0.1))] * 12)
    with pytest.raises(checks.CheckFailure, match="replicates"):
        checks.check_recovery(good[:3])


def test_means_check():
    kind, rates = oracle.GENDER, inputs.TRUTH[oracle.GENDER]
    initial = inputs.scaled_initial(kind, 200_000)
    times = inputs.SURVEY_TIMES
    rng = inputs.rng_for(11)
    paths = [oracle.sample_path(kind, rates, initial, times, rng) for _ in range(40)]
    checks.check_means(kind, rates, initial, times, paths)
    with pytest.raises(checks.CheckFailure):
        checks.check_means(kind, (0.005, 0.002, 0.047, 0.068), initial, times, paths)


@pytest.mark.parametrize("kind, rates", [
    ("nongender", (0.003, 0.056)), ("nongender", (0.02, 0.02)),
    ("gender", (0.004, 0.002, 0.047, 0.068)), ("gender", (0.01, 0.003, 0.01, 0.003)),
])
def test_oracle_matches_the_program(kind, rates):
    initial = inputs.scaled_initial(kind, 5_000)
    params = pairinfer.model.params_from_vector(kind, rates)
    counts_type = pairinfer.PairCounts if kind == "nongender" else pairinfer.GenderPairCounts
    solve = pairinfer.solve_nongender if kind == "nongender" else pairinfer.solve_gender
    for t in (0.5, 2.0, 7.0):
        expected, _ = oracle.expected_counts(kind, rates, initial, t)
        program = solve(params, counts_type(*initial), t).as_tuple()
        np.testing.assert_allclose(expected, program, rtol=1e-10, atol=1e-8)
    times = (0.0, 1.0, 3.0)
    path = oracle.sample_path(kind, rates, initial, times, inputs.rng_for(1))
    data = pairinfer.Dataset(times, tuple(counts_type(*(int(c) for c in row))
                                          for row in path))
    assert oracle.log_likelihood(kind, rates, times, path) == pytest.approx(
        pairinfer.log_likelihood(kind, params, data), rel=1e-12)
    assert oracle.saturated_log_likelihood(path) == pytest.approx(
        pairinfer.saturated_log_likelihood(data), rel=1e-12)


def test_cohort_inputs_repeat_for_a_seed(tmp_path):
    first = inputs.write_cohorts(5, tmp_path / "a")
    again = inputs.write_cohorts(5, tmp_path / "b")
    other = inputs.write_cohorts(6, tmp_path / "c")
    digest = inputs.digest(c["path"] for c in first)
    assert digest == inputs.digest(c["path"] for c in again)
    assert digest != inputs.digest(c["path"] for c in other)
    kinds = {(c["kind"], c["path"].suffix, len(c["times"])) for c in first}
    assert {k for k, _, _ in kinds} == {"nongender", "gender"}
    assert {s for _, s, _ in kinds} == {".json", ".csv"}
    assert {n for _, _, n in kinds} == {2, 3, 4}
    for c in first:
        data = pairinfer.parse_dataset(c["path"])
        assert data.kind == c["kind"]
        assert [list(o.as_tuple()) for o in data.observations] == c["counts"].tolist()


def test_tracer_wraps_every_binding_and_restores_it():
    original = pairinfer.inference.fit_mle
    tracer = Tracer()
    tracer.install(1)
    try:
        assert pairinfer.fit_mle is pairinfer.inference.fit_mle is pairinfer.io.fit_mle
        assert pairinfer.fit_mle is not original
        pairinfer.io.analyze(pairinfer.load_bundled("nongender"))
    finally:
        tracer.uninstall()
    assert pairinfer.fit_mle is original and pairinfer.io.fit_mle is original
    table = SpanTable(tracer.spans(), tracer.names)
    assert table.calls("io.analyze") == 1
    assert table.calls("inference.fit_mle") == 1
    assert table.calls("neldermead.minimize_simplex") == 1
    assert table.total("neldermead.minimize_simplex", "a") == table.within(
        "likelihood.log_likelihood_nongender", "neldermead.minimize_simplex")
    assert table.within("likelihood.log_likelihood_nongender", "inference.hessian_fd") > 0
    own = table.seconds("io.analyze", own=True)
    assert 0 < own < table.seconds("io.analyze")
    assert table.layer_calls("simulate") == 0
