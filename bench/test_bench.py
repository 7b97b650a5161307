"""Tests of the benchmark itself: its oracle, its tracer and its workloads.

    python3 -m pytest bench -q

The workload checks run here on seeds that the benchmark runs do not
draw, at sizes small enough for a test, so a tolerance that only holds
on the benchmark's own data would show.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import relfi  # noqa: E402
import relfi.cli  # noqa: E402
import workloads  # noqa: E402
from oracle import RiskOracle, sign_flip_normal_p  # noqa: E402
from spans import Tracer, layer_metrics, self_times, union_seconds  # noqa: E402


def test_oracle_covariance_matches_the_closed_form_in_relfi():
    for name in ("experiment_a", "experiment_b"):
        graph = relfi.builtin_graph(name)
        np.testing.assert_allclose(
            workloads.scm_of(graph).covariance(), relfi.analytic_covariance(graph), atol=1e-12
        )
    rng = np.random.default_rng(7)
    scm = workloads.random_scm(rng)
    graph = relfi.parse_graph(scm.as_mapping())
    np.testing.assert_allclose(scm.covariance(), relfi.analytic_covariance(graph), atol=1e-12)


def test_oracle_matches_a_monte_carlo_risk_rise():
    """Draw the replacement by hand from population parameters and compare."""
    scm = workloads.scm_of(relfi.builtin_graph("experiment_b"))
    cov = scm.covariance()
    beta = np.array([1.0, 0.8, 0.3])
    oracle = RiskOracle(scm, "Y", ("X1", "X2", "X3"), beta)
    rng = np.random.default_rng(11)
    x = rng.multivariate_normal(np.zeros(len(scm.nodes)), cov, size=400_000)
    idx = {n: i for i, n in enumerate(scm.nodes)}
    e = x[:, idx["Y"]] - x[:, [idx["X1"], idx["X2"], idx["X3"]]] @ beta
    g = [idx["C"]]
    w = np.linalg.solve(cov[np.ix_(g, g)], cov[g, idx["X2"]])
    v = cov[idx["X2"], idx["X2"]] - cov[idx["X2"], g] @ w
    u = x[:, g] @ w + np.sqrt(v) * rng.standard_normal(len(x)) - x[:, idx["X2"]]
    d = 0.8**2 * u**2 - 2 * 0.8 * e * u
    cell = oracle.cell("X2", ["C"], "gaussian")
    assert abs(d.mean() - cell.mean) < 5 * d.std() / np.sqrt(len(d))
    assert cell.row_sd == pytest.approx(d.std(), rel=0.02)


def test_sign_flip_normal_approximation_tracks_the_exact_test():
    rng = np.random.default_rng(3)
    for shift in (0.0, 0.05, 0.1):
        d = rng.standard_normal(500) + shift
        p = relfi.sign_flip_exact(d, 2**14).p_value
        normal, edgeworth = sign_flip_normal_p(d)
        assert abs(p - normal) <= 5 * np.sqrt(normal * (1 - normal) / 2**14) + 2 / 2**14 + edgeworth


def test_union_seconds_counts_overlaps_once():
    assert union_seconds([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == pytest.approx(4.0)
    assert union_seconds([]) == 0.0


def test_self_time_subtracts_the_union_of_children_and_pool_work():
    tracer = Tracer(relfi)
    short = tracer.wrap("inner", lambda: time.sleep(0.03))
    long = tracer.wrap("inner", lambda: time.sleep(0.08))

    def outer_body():
        worker = threading.Thread(target=long)
        worker.start()
        short()
        worker.join(timeout=5)
        assert not worker.is_alive()
        time.sleep(0.02)

    tracer.wrap("outer", outer_body)()
    spans = tracer.drain()
    outer = next(s for s in spans if s.name == "outer")
    inners = [s for s in spans if s.name == "inner"]
    on_main = [s for s in inners if s.thread == outer.thread]
    assert len(inners) == 2 and len(on_main) == 1 and on_main[0].parent == outer.id
    selfs = self_times(spans)
    # the worker's span lies inside outer, which waited for it
    covered = union_seconds([(s.start, s.end) for s in inners])
    assert selfs[outer.id] == pytest.approx(outer.seconds - covered)
    assert 0.02 <= selfs[outer.id] < outer.seconds - 0.08
    assert all(selfs[s.id] == pytest.approx(s.seconds) for s in inners)
    assert layer_metrics(spans)["inner_calls"] == 2


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    originals = (relfi.cli.fit_sampler, relfi.samplers.fit_sampler, relfi.Dataset.matrix)
    tracer = Tracer(relfi)
    tracer.install()
    try:
        assert relfi.cli.fit_sampler is relfi.samplers.fit_sampler is relfi.fit_sampler
        assert relfi.cli.fit_sampler is not originals[0]
        assert relfi.cli.save_csv is relfi.core.save_csv
        grid = workloads.GridA(0, tmp_path, n=5_000)
        grid.setup()
        grid.run_pass()
    finally:
        tracer.uninstall()
    assert (relfi.cli.fit_sampler, relfi.samplers.fit_sampler, relfi.Dataset.matrix) == originals
    totals = layer_metrics(tracer.drain())
    assert totals["engine.compute_rfi_calls"] == totals["engine.cells"] == 16
    assert totals["samplers.sample_calls"] == 12 * workloads.REPLICATIONS
    assert totals["cli.run_calls"] == 1 and totals["scm.sample_scm_calls"] == 1


def test_traced_passes_give_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_pct"}
    seen = set()
    tracer = Tracer(relfi)
    for workload in (
        workloads.GridA(0, tmp_path, n=5_000),
        workloads.CsvRoundtrip(0, tmp_path, n=5_000),
        workloads.SmallCells(0, tmp_path),
    ):
        workload.setup()
        tracer.install()
        try:
            with workloads.quiet():
                workload.run_pass()
        finally:
            tracer.uninstall()
        seen |= {name for name, value in layer_metrics(tracer.drain()).items() if value}
    assert wanted <= seen, wanted - seen


def _check_passes(workload, passes=1):
    workload.setup()
    workload.warm_up()
    outputs = [workload.run_pass() for _ in range(passes)]
    return workload.check(outputs)


@pytest.mark.parametrize("data_seed", [33, 34, 35])
def test_grid_a_oracle_on_other_data_seeds(tmp_path, data_seed):
    verdict = _check_passes(workloads.GridA(0, tmp_path, n=200_000, data_seed=data_seed))
    assert verdict.problems == []


@pytest.mark.parametrize("seed", [9001, 9002, 9003])
def test_profile_wide_oracle_on_unused_seeds(tmp_path, seed):
    verdict = _check_passes(workloads.ProfileWide(seed, tmp_path), passes=2)
    assert verdict.problems == [] and verdict.failed_per_pass == 0


@pytest.mark.parametrize("seed", [9001, 9002, 9003])
def test_signflip_small_checks_on_unused_seeds(tmp_path, seed):
    verdict = _check_passes(workloads.SignFlipSmall(seed, tmp_path), passes=2)
    assert verdict.problems == [] and verdict.failed_per_pass == 0


@pytest.mark.parametrize("seed", [9001, 9002])
def test_csv_roundtrip_checks_on_unused_seeds(tmp_path, seed):
    verdict = _check_passes(workloads.CsvRoundtrip(seed, tmp_path, n=20_000), passes=2)
    assert verdict.problems == [] and verdict.failed_per_pass == 0


def test_results_csv_identical_for_1_and_2_workers_and_reruns(tmp_path):
    grid = workloads.GridA(0, tmp_path, n=20_000)
    grid.setup()
    csv = workloads.CsvRoundtrip(0, tmp_path, n=5_000)
    csv.setup()
    csv.run_pass()
    config_path = csv._files("main")["config"]
    for name, run in (
        ("grid", lambda out, jobs: relfi.cli.run_experiment(
            dataclasses.replace(grid.config, output=out), workers=jobs)),
        ("csv", lambda out, jobs: relfi.cli.main(["run", config_path, "--output", out, "--jobs", str(jobs)])),
    ):
        texts = set()
        for k, jobs in enumerate((1, 2, 2, 1)):
            out = str(tmp_path / f"{name}-{k}")
            with workloads.quiet():
                run(out, jobs)
            texts.add((Path(out) / "results.csv").read_bytes())
        assert len(texts) == 1, name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_metrics_benchmark_json_lists(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_cells", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_a_1e6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0 and out.stdout == ""
