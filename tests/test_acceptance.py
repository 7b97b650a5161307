"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible
with ``pytest -s``) and asserts every sub-check at its stated tolerance.
The two experiment grids are computed once per session at the seeds the
bundled configs freeze.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

from relfi.cli import main
from relfi.core import TEST, TRAIN, SquaredError, empirical_risk
from relfi.engine import compute_rfi, rfi_profile
from relfi.inference import paired_t_one_sided, sign_flip_exact
from relfi.models import LinearModel, fit_from_dataset
from relfi.samplers import (
    GaussianConditionalSampler,
    GaussianJoint,
    conditional_gaussian_params,
    fit_sampler,
    sampler_factory,
)
from relfi.scm import (
    Edge,
    ScmGraph,
    analytic_covariance,
    builtin_graph,
    sample_scm,
)

LOSS = SquaredError()
ALPHA = 0.01


def draw(sampler, data, seed):
    """One replacement column for the test rows, with noise drawn from ``seed``."""
    rows = data.matrix(sampler.required_columns, TEST)
    return sampler.sample(rows, np.random.default_rng(seed).standard_normal(rows.shape[0]))


# Seeds match the bundled configs (calibrated there, frozen here).
SEED_A = 32
SEED_B = 4


def _report(number: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed sub-checks: {', '.join(failed)}"


def _grid(graph, seed, features, conditioning_sets):
    t0 = time.perf_counter()
    data = sample_scm(graph, 100000, seed=seed)
    model = fit_from_dataset(data, features=features)
    fit_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    estimates = rfi_profile(
        model, LOSS, data, features, conditioning_sets,
        sampler_factory(data), replications=30, base_seed=seed,
    )
    by_cell = {(e.feature, e.conditioning): e for e in estimates}
    tests = {
        cell: paired_t_one_sided(e.first_differences)
        for cell, e in by_cell.items()
    }
    grid_seconds = time.perf_counter() - t1
    return SimpleNamespace(
        data=data, model=model, estimates=by_cell, tests=tests,
        fit_seconds=fit_seconds, grid_seconds=grid_seconds,
    )


@pytest.fixture(scope="session")
def chain_grid():
    return _grid(
        builtin_graph("experiment_a"), SEED_A,
        ("X1", "X2", "X3", "X4"),
        ((), ("X1",), ("X2",), ("X1", "X2")),
    )


@pytest.fixture(scope="session")
def confounder_grid():
    return _grid(builtin_graph("experiment_b"), SEED_B, ("X1", "X2", "X3"), ((), ("C",)))


def _random_graph(rng) -> ScmGraph:
    # 2 to 6 nodes, edges only forward in declaration order, response last
    k = int(rng.integers(2, 7))
    names = tuple(f"V{i}" for i in range(1, k)) + ("Y",)
    scales = tuple(float(s) for s in rng.uniform(0.4, 1.2, size=k))
    edges = []
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < 0.6:
                edges.append(Edge(names[a], names[b], float(rng.uniform(-1.5, 1.5))))
    return ScmGraph(names, scales, tuple(edges))


def test_criterion_1_chain_model_fit(chain_grid):
    targets = {"X1": 0.00, "X2": -0.01, "X3": 1.01, "X4": 1.00}
    coefs = dict(zip(chain_grid.model.feature_order, chain_grid.model.coefficients))
    mse = empirical_risk(chain_grid.model, chain_grid.data, LOSS, TEST)
    checks = {
        f"coef {name} within 0.03": abs(coefs[name] - want) <= 0.03
        for name, want in targets.items()
    }
    checks["mse within 0.25 +- 0.02"] = abs(mse - 0.25) <= 0.02
    checks["runtime < 10s"] = chain_grid.fit_seconds < 10.0
    _report(1, "chain graph model fit", checks)


def test_criterion_2_confounder_model_fit(confounder_grid):
    targets = {"X1": 1.0, "X2": 1.17, "X3": 0.67}
    coefs = dict(
        zip(confounder_grid.model.feature_order, confounder_grid.model.coefficients)
    )
    mse = empirical_risk(confounder_grid.model, confounder_grid.data, LOSS, TEST)
    checks = {
        f"coef {name} within 0.05": abs(coefs[name] - want) <= 0.05
        for name, want in targets.items()
    }
    checks["mse within 0.40 +- 0.02"] = abs(mse - 0.40) <= 0.02
    checks["runtime < 10s"] = confounder_grid.fit_seconds < 10.0
    _report(2, "confounder graph model fit", checks)


def test_criterion_3_chain_grid_pattern(chain_grid):
    conds = ((), ("X1",), ("X2",), ("X1", "X2"))
    checks = {}
    for feature in ("X1", "X2"):
        for cond in conds:
            checks[f"{feature} given {cond or '{}'} not significant"] = (
                chain_grid.tests[(feature, cond)].p_value >= ALPHA
            )
    for feature in ("X3", "X4"):
        for cond in conds:
            checks[f"{feature} given {cond or '{}'} significant"] = (
                chain_grid.tests[(feature, cond)].p_value < ALPHA
            )
    e3_base = chain_grid.estimates[("X3", ("X2",))]
    e3_ext = chain_grid.estimates[("X3", ("X1", "X2"))]
    delta3 = e3_base.point - e3_ext.point
    checks["X3 unchanged by adding X1 (2 SE)"] = abs(delta3) <= 2 * math.hypot(
        e3_base.se, e3_ext.se
    )
    e4_base = chain_grid.estimates[("X4", ("X2",))]
    e4_ext = chain_grid.estimates[("X4", ("X1", "X2"))]
    drop4 = e4_base.point - e4_ext.point
    checks["X4 decreases by adding X1 (3 SE)"] = drop4 > 3 * math.hypot(
        e4_base.se, e4_ext.se
    )
    checks["runtime < 5min"] = chain_grid.fit_seconds + chain_grid.grid_seconds < 300.0
    _report(3, "chain graph importance pattern", checks)


def test_criterion_4_confounder_grid_pattern(confounder_grid):
    est = confounder_grid.estimates
    e1_marg, e1_cond = est[("X1", ())], est[("X1", ("C",))]
    gap1 = abs(e1_marg.point - e1_cond.point)
    e2_marg, e2_cond = est[("X2", ())], est[("X2", ("C",))]
    drop2 = e2_marg.point - e2_cond.point
    checks = {
        "X1 unaffected by conditioning on C (2 SE)": gap1
        <= 2 * math.hypot(e1_marg.se, e1_cond.se),
        "X3 given C not significant": confounder_grid.tests[("X3", ("C",))].p_value >= ALPHA,
        "X2 given C still positive (3 SE)": e2_cond.point > 3 * e2_cond.se,
        "X2 shrinks under C (3 SE)": drop2 > 3 * math.hypot(e2_marg.se, e2_cond.se),
        "runtime < 3min": confounder_grid.fit_seconds + confounder_grid.grid_seconds
        < 180.0,
    }
    _report(4, "confounder graph importance pattern", checks)


def test_criterion_5_ignored_feature_exactness():
    rng = np.random.default_rng(505)
    checks = {}
    exact = 0
    for trial in range(100):
        graph = _random_graph(rng)
        data = sample_scm(graph, 60, seed=int(rng.integers(2**31)))
        features = tuple(n for n in graph.nodes if n != "Y")
        j = str(rng.choice(list(features)))
        others = [n for n in features if n != j]
        g_size = int(rng.integers(0, len(others) + 1))
        cond = tuple(str(g) for g in rng.choice(others, size=g_size, replace=False))
        coef = rng.uniform(-2.0, 2.0, size=len(features))
        coef[features.index(j)] = 0.0
        model = LinearModel(features, coef, float(rng.uniform(-1.0, 1.0)))
        kind = "gaussian" if trial % 2 == 0 else "knockoff"
        sampler = fit_sampler(data, j, cond, kind=kind)
        est = compute_rfi(model, LOSS, data, j, cond, sampler, replications=2,
                          base_seed=trial)
        exact += est.point == 0.0 and not est.first_differences.any()
    checks["exactly 0.0 in 100/100 random configurations"] = exact == 100
    _report(5, "zero-coefficient feature exactness", checks)


def test_criterion_6_monte_carlo_oracle():
    master = np.random.default_rng(202606)
    worst = 0.0
    for trial in range(20):
        graph = _random_graph(master)
        data_seed = int(master.integers(2**31))
        oracle_seed = int(master.integers(2**31))
        data = sample_scm(graph, 20000, seed=data_seed)
        features = tuple(n for n in graph.nodes if n != "Y")
        model = fit_from_dataset(data)
        j = str(master.choice(list(features)))
        others = [n for n in features if n != j]
        g_size = int(master.integers(0, len(others) + 1))
        cond = tuple(
            sorted(str(g) for g in master.choice(others, size=g_size, replace=False))
        )
        sampler = fit_sampler(data, j, cond)
        est = compute_rfi(model, LOSS, data, j, cond, sampler, replications=30,
                          base_seed=trial)
        fd = est.first_differences
        se_test = float(fd.std(ddof=1) / math.sqrt(fd.size))

        # oracle: a fresh million-draw sample of the exact joint, with the
        # replacement drawn from the exact conditional of the feature
        k = len(graph.nodes)
        cov = analytic_covariance(graph)
        orng = np.random.default_rng(oracle_seed)
        draws = orng.standard_normal((1_000_000, k)) @ np.linalg.cholesky(cov).T
        joint = GaussianJoint(graph.nodes, np.zeros(k), cov, 0.0)
        slope, intercept, var = conditional_gaussian_params(joint, j, cond)
        g_idx = [graph.node_index(g) for g in cond]
        replacement = (
            intercept
            + draws[:, g_idx] @ slope
            + math.sqrt(var) * orng.standard_normal(1_000_000)
        )
        order = model.feature_order
        X = draws[:, [graph.node_index(f) for f in order]]
        y = draws[:, graph.node_index("Y")]
        baseline = (y - model.predict(X)) ** 2
        Xp = X.copy()
        Xp[:, order.index(j)] = replacement
        diff = (y - model.predict(Xp)) ** 2 - baseline
        rfi_mc = float(diff.mean())
        se_mc = float(diff.std(ddof=1) / math.sqrt(diff.size))

        combined = math.hypot(se_test, se_mc)
        worst = max(worst, abs(est.point - rfi_mc) / combined)
    checks = {"estimator within 3 combined SE of oracle in 20/20": worst < 3.0}
    _report(6, "Monte-Carlo oracle equivalence", checks)


def test_criterion_7_sampler_correctness():
    graph = builtin_graph("experiment_b")
    cov = analytic_covariance(graph)
    joint = GaussianJoint(graph.nodes, np.zeros(5), cov, 0.0)
    slope, intercept, var = conditional_gaussian_params(joint, "X3", ("C",))
    sampler = GaussianConditionalSampler("X3", ("C",), slope, intercept, math.sqrt(var))
    data = sample_scm(graph, 100000, seed=77)
    rows = data.matrix(("C",), None)
    out = sampler.sample(rows, np.random.default_rng(55).standard_normal(rows.shape[0]))
    n = out.shape[0]
    resid = out - intercept - rows @ slope
    c = rows[:, 0]
    slope_hat = np.cov(out, c, ddof=1)[0, 1] / c.var(ddof=1)
    checks = {
        "conditional mean within 3 SE": abs(resid.mean()) < 3 * math.sqrt(var / n),
        "conditional variance within 3 SE": abs(resid.var(ddof=1) - var)
        < 3 * var * math.sqrt(2.0 / n),
        "conditional slope within 3 SE": abs(slope_hat - slope[0])
        < 3 * math.sqrt(var) / (c.std(ddof=1) * math.sqrt(n)),
    }
    # with an empty conditioning set the replacement is a marginal draw
    marginal = fit_sampler(data, "X3", ())
    draws = draw(marginal, data, seed=123)
    ks = sps.ks_2samp(draws, data.column("X3", TRAIN))
    checks["marginal replacement passes KS at 1%"] = ks.pvalue > 0.01
    for kind in ("gaussian", "knockoff"):
        s = fit_sampler(data, "X3", ("C",), kind=kind)
        a = draw(s, data, seed=9)
        b = draw(s, data, seed=9)
        checks[f"{kind} draws byte-identical"] = a.tobytes() == b.tobytes()
    _report(7, "sampler correctness", checks)


def test_criterion_8_inference_calibration():
    rng = np.random.default_rng(808)
    rejections = 0
    trials = 10000
    for _ in range(trials):
        rejections += paired_t_one_sided(rng.standard_normal(40)).p_value < ALPHA
    rate = rejections / trials
    all_positive = sign_flip_exact(np.linspace(0.1, 1.2, 12))
    checks = {
        "null rejection rate in (0.005, 0.02)": 0.005 < rate < 0.02,
        "12 positive differences give exactly 1/4096": all_positive.p_value
        == 1.0 / 4096.0,
    }
    _report(8, "inference calibration", checks)


def test_criterion_9_run_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    checks = {
        "first run exits 0": main(["run", "experiment_a", "--output", str(first)]) == 0,
        "second run exits 0": main(["run", "experiment_a", "--output", str(second)])
        == 0,
    }
    for name in ("results.csv", "figure.svg"):
        checks[f"{name} byte-identical"] = (first / name).read_bytes() == (
            second / name
        ).read_bytes()
    _report(9, "run determinism", checks)
