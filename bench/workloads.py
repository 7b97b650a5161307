"""The benchmark workloads.

Each workload builds its inputs in ``setup``, runs a small version of its
pass in ``warm_up``, and repeats ``run_pass`` while the benchmark
measures. Every pass does the same work and returns what it produced;
``check`` then tests those outputs against the closed forms in
``oracle`` or against stated properties, never against stored output.

All inputs derive from the benchmark seed except those of
``grid_a_1e6``: it runs the bundled ``experiment_a`` config as shipped
(seed 32), so its identity-cell fault, which depends on the data, fails
the same cells in every run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import yaml

import relfi
import relfi.cli
from oracle import RiskOracle, Scm, ols, sign_flip_normal_p

REPLICATIONS = 30
# An estimate may sit this many one-replication standard errors from the
# population value. Averaging replications shrinks only the replacement
# noise, not the test-set noise, so one replication's error is the scale.
K_SE = 5.0
LOSS = relfi.SquaredError()


@dataclasses.dataclass
class Verdict:
    """Check outcome: failed operations per pass, what else went wrong, and notes."""

    failed_per_pass: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def data_seeds(seed: int, tag: int, count: int) -> list[int]:
    """``count`` data seeds drawn from the benchmark seed and a workload tag."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def scm_of(graph) -> Scm:
    """Plain-data copy of a relfi graph, for the oracle."""
    return Scm(
        graph.nodes,
        graph.noise_scale,
        tuple((e.parent, e.child, e.coefficient) for e in graph.edges),
    )


def oracle_for(scm: Scm, data, features) -> RiskOracle:
    """Oracle for the OLS model fitted, apart from relfi, on the training rows."""
    idx = [data.column_index(f) for f in features]
    beta = ols(data.values, ~data.test_mask, idx, data.column_index(data.target_name))
    return RiskOracle(scm, data.target_name, features, beta)


def check_estimate(verdict, oracle, kind, feature, cond, value, n_test, where) -> None:
    cell = oracle.cell(feature, cond, kind)
    gap = abs(value - cell.mean)
    verdict.expect(
        gap <= cell.tolerance(n_test, K_SE),
        f"{where}: {feature} | {{{','.join(cond)}}} estimate {value!r} is {gap:.3g} "
        f"from the oracle {cell.mean!r} (allowed {cell.tolerance(n_test, K_SE):.3g})",
    )


def check_same(verdict, outputs, what) -> None:
    verdict.expect(all(o == outputs[0] for o in outputs[1:]), f"{what} differ between passes")


def read_results(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_results(verdict, text, oracle, n_test, where) -> None:
    """Oracle checks on results.csv rows.

    An identity cell (feature in G) must read exactly 0.0 with p = 1; one
    that does not counts as a failed operation.
    """
    for row in read_results(text):
        cond = row["G"].split(";") if row["G"] else []
        estimate, p = float(row["estimate"]), float(row["p"])
        if row["feature"] in cond:
            if not (estimate == 0.0 and p == 1.0):
                verdict.failed_per_pass += 1
                verdict.notes.append(
                    f"{where}: identity cell {row['feature']} | {{{row['G']}}} reads {row['estimate']}, p = {row['p']}"
                )
            continue
        check_estimate(verdict, oracle, "gaussian", row["feature"], cond, estimate, n_test, where)
        verdict.expect(0.0 <= p <= 1.0, f"{where}: p-value {p} outside [0, 1]")


class GridA:
    """``experiment_a`` at 10^6 rows through ``run_experiment`` on 2 workers."""

    name = "grid_a_1e6"
    workers = 2

    def __init__(self, seed: int, work: Path, n: int = 10**6, data_seed: int | None = None):
        self.work, self.n, self.data_seed = work, n, data_seed

    def setup(self) -> None:
        config = relfi.cli.load_config("experiment_a")
        self.config = dataclasses.replace(
            config,
            data_n=self.n,
            seed=config.seed if self.data_seed is None else self.data_seed,
            output=str(self.work / "out"),
        )
        self.ops_per_pass = len(self.config.jobs)

    def warm_up(self) -> None:
        small = dataclasses.replace(self.config, data_n=10_000, output=str(self.work / "warm"))
        relfi.cli.run_experiment(small, workers=self.workers)

    def run_pass(self) -> str:
        result = relfi.cli.run_experiment(self.config, workers=self.workers)
        return Path(result.csv_path).read_text()

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        check_same(verdict, outputs, "results.csv bytes")
        graph = relfi.builtin_graph(self.config.data_graph)
        data = relfi.sample_scm(
            graph, self.n, self.config.seed, self.config.target, self.config.test_fraction
        )
        oracle = oracle_for(scm_of(graph), data, self.config.features)
        check_results(verdict, outputs[0], oracle, data.n_test, self.name)
        return verdict


FEATURES_W = tuple(f"X{i}" for i in range(1, 11))
EXTERNAL_W = ("E1", "E2")


def random_scm(rng) -> Scm:
    """Two external roots, ten features in a random DAG, and Y."""
    nodes = EXTERNAL_W + FEATURES_W + ("Y",)
    scales = [1.0, 1.0] + list(rng.uniform(0.5, 1.0, len(FEATURES_W))) + [0.5]
    edges = []

    def signed(lo, hi):
        return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))

    for i, child in enumerate(FEATURES_W):
        for parent in EXTERNAL_W:
            if rng.random() < 0.5:
                edges.append((parent, child, signed(0.4, 0.9)))
        for parent in FEATURES_W[:i]:
            if rng.random() < 0.2:
                edges.append((parent, child, signed(0.3, 0.7)))
    for parent in FEATURES_W:
        if rng.random() < 0.6:
            edges.append((parent, "Y", signed(0.5, 1.5)))
    edges.append(("E1", "Y", signed(0.5, 1.0)))
    return Scm(nodes, tuple(float(s) for s in scales), tuple(edges))


class ProfileWide:
    """Knockoff ``rfi_profile`` over five sets G per feature on a 13-variable SCM."""

    name = "profile_wide"
    n = 20_000
    seeds = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.scm = random_scm(rng)
        graph = relfi.parse_graph(self.scm.as_mapping())
        self.sets, self.deltas = {}, {}
        for f in FEATURES_W:
            others = [g for g in FEATURES_W if g != f]
            pair = tuple(sorted(rng.choice(others, 2, replace=False).tolist()))
            self.sets[f] = [(), EXTERNAL_W, EXTERNAL_W + pair, tuple(others), EXTERNAL_W + tuple(others)]
            self.deltas[f] = (pair, EXTERNAL_W)
        self.inputs = []
        for ds in data_seeds(self.seed, 2, self.seeds):
            data = relfi.sample_scm(graph, self.n, ds, "Y")
            self.inputs.append((ds, data, relfi.fit_from_dataset(data, FEATURES_W)))
        self.ops_per_pass = len(self.inputs) * len(FEATURES_W) * (len(self.sets["X1"]) + 1)

    def warm_up(self) -> None:
        ds, data, model = self.inputs[0]
        factory = relfi.sampler_factory(data, "knockoff")
        relfi.rfi_profile(model, LOSS, data, ["X1"], self.sets["X1"][:2], factory, 2, ds)

    def run_pass(self):
        out = []
        for ds, data, model in self.inputs:
            factory = relfi.sampler_factory(data, "knockoff")
            for f in FEATURES_W:
                cells = relfi.rfi_profile(model, LOSS, data, [f], self.sets[f], factory, REPLICATIONS, ds)
                base, extension = self.deltas[f]
                delta = relfi.compute_delta_rfi(
                    model, LOSS, data, f, base, extension, factory, REPLICATIONS, ds
                )
                out.append((tuple(c.point for c in cells), delta.base.point, delta.extended.point))
        return out

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        check_same(verdict, outputs, "estimates")
        rows = iter(outputs[0])
        for ds, data, _ in self.inputs:
            oracle = oracle_for(self.scm, data, FEATURES_W)
            where = f"{self.name} data seed {ds}"
            for f in FEATURES_W:
                points, base_point, extended_point = next(rows)
                for cond, value in zip(self.sets[f], points):
                    check_estimate(verdict, oracle, "knockoff", f, cond, value, data.n_test, where)
                base, extension = self.deltas[f]
                union = tuple(sorted(base + extension))
                verdict.expect(
                    extended_point == points[self.sets[f].index(EXTERNAL_W + base)],
                    f"{where}: extended arm of {f} differs from its profile cell",
                )
                b, e = oracle.cell(f, base, "knockoff"), oracle.cell(f, union, "knockoff")
                gap = abs((base_point - extended_point) - (b.mean - e.mean))
                allowed = K_SE * (b.row_sd + e.row_sd) / math.sqrt(data.n_test)
                verdict.expect(gap <= allowed, f"{where}: delta of {f} is {gap:.3g} off (allowed {allowed:.3g})")
        return verdict


@contextlib.contextmanager
def quiet():
    """Swallow what the CLI prints to stdout, so the result stays the last line there."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


class CsvRoundtrip:
    """``relfi simulate`` -> CSV -> ``relfi fit`` -> ``relfi run`` on ``experiment_b``."""

    name = "csv_roundtrip"
    features = ("X1", "X2", "X3")

    def __init__(self, seed: int, work: Path, n: int = 200_000):
        self.work, self.n = work, n
        self.data_seed = data_seeds(seed, 3, 1)[0]

    def _files(self, tag: str) -> dict:
        d = self.work / tag
        d.mkdir(parents=True, exist_ok=True)
        return {k: str(d / v) for k, v in
                {"csv": "data.csv", "model": "model.yaml", "config": "config.yaml", "out": "out"}.items()}

    def setup(self) -> None:
        base = relfi.cli.load_config("experiment_b")
        for tag in ("warm", "main"):
            files = self._files(tag)
            config = dataclasses.replace(
                base, data_graph=None, data_n=None, data_csv=files["csv"],
                split_column="split", seed=self.data_seed, output=files["out"],
            )
            Path(files["config"]).write_text(yaml.safe_dump(relfi.cli.config_to_mapping(config)))
        self.ops_per_pass = 3 + len(base.jobs)

    def _verbs(self, n: int, files: dict):
        with quiet():
            codes = (
                relfi.cli.main(["simulate", "experiment_b", "--n", str(n), "--seed",
                                str(self.data_seed), "--out", files["csv"]]),
                relfi.cli.main(["fit", files["csv"], "--target", "Y", "--features",
                                ",".join(self.features), "--split-column", "split",
                                "--out", files["model"]]),
                relfi.cli.main(["run", files["config"]]),
            )
        results = Path(files["out"], "results.csv").read_text() if codes == (0, 0, 0) else ""
        return codes, results, Path(files["model"]).read_text() if codes[1] == 0 else ""

    def warm_up(self) -> None:
        self._verbs(2_000, self._files("warm"))

    def run_pass(self):
        return self._verbs(self.n, self._files("main"))

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        codes = outputs[0][0]
        verdict.expect(codes == (0, 0, 0), f"{self.name}: exit codes {codes}")
        check_same(verdict, outputs, "CLI outputs")
        if verdict.problems:
            return verdict
        files = self._files("main")
        graph = relfi.builtin_graph("experiment_b")
        simulated = relfi.sample_scm(graph, self.n, self.data_seed)
        loaded = relfi.load_csv(files["csv"], "Y", split_column="split")
        verdict.expect(
            loaded.variable_names == simulated.variable_names
            and loaded.values.tobytes() == simulated.values.tobytes()
            and np.array_equal(loaded.test_mask, simulated.test_mask),
            f"{self.name}: loaded CSV differs from the simulated dataset",
        )
        from_csv = relfi.load_model(files["model"])
        in_memory = relfi.fit_from_dataset(simulated, self.features)
        verdict.expect(
            from_csv.coefficients.tobytes() == in_memory.coefficients.tobytes()
            and from_csv.intercept == in_memory.intercept,
            f"{self.name}: the CSV fit differs from the in-memory fit",
        )
        oracle = oracle_for(scm_of(graph), simulated, self.features)
        check_results(verdict, outputs[0][1], oracle, simulated.n_test, self.name)
        return verdict


SIGN_FLIPS = 2**14


class SignFlipSmall:
    """``rfi_profile`` then ``sign_flip_exact`` per cell on ``experiment_b`` at 500 test rows."""

    name = "signflip_small"
    features = ("X1", "X2", "X3")
    sets = ((), ("C",), ("C", "X3"))
    n = 5_000
    seeds = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        graph = relfi.builtin_graph("experiment_b")
        self.scm = scm_of(graph)
        self.inputs = []
        for ds in data_seeds(self.seed, 4, self.seeds):
            data = relfi.sample_scm(graph, self.n, ds, "Y")
            self.inputs.append((ds, data, relfi.fit_from_dataset(data, self.features)))
        self.ops_per_pass = len(self.inputs) * len(self.features) * len(self.sets)

    def warm_up(self) -> None:
        ds, data, model = self.inputs[0]
        factory = relfi.sampler_factory(data)
        (cell,) = relfi.rfi_profile(model, LOSS, data, ["X1"], [()], factory, 2, ds)
        relfi.sign_flip_exact(cell.first_differences[:50])

    def run_pass(self):
        out = []
        for ds, data, model in self.inputs:
            factory = relfi.sampler_factory(data)
            cells = relfi.rfi_profile(model, LOSS, data, self.features, self.sets, factory, REPLICATIONS, ds)
            for cell in cells:
                out.append((cell, relfi.sign_flip_exact(cell.first_differences, SIGN_FLIPS)))
        return out

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        check_same(
            verdict,
            [[(c.point, c.first_differences.tobytes(), t.p_value) for c, t in o] for o in outputs],
            "estimates and p-values",
        )
        pairs = iter(outputs[0])
        for ds, data, _ in self.inputs:
            oracle = oracle_for(self.scm, data, self.features)
            where = f"{self.name} data seed {ds}"
            for _ in range(len(self.features) * len(self.sets)):
                cell, test = next(pairs)
                label = f"{where}: {cell.feature} | {{{','.join(cell.conditioning)}}}"
                p, d = test.p_value, cell.first_differences
                verdict.expect(1.0 / (SIGN_FLIPS + 1) <= p <= 1.0, f"{label}: p = {p} out of range")
                if cell.feature in cell.conditioning:
                    verdict.expect(not d.any() and p == 1.0, f"{label}: identity cell has p = {p}")
                    continue
                check_estimate(verdict, oracle, "gaussian", cell.feature, cell.conditioning,
                               cell.point, data.n_test, where)
                normal, edgeworth = sign_flip_normal_p(d)
                allowed = K_SE * math.sqrt(normal * (1.0 - normal) / SIGN_FLIPS) + 2.0 / SIGN_FLIPS + edgeworth
                verdict.expect(
                    abs(p - normal) <= allowed,
                    f"{label}: p = {p} but the normal approximation gives {normal} (allowed {allowed:.3g})",
                )
        return verdict


class SmallCells:
    """Many small cells: the passes of ``ProfileWide`` and then of ``SignFlipSmall``.

    One workload, not two, so that each can run long enough to be steady
    within the benchmark's time budget, which grows with the number of
    workloads.
    """

    name = "small_cells"

    def __init__(self, seed: int, work: Path):
        self.parts = (ProfileWide(seed, work), SignFlipSmall(seed, work))

    def setup(self) -> None:
        for part in self.parts:
            part.setup()
        self.ops_per_pass = sum(part.ops_per_pass for part in self.parts)

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def run_pass(self):
        return tuple(part.run_pass() for part in self.parts)

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        for k, part in enumerate(self.parts):
            found = part.check([o[k] for o in outputs])
            verdict.failed_per_pass += found.failed_per_pass
            verdict.problems += found.problems
            verdict.notes += found.notes
        return verdict


WORKLOADS = {w.name: w for w in (GridA, CsvRoundtrip, SmallCells)}
