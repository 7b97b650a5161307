import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfi import engine
from relfi.core import TEST, Dataset, InvalidPartitionError, SchemaError, SquaredError
from relfi.engine import (
    CSV_HEADER,
    EvaluationContext,
    RfiEstimate,
    compute_delta_rfi,
    compute_rfi,
    format_conditioning,
    result_row,
    rfi_profile,
    score_cell,
    write_results_csv,
)
from relfi.inference import paired_t_one_sided
from relfi.models import LinearModel, fit_from_dataset
from relfi.samplers import fit_sampler, sampler_factory
from relfi.scm import builtin_graph, sample_scm

LOSS = SquaredError()


@dataclass(frozen=True)
class TanhModel:
    """A non-linear model, tanh(X @ w) + c, scored through its predict."""

    feature_order: tuple[str, ...]
    w: np.ndarray
    c: float

    def predict(self, rows):
        return np.tanh(rows @ self.w) + self.c


class Adapter:
    """A model that is not a LinearModel but predicts as ``inner`` does; counts its calls."""

    def __init__(self, inner: LinearModel):
        self.inner, self.feature_order, self.calls = inner, inner.feature_order, 0

    def predict(self, rows):
        self.calls += 1
        return self.inner.predict(rows)


@pytest.fixture(scope="module")
def data():
    return sample_scm(builtin_graph("experiment_a"), 20000, seed=3)


@pytest.fixture(scope="module")
def model(data):
    return fit_from_dataset(data)


class TestComputeRfi:
    def test_matches_hand_rolled_marginal_resampling(self, data):
        # with an empty conditioning set the replacement is marginal
        # resampling; replaying the sampler by hand on the same seed pair
        # must reproduce the engine's risks bit for bit through the model's predict
        model = TanhModel(("X1", "X2", "X3", "X4"), np.array([0.4, -0.3, 0.2, 0.5]), 0.1)
        s = fit_sampler(data, "X4", ())
        est = compute_rfi(model, LOSS, data, "X4", (), s, replications=3, base_seed=9)
        X = data.matrix(model.feature_order, TEST)
        y = data.target_values(TEST)
        baseline = LOSS.pointwise(y, model.predict(X)).mean()
        assert est.baseline_risk == baseline
        j = model.feature_order.index("X4")
        for r in range(3):
            z = np.random.default_rng([9, r]).standard_normal(X.shape[0])
            Xp = X.copy(order="F")  # the engine's layout, which the model's gemv reads
            Xp[:, j] = s.intercept + s.scale * z
            risk = float(LOSS.pointwise(y, model.predict(Xp)).mean())
            assert est.perturbed_risks[r] == risk

    def test_linear_model_shifts_its_baseline_predictions(self, data, model):
        # an exact LinearModel is scored as base_pred + beta_j (xtilde - x_j), which
        # agrees with predicting on the replaced matrix up to rounding
        s = fit_sampler(data, "X3", ("X1",))
        est = compute_rfi(model, LOSS, data, "X3", ("X1",), s, replications=3, base_seed=5)
        X = data.matrix(model.feature_order, TEST)
        y = data.target_values(TEST)
        base_pred = model.predict(X)
        j = model.feature_order.index("X3")
        rows = data.matrix(("X1",), TEST)
        for r in range(3):
            z = np.random.default_rng([5, r]).standard_normal(X.shape[0])
            pred = base_pred + model.coefficients[j] * (s.sample(rows, z) - X[:, j])
            assert est.perturbed_risks[r] == float(LOSS.pointwise(y, pred).mean())
        adapter = Adapter(model)
        generic = compute_rfi(adapter, LOSS, data, "X3", ("X1",), s, 3, 5)
        assert adapter.calls == 1 + 3  # the baseline, then one predict per replication
        np.testing.assert_allclose(generic.perturbed_risks, est.perturbed_risks, rtol=1e-12)
        assert generic.baseline_risk == est.baseline_risk
        assert generic.point == pytest.approx(est.point, rel=1e-12)

    def test_zero_coefficient_gives_exact_zero(self, data):
        # prediction ignores X1, so any replacement leaves it untouched
        m = LinearModel(("X1", "X2", "X3", "X4"), np.array([0.0, 2.0, 1.0, -0.5]), 0.3)
        for kind in ("gaussian", "knockoff"):
            s = fit_sampler(data, "X1", ("X2",), kind=kind)
            est = compute_rfi(m, LOSS, data, "X1", ("X2",), s, replications=4)
            assert est.point == 0.0
            assert est.se == 0.0
            assert not est.first_differences.any()

    def test_feature_in_conditioning_is_identity(self, data, model):
        est = compute_rfi(model, LOSS, data, "X3", ("X3", "X1"), replications=5)
        assert est.point == 0.0
        assert est.se == 0.0
        assert not est.first_differences.any()
        assert paired_t_one_sided(est.first_differences).p_value == 1.0
        assert est.conditioning == ("X1", "X3")

    def test_exact_at_thirty_replications(self, data, model):
        # np.mean of 30 copies of these baselines is not the baseline, so
        # exactness needs the reproduced-baseline case handled explicitly
        ignoring = LinearModel(("X1", "X2", "X3", "X4"), np.array([0.0, 2.0, 1.0, -0.5]), 0.3)
        s = fit_sampler(data, "X1", ("X2",))
        cells = [
            compute_rfi(model, LOSS, data, "X3", ("X3",), replications=30),
            compute_rfi(ignoring, LOSS, data, "X1", ("X2",), s, replications=30),
        ]
        for est in cells:
            assert np.mean([est.baseline_risk] * 30) != est.baseline_risk
            assert est.point == 0.0
            assert est.se == 0.0

    def test_shared_context_matches_own_context(self, data, model):
        ctx = EvaluationContext(model, LOSS, data, 3, 4)
        for feature, cond in (("X4", ("X2",)), ("X3", ()), ("X3", ("X3",))):
            s = None if feature in cond else fit_sampler(data, feature, cond)
            shared = compute_rfi(model, LOSS, data, feature, cond, s, 3, 4, context=ctx)
            own = compute_rfi(model, LOSS, data, feature, cond, s, 3, 4)
            assert shared.perturbed_risks == own.perturbed_risks
            assert shared.first_differences.tobytes() == own.first_differences.tobytes()

    def test_context_must_match_the_call(self, data, model):
        ctx = EvaluationContext(model, LOSS, data, 3, 4)
        s = fit_sampler(data, "X4", ())
        for replications, seed in ((2, 4), (3, 5)):
            with pytest.raises(ValueError, match="context"):
                compute_rfi(model, LOSS, data, "X4", (), s, replications, seed, context=ctx)
        with pytest.raises(ValueError, match="context"):
            compute_rfi(model, SquaredError(), data, "X4", (), s, 3, 4, context=ctx)

    def test_context_holds_locked_per_run_state(self, data, model):
        ctx = EvaluationContext(model, LOSS, data, 3, 7)
        X = data.matrix(model.feature_order, TEST)
        assert np.array_equal(ctx.X, X)
        assert ctx.baseline_risk == float(LOSS.pointwise(ctx.y, model.predict(X)).mean())
        assert ctx.base_pred.tobytes() == model.predict(X).tobytes()
        for r in range(3):
            z = np.random.default_rng([7, r]).standard_normal(X.shape[0])
            assert ctx.noise[r].tobytes() == z.tobytes()
        for arr in (ctx.X, ctx.y, ctx.base_pred, ctx.base_losses, ctx.noise):
            assert not arr.flags.writeable

    def test_noise_drawn_on_a_pool_has_the_same_bits(self, data, model):
        # each row comes from its own seed pair, whichever thread draws it
        serial = EvaluationContext(model, LOSS, data, 5, 7)
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = EvaluationContext(model, LOSS, data, 5, 7, pool)
        assert pooled.noise.tobytes() == serial.noise.tobytes()
        assert not pooled.noise.flags.writeable

    def test_conditioning_on_all_other_features(self, data, model):
        cond = ("X1", "X2", "X4")
        s = fit_sampler(data, "X3", cond)
        est = compute_rfi(model, LOSS, data, "X3", cond, s, replications=5)
        assert est.point > 0.0

    def test_deterministic_given_seed(self, data, model):
        s = fit_sampler(data, "X4", ("X2",))
        a = compute_rfi(model, LOSS, data, "X4", ("X2",), s, replications=3, base_seed=2)
        b = compute_rfi(model, LOSS, data, "X4", ("X2",), s, replications=3, base_seed=2)
        assert a.perturbed_risks == b.perturbed_risks
        assert np.array_equal(a.first_differences, b.first_differences)
        c = compute_rfi(model, LOSS, data, "X4", ("X2",), s, replications=3, base_seed=5)
        assert a.perturbed_risks != c.perturbed_risks

    def test_conditioning_canonicalized(self, data, model):
        s = fit_sampler(data, "X4", ("X2", "X1"))
        est = compute_rfi(model, LOSS, data, "X4", ("X2", "X1", "X2"), s, replications=2)
        assert est.conditioning == ("X1", "X2")

    def test_sampler_mismatch_rejected(self, data, model):
        s = fit_sampler(data, "X4", ("X2",))
        with pytest.raises(SchemaError, match="does not match"):
            compute_rfi(model, LOSS, data, "X4", ("X1",), s, replications=2)
        with pytest.raises(SchemaError, match="does not match"):
            compute_rfi(model, LOSS, data, "X3", ("X2",), s, replications=2)

    def test_missing_sampler_rejected(self, data, model):
        with pytest.raises(SchemaError, match="sampler"):
            compute_rfi(model, LOSS, data, "X4", ("X2",), None, replications=2)

    def test_response_in_conditioning_rejected(self, data, model):
        with pytest.raises(InvalidPartitionError, match="response"):
            compute_rfi(model, LOSS, data, "X4", ("Y",), None, replications=2)

    def test_unknown_names_rejected(self, data, model):
        with pytest.raises(SchemaError):
            compute_rfi(model, LOSS, data, "X9", (), None, replications=2)
        with pytest.raises(SchemaError):
            compute_rfi(model, LOSS, data, "X4", ("Q",), None, replications=2)
        # a bare string is not a set of its characters
        s = fit_sampler(data, "X4", ("X1", "X2"))
        with pytest.raises(SchemaError, match="not the string 'X2'"):
            compute_rfi(model, LOSS, data, "X4", "X2", s, replications=2)
        with pytest.raises(SchemaError, match="not the string 'X1'"):
            rfi_profile(model, LOSS, data, "X1", [()], sampler_factory(data), 2)
        with pytest.raises(SchemaError, match="conditioning_sets must be a list, not the string 'X2'"):
            rfi_profile(model, LOSS, data, ["X1"], "X2", sampler_factory(data), 2)
        with pytest.raises(SchemaError, match="not the string 'X1'"):
            compute_delta_rfi(model, LOSS, data, "X4", "X1", ("X2",), sampler_factory(data), 2)

    def test_replications_must_be_positive(self, data, model):
        with pytest.raises(ValueError):
            compute_rfi(model, LOSS, data, "X4", (), None, replications=0)
        # counts are integers, never truncated floats or booleans
        s = fit_sampler(data, "X4", ())
        for name, value in (("replications", 2.7), ("replications", True),
                            ("replications", np.bool_(True)), ("base_seed", 1.9),
                            ("base_seed", -1), ("base_seed", False)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                compute_rfi(model, LOSS, data, "X4", (), s, **{name: value})
        with pytest.raises(ValueError, match="replications must be an integer"):
            rfi_profile(model, LOSS, data, ["X4"], [()], sampler_factory(data), 2.5, 0)
        est = compute_rfi(model, LOSS, data, "X4", (), s, np.int64(2), np.uint8(3))
        assert (est.replications, est.base_seed) == (2, 3)
        assert type(est.base_seed) is int
        same = compute_rfi(model, LOSS, data, "X4", (), s, 2, 3)
        assert est.perturbed_risks == same.perturbed_risks

    def test_no_test_rows_rejected(self, model):
        vals = np.random.default_rng(0).normal(size=(20, 5))
        d = Dataset(("X1", "X2", "X3", "X4", "Y"), vals, "Y", np.zeros(20, dtype=bool))
        s = fit_sampler(d, "X4", ())
        with pytest.raises(SchemaError, match="test rows"):
            compute_rfi(model, LOSS, d, "X4", (), s, replications=2)

    def test_non_finite_baseline_rejected(self, data):
        # at 1e308 X1's term overflows, so every test loss is inf: the identity cell
        # cannot read 0.0, and no cell's estimate would mean anything; at 1e150 the
        # losses and their mean are finite, but no cell's test could sum the squares
        # of its loss differences
        for coefficient, message in [(1e308, "baseline risk inf"),
                                     (1e150, "the squares of the test losses do not sum")]:
            m = LinearModel(("X1", "X2", "X3", "X4"), np.array([coefficient, 1.0, 1.0, 1.0]), 0.0)
            with pytest.raises(ValueError, match=message):
                rfi_profile(m, LOSS, data, ["X2"], [("X2",)], sampler_factory(data), 2)


SMALL = [sample_scm(builtin_graph("experiment_a"), 400, seed=s, test_fraction=0.25) for s in (5, 6)]
MODELS = [
    fit_from_dataset(SMALL[0]),
    LinearModel(("X1", "X3", "X4"), np.array([0.5, 1.0, 1.0]), 0.1),
]
FACTORIES = [sampler_factory(d, "knockoff") for d in SMALL]
CELLS = [("X3", ()), ("X1", ("X2",)), ("X4", ("X1", "X3")), ("X3", ("X3",))]
CALL = st.tuples(
    st.sampled_from(["compute_rfi", "rfi_profile", "compute_delta_rfi"]),
    st.integers(0, 1), st.integers(0, 1), st.sampled_from([1, 3]), st.sampled_from([0, 7]),
    st.integers(0, len(CELLS) - 1),
)


def same_bits(got, want):
    assert got.perturbed_risks == want.perturbed_risks
    assert got.first_differences.tobytes() == want.first_differences.tobytes()


class TestLibraryContext:
    """Library calls reuse the last context built from the same inputs."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(calls=st.lists(CALL, min_size=1, max_size=6))
    def test_any_interleaving_matches_a_fresh_context(self, calls):
        for op, m, d, replications, seed, c in calls:
            model, data, factory = MODELS[m], SMALL[d], FACTORIES[d]
            feature, cond = CELLS[c]
            fresh = EvaluationContext(model, LOSS, data, replications, seed)
            if op == "compute_rfi":
                s = None if feature in cond else factory(feature, cond)
                same_bits(compute_rfi(model, LOSS, data, feature, cond, s, replications, seed),
                          compute_rfi(model, LOSS, data, feature, cond, s, replications, seed,
                                      context=fresh))
            elif op == "rfi_profile":
                got = rfi_profile(model, LOSS, data, [feature, "X4"], [cond, ("X2",)], factory,
                                  replications, seed)
                cells = [(f, g) for f in (feature, "X4") for g in (cond, ("X2",))]
                for est, (f, g) in zip(got, cells, strict=True):
                    same_bits(est, score_cell(fresh, f, g, factory))
            else:
                delta = compute_delta_rfi(model, LOSS, data, feature, (), ("X2",), factory,
                                          replications, seed)
                same_bits(delta.base, score_cell(fresh, feature, (), factory))
                same_bits(delta.extended, score_cell(fresh, feature, ("X2",), factory))

    def test_slot_serves_only_the_same_inputs(self):
        data, model = SMALL[0], MODELS[0]
        twin = LinearModel(model.feature_order, model.coefficients.copy(), model.intercept)
        copy = Dataset(data.variable_names, data.values.copy(), data.target_name, data.test_mask)
        for call in ((twin, LOSS, data, 3, 4), (model, SquaredError(), data, 3, 4),
                     (model, LOSS, copy, 3, 4), (model, LOSS, data, 2, 4),
                     (model, LOSS, data, 3, 5)):
            compute_rfi(model, LOSS, data, "X3", ("X3",), None, 3, 4)
            kept = engine._last_context
            rfi_profile(model, LOSS, data, ["X3"], [("X3",)], FACTORIES[0], np.int64(3), 4)
            assert engine._last_context is kept
            compute_rfi(*call[:3], "X3", ("X3",), None, *call[3:])
            new = engine._last_context
            assert new is not kept
            assert (new.model, new.loss, new.data, new.replications, new.base_seed) == call

    def test_counts_are_checked_before_the_slot(self):
        data, model = SMALL[0], MODELS[0]
        compute_rfi(model, LOSS, data, "X3", ("X3",), None, 1, 0)
        for replications, seed in ((True, 0), (1.0, 0), (1, False)):
            with pytest.raises(ValueError, match="must be an integer"):
                compute_rfi(model, LOSS, data, "X3", ("X3",), None, replications, seed)
            with pytest.raises(ValueError, match="must be an integer"):
                rfi_profile(model, LOSS, data, ["X3"], [()], FACTORIES[0], replications, seed)

    def test_column_reads_match_data_matrix(self):
        data = SMALL[1]
        ctx = EvaluationContext(MODELS[1], LOSS, data, 2, 0)
        knockoff = FACTORIES[1]("X2", ("X1", "X4"))
        assert knockoff.required_columns == ("X2", "X1", "X4")
        for names in ((), ("X3",), ("X2",), ("X4", "X3", "X1"), knockoff.required_columns,
                      ("X2", "X2")):
            for _ in range(2):  # first gather, then the kept columns
                got, want = ctx._test_matrix(names), data.matrix(names, TEST)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.flags.f_contiguous and got.tobytes() == want.tobytes()
        assert set(ctx._columns) == {"X1", "X2", "X3", "X4"}
        assert not any(column.flags.writeable for column in ctx._columns.values())


def test_perfect_fit_estimate_is_finite():
    # Y = a + 2b + 0.5 exactly: OLS leaves a baseline of rounding noise
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=200), rng.normal(size=200)
    values = np.column_stack([a, b, a + 2 * b + 0.5])
    mask = np.zeros(200, dtype=bool)
    mask[::10] = True
    d = Dataset(("a", "b", "Y"), values, "Y", mask)
    m = fit_from_dataset(d)
    single = compute_rfi(m, LOSS, d, "a", (), fit_sampler(d, "a", ()), replications=3)
    profile = rfi_profile(m, LOSS, d, ["a"], [(), ("a",)], sampler_factory(d), 3)
    for est in (single,) + profile:
        assert est.baseline_risk <= np.finfo(float).eps * np.var(d.target_values(TEST))
        assert math.isfinite(est.point)


class TestEstimateRecord:
    def _make(self, perturbed, baseline=1.0):
        return RfiEstimate("f", (), baseline, perturbed, np.zeros(3), 0)

    def test_reproduced_baseline_reads_exactly_zero(self):
        assert np.mean([0.1] * 30) != 0.1
        est = self._make((0.1,) * 30, baseline=0.1)
        assert est.point == 0.0
        assert est.se == 0.0
        # one differing replication falls back to the plain mean
        risks = (0.1,) * 29 + (0.3,)
        other = self._make(risks, baseline=0.1)
        assert other.point == float(np.mean(risks) - 0.1)

    def test_point_and_se(self):
        est = self._make((1.5, 2.5), baseline=1.0)
        assert est.point == 1.0
        assert est.se == pytest.approx(np.std([0.5, 1.5], ddof=1) / math.sqrt(2))
        assert est.replications == 2

    def test_formula_order(self):
        # on these risks the other orders of each formula read differently
        r, b = np.array([1.645, 1.834, 1.253]), 0.757
        est = self._make(tuple(r.tolist()), baseline=b)
        root = math.sqrt(3)
        assert est.point == float(np.mean(r) - b) != float(np.mean(r - b))
        assert est.se == float(np.std(r - b, ddof=1) / root) != float(np.std(r, ddof=1) / root)

    def test_single_replication_has_nan_se(self):
        est = self._make((2.0,))
        assert math.isnan(est.se)

    def test_needs_a_replication(self):
        with pytest.raises(ValueError):
            self._make(())

    def test_differences_locked(self):
        est = self._make((2.0,))
        with pytest.raises(ValueError):
            est.first_differences[0] = 1.0


class TestDeltaRfi:
    def test_small_scale_chain_contrast(self, data, model):
        fac = sampler_factory(data)
        # adding X1 to {X2} starves X4 of signal but leaves X3 untouched
        d4 = compute_delta_rfi(
            model, LOSS, data, "X4", ("X2",), ("X1",), fac, replications=5, base_seed=1
        )
        assert d4.value > 3 * d4.se
        d3 = compute_delta_rfi(
            model, LOSS, data, "X3", ("X2",), ("X1",), fac, replications=5, base_seed=1
        )
        assert abs(d3.value) < 2 * d3.se

    def test_quadrature_se(self, data, model):
        fac = sampler_factory(data)
        d = compute_delta_rfi(
            model, LOSS, data, "X4", (), ("X1",), fac, replications=4, base_seed=0
        )
        assert d.se == pytest.approx(math.hypot(d.base.se, d.extended.se), abs=1e-15)
        assert d.value == pytest.approx(d.base.point - d.extended.point, abs=1e-15)
        assert d.base.base_seed == d.extended.base_seed

    def test_empty_extension_is_exactly_zero(self, data, model):
        fac = sampler_factory(data)
        d = compute_delta_rfi(
            model, LOSS, data, "X4", ("X2",), (), fac, replications=3, base_seed=0
        )
        assert d.value == 0.0

    def test_validation(self, data, model):
        fac = sampler_factory(data)
        with pytest.raises(InvalidPartitionError, match="overlaps"):
            compute_delta_rfi(model, LOSS, data, "X4", ("X1",), ("X1",), fac)
        with pytest.raises(InvalidPartitionError, match="extension"):
            compute_delta_rfi(model, LOSS, data, "X4", ("X2",), ("X4",), fac)
        with pytest.raises(InvalidPartitionError, match="extension"):
            compute_delta_rfi(model, LOSS, data, "X4", ("X2",), ("Y",), fac)


class TestProfile:
    def test_row_major_order_with_identity_cells(self, data, model):
        fac = sampler_factory(data)
        grid = rfi_profile(
            model, LOSS, data,
            ("X3", "X4"), ((), ("X3",)),
            fac, replications=2, base_seed=0,
        )
        assert [(e.feature, e.conditioning) for e in grid] == [
            ("X3", ()), ("X3", ("X3",)), ("X4", ()), ("X4", ("X3",)),
        ]
        # the identity cell comes out exactly zero
        assert grid[1].point == 0.0

    def test_profile_deterministic(self, data, model):
        fac = sampler_factory(data)
        a = rfi_profile(model, LOSS, data, ("X4",), ((),), fac, replications=2)
        b = rfi_profile(model, LOSS, data, ("X4",), ((),), fac, replications=2)
        assert a[0].perturbed_risks == b[0].perturbed_risks

    def test_empty_features(self, data, model):
        fac = sampler_factory(data)
        assert rfi_profile(model, LOSS, data, (), ((),), fac) == ()


class TestResultRows:
    def test_format_conditioning(self):
        assert format_conditioning(()) == ""
        assert format_conditioning(("X2", "X1", "X2")) == "X1;X2"

    def test_result_row_uses_repr(self):
        est = RfiEstimate("X1", ("X2",), 1.0, (1.5, 2.5), np.zeros(3), 7)
        test = paired_t_one_sided([0.1, 0.2, 0.3])
        row = result_row(est, test)
        assert row[0] == "X1"
        assert row[1] == "X2"
        assert row[2] == repr(est.point)
        assert float(row[2]) == est.point
        assert row[6] == "2"
        assert row[7] == "7"

    def test_write_results_csv_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(path, [["X1", "", "0.5", "0.1", "5.0", "0.001", "30", "0"]])
        text = path.read_text()
        assert text == (
            ",".join(CSV_HEADER) + "\nX1,,0.5,0.1,5.0,0.001,30,0\n"
        )
