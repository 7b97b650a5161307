import numpy as np
import pytest

from relfi.core import (
    TEST,
    TRAIN,
    Dataset,
    InvalidPartitionError,
    SchemaError,
    SquaredError,
    empirical_risk,
    get_loss,
    load_csv,
    make_partition,
    save_csv,
    holdout_mask_from_seed,
)
from relfi.models import LinearModel


def small_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 3))
    mask = np.zeros(n, dtype=bool)
    mask[:2] = True
    return Dataset(("a", "b", "y"), values, "y", mask)


class TestDataset:
    def test_basic_shape_and_split(self):
        data = small_dataset()
        assert data.n == 8 and data.n_test == 2 and data.n_train == 6
        assert data.matrix(("a", "b")).shape == (8, 2)
        assert data.matrix(("b",), TRAIN).shape == (6, 1)
        assert data.matrix((), TEST).shape == (2, 0)

    def test_values_read_only(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            data.values[0, 0] = 1.0

    def test_column_order_respected(self):
        data = small_dataset()
        m = data.matrix(("b", "a"))
        assert np.array_equal(m[:, 0], data.column("b"))
        assert np.array_equal(m[:, 1], data.column("a"))

    def test_matrix_gathers_selected_rows_and_columns(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(50, 4))
        mask = rng.random(50) < 0.3
        data = Dataset(("a", "b", "c", "y"), values, "y", mask)
        for split, rows in ((None, values), (TRAIN, values[~mask]), (TEST, values[mask])):
            m = data.matrix(("c", "a", "c"), split)
            assert m.flags.c_contiguous and m.flags.writeable
            assert m.tobytes() == np.ascontiguousarray(rows[:, [2, 0, 2]]).tobytes()

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Dataset(("a", "a"), np.zeros((3, 2)), "a", np.zeros(3, dtype=bool))

    def test_non_finite_rejected_with_column_name(self):
        values = np.zeros((3, 2))
        values[1, 1] = np.nan
        with pytest.raises(SchemaError, match="b"):
            Dataset(("a", "b"), values, "a", np.zeros(3, dtype=bool))

    def test_target_must_exist(self):
        with pytest.raises(SchemaError):
            Dataset(("a",), np.zeros((3, 1)), "y", np.zeros(3, dtype=bool))

    def test_mask_length_checked(self):
        with pytest.raises(SchemaError):
            Dataset(("a",), np.zeros((3, 1)), "a", np.zeros(4, dtype=bool))

    def test_unknown_column(self):
        with pytest.raises(SchemaError, match="nope"):
            small_dataset().column("nope")

    def test_bad_split_name(self):
        with pytest.raises(ValueError):
            small_dataset().matrix(("a",), "validation")


class TestSplit:
    def test_deterministic_and_sized(self):
        m1 = holdout_mask_from_seed(1000, 0.1, 7)
        m2 = holdout_mask_from_seed(1000, 0.1, 7)
        assert np.array_equal(m1, m2)
        assert m1.sum() == 100

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            holdout_mask_from_seed(1000, 0.1, 0), holdout_mask_from_seed(1000, 0.1, 1)
        )

    def test_at_least_one_row_each_side(self):
        m = holdout_mask_from_seed(5, 0.001, 0)
        assert 1 <= m.sum() <= 4

    def test_bad_fraction(self):
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                holdout_mask_from_seed(10, frac, 0)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            holdout_mask_from_seed(1, 0.5, 0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        data = small_dataset()
        path = tmp_path / "d.csv"
        save_csv(data, path)
        back = load_csv(path, "y", split_column="split")
        assert back.variable_names == data.variable_names
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.test_mask, data.test_mask)

    def test_generated_split(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fp:
            fp.write("x,y\n" + "\n".join(f"{i},{2 * i}" for i in range(20)) + "\n")
        data = load_csv(path, "y", test_fraction=0.25, seed=3)
        assert data.n_test == 5
        again = load_csv(path, "y", test_fraction=0.25, seed=3)
        assert np.array_equal(data.test_mask, again.test_mask)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3,oops\n")
        with pytest.raises(SchemaError, match="non-numeric"):
            load_csv(path, "y")

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2,3\n")
        with pytest.raises(SchemaError, match="expected 2 fields"):
            load_csv(path, "y")

    def test_bad_split_tag(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,split\n1,2,train\n3,4,dev\n")
        with pytest.raises(SchemaError, match="dev"):
            load_csv(path, "y", split_column="split")

    def test_missing_split_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(SchemaError, match="split"):
            load_csv(path, "y", split_column="split")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_csv(path, "y")


class TestMakePartition:
    def test_four_feature_example(self):
        part = make_partition(["x1", "x2", "x3", "x4"], "x3", ["x1"])
        assert part.remaining == ("x1", "x2", "x4")
        assert part.conditioned == ("x1",)
        assert part.unconditioned == ("x2", "x4")
        assert part.external == ()

    def test_off_training_conditioning_example(self):
        part = make_partition(["x1", "x2", "x3"], "x2", ["C"], target="y")
        assert part.remaining == ("x1", "x3")
        assert part.conditioned == ()
        assert part.unconditioned == ("x1", "x3")
        assert part.external == ("C",)

    def test_degenerate_single_feature(self):
        part = make_partition(["x1"], "x1", [])
        assert part.remaining == ()
        assert part.conditioned == ()
        assert part.unconditioned == ()
        assert part.external == ()

    def test_order_insensitive_and_idempotent(self):
        a = make_partition(["x3", "x1", "x2"], "x2", ["x3", "x1"])
        b = make_partition(["x1", "x2", "x3"], "x2", ["x1", "x3"])
        assert a == b
        # sets partition cleanly
        assert set(a.conditioned) | set(a.unconditioned) == set(a.remaining)
        assert set(a.conditioned) & set(a.unconditioned) == set()

    def test_extension_sets(self):
        part = make_partition(
            ["x1", "x2", "x3", "x4"], "x3", ["x2"], target="y", extension=["x1", "C"]
        )
        assert part.extension == ("C", "x1")
        assert part.extension_in_remaining == ("x1",)
        assert part.extension_external == ("C",)
        assert part.unconditioned_without_extension == ("x4",)

    def test_feature_not_in_features(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(["x1", "x2"], "x9", [])

    def test_target_in_conditioning(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(["x1", "x2"], "x1", ["y"], target="y")

    def test_target_among_features(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(["x1", "y"], "x1", [], target="y")

    def test_feature_in_own_conditioning(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(["x1", "x2"], "x1", ["x1"])

    def test_extension_overlap(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(["x1", "x2", "x3"], "x1", ["x2"], extension=["x2"])

    def test_feature_in_extension(self):
        with pytest.raises(InvalidPartitionError):
            make_partition(["x1", "x2"], "x1", [], extension=["x1"])


class TestEmpiricalRisk:
    def test_exact_model_zero_risk(self):
        values = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0) + 1.0])
        data = Dataset(("x", "y"), values, "y", np.array([1, 0, 0, 1, 0], dtype=bool))
        model = LinearModel(("x",), np.array([2.0]), 1.0)
        assert empirical_risk(model, data, SquaredError(), None) == 0.0

    def test_constant_zero_prediction(self):
        # y = (1, -1), prediction 0 everywhere: mean squared error 1
        values = np.array([[0.0, 1.0], [0.0, -1.0]])
        data = Dataset(("x", "y"), values, "y", np.array([True, False]))
        model = LinearModel(("x",), np.array([0.0]), 0.0)
        assert empirical_risk(model, data, SquaredError(), None) == 1.0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((40, 2))
        mask = np.zeros(40, dtype=bool)
        data = Dataset(("x", "y"), values, "y", mask)
        perm = rng.permutation(40)
        shuffled = Dataset(("x", "y"), values[perm], "y", mask)
        model = LinearModel(("x",), np.array([0.7]), 0.1)
        r1 = empirical_risk(model, data, SquaredError(), None)
        r2 = empirical_risk(model, shuffled, SquaredError(), None)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            values = rng.standard_normal((30, 2))
            data = Dataset(("x", "y"), values, "y", np.zeros(30, dtype=bool))
            model = LinearModel(("x",), rng.standard_normal(1), float(rng.standard_normal()))
            assert empirical_risk(model, data, SquaredError(), None) >= 0.0

    def test_empty_split_rejected(self):
        values = np.zeros((3, 2))
        data = Dataset(("x", "y"), values, "y", np.zeros(3, dtype=bool))
        model = LinearModel(("x",), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            empirical_risk(model, data, SquaredError(), TEST)


class TestLoss:
    def test_squared_pointwise(self):
        loss = SquaredError()
        out = loss.pointwise(np.array([1.0, -1.0]), np.array([0.0, 1.0]))
        assert np.array_equal(out, np.array([1.0, 4.0]))
        assert np.array_equal(loss.pointwise(np.array([2.0]), np.array([2.0])), [0.0])

    def test_registry(self):
        assert get_loss("squared").name == "squared"
        with pytest.raises(ValueError, match="unknown loss"):
            get_loss("absolute")
