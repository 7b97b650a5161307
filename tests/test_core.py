import re

import numpy as np
import pytest

from relfi.cli import config_from_mapping
from relfi.core import (
    TEST,
    TRAIN,
    Dataset,
    InvalidPartitionError,
    SchemaError,
    SquaredError,
    check_partition,
    empirical_risk,
    load_csv,
    save_csv,
    holdout_mask_from_seed,
)
from relfi.engine import compute_delta_rfi, compute_rfi
from relfi.models import LinearModel, fit_from_dataset
from relfi.samplers import fit_sampler, sampler_factory
from relfi.scm import builtin_experiment_a, sample_scm


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


PARTITION_RULES = {
    # rule: (feature, conditioning, extension, message fragment)
    "target-is-feature": ("Y", (), (), "target may not be the feature of interest"),
    "target-in-conditioning": ("X1", ("Y",), (), "target may not appear in the conditioning set"),
    "target-in-extension": ("X1", (), ("Y",), "target may not appear in the extension set"),
    "extension-overlap": ("X1", ("X2",), ("X2",), "extension overlaps the conditioning set: X2"),
    "feature-in-extension": ("X1", (), ("X1",), "feature may not appear in the extension set"),
}
ENTRY_POINTS = ("check_partition", "compute_rfi", "fit_sampler", "compute_delta_rfi", "config")
# entry points that take no extension
CELL_ONLY = ("compute_rfi", "fit_sampler")


@pytest.fixture(scope="module")
def chain():
    data = sample_scm(builtin_experiment_a(), 400, seed=0)
    return data, fit_from_dataset(data)


class TestCheckPartition:
    @pytest.mark.parametrize(
        "rule,entry",
        [
            (rule, entry)
            for rule, (_, _, extension, _) in PARTITION_RULES.items()
            for entry in ENTRY_POINTS
            if not (extension and entry in CELL_ONLY)
        ],
    )
    def test_rule_rejected_everywhere(self, chain, rule, entry):
        data, model = chain
        feature, cond, ext, fragment = PARTITION_RULES[rule]
        if entry == "config":
            config, problems = config_from_mapping({
                "data": {"graph": "experiment_a", "n": 400},
                "target": "Y",
                "features": list(model.feature_order),
                "jobs": [{"feature": feature, "conditioning": list(cond), "extension": list(ext)}],
                "output": "out",
            })
            assert config is None
            assert any(
                p.startswith(f"jobs[0] (feature={feature}): ") and fragment in p
                for p in problems
            ), problems
            return
        calls = {
            "check_partition": lambda: check_partition("Y", feature, cond, ext),
            "compute_rfi": lambda: compute_rfi(
                model, SquaredError(), data, feature, cond, None, replications=2
            ),
            "fit_sampler": lambda: fit_sampler(data, feature, cond),
            "compute_delta_rfi": lambda: compute_delta_rfi(
                model, SquaredError(), data, feature, cond, ext, sampler_factory(data),
                replications=2,
            ),
        }
        with pytest.raises(InvalidPartitionError, match=re.escape(fragment)):
            calls[entry]()

    def test_every_violation_in_one_message(self):
        with pytest.raises(InvalidPartitionError) as info:
            check_partition("Y", "Y", ("Y", "X2"), ("X2", "Y"))
        message = str(info.value)
        for rule in ("target-is-feature", "target-in-conditioning", "target-in-extension",
                     "extension-overlap"):
            assert PARTITION_RULES[rule][3] in message
        # an identity cell is a legal partition
        check_partition("Y", "X1", ("X1", "X2"), ("C",))


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
