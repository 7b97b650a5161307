import numpy as np
import pytest

from relfi.core import TEST, TRAIN, Dataset
from relfi.models import FitError, LinearModel, fit_from_dataset, fit_ols, load_model, save_model
from relfi.scm import builtin_experiment_a, sample_scm


class TestLinearModel:
    def test_predict_is_affine(self):
        m = LinearModel(("a", "b"), np.array([2.0, -1.0]), 0.5)
        rows = np.array([[1.0, 1.0], [0.0, 3.0]])
        assert np.allclose(m.predict(rows), [1.5, -2.5])

    def test_predict_shape_checked(self):
        m = LinearModel(("a",), np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="expected"):
            m.predict(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="expected"):
            m.predict(np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            LinearModel(("a", "a"), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="finite"):
            LinearModel(("a",), np.array([np.nan]), 0.0)
        with pytest.raises(ValueError, match="finite"):
            LinearModel(("a",), np.array([1.0]), np.inf)
        m = LinearModel(("a",), np.array([1.0]), 0.0)
        assert not m.coefficients.flags.writeable


class TestFitOls:
    def test_noiseless_fit_is_exact(self):
        x = np.linspace(-3.0, 3.0, 40).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        m = fit_ols(x, y, ("x",))
        assert m.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert m.intercept == pytest.approx(1.0, abs=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(42)
        rows = rng.normal(size=(200, 3))
        y = rows @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=200)
        m = fit_ols(rows, y, ("a", "b", "c"))
        resid = y - m.predict(rows)
        # normal equations: residuals orthogonal to every design column
        assert abs(resid.sum()) < 1e-8 * 200
        assert np.max(np.abs(rows.T @ resid)) < 1e-8 * 200

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(100, 2))
        y = rows @ np.array([3.0, -1.0]) + rng.normal(size=100)
        m1 = fit_ols(rows, y, ("a", "b"))
        perm = rng.permutation(100)
        m2 = fit_ols(rows[perm], y[perm], ("a", "b"))
        assert np.allclose(m1.coefficients, m2.coefficients, atol=1e-10)
        assert m1.intercept == pytest.approx(m2.intercept, abs=1e-10)

    def test_rank_deficiency_names_column(self):
        x = np.linspace(0.0, 1.0, 30)
        rows = np.column_stack([x, 2.0 * x, np.sin(x)])
        with pytest.raises(FitError, match="rank deficient") as err:
            fit_ols(rows, x.copy(), ("a", "doubled", "c"))
        # one of the collinear pair gets pivoted out and named
        assert "a" in str(err.value) or "doubled" in str(err.value)

    def test_constant_feature_collides_with_intercept(self):
        rng = np.random.default_rng(3)
        rows = np.column_stack([rng.normal(size=25), np.full(25, 4.0)])
        with pytest.raises(FitError, match="rank deficient"):
            fit_ols(rows, rng.normal(size=25), ("a", "const"))

    def test_too_few_rows(self):
        with pytest.raises(FitError, match="need more than"):
            fit_ols(np.zeros((3, 2)), np.zeros(3), ("a", "b"))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_ols(np.zeros((10, 2)), np.zeros(10), ("a",))
        with pytest.raises(ValueError):
            fit_ols(np.zeros((10, 1)), np.zeros(9), ("a",))


class TestFitFromDataset:
    def test_recovers_structural_coefficients(self):
        # regression of Y on all four features: Y = X3 + X4 + noise, so the
        # population coefficients are (0, 0, 1, 1)
        data = sample_scm(builtin_experiment_a(), 20000, seed=5)
        m = fit_from_dataset(data)
        assert m.feature_order == ("X1", "X2", "X3", "X4")
        assert np.allclose(m.coefficients, [0.0, 0.0, 1.0, 1.0], atol=0.05)
        assert abs(m.intercept) < 0.05
        resid = data.target_values(TEST) - m.predict(data.matrix(m.feature_order, TEST))
        assert np.mean(resid**2) == pytest.approx(0.25, abs=0.02)

    def test_feature_subset_and_split(self):
        data = sample_scm(builtin_experiment_a(), 5000, seed=6)
        m = fit_from_dataset(data, features=("X3", "X4"), split=TRAIN)
        assert m.feature_order == ("X3", "X4")

    @pytest.mark.parametrize("split", [TRAIN, TEST, None])
    def test_same_bits_as_fit_ols_on_the_gathered_rows(self, split):
        data = sample_scm(builtin_experiment_a(), 3001, seed=7)
        for features in (("X1", "X2", "X3", "X4"), ("X4", "X1"), ("X2",)):
            got = fit_from_dataset(data, features, split)
            ref = fit_ols(data.matrix(features, split), data.target_values(split), features)
            assert got.feature_order == ref.feature_order == features
            assert got.coefficients.tobytes() == ref.coefficients.tobytes()
            assert repr(got.intercept) == repr(ref.intercept)

    def test_collinear_columns_named_alike_by_both_entry_points(self):
        rng = np.random.default_rng(5)
        a, c = rng.normal(size=(2, 60))
        values = np.column_stack([a, c, 2.0 * a, np.full(60, 3.0), a + c])
        data = Dataset(("a", "c", "doubled", "const", "y"), values, "y", np.arange(60) % 4 == 0)
        features = ("a", "c", "doubled", "const")
        messages = []
        for fit in (
            lambda: fit_from_dataset(data, features),
            lambda: fit_ols(data.matrix(features, TRAIN), data.target_values(TRAIN), features),
        ):
            with pytest.raises(FitError, match="rank deficient") as err:
                fit()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "const" in messages[0] or "(intercept)" in messages[0]

    def test_target_cannot_be_feature(self):
        data = sample_scm(builtin_experiment_a(), 100, seed=0)
        with pytest.raises(ValueError, match="target"):
            fit_from_dataset(data, features=("X1", "Y"))


class TestModelFiles:
    def test_round_trip_is_exact(self, tmp_path):
        m = LinearModel(
            ("a", "b"), np.array([0.1234567890123456, -2.5e-17]), 3.0000000000000004
        )
        path = tmp_path / "model.yaml"
        save_model(m, path)
        again = load_model(path)
        assert again.feature_order == m.feature_order
        assert np.array_equal(again.coefficients, m.coefficients)
        assert again.intercept == m.intercept

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("features: [a]\ncoefficients: [1.0]\n")
        with pytest.raises(ValueError, match="exactly the keys"):
            load_model(path)
        path.write_text("features: [a]\ncoefficients: [1.0]\nintercept: 0.0\nextra: 1\n")
        with pytest.raises(ValueError, match="exactly the keys"):
            load_model(path)
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        ("features: X1\ncoefficients: [1.0, 2.0]\n", "features must be a list of names"),
        ("features: [yes]\ncoefficients: [1.0]\n", "features must be a list of names"),
        ("features: [a]\ncoefficients: [yes]\n", "coefficients must be a list of numbers"),
        ("features: [a]\ncoefficients: 1.0\n", "coefficients must be a list of numbers"),
        ("features: [a]\ncoefficients: [1.0, 2.0]\n", "coefficients must be a list of numbers"),
        (f"features: [a]\ncoefficients: [1{'0' * 400}]\n", "coefficients must be a list of numbers"),
        ("features: [a]\ncoefficients: [1.0]\nintercept: '0.5'\n", "intercept must be a number"),
    ])
    def test_values_must_have_their_types(self, tmp_path, text, message):
        path = tmp_path / "model.yaml"
        path.write_text(text if "intercept" in text else text + "intercept: 0.5\n")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("features: [unclosed\n")
        with pytest.raises(ValueError, match="YAML"):
            load_model(path)
