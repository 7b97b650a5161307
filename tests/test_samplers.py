import dataclasses
import itertools
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from relfi import samplers
from relfi.cli import load_config, run_experiment
from relfi.core import TEST, TRAIN, Dataset, SchemaError, SquaredError
from relfi.engine import compute_delta_rfi, compute_rfi, rfi_profile
from relfi.models import fit_from_dataset
from relfi.samplers import (
    CovarianceError,
    GaussianConditionalSampler,
    GaussianJoint,
    KnockoffSampler,
    PointMassSampler,
    conditional_gaussian_params,
    equicorrelated_knockoff_s,
    fit_gaussian,
    fit_sampler,
    knockoff_sampler,
    sampler_factory,
    training_moments,
)
from relfi.scm import (
    Edge,
    ScmGraph,
    analytic_covariance,
    builtin_experiment_a,
    builtin_experiment_b,
    sample_scm,
)


def draw(sampler, data, seed):
    """One replacement column for the test rows, with noise drawn from ``seed``."""
    rows = data.matrix(sampler.required_columns, TEST)
    return sampler.sample(rows, np.random.default_rng(seed).standard_normal(rows.shape[0]))


@pytest.fixture(scope="module")
def data_a():
    return sample_scm(builtin_experiment_a(), 100000, seed=11)


@pytest.fixture(scope="module")
def data_b():
    return sample_scm(builtin_experiment_b(), 100000, seed=12)


class TestGaussianJoint:
    def test_fit_recovers_moments(self, data_b):
        rows = data_b.matrix(("X3",), TRAIN)
        joint = fit_gaussian(rows, ("X3",), ridge=0.0)
        m = rows.shape[0]
        se_var = 1.25 * np.sqrt(2.0 / (m - 1))
        assert abs(joint.mean[0]) < 3 * np.sqrt(1.25 / m)
        assert abs(joint.covariance[0, 0] - 1.25) < 3 * se_var

    def test_rank_deficient_rejected_without_ridge(self):
        x = np.linspace(0.0, 1.0, 50)
        rows = np.column_stack([x, 2.0 * x])
        with pytest.raises(CovarianceError, match="positive definite"):
            fit_gaussian(rows, ("a", "b"), ridge=0.0)
        # a small ridge makes the same data fittable
        joint = fit_gaussian(rows, ("a", "b"), ridge=1e-6)
        assert joint.ridge == 1e-6

    def test_ridge_is_a_share_of_each_variance(self):
        cov = np.diag([4.0, 0.0])

        def inflation(ridge):
            joint = samplers._ridged_joint(("a", "b"), np.zeros(2), cov, ridge)
            return np.diag(joint.covariance) - np.diag(cov)

        # a zero variance takes the share of the mean variance
        assert inflation(None) == pytest.approx([4e-8, 2e-8], rel=1e-6)
        assert inflation(0.5) == pytest.approx([2.0, 1.0], rel=1e-12)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_ridge_must_be_finite(self, ridge):
        rows = np.random.default_rng(0).normal(size=(9, 2))
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            fit_gaussian(rows, ("a", "b"), ridge=ridge)

    def test_fit_input_validation(self):
        with pytest.raises(SchemaError):
            fit_gaussian(np.zeros((5, 2)), ("a",))
        with pytest.raises(CovarianceError, match="at least 2"):
            fit_gaussian(np.zeros((1, 1)), ("a",))
        with pytest.raises(ValueError):
            fit_gaussian(np.random.default_rng(0).normal(size=(9, 1)), ("a",), ridge=-1.0)

    def test_symmetry_check_is_relative_to_the_variances(self):
        with pytest.raises(CovarianceError, match="symmetric"):
            GaussianJoint(("a", "b"), np.zeros(2), np.array([[1e-12, 9e-13], [-9e-13, 1e-12]]), 0.0)
        large = np.array([[1e12, 5e11], [5e11 * (1 + 1e-15), 1e12]])
        assert GaussianJoint(("a", "b"), np.zeros(2), large, 0.0).covariance[0, 1] == pytest.approx(5e11)

    def test_joint_validation(self):
        with pytest.raises(CovarianceError, match="symmetric"):
            GaussianJoint(("a", "b"), np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]), 0.0)
        with pytest.raises(SchemaError, match="shape"):
            GaussianJoint(("a", "b"), np.zeros(2), np.eye(3), 0.0)
        with pytest.raises(SchemaError, match="unique"):
            GaussianJoint(("a", "a"), np.zeros(2), np.eye(2), 0.0)
        joint = GaussianJoint(("a", "b"), np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(SchemaError, match="no variable"):
            joint.index("c")
        assert not joint.covariance.flags.writeable


class TestConditionalParams:
    def test_empty_set_is_marginal(self):
        joint = GaussianJoint(("a", "b"), np.array([3.0, 0.0]), np.diag([4.0, 1.0]), 0.0)
        slope, intercept, var = conditional_gaussian_params(joint, "a", ())
        assert slope.shape == (0,)
        assert intercept == 3.0
        assert var == 4.0

    def test_bivariate_correlation(self):
        rho = 0.6
        joint = GaussianJoint(
            ("a", "b"), np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]), 0.0
        )
        slope, intercept, var = conditional_gaussian_params(joint, "a", ("b",))
        assert slope[0] == pytest.approx(rho, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0 - rho**2, abs=1e-12)

    def test_confounder_graph_analytic_params(self):
        # straight from the closed-form covariance, no sampling noise
        g = builtin_experiment_b()
        joint = GaussianJoint(g.nodes, np.zeros(5), analytic_covariance(g), 0.0)
        slope, intercept, var = conditional_gaussian_params(joint, "X3", ("C",))
        assert slope[0] == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(0.25, abs=1e-12)
        slope, _, var = conditional_gaussian_params(joint, "Y", ("C",))
        assert slope[0] == pytest.approx(2.0, abs=1e-12)
        assert var == pytest.approx(2.25, abs=1e-12)

    def test_target_in_conditioning_rejected(self):
        joint = GaussianJoint(("a", "b"), np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(SchemaError):
            conditional_gaussian_params(joint, "a", ("a", "b"))


class TestGaussianSampler:
    def test_deterministic(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2",))
        a = draw(s, data_a, seed=5)
        b = draw(s, data_a, seed=5)
        assert np.array_equal(a, b)
        c = draw(s, data_a, seed=6)
        assert not np.array_equal(a, c)

    def test_noise_stream_shared_across_conditioning_sets(self, data_a):
        # z is drawn before the affine map, so the same seed reuses the
        # same standard-normal vector whatever the conditioning set is
        s_empty = fit_sampler(data_a, "X4", ())
        s_cond = fit_sampler(data_a, "X4", ("X2",))
        out_empty = draw(s_empty, data_a, seed=3)
        out_cond = draw(s_cond, data_a, seed=3)
        z_empty = (out_empty - s_empty.intercept) / s_empty.scale
        rows = data_a.matrix(("X2",), TEST)
        z_cond = (out_cond - s_cond.intercept - rows @ s_cond.slope) / s_cond.scale
        assert np.allclose(z_empty, z_cond, atol=1e-10)

    def test_conditional_moments(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2",))
        out = draw(s, data_a, seed=8)
        m = out.shape[0]
        # population law of the replacement: slope 0.5 on X2, total var 2
        assert abs(out.mean()) < 4 * np.sqrt(2.0 / m)
        assert abs(out.var(ddof=1) - 2.0) < 4 * 2.0 * np.sqrt(2.0 / m)
        x2 = data_a.matrix(("X2",), TEST)[:, 0]
        cov_g = np.cov(out, x2, ddof=1)[0, 1]
        assert abs(cov_g - 1.0) < 4 * np.sqrt((2.0 * 2.0 + 1.0) / m)

    def test_covariance_with_remaining_routed_through_conditioning(self, data_a):
        # Cov(replacement, X1) must be slope * Cov(X2, X1) = 0.5, not the
        # original Cov(X4, X1) = 1: the draw forgets X1 given X2.
        s = fit_sampler(data_a, "X4", ("X2",))
        out = draw(s, data_a, seed=8)
        x1 = data_a.matrix(("X1",), TEST)[:, 0]
        cov_r = np.cov(out, x1, ddof=1)[0, 1]
        assert abs(cov_r - 0.5) < 0.06
        assert cov_r < 0.7

    def test_residual_independent_of_response(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2",))
        out = draw(s, data_a, seed=8)
        rows = data_a.matrix(("X2",), TEST)
        resid = out - s.intercept - rows @ s.slope
        y = data_a.target_values(TEST)
        r = np.corrcoef(resid, y)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(out.shape[0])

    def test_sample_is_affine_in_rows_and_noise(self, data_a):
        s = fit_sampler(data_a, "X4", ("X1", "X2"))
        rows = data_a.matrix(s.required_columns, TEST)
        z = np.random.default_rng(2).standard_normal(rows.shape[0])
        out = s.sample(rows, z)
        assert np.array_equal(out, s.sample(rows, z))
        assert np.allclose(out, s.intercept + rows @ s.slope + s.scale * z, rtol=0, atol=1e-12)

    def test_required_columns_contract(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2", "X1"))
        assert s.required_columns == ("X1", "X2")
        assert s.conditioning == ("X1", "X2")
        with pytest.raises(SchemaError):
            s.sample(np.zeros((3, 1)), np.random.default_rng(0).standard_normal(3))

    def test_conditioning_set_canonicalized(self, data_a):
        s1 = fit_sampler(data_a, "X4", ("X2", "X1"))
        s2 = fit_sampler(data_a, "X4", ("X1", "X2", "X1"))
        assert s1.conditioning == s2.conditioning
        assert np.allclose(s1.slope, s2.slope)


class TestPointMass:
    def test_constant_feature_degenerates(self):
        values = np.column_stack(
            [np.full(20, 7.0), np.linspace(0, 1, 20), np.linspace(1, 2, 20)]
        )
        mask = np.zeros(20, dtype=bool)
        mask[-4:] = True
        data = Dataset(("a", "b", "Y"), values, "Y", mask)
        s = fit_sampler(data, "a", ("b",))
        assert isinstance(s, PointMassSampler)
        assert s.intercept == 7.0
        out = draw(s, data, seed=0)
        assert np.array_equal(out, np.full(4, 7.0))
        # a point mass reads no ridge, but a bad one is refused all the same
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            fit_sampler(data, "a", ("b",), ridge=np.nan)

    def test_direct_interface(self):
        s = PointMassSampler("a", (), np.empty(0), 2.5, 0.0)
        assert s.required_columns == ()
        assert np.array_equal(
            s.sample(np.empty((3, 0)), np.random.default_rng(1).standard_normal(3)),
            np.full(3, 2.5),
        )
        with pytest.raises(SchemaError):
            s.sample(np.zeros((3, 1)), np.random.default_rng(0).standard_normal(3))


class TestKnockoffConstruction:
    def test_equicorrelated_identity(self):
        joint = GaussianJoint(("a", "b"), np.zeros(2), np.eye(2), 0.0)
        s = equicorrelated_knockoff_s(joint)
        assert np.allclose(s, [1.0, 1.0])

    def test_equicorrelated_known_values(self):
        # rho = 0.5: 2 * lambda_min = 1, exactly at the cap
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        s = equicorrelated_knockoff_s(GaussianJoint(("a", "b"), np.zeros(2), cov, 0.0))
        assert np.allclose(s, [1.0, 1.0])
        # rho = 0.9: s = 0.2 on the correlation scale
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        s = equicorrelated_knockoff_s(GaussianJoint(("a", "b"), np.zeros(2), cov, 0.0))
        assert np.allclose(s, [0.2, 0.2])

    def test_scale_carries_variances(self):
        # same correlation 0.9 but unequal variances
        cov = np.array([[4.0, 1.8], [1.8, 1.0]])
        s = equicorrelated_knockoff_s(GaussianJoint(("a", "b"), np.zeros(2), cov, 0.0))
        assert np.allclose(s, [0.8, 0.2])

    def test_joint_covariance_block_structure_and_psd(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        s = equicorrelated_knockoff_s(GaussianJoint(("a", "b"), np.zeros(2), cov, 0.0))
        off = cov - np.diag(s)
        big = np.block([[cov, off], [off, cov]])
        assert big.shape == (4, 4)
        assert np.allclose(big[:2, :2], cov)
        assert np.allclose(big[2:, 2:], cov)
        assert np.allclose(big[:2, 2:], cov - np.diag(s))
        assert float(np.linalg.eigvalsh(big)[0]) >= -1e-8

    def test_near_collinear_collapses_toward_copies(self):
        # ridge keeps the fit PD, lambda_min ~ ridge/var, so s shrinks to
        # almost nothing and the knockoff is nearly a copy of the original
        x = np.linspace(0.0, 1.0, 50)
        joint = fit_gaussian(np.column_stack([x, x]), ("a", "b"), ridge=1e-10)
        s = equicorrelated_knockoff_s(joint)
        assert s.max() < 1e-6

    def test_mixed_scale_joints_are_psd_on_the_correlation_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            rows = rng.normal(size=(int(rng.integers(k + 1, 40)), k)) @ rng.normal(size=(k, k))
            names = tuple(f"v{j}" for j in range(k))
            joint = fit_gaussian(rows * 10.0 ** rng.uniform(-3, 6, k), names)
            assert np.isfinite(knockoff_sampler(joint).scale)
            var = np.diag(joint.covariance)
            corr = joint.covariance / np.sqrt(np.outer(var, var))
            off = corr - np.diag(equicorrelated_knockoff_s(joint) / var)
            assert np.linalg.eigvalsh(np.block([[corr, off], [off, corr]]))[0] >= -1e-12


class TestKnockoffSampler:
    def test_univariate_reduces_to_marginal(self):
        # k = 1: s equals the variance, so the draw ignores the input column
        joint = GaussianJoint(("a",), np.zeros(1), np.array([[4.0]]), 0.0)
        rows = np.array([[10.0], [-10.0], [0.0]])
        out = knockoff_sampler(joint).sample(rows, np.random.default_rng(7).standard_normal(3))
        expected = 2.0 * np.random.default_rng(7).standard_normal(3)
        assert np.allclose(out, expected, atol=1e-12)

    def test_fitted_sampler_matches_column_draw(self, data_a):
        # closed form of the knockoff coordinate given X = x, from the
        # fitted joint: mu_t + (x - mu) @ w + scale * z, with
        # w = cov^-1 (cov - S) e_t and scale^2 = 2 s_t - s_t^2 (cov^-1)_tt
        s = fit_sampler(data_a, "X4", ("X2",), kind="knockoff")
        names = ("X4", "X2")
        joint = fit_gaussian(data_a.matrix(names, TRAIN), names)
        knock_s = equicorrelated_knockoff_s(joint)
        cov, mu = joint.covariance, joint.mean
        prec = np.linalg.inv(cov)
        w = prec @ (cov - np.diag(knock_s))[:, 0]
        scale = np.sqrt(2.0 * knock_s[0] - knock_s[0] ** 2 * prec[0, 0])
        rows = data_a.matrix(s.required_columns, TEST)
        z = np.random.default_rng(3).standard_normal(rows.shape[0])
        expected = mu[0] + (rows - mu) @ w + scale * z
        # relative to the largest draw: near-zero draws lose relative
        # precision to cancellation in either form
        err = np.abs(s.sample(rows, z) - expected).max()
        assert err <= 1e-12 * np.abs(expected).max()

    def test_deterministic(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2",), kind="knockoff")
        a = draw(s, data_a, seed=5)
        b = draw(s, data_a, seed=5)
        assert np.array_equal(a, b)

    def test_required_columns_include_target(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2",), kind="knockoff")
        assert isinstance(s, KnockoffSampler)
        assert s.target == "X4"
        assert s.conditioning == ("X2",)
        assert s.required_columns == ("X4", "X2")

    def test_exchangeable_moments(self, data_a):
        s = fit_sampler(data_a, "X4", ("X2",), kind="knockoff")
        out = draw(s, data_a, seed=8)
        m = out.shape[0]
        x2 = data_a.matrix(("X2",), TEST)[:, 0]
        assert abs(out.mean()) < 4 * np.sqrt(2.0 / m)
        assert abs(out.var(ddof=1) - 2.0) < 4 * 2.0 * np.sqrt(2.0 / m)
        # swapping X4 for its knockoff preserves the covariance with X2
        cov_g = np.cov(out, x2, ddof=1)[0, 1]
        assert abs(cov_g - 1.0) < 4 * np.sqrt((2.0 * 2.0 + 1.0) / m)

    def test_knockoff_decorrelates_from_original(self, data_a):
        # Cov(knockoff, original) = Var - s, strictly below Var
        s = fit_sampler(data_a, "X4", ("X2",), kind="knockoff")
        out = draw(s, data_a, seed=8)
        x4 = data_a.matrix(("X4",), TEST)[:, 0]
        names = ("X4", "X2")
        joint = fit_gaussian(data_a.matrix(names, TRAIN), names)
        expected = 2.0 - equicorrelated_knockoff_s(joint)[0]
        cov_self = np.cov(out, x4, ddof=1)[0, 1]
        assert abs(cov_self - expected) < 0.1
        assert cov_self < 1.9


class TestFitSampler:
    def test_rejects_feature_in_conditioning(self, data_a):
        with pytest.raises(SchemaError, match="conditioning"):
            fit_sampler(data_a, "X1", ("X1", "X2"))

    def test_rejects_response(self, data_a):
        with pytest.raises(SchemaError, match="response"):
            fit_sampler(data_a, "Y", ())
        with pytest.raises(SchemaError, match="response"):
            fit_sampler(data_a, "X1", ("Y",))

    def test_rejects_unknown_kind(self, data_a):
        with pytest.raises(ValueError, match="sampler kind"):
            fit_sampler(data_a, "X1", (), kind="bootstrap")

    def test_factory_binds_options(self, data_a):
        factory = sampler_factory(data_a, kind="knockoff")
        s = factory("X4", ("X2",))
        assert isinstance(s, KnockoffSampler)

    @pytest.mark.parametrize(
        "options, message",
        [({"kind": "bogus"}, "unknown sampler kind 'bogus'")]
        + [({"ridge": r}, "ridge must be a finite number >= 0") for r in (np.nan, np.inf, -1.0)],
        ids=["bogus", "nan", "inf", "-1"],
    )
    def test_factory_refuses_bad_options_before_fitting(self, data_a, monkeypatch, options, message):
        calls = []
        monkeypatch.setattr(samplers, "training_moments", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=message):
            sampler_factory(data_a, **options)
        assert calls == []

    def test_unknown_column_surfaces(self, data_a):
        with pytest.raises(SchemaError):
            fit_sampler(data_a, "X9", ())
        # a bare string is refused, not read as its characters
        for fit in (lambda g: fit_sampler(data_a, "X2", g), lambda g: sampler_factory(data_a)("X2", g)):
            with pytest.raises(SchemaError, match="not the string 'X1'"):
                fit("X1")

    def test_string_is_not_a_set_of_its_characters(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(200, 4))
        data = Dataset(("A", "B", "AB", "Y"), values, "Y", np.arange(200) % 4 == 0)
        with pytest.raises(SchemaError, match="not the string 'AB'"):
            fit_sampler(data, "A", "AB")
        assert fit_sampler(data, "A", ("AB",)).conditioning == ("AB",)


def _subset_fit(data, feature, conditioning, kind):
    """(slope, intercept, scale) of a sampler fitted on the subset's own rows."""
    names = (feature,) + conditioning
    joint = fit_gaussian(data.matrix(names, TRAIN), names)
    if kind == "knockoff":
        s = knockoff_sampler(joint)
        return s.slope, s.intercept, s.scale
    slope, intercept, variance = conditional_gaussian_params(joint, feature, conditioning)
    return slope, intercept, float(np.sqrt(variance))


def _random_scm(rng) -> ScmGraph:
    """Twelve features in a random DAG, and Y: 13 variables."""
    nodes = tuple(f"V{i}" for i in range(12)) + ("Y",)
    edges = []
    for i, child in enumerate(nodes[:-1]):
        for parent in nodes[:i]:
            if rng.random() < 0.3:
                edges.append(Edge(parent, child, float(rng.uniform(-0.9, 0.9))))
        if rng.random() < 0.6:
            edges.append(Edge(child, "Y", float(rng.uniform(-1.5, 1.5))))
    return ScmGraph(nodes, tuple(rng.uniform(0.5, 1.0, len(nodes)).tolist()), tuple(edges))


class TestSharedJoint:
    """A factory's samplers with a nonempty G are blocks of one training joint."""

    @pytest.mark.parametrize("kind", ["gaussian", "knockoff"])
    @pytest.mark.parametrize("name", ["data_a", "data_b"])
    def test_bundled_graphs_match_subset_fit_bit_for_bit(self, request, name, kind):
        data = request.getfixturevalue(name)
        variables = [v for v in data.variable_names if v != data.target_name]
        moments = training_moments(data, variables)
        for feature in variables:
            others = [v for v in variables if v != feature]
            for size in range(1, len(others) + 1):
                for cond in itertools.combinations(others, size):
                    s = fit_sampler(data, feature, cond, kind=kind, moments=moments)
                    slope, intercept, scale = _subset_fit(data, feature, cond, kind)
                    assert s.slope.tobytes() == slope.tobytes(), (feature, cond)
                    assert (s.intercept, s.scale) == (intercept, scale), (feature, cond)

    def test_wide_joint_matches_subset_fit_closely(self):
        rng = np.random.default_rng(2024)
        data = sample_scm(_random_scm(rng), 20_000, seed=5)
        variables = data.variable_names[:-1]
        moments = training_moments(data, variables)
        for _ in range(300):
            feature = str(rng.choice(variables))
            others = [v for v in variables if v != feature]
            size = rng.integers(1, len(others) + 1)
            cond = tuple(sorted(rng.choice(others, size, replace=False)))
            for kind in ("gaussian", "knockoff"):
                s = fit_sampler(data, feature, cond, kind=kind, moments=moments)
                slope, intercept, scale = _subset_fit(data, feature, cond, kind)
                np.testing.assert_allclose(s.slope, slope, rtol=1e-10, atol=0)
                np.testing.assert_allclose(
                    [s.intercept, s.scale], [intercept, scale], rtol=1e-10, atol=0
                )

    @pytest.mark.parametrize("kind", ["gaussian", "knockoff"])
    def test_delta_arms_are_their_cells_of_a_wider_profile(self, kind):
        # a factory's joint spans every column but the response, whatever the
        # call's cells, so a cell's bits do not move with its neighbours
        data = sample_scm(_random_scm(np.random.default_rng(3)), 5_000, seed=6)
        features = data.variable_names[:-1]
        model, loss = fit_from_dataset(data, features), SquaredError()
        factory = sampler_factory(data, kind)
        base, extension = ("V8",), ("V1", "V10")
        sets = [(), base, base + extension, [v for v in features if v != "V5"]]
        profile = rfi_profile(model, loss, data, ["V5"], sets, factory, 3, 7)
        delta = compute_delta_rfi(model, loss, data, "V5", base, extension, factory, 3, 7)
        for arm, cell in ((delta.base, profile[1]), (delta.extended, profile[2])):
            assert arm.perturbed_risks == cell.perturbed_risks
            assert arm.first_differences.tobytes() == cell.first_differences.tobytes()

    def test_empty_g_bits_do_not_depend_on_blas_threads(self):
        # BLAS splits one long dot product across its threads, so a
        # one-column variance taken by it would move with their number
        code = (
            "from relfi.samplers import fit_gaussian, fit_sampler\n"
            "from relfi.scm import builtin_experiment_a, sample_scm\n"
            "data = sample_scm(builtin_experiment_a(), 30_000, seed=4)\n"
            "s = fit_sampler(data, 'X2', ())\n"
            "joint = fit_gaussian(data.matrix(('X2',), 'train'), ('X2',))\n"
            "print(repr((s.intercept, s.scale, joint.covariance.tobytes())))\n"
        )
        src = str(Path(samplers.__file__).parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_moments_repeat_numpy_cov(self):
        rng = np.random.default_rng(8)
        for n, k in [(2, 1), (3, 4), (1_001, 1), (20_003, 6)]:
            names = tuple(f"V{i}" for i in range(k)) + ("Y",)
            values = rng.normal(rng.uniform(-5, 5, k + 1), rng.uniform(0.1, 10, k + 1), (n, k + 1))
            data = Dataset(names, values, "Y", np.zeros(n, dtype=bool))
            rows = data.matrix(names[:-1], TRAIN)
            got, mean, cov, bounds = training_moments(data, names[:-1])
            assert got == names[:-1]
            assert mean.tobytes() == rows.mean(axis=0).tobytes()
            if k == 1:  # numpy's pairwise sum, not BLAS's dot
                centred = rows[:, 0] - rows[:, 0].mean()
                ref = np.sum(centred * centred, keepdims=True)[:, None] * np.true_divide(1, n - 1)
            else:
                ref = np.cov(rows, rowvar=False)
            assert cov.tobytes() == ref.tobytes()
            assert bounds == {name: (row.min(), row.max()) for name, row in zip(got, rows.T)}

    def test_run_fits_one_joint_across_workers(self, tmp_path, monkeypatch):
        calls = []

        def counting(data, names):
            calls.append(tuple(names))
            return training_moments(data, names)

        monkeypatch.setattr(samplers, "training_moments", counting)
        config = dataclasses.replace(
            load_config("experiment_a"), data_n=5_000, replications=2, output=str(tmp_path)
        )
        run_experiment(config, workers=2)
        # one shared joint; each of the four marginal cells fits its own column
        assert [c for c in calls if len(c) > 1] == [("X1", "X2", "X3", "X4")]
        assert sorted(c for c in calls if len(c) == 1) == [("X1",), ("X2",), ("X3",), ("X4",)]

    @pytest.mark.parametrize(
        "limit, over_cap",
        # 20 training rows of 30 columns: 18,000 multiply-adds for the
        # covariance and 27,000 for a 30 x 30 solve
        [((20 + 30) * 30 * 30, False), ((20 + 30) * 30 * 30 - 1, True), (20 * 30 * 30, True)],
        ids=["within", "over", "k-cubed"],
    )
    def test_factory_joint_spans_every_column_but_the_response_up_to_the_cap(
        self, monkeypatch, limit, over_cap
    ):
        names = tuple(f"V{i}" for i in range(15)) + ("Y",) + tuple(f"V{i}" for i in range(15, 30))
        data = Dataset(names, np.random.default_rng(1).normal(size=(50, 31)), "Y", np.arange(50) >= 20)
        monkeypatch.setattr(samplers, "JOINT_MAX_FLOPS", limit)
        calls = []

        def counting(data, names):
            calls.append(tuple(names))
            return training_moments(data, names)

        monkeypatch.setattr(samplers, "training_moments", counting)
        cells = [("V0", ("V1", "V2")), ("V3", ("V0",)), ("V5", ()), ("V2", ("V29",))]
        factory = sampler_factory(data, "knockoff")
        fitted = [factory(*cell) for cell in cells]
        columns = names[:15] + names[16:]
        own = [(feature, *g) for feature, g in cells]
        assert calls == (own if over_cap else [columns, ("V5",)])
        for s, (feature, g) in zip(fitted if over_cap else (), cells):
            ref = fit_sampler(data, feature, g, "knockoff")
            assert (s.slope.tobytes(), s.intercept, s.scale) == (ref.slope.tobytes(), ref.intercept, ref.scale)

    def test_factory_fits_one_cell_at_a_time(self, monkeypatch):
        # 12 columns: a joint over at most 4 would be fitted whatever the cap
        data = sample_scm(_random_scm(np.random.default_rng(1)), 200, seed=1)
        monkeypatch.setattr(samplers, "JOINT_MAX_FLOPS", 0)
        active, peak = [0], [0]

        def slow(data, names):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            time.sleep(0.05)
            active[0] -= 1
            return training_moments(data, names)

        monkeypatch.setattr(samplers, "training_moments", slow)
        factory = sampler_factory(data)
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda f: factory(f, ("V1",) if f != "V1" else ()), ["V1", "V2", "V3", "V4"]))
        assert peak[0] == 1

    def test_factory_fits_a_joint_of_four_columns_past_both_caps(self, monkeypatch):
        # its block is at most twice that of any cell with a nonempty G
        data = sample_scm(builtin_experiment_a(), 200, seed=1)
        monkeypatch.setattr(samplers, "JOINT_MAX_FLOPS", 0)
        calls = []

        def counting(data, names):
            calls.append(tuple(names))
            return training_moments(data, names)

        monkeypatch.setattr(samplers, "training_moments", counting)
        factory = sampler_factory(data)
        factory("X3", ("X1", "X2"))
        factory("X4", ("X2",))
        assert calls == [("X1", "X2", "X3", "X4")]

    @pytest.mark.parametrize("kind", ["gaussian", "knockoff"])
    def test_profile_cells_are_compute_rfi_with_the_factorys_samplers(self, kind):
        data = sample_scm(_random_scm(np.random.default_rng(4)), 4_000, seed=9)
        features = data.variable_names[:-1]
        model, loss = fit_from_dataset(data, features), SquaredError()
        factory = sampler_factory(data, kind)
        sets = [(), ("V3",), ("V0", "V7", "V11"), tuple(v for v in features if v != "V2")]
        cells = rfi_profile(model, loss, data, ["V2", "V9"], sets, factory, 3, 5)
        for cell in cells:
            g = cell.conditioning
            sampler = None if cell.feature in g else factory(cell.feature, g)
            ref = compute_rfi(model, loss, data, cell.feature, g, sampler, 3, 5)
            assert cell.perturbed_risks == ref.perturbed_risks
            assert cell.first_differences.tobytes() == ref.first_differences.tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "knockoff"])
    def test_factory_over_thirteen_variables_stays_close_to_each_subset_fit(self, kind):
        rng = np.random.default_rng(77)
        data = sample_scm(_random_scm(rng), 20_000, seed=8)
        variables = data.variable_names[:-1]
        factory = sampler_factory(data, kind)
        for feature in variables:
            others = [v for v in variables if v != feature]
            sets = [tuple(sorted(others))] + [
                tuple(sorted(rng.choice(others, rng.integers(1, len(others)), replace=False)))
                for _ in range(20)
            ]
            for cond in sets:
                s = factory(feature, cond)
                slope, intercept, scale = _subset_fit(data, feature, cond, kind)
                np.testing.assert_allclose(s.slope, slope, rtol=1e-10, atol=0)
                np.testing.assert_allclose([s.intercept, s.scale], [intercept, scale], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kind", ["gaussian", "knockoff"])
    def test_constant_feature_is_point_mass(self, kind):
        x = np.linspace(0.0, 1.0, 20)
        values = np.column_stack([np.full(20, -3.5), x, x**2, x + 1.0])
        data = Dataset(("a", "b", "c", "Y"), values, "Y", np.arange(20) >= 16)
        # a joint wider than the cell, and one that leaves out part of its G
        wide, narrow = training_moments(data, ("a", "b", "c")), training_moments(data, ("a", "b"))
        for moments in (None, wide, narrow):
            s = fit_sampler(data, "a", ("b", "c"), kind=kind, moments=moments)
            assert isinstance(s, PointMassSampler)
            assert (s.intercept, s.scale, s.required_columns) == (-3.5, 0.0, ())

    def test_constant_conditioning_column_fits_through_ridge(self):
        x = np.random.default_rng(0).normal(size=40)
        values = np.column_stack([x, np.full(40, 2.0), -x])
        data = Dataset(("a", "b", "Y"), values, "Y", np.arange(40) >= 30)
        slope, intercept, scale = _subset_fit(data, "a", ("b",), "gaussian")
        for moments in (None, training_moments(data, ("a", "b"))):
            s = fit_sampler(data, "a", ("b",), moments=moments)
            assert isinstance(s, GaussianConditionalSampler)
            assert (s.slope.tobytes(), s.intercept, s.scale) == (slope.tobytes(), intercept, scale)
            assert s.slope[0] == 0.0
            with pytest.raises(CovarianceError, match="positive definite"):
                fit_sampler(data, "a", ("b",), ridge=0.0, moments=moments)

    @pytest.mark.parametrize("conditioning", [(), ("b",)])
    def test_one_training_row_is_point_mass(self, conditioning):
        values = np.array([[1.5, 2.0, 0.0], [4.0, 5.0, 1.0], [6.0, 7.0, 2.0]])
        data = Dataset(("a", "b", "Y"), values, "Y", np.array([False, True, True]))
        for moments in (None, training_moments(data, ("a", "b"))):
            s = fit_sampler(data, "a", conditioning, moments=moments)
            assert isinstance(s, PointMassSampler)
            assert (s.intercept, s.scale) == (1.5, 0.0)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda data: training_moments(data, ("a", "b")),
            lambda data: fit_sampler(data, "a", ("b",)),
            lambda data: sampler_factory(data, "knockoff"),
        ],
        ids=["training_moments", "fit_sampler", "sampler_factory"],
    )
    def test_no_training_rows_is_a_schema_error(self, fit):
        data = Dataset(("a", "b", "Y"), np.arange(15.0).reshape(5, 3), "Y", np.ones(5, dtype=bool))
        with pytest.raises(SchemaError, match="no training rows to fit a sampler on"):
            fit(data)


class TestUnitFree:
    @pytest.mark.parametrize("kind", ["gaussian", "knockoff"])
    def test_rescaling_the_conditioning_column_moves_no_cell(self, kind):
        data = sample_scm(builtin_experiment_b(), 20000, seed=4)
        model = fit_from_dataset(data, ("X1", "X2", "X3"))
        c = data.variable_names.index("C")

        def points(scale):
            values = data.values.copy()
            values[:, c] *= scale
            scaled = Dataset(data.variable_names, values, "Y", data.test_mask)
            cells = rfi_profile(model, SquaredError(), scaled, model.feature_order, [("C",)],
                                sampler_factory(scaled, kind), replications=3)
            return [cell.point for cell in cells]

        unscaled = points(1.0)
        for scale in (1e3, 1e5, 2.0**17):
            assert points(scale) == pytest.approx(unscaled, rel=1e-9, abs=0)

    @pytest.mark.parametrize("value", [2.0, 0.1, 1e-7])
    def test_constant_conditioning_column_draws_as_the_marginal(self, value):
        # at 18,000 training rows the mean of 0.1 is not exactly 0.1
        x = np.random.default_rng(1).normal(size=20000)
        values = np.column_stack([x, np.full(20000, value), -x])
        data = Dataset(("a", "b", "Y"), values, "Y", np.arange(20000) >= 18000)
        marginal = draw(fit_sampler(data, "a", ()), data, seed=2)
        for moments in (None, training_moments(data, ("a", "b"))):
            s = fit_sampler(data, "a", ("b",), moments=moments)
            assert np.abs(draw(s, data, seed=2) - marginal).max() <= 1e-12
