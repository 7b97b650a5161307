"""Invariants of the estimator on random linear SCMs.

An identity cell (the feature inside G) and a feature the model gives a
zero coefficient read exactly 0.0, whatever G and the sampler kind. A
factory's sampler for (feature, G) depends on the data only through the
columns of the feature and G. Refitting the model on its features in
another order moves an estimate by rounding alone (at most 1e-12 of the
baseline risk), and identity cells read exactly 0.0 in every order.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relfi.core import Dataset, SquaredError
from relfi.engine import rfi_profile
from relfi.models import LinearModel, fit_from_dataset
from relfi.samplers import sampler_factory
from relfi.scm import Edge, ScmGraph, sample_scm

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)
LOSS = SquaredError()


@st.composite
def scm_data(draw):
    """300 rows of a random linear SCM over 2 to 5 features and the response Y."""
    nodes = tuple(f"V{i}" for i in range(draw(st.integers(2, 5)))) + ("Y",)
    edges = tuple(
        Edge(parent, child, draw(st.floats(-1.5, 1.5)))
        for i, child in enumerate(nodes) for parent in nodes[:i] if draw(st.booleans())
    )
    scales = tuple(draw(st.floats(0.5, 1.5)) for _ in nodes)
    return sample_scm(ScmGraph(nodes, scales, edges), 300, seed=draw(st.integers(0, 2**16)))


@st.composite
def cells(draw):
    """(data, feature, G without the feature, sampler kind)."""
    data = draw(scm_data())
    features = data.variable_names[:-1]
    feature = draw(st.sampled_from(features))
    others = [v for v in features if v != feature]
    g = tuple(draw(st.lists(st.sampled_from(others), unique=True)))
    return data, feature, g, draw(st.sampled_from(("gaussian", "knockoff")))


@PROFILE
@given(cells())
def test_identity_cells_and_ignored_features_read_exactly_zero(cell):
    data, feature, g, kind = cell
    fitted = fit_from_dataset(data)
    coefficients = np.array(fitted.coefficients)
    coefficients[fitted.feature_order.index(feature)] = 0.0
    ignoring = LinearModel(fitted.feature_order, coefficients, fitted.intercept)
    factory = sampler_factory(data, kind)
    # 30 replications: the mean of 30 equal floats need not be that float
    (identity,) = rfi_profile(fitted, LOSS, data, [feature], [g + (feature,)], factory, 30, 3)
    (ignored,) = rfi_profile(ignoring, LOSS, data, [feature], [g], factory, 30, 3)
    for est in (identity, ignored):
        assert est.point == 0.0
        assert est.se == 0.0
        assert not est.first_differences.any()


@PROFILE
@given(cells(), st.integers(0, 2**16))
def test_factory_sampler_reads_only_the_feature_and_g(cell, seed):
    data, feature, g, kind = cell
    rng = np.random.default_rng(seed)
    values = data.values.copy()
    for i, name in enumerate(data.variable_names):
        if name != feature and name not in g:
            values[:, i] = rng.standard_normal(data.n) * 10.0 ** rng.uniform(-3, 3)
    other = Dataset(data.variable_names, values, data.target_name, data.test_mask)
    a = sampler_factory(data, kind)(feature, g)
    b = sampler_factory(other, kind)(feature, g)
    assert a.slope.tobytes() == b.slope.tobytes()
    assert (a.intercept, a.scale) == (b.intercept, b.scale)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(cells())
def test_estimates_do_not_depend_on_the_order_of_the_model_features(cell):
    data, feature, g, kind = cell
    factory = sampler_factory(data, kind)
    reference = None
    for order in itertools.permutations(data.variable_names[:-1]):
        model = fit_from_dataset(data, order)
        est, identity = rfi_profile(model, LOSS, data, [feature], [g, g + (feature,)], factory, 5, 3)
        reference = reference or est
        assert abs(est.point - reference.point) <= 1e-12 * reference.baseline_risk
        assert identity.point == 0.0
