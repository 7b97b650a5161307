"""The interpretation rules, checked on population values of random linear SCMs.

For a linear model with coefficient β on x_j, the population value of a
cell (x_j, G) under squared error is

    β²(E[δ²] + σ²) − 2β·E[rδ],

where δ = E[x_j | x_G] − x_j, r = y − f(x) is the model's residual and
σ² = Var(x_j | x_G). It is computed here through relfi's own code: a
``GaussianJoint`` over ``analytic_covariance`` and
``conditional_gaussian_params``. Three rules hold:

- if x_j is d-separated from y and from the model's features outside G
  given G, the value is 0 for any coefficients;
- with the population least-squares coefficients and G inside the model
  features, r is uncorrelated with δ, so the value is 2β²·σ² >= 0;
- so, with those coefficients, a negative value needs a G variable the
  model never saw.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relfi.samplers import GaussianJoint, conditional_gaussian_params
from relfi.scm import Edge, ScmGraph, analytic_covariance, builtin_graph

RULES = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def d_separated(graph: ScmGraph, xs, ys, given_set) -> bool:
    """Whether ``xs`` and ``ys`` are d-separated by ``given_set`` in ``graph``:
    no path joins them in the moralised graph of their ancestors once
    ``given_set`` is removed (Lauritzen et al. 1990)."""
    parents = {n: {e.parent for e in graph.parents_of(n)} for n in graph.nodes}
    ancestors, stack = set(), [*xs, *ys, *given_set]
    while stack:
        node = stack.pop()
        if node not in ancestors:
            ancestors.add(node)
            stack.extend(parents[node])
    links = {n: set() for n in ancestors}
    for child in ancestors:
        for a, b in itertools.combinations(sorted(parents[child]) + [child], 2):
            links[a].add(b)
            links[b].add(a)
    reached, stack = set(xs), list(xs)
    while stack:
        for node in links[stack.pop()] - reached - set(given_set):
            reached.add(node)
            stack.append(node)
    return not reached & set(ys)


def population(graph: ScmGraph) -> GaussianJoint:
    """The graph's exact joint over its nodes: zero mean, no ridge."""
    return GaussianJoint(graph.nodes, np.zeros(len(graph.nodes)), analytic_covariance(graph), 0.0)


def population_value(joint, target, features, coefficients, feature, g) -> tuple:
    """(value, σ²) of cell (feature, g) for the model ``coefficients`` on ``features``."""
    cov = joint.covariance
    slope, _, variance = conditional_gaussian_params(joint, feature, g)
    delta = np.zeros(len(joint.names))  # δ and r as weights on the variables
    delta[[joint.index(n) for n in g]] = slope
    delta[joint.index(feature)] -= 1.0
    residual = np.zeros(len(joint.names))
    residual[[joint.index(n) for n in features]] = -np.asarray(coefficients)
    residual[joint.index(target)] = 1.0
    beta = coefficients[features.index(feature)]
    value = beta**2 * (delta @ cov @ delta + variance) - 2 * beta * (residual @ cov @ delta)
    return value, variance


def population_ols(joint, target, features) -> np.ndarray:
    f = [joint.index(n) for n in features]
    return np.linalg.solve(joint.covariance[np.ix_(f, f)], joint.covariance[f, joint.index(target)])


def rounding(joint, coefficients) -> float:
    """The tolerance of a value: 1e-12 of the largest variance times β²."""
    return 1e-12 * (1.0 + joint.covariance.diagonal().max() * np.square(coefficients).max())


def cells(graph, target, features):
    """Every (feature, G) with G a set of the other non-target variables."""
    for feature in features:
        others = [n for n in graph.nodes if n not in (feature, target)]
        for size in range(len(others) + 1):
            yield from ((feature, g) for g in itertools.combinations(others, size))


@st.composite
def models(draw):
    """(graph, target, features, coefficients): a linear SCM over 3 to 6
    variables with Y at any place in the causal order, a model on a
    nonempty subset of the others, and arbitrary model coefficients."""
    k = draw(st.integers(3, 6))
    nodes = [f"V{i}" for i in range(k)]
    nodes[draw(st.integers(0, k - 1))] = "Y"
    edges = tuple(
        Edge(parent, child, draw(st.floats(-1.5, 1.5)))
        for i, child in enumerate(nodes) for parent in nodes[:i] if draw(st.booleans())
    )
    graph = ScmGraph(tuple(nodes), tuple(draw(st.floats(0.5, 1.5)) for _ in nodes), edges)
    others = [n for n in nodes if n != "Y"]
    features = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    coefficients = [draw(st.floats(-2.0, 2.0)) for _ in features]
    return graph, "Y", features, coefficients


@RULES
@given(models())
def test_d_separated_cells_read_zero_for_any_coefficients(model):
    graph, target, features, coefficients = model
    joint = population(graph)
    for feature, g in cells(graph, target, features):
        rest = [n for n in features if n != feature and n not in g]
        if d_separated(graph, [feature], rest + [target], g):
            value, _ = population_value(joint, target, features, coefficients, feature, g)
            assert abs(value) <= rounding(joint, coefficients)


@RULES
@given(models())
def test_sign_rules_under_population_least_squares(model):
    graph, target, features, _ = model
    joint = population(graph)
    coefficients = population_ols(joint, target, features)
    for feature, g in cells(graph, target, features):
        value, variance = population_value(joint, target, features, coefficients, feature, g)
        if set(g) <= set(features):
            beta = coefficients[features.index(feature)]
            assert abs(value - 2 * beta**2 * variance) <= rounding(joint, coefficients)
        if value < -rounding(joint, coefficients):
            assert set(g) - set(features)


def test_rules_on_known_graphs():
    # the d-separation helper on known paths, a collider among them
    a = builtin_graph("experiment_a")  # X1 -> X2 -> X3 -> Y, X1 -> X4 -> Y
    assert d_separated(a, ["X1"], ["Y"], ["X3", "X4"])
    assert not d_separated(a, ["X1"], ["Y"], ["X3"])
    assert d_separated(a, ["X3"], ["X4"], ["X1"])
    assert not d_separated(a, ["X3"], ["X4"], ["X1", "Y"])
    # experiment_b: conditioning on the confounder C removes X3's importance
    # entirely and leaves X1's alone
    b = builtin_graph("experiment_b")
    joint, features = population(b), ["X1", "X2", "X3"]
    ols = population_ols(joint, "Y", features)
    value = {(f, g): population_value(joint, "Y", features, ols, f, g)[0]
             for f, g in cells(b, "Y", features)}
    assert d_separated(b, ["X3"], ["X1", "X2", "Y"], ["C"])
    assert abs(value["X3", ("C",)]) <= 1e-12
    assert abs(value["X1", ("C",)] - value["X1", ()]) <= 1e-12
    # a confounder Z the model never saw turns its coefficient on X negative
    # (1 - 3/2 = -0.5); redrawing X given Z then lowers the risk: the value is
    # 2·β·Var(X | Z)·(X's own effect) = 2·(-0.5)·1·1
    joint = population(ScmGraph(("Z", "X", "Y"), (1.0, 1.0, 1.0), (
        Edge("Z", "X", 1.0), Edge("Z", "Y", -3.0), Edge("X", "Y", 1.0))))
    ols = population_ols(joint, "Y", ["X"])
    np.testing.assert_allclose(ols, [-0.5])
    np.testing.assert_allclose(population_value(joint, "Y", ["X"], ols, "X", ("Z",)), (-1.0, 1.0))
    np.testing.assert_allclose(population_value(joint, "Y", ["X"], ols, "X", ()), (1.0, 2.0))
