import re

import numpy as np
import pytest

from relfi import scm
from relfi.scm import (
    BUILTIN_GRAPHS,
    Edge,
    GraphError,
    ScmGraph,
    analytic_covariance,
    builtin_graph,
    load_graph,
    parse_graph,
    sample_scm,
)

_BLOCK = scm._EQUATION_BLOCK_ROWS


def partial_correlation(cov, i, j, given):
    """Residual correlation of coordinates i, j after regressing out `given`."""
    if not given:
        return cov[i, j] / np.sqrt(cov[i, i] * cov[j, j])
    K = list(given)
    beta_i = np.linalg.solve(cov[np.ix_(K, K)], cov[K, i])
    beta_j = np.linalg.solve(cov[np.ix_(K, K)], cov[K, j])
    rij = cov[i, j] - beta_i @ cov[K, j]
    rii = cov[i, i] - beta_i @ cov[K, i]
    rjj = cov[j, j] - beta_j @ cov[K, j]
    return rij / np.sqrt(rii * rjj)


class TestGraphValidation:
    def test_cycle_detected(self):
        with pytest.raises(GraphError, match="cycle"):
            ScmGraph(("a", "b"), (1.0, 1.0), (Edge("a", "b", 1.0), Edge("b", "a", 1.0)))

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            ScmGraph(("a",), (1.0,), (Edge("a", "a", 1.0),))

    def test_duplicate_nodes(self):
        with pytest.raises(GraphError, match="duplicate node"):
            ScmGraph(("a", "a"), (1.0, 1.0), ())

    def test_unknown_edge_endpoint(self):
        with pytest.raises(GraphError, match="unknown node"):
            ScmGraph(("a",), (1.0,), (Edge("a", "b", 1.0),))

    def test_negative_noise_scale(self):
        with pytest.raises(GraphError, match="noise scale"):
            ScmGraph(("a",), (-1.0,), ())

    @pytest.mark.parametrize("nodes, scales, message", [
        ((), (), "graph needs at least one node"),
        (("a", "b"), (1.0,), "need exactly one noise scale per node"),
    ])
    def test_node_shapes_checked(self, nodes, scales, message):
        with pytest.raises(GraphError, match=re.escape(message)):
            ScmGraph(nodes, scales, ())

    def test_node_index_names_an_unknown_node(self):
        with pytest.raises(GraphError, match=re.escape("no node named 'c'")):
            builtin_graph("experiment_a").node_index("c")

    def test_non_finite_coefficient(self):
        with pytest.raises(GraphError, match="finite"):
            ScmGraph(("a", "b"), (1.0, 1.0), (Edge("a", "b", np.inf),))

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            ScmGraph(
                ("a", "b"), (1.0, 1.0), (Edge("a", "b", 1.0), Edge("a", "b", 2.0))
            )

    def test_topological_order_respects_edges(self):
        g = builtin_graph("experiment_a")
        order = {name: k for k, name in enumerate(g.topological_order)}
        for e in g.edges:
            assert order[e.parent] < order[e.child]


def kahn_order(nodes, edges):
    """Reference order: Kahn's algorithm with a FIFO of ready nodes, seeded
    in declaration order, releasing each node's children in edge order."""
    indegree = {n: 0 for n in nodes}
    for e in edges:
        indegree[e.child] += 1
    order = []
    ready = [n for n in nodes if indegree[n] == 0]
    while ready:
        node = ready.pop(0)
        order.append(node)
        for e in edges:
            if e.parent != node:
                continue
            indegree[e.child] -= 1
            if indegree[e.child] == 0:
                ready.append(e.child)
    assert len(order) == len(nodes), "reference given a cyclic graph"
    return tuple(order)


def shuffled_dag(rng) -> ScmGraph:
    """A random DAG whose nodes and edges are declared in shuffled order."""
    k = int(rng.integers(1, 16))
    causal = [f"N{i}" for i in range(k)]
    edges = [
        Edge(causal[i], causal[j], 1.0)
        for j in range(k) for i in range(j) if rng.random() < rng.uniform(0.1, 0.6)
    ]
    nodes = tuple(causal[i] for i in rng.permutation(k))
    edges = tuple(edges[i] for i in rng.permutation(len(edges)))
    return ScmGraph(nodes, (1.0,) * k, edges)


class TestTopologicalOrder:
    def test_matches_kahn_reference(self):
        rng = np.random.default_rng(16)
        graphs = [builtin_graph("experiment_a"), builtin_graph("experiment_b")]
        graphs += [shuffled_dag(rng) for _ in range(200)]
        for g in graphs:
            assert g.topological_order == kahn_order(g.nodes, g.edges)

    def test_cycle_names_its_nodes(self):
        edges = (Edge("d", "a", 1.0), Edge("a", "b", 1.0), Edge("b", "c", 1.0),
                 Edge("c", "a", 1.0), Edge("c", "e", 1.0))
        with pytest.raises(GraphError, match=r"^cycle detected involving: a, b, c$"):
            ScmGraph(("a", "b", "c", "d", "e"), (1.0,) * 5, edges)


class TestBuiltins:
    def test_experiment_a_nodes(self):
        g = builtin_graph("experiment_a")
        assert len(g.nodes) == 5
        assert set(g.nodes) == {"X1", "X2", "X3", "X4", "Y"}
        pairs = {(e.parent, e.child) for e in g.edges}
        assert pairs == {
            ("X1", "X2"), ("X2", "X3"), ("X1", "X4"), ("X3", "Y"), ("X4", "Y"),
        }
        scales = dict(zip(g.nodes, g.noise_scale))
        assert scales == {"X1": 1.0, "X2": 1.0, "X3": 0.3, "X4": 1.0, "Y": 0.5}

    def test_experiment_b_no_edge_between_x1_and_c(self):
        g = builtin_graph("experiment_b")
        pairs = {(e.parent, e.child) for e in g.edges}
        assert ("X1", "C") not in pairs and ("C", "X1") not in pairs
        scales = dict(zip(g.nodes, g.noise_scale))
        assert scales == {"C": 1.0, "X1": 1.0, "X2": 1.0, "X3": 0.5, "Y": 0.5}

    def test_both_acyclic(self):
        # construction validates; reaching here means both passed
        assert builtin_graph("experiment_a").topological_order
        assert builtin_graph("experiment_b").topological_order

    def test_builtin_lookup(self):
        assert sorted(BUILTIN_GRAPHS) == ["experiment_a", "experiment_b"]
        for name in BUILTIN_GRAPHS:
            assert builtin_graph(name) == load_graph(name)
        with pytest.raises(GraphError, match=re.escape(
                "no built-in graph named 'experiment_c'; available: experiment_a, experiment_b")):
            builtin_graph("experiment_c")
        with pytest.raises(GraphError, match=re.escape(
                "no graph file or built-in named 'experiment_c'; "
                "built-ins: experiment_a, experiment_b")):
            load_graph("experiment_c")


class TestAnalyticCovariance:
    def test_edgeless_is_diagonal(self):
        g = ScmGraph(("a", "b"), (2.0, 0.5), ())
        assert np.allclose(analytic_covariance(g), np.diag([4.0, 0.25]))

    def test_chain_expansion(self):
        # X2 = X1 + e2 with unit noise: Var(X2) = 2, Cov = 1
        g = ScmGraph(("X1", "X2"), (1.0, 1.0), (Edge("X1", "X2", 1.0),))
        assert np.allclose(analytic_covariance(g), [[1.0, 1.0], [1.0, 2.0]])

    def test_experiment_b_path_tracing(self):
        g = builtin_graph("experiment_b")
        cov = analytic_covariance(g)
        i3, iy = g.node_index("X3"), g.node_index("Y")
        assert cov[i3, iy] == pytest.approx(2.0, abs=1e-12)
        assert cov[i3, i3] == pytest.approx(1.25, abs=1e-12)

    def test_experiment_a_known_variances(self):
        g = builtin_graph("experiment_a")
        cov = analytic_covariance(g)
        d = {n: cov[g.node_index(n), g.node_index(n)] for n in g.nodes}
        assert d["X1"] == pytest.approx(1.0, abs=1e-12)
        assert d["X2"] == pytest.approx(2.0, abs=1e-12)
        assert d["X3"] == pytest.approx(2.09, abs=1e-12)
        assert d["X4"] == pytest.approx(2.0, abs=1e-12)

    def test_d_separation_partial_correlations_vanish(self):
        ga = builtin_graph("experiment_a")
        cov_a = analytic_covariance(ga)
        pc = partial_correlation(
            cov_a, ga.node_index("X1"), ga.node_index("X3"), [ga.node_index("X2")]
        )
        assert abs(pc) < 1e-12
        gb = builtin_graph("experiment_b")
        cov_b = analytic_covariance(gb)
        pc = partial_correlation(
            cov_b, gb.node_index("X3"), gb.node_index("Y"), [gb.node_index("C")]
        )
        assert abs(pc) < 1e-12


class TestSampling:
    def test_single_node_moments(self):
        g = ScmGraph(("a",), (1.0,), ())
        data = sample_scm(g, 100000, seed=1, target="a", test_fraction=0.5)
        x = data.column("a")
        se_mean = 1.0 / np.sqrt(100000)
        se_var = np.sqrt(2.0 / 100000)
        assert abs(x.mean()) < 3 * se_mean
        assert abs(x.var(ddof=1) - 1.0) < 3 * se_var

    def test_experiment_a_var_x2(self):
        data = sample_scm(builtin_graph("experiment_a"), 100000, seed=2)
        v = data.column("X2").var(ddof=1)
        se = 2.0 * np.sqrt(2.0 / 100000)
        assert abs(v - 2.0) < 3 * se

    def test_experiment_b_x1_c_uncorrelated(self):
        data = sample_scm(builtin_graph("experiment_b"), 100000, seed=3)
        r = np.corrcoef(data.column("X1"), data.column("C"))[0, 1]
        assert abs(r) < 3.0 / np.sqrt(100000)

    def test_empirical_matches_analytic_covariance(self):
        g = builtin_graph("experiment_a")
        target = analytic_covariance(g)
        data = sample_scm(g, 100000, seed=4)
        emp = np.cov(data.values, rowvar=False, ddof=1)
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / 100000
        )
        assert np.max(np.abs(emp - target)) < 5 * se.max()

    def test_same_bits_as_a_separate_noise_block(self):
        # the reference keeps its noise block beside the values and runs each
        # equation over whole columns, so it sees no row blocks
        rng = np.random.default_rng(21)
        order = [f"v{i}" for i in rng.permutation(8)]
        edges = tuple(
            Edge(order[i], order[j], float(rng.normal()))
            for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.4
        )
        g = ScmGraph(tuple(f"v{i}" for i in range(8)), tuple(rng.uniform(0.1, 2, 8)), edges)
        assert g.topological_order != g.nodes
        # the fewest rows a split takes, inside one block, exactly one block,
        # several blocks and a ragged tail; the noise is one whole-array draw
        for n in (2, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17):
            data = sample_scm(g, n, seed=13)
            assert data.values.flags.f_contiguous
            noise = np.random.default_rng(13).standard_normal((n, 8))
            values = np.empty((n, 8))
            for name in g.topological_order:
                i = g.node_index(name)
                col = g.noise_scale[i] * noise[:, i]
                for e in g.parents_of(name):
                    col = col + e.coefficient * values[:, g.node_index(e.parent)]
                values[:, i] = col
            assert data.values.tobytes() == values.tobytes(), n

    def test_deterministic(self):
        g = builtin_graph("experiment_b")
        d1 = sample_scm(g, 500, seed=9)
        d2 = sample_scm(g, 500, seed=9)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.test_mask, d2.test_mask)

    def test_target_and_split_defaults(self):
        data = sample_scm(builtin_graph("experiment_b"), 1000, seed=0)
        assert data.target_name == "Y"
        assert data.n_test == 100

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_scm(builtin_graph("experiment_a"), 0, seed=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_refused(self, n):
        with pytest.raises(ValueError, match="need at least 2 rows to split"):
            sample_scm(builtin_graph("experiment_a"), n, seed=0)


class TestSerialization:
    def test_load_graph_file(self, tmp_path):
        path = tmp_path / "g.yaml"
        path.write_text(
            "nodes:\n"
            "  - {name: A, noise_scale: 1.0}\n"
            "  - {name: B, noise_scale: 0.5}\n"
            "edges:\n"
            "  - {parent: A, child: B, coefficient: 2.0}\n"
        )
        g = load_graph(path)
        assert g.nodes == ("A", "B")
        assert g.edges == (Edge("A", "B", 2.0),)

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(GraphError):
            parse_graph(["not", "a", "mapping"])
        with pytest.raises(GraphError, match="nodes"):
            parse_graph({"edges": []})
        with pytest.raises(GraphError, match="name"):
            parse_graph({"nodes": [{"noise_scale": 1.0}]})
        with pytest.raises(GraphError, match="unknown graph keys"):
            parse_graph({"nodes": [{"name": "a"}], "extra": 1})
        with pytest.raises(GraphError, match="edge"):
            parse_graph({"nodes": [{"name": "a"}], "edges": [{"parent": "a"}]})
        with pytest.raises(GraphError, match="coefficient"):
            parse_graph(
                {
                    "nodes": [{"name": "a"}, {"name": "b"}],
                    "edges": [{"parent": "a", "child": "b", "coefficient": "x"}],
                }
            )

    @pytest.mark.parametrize("node, edge, message", [
        ({"name": "a", "noise_scale": True}, None, "node 'a': noise_scale must be a finite number"),
        ({"name": "a", "noise_scale": "1.5"}, None, "node 'a': noise_scale must be a finite number"),
        ({"name": ["a", "c"]}, None, "node ['a', 'c']: name must be a non-empty string"),
        ({"name": None}, None, "node None: name must be a non-empty string"),
        ({"name": ""}, None, "node '': name must be a non-empty string"),
        ({"name": "a"}, {"parent": "a", "child": "b", "coefficient": True},
         "edge 'a' -> 'b': coefficient must be a finite number"),
        ({"name": "a"}, {"parent": "a", "child": "b", "coefficient": "0.5"},
         "edge 'a' -> 'b': coefficient must be a finite number"),
        ({"name": "a"}, {"parent": True, "child": "b", "coefficient": 1.0},
         "edge True -> 'b': parent and child must be node names"),
        ({"name": "a", "noise": 1.0, "mean": 0.0}, None, "node 'a': unknown keys mean, noise"),
    ])
    def test_parse_refuses_what_a_config_refuses(self, node, edge, message):
        mapping = {"nodes": [node, {"name": "b"}], "edges": [edge] if edge else []}
        with pytest.raises(GraphError, match=re.escape(message)):
            parse_graph(mapping)

    @pytest.mark.parametrize("edges", [5, 0, "ab"])
    def test_parse_refuses_edges_that_are_not_a_list(self, edges):
        with pytest.raises(GraphError, match=re.escape("'edges' must be a list")):
            parse_graph({"nodes": [{"name": "a"}], "edges": edges})

    def test_absent_or_null_edges_mean_none(self):
        assert parse_graph({"nodes": [{"name": "a"}]}).edges == ()
        assert parse_graph({"nodes": [{"name": "a"}], "edges": None}).edges == ()

    def test_load_graph_bad_yaml(self, tmp_path):
        path = tmp_path / "g.yaml"
        path.write_text("nodes: [unclosed\n")
        with pytest.raises(GraphError, match="YAML"):
            load_graph(path)
