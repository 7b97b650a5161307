"""Linear-Gaussian structural causal model simulator.

A graph is a DAG whose nodes carry Gaussian noise scales and whose edges
carry linear coefficients. Each node equals the coefficient-weighted sum
of its parents plus its own noise term, so the induced joint is a
zero-mean multivariate normal whose covariance has the closed form
(I - A)^-1 D (I - A)^-T. That analytic covariance doubles as the oracle
for the samplers and the importance engine.

The YAML graph format here is the same one the command line accepts; the
two built-in experiment graphs are expressed in it.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass

import numpy as np
import yaml

from .core import Dataset, holdout_mask_from_seed, is_name, is_number, load_yaml


class GraphError(ValueError):
    """Malformed graph: bad reference, bad number, or a cycle."""


@dataclass(frozen=True)
class Edge:
    parent: str
    child: str
    coefficient: float


@dataclass(frozen=True)
class ScmGraph:
    """DAG with per-node noise scales and per-edge linear coefficients.

    ``nodes`` fixes the column order of everything derived from the graph
    (samples, covariance). Validation happens at construction, so any
    instance in hand is acyclic and well formed.
    """

    nodes: tuple[str, ...]
    noise_scale: tuple[float, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        nodes = tuple(str(n) for n in self.nodes)
        if not nodes:
            raise GraphError("graph needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node names")
        scales = tuple(float(s) for s in self.noise_scale)
        if len(scales) != len(nodes):
            raise GraphError("need exactly one noise scale per node")
        for name, s in zip(nodes, scales):
            if not np.isfinite(s) or s < 0:
                raise GraphError(f"node {name!r}: noise scale must be finite and >= 0")
        seen: set[tuple[str, str]] = set()
        edges = []
        for e in self.edges:
            edge = Edge(str(e.parent), str(e.child), float(e.coefficient))
            for end in (edge.parent, edge.child):
                if end not in nodes:
                    raise GraphError(f"edge references unknown node {end!r}")
            if edge.parent == edge.child:
                raise GraphError(f"self-loop on {edge.parent!r}")
            if (edge.parent, edge.child) in seen:
                raise GraphError(f"duplicate edge {edge.parent!r} -> {edge.child!r}")
            if not np.isfinite(edge.coefficient):
                raise GraphError(
                    f"edge {edge.parent!r} -> {edge.child!r}: coefficient not finite"
                )
            seen.add((edge.parent, edge.child))
            edges.append(edge)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "noise_scale", scales)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_topo", _topological_order(nodes, self.edges))

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topo  # type: ignore[attr-defined]

    def node_index(self, name: str) -> int:
        try:
            return self.nodes.index(name)
        except ValueError:
            raise GraphError(f"no node named {name!r}") from None

    def parents_of(self, name: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.child == name)


def _topological_order(nodes: tuple[str, ...], edges: tuple[Edge, ...]) -> tuple[str, ...]:
    # ready nodes leave in declaration order, their children in edge order,
    # so the result is deterministic for a given graph
    sorter = graphlib.TopologicalSorter({n: () for n in nodes})
    for e in edges:
        sorter.add(e.child, e.parent)
    try:
        return tuple(sorter.static_order())
    except graphlib.CycleError as exc:
        cycle = ", ".join(sorted(set(exc.args[1])))
        raise GraphError(f"cycle detected involving: {cycle}") from None


# Rows per block of structural equations: a block of every column stays in
# cache while each equation reads and writes it, however many rows there are.
_EQUATION_BLOCK_ROWS = 4096


def sample_scm(
    graph: ScmGraph,
    n: int,
    seed: int,
    target: str | None = None,
    test_fraction: float = 0.10,
) -> Dataset:
    """Ancestral sampling: draw ``n`` observations of every node.

    Noise columns are assigned by node declaration order before any
    structural equation is evaluated, so the draw for a node does not
    depend on how the topological sort broke ties. The noise is drawn
    into the array that becomes ``Dataset.values``: each node's value
    overwrites its own noise column, which no other node reads. The
    equations run over blocks of rows, each block through every node in
    topological order; every entry sees the same operations in the same
    order as a whole-column pass, so the bits do not depend on the block
    size. The train/test split comes from the same seed on an independent
    stream.
    """
    mask = holdout_mask_from_seed(n, test_fraction, seed)
    if target is None:
        target = "Y" if "Y" in graph.nodes else graph.nodes[-1]
    rng = np.random.default_rng(int(seed))
    values = rng.standard_normal((n, len(graph.nodes)))
    equations = []
    for name in graph.topological_order:
        i = graph.node_index(name)
        parents = [(e.coefficient, graph.node_index(e.parent)) for e in graph.parents_of(name)]
        equations.append((i, graph.noise_scale[i], parents))
    for start in range(0, n, _EQUATION_BLOCK_ROWS):
        block = values[start:start + _EQUATION_BLOCK_ROWS]
        for i, scale, parents in equations:
            col = scale * block[:, i]
            for coefficient, p in parents:
                col += coefficient * block[:, p]
            block[:, i] = col
    return Dataset(graph.nodes, values, target, mask)


def analytic_covariance(graph: ScmGraph) -> np.ndarray:
    """Exact covariance of the induced joint, in node order.

    With A[child, parent] holding the edge coefficients and D the diagonal
    of noise variances, the joint satisfies X = AX + eps, hence
    Cov(X) = (I - A)^-1 D (I - A)^-T.
    """
    k = len(graph.nodes)
    A = np.zeros((k, k))
    for e in graph.edges:
        A[graph.node_index(e.child), graph.node_index(e.parent)] = e.coefficient
    D = np.diag(np.square(graph.noise_scale))
    M = np.linalg.solve(np.eye(k) - A, np.eye(k))
    cov = M @ D @ M.T
    return (cov + cov.T) / 2.0


def parse_graph(mapping) -> ScmGraph:
    """Build a graph from the YAML mapping format.

    Expected shape::

        nodes:
          - {name: X1, noise_scale: 1.0}
        edges:
          - {parent: X1, child: X2, coefficient: 1.0}

    ``edges`` may be omitted or null for an edgeless graph.
    """
    if not isinstance(mapping, dict):
        raise GraphError("graph file must be a mapping with a 'nodes' list")
    unknown = set(mapping) - {"nodes", "edges"}
    if unknown:
        raise GraphError(f"unknown graph keys: {', '.join(sorted(unknown))}")
    raw_nodes = mapping.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GraphError("'nodes' must be a non-empty list")
    names: list[str] = []
    scales: list[float] = []
    for item in raw_nodes:
        if not isinstance(item, dict) or "name" not in item:
            raise GraphError("each node needs at least a 'name'")
        name, scale = item["name"], item.get("noise_scale", 1.0)
        extra = set(item) - {"name", "noise_scale"}
        if extra:
            raise GraphError(f"node {name!r}: unknown keys {', '.join(sorted(extra))}")
        if not is_name(name):
            raise GraphError(f"node {name!r}: name must be a non-empty string or an integer")
        if not is_number(scale):
            raise GraphError(f"node {name!r}: noise_scale must be a finite number")
        names.append(str(name))
        scales.append(float(scale))
    raw_edges, edges = mapping.get("edges"), []
    if not isinstance(raw_edges, list | None):
        raise GraphError("'edges' must be a list")
    for item in raw_edges or []:
        if not isinstance(item, dict) or set(item) != {"parent", "child", "coefficient"}:
            raise GraphError(
                "each edge needs exactly the keys parent, child, coefficient"
            )
        parent, child, coeff = item["parent"], item["child"], item["coefficient"]
        if not (is_name(parent) and is_name(child)):
            raise GraphError(f"edge {parent!r} -> {child!r}: parent and child must be node names")
        if not is_number(coeff):
            raise GraphError(f"edge {parent!r} -> {child!r}: coefficient must be a finite number")
        edges.append(Edge(str(parent), str(child), float(coeff)))
    return ScmGraph(tuple(names), tuple(scales), tuple(edges))


def graph_to_mapping(graph: ScmGraph) -> dict:
    return {
        "nodes": [
            {"name": n, "noise_scale": s}
            for n, s in zip(graph.nodes, graph.noise_scale)
        ],
        "edges": [
            {"parent": e.parent, "child": e.child, "coefficient": e.coefficient}
            for e in graph.edges
        ],
    }


def load_graph(ref) -> ScmGraph:
    """The built-in graph named ``ref``, else the graph file at path ``ref``."""
    if ref in BUILTIN_GRAPHS:
        return BUILTIN_GRAPHS[ref]()
    try:
        with open(ref) as fp:
            mapping = load_yaml(fp)
    except FileNotFoundError:
        raise GraphError(
            f"no graph file or built-in named {str(ref)!r}; "
            f"built-ins: {', '.join(sorted(BUILTIN_GRAPHS))}"
        ) from None
    except yaml.YAMLError as exc:
        raise GraphError(f"{ref}: not valid YAML ({exc})") from None
    return parse_graph(mapping)


# The two built-in experiment graphs, in the same format graph files use.
# First: a four-feature chain/fork where X1 and X2 touch the response only
# through X3 and X4. Second: a confounder C that is observed but withheld
# from the model's feature set.

_EXPERIMENT_A = """
nodes:
  - {name: X1, noise_scale: 1.0}
  - {name: X2, noise_scale: 1.0}
  - {name: X3, noise_scale: 0.3}
  - {name: X4, noise_scale: 1.0}
  - {name: Y, noise_scale: 0.5}
edges:
  - {parent: X1, child: X2, coefficient: 1.0}
  - {parent: X2, child: X3, coefficient: 1.0}
  - {parent: X1, child: X4, coefficient: 1.0}
  - {parent: X3, child: Y, coefficient: 1.0}
  - {parent: X4, child: Y, coefficient: 1.0}
"""

_EXPERIMENT_B = """
nodes:
  - {name: C, noise_scale: 1.0}
  - {name: X1, noise_scale: 1.0}
  - {name: X2, noise_scale: 1.0}
  - {name: X3, noise_scale: 0.5}
  - {name: Y, noise_scale: 0.5}
edges:
  - {parent: C, child: X2, coefficient: 1.0}
  - {parent: C, child: X3, coefficient: 1.0}
  - {parent: C, child: Y, coefficient: 1.0}
  - {parent: X1, child: Y, coefficient: 1.0}
  - {parent: X2, child: Y, coefficient: 1.0}
"""


def builtin_experiment_a() -> ScmGraph:
    """Chain/fork graph: X1 -> X2 -> X3 -> Y and X1 -> X4 -> Y."""
    return parse_graph(load_yaml(_EXPERIMENT_A))


def builtin_experiment_b() -> ScmGraph:
    """Confounder graph: C drives X2, X3 and Y; X1 is independent of C."""
    return parse_graph(load_yaml(_EXPERIMENT_B))


BUILTIN_GRAPHS = {
    "experiment_a": builtin_experiment_a,
    "experiment_b": builtin_experiment_b,
}


def builtin_graph(name: str) -> ScmGraph:
    try:
        return BUILTIN_GRAPHS[name]()
    except KeyError:
        raise GraphError(
            f"no built-in graph named {name!r}; "
            f"available: {', '.join(sorted(BUILTIN_GRAPHS))}"
        ) from None
