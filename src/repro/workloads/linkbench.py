"""LinkBench (paper §8): dataset generator and the four query kinds.

The paper's datasets (Table 2) have 10M/100M vertices with average
degree ~4.2 and extreme degree skew (max degree ~962k).  A pure-Python
reproduction shrinks the scales to 5,000 and 50,000 vertices while
preserving: 10 vertex types, 10 edge types, 3 vertex properties, 4
edge properties, the ~4.2 average degree, and a Zipf-skewed degree
distribution with a designated hub vertex.

The relational layout follows the retrofit story: one table per node
type (``node0``..``node9``, primary key ``id``) and one per link type
(``link0``..``link9`` with ``id1``/``id2``).  Ids are globally unique
across node tables and *not* prefixed — so a bare ``g.V(id)`` must
consult every node table unless the optimizer narrows it, which is
exactly what Figures 4-6 measure.

Table 1 mapping (implemented in :data:`LINKBENCH_QUERIES`):

    getNode(id, lbl)        g.V(id).hasLabel(lbl)
    countLinks(id1, lbl)    g.V(id1).outE(lbl).count()
    getLink(id1, lbl, id2)  g.V(id1).outE(lbl).filter(inV().id() == id2)
    getLinkList(id1, lbl)   g.V(id1).outE(lbl)

Note: the paper's Table 1 prints ``outV()`` in getLink; the out-vertex
of an out-edge of ``id1`` is ``id1`` itself, so we follow the query's
*intent* (match the link's far endpoint) and use ``inV()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..core.overlay import EdgeTableConfig, LabelSpec, OverlayConfig, VertexTableConfig
from ..graph.predicates import P
from ..graph.traversal import GraphTraversalSource, Traversal, __
from ..relational.database import Database

N_TYPES = 10
DEFAULT_SMALL = 5000
DEFAULT_LARGE = 50000


def node_label(type_index: int) -> str:
    return f"nt{type_index}"


def link_label(type_index: int) -> str:
    return f"lt{type_index}"


def node_table(type_index: int) -> str:
    return f"node{type_index}"


def link_table(type_index: int) -> str:
    return f"link{type_index}"


@dataclass
class LinkBenchConfig:
    name: str = "small"
    n_vertices: int = DEFAULT_SMALL
    target_avg_degree: float = 4.2
    zipf_exponent: float = 2.2
    hub_fraction: float = 0.1  # the hub's degree as a fraction of |V|
    seed: int = 42

    @classmethod
    def small(cls) -> "LinkBenchConfig":
        return cls(name="small", n_vertices=DEFAULT_SMALL, seed=42)

    @classmethod
    def large(cls) -> "LinkBenchConfig":
        return cls(name="large", n_vertices=DEFAULT_LARGE, seed=43)


@dataclass
class LinkBenchStats:
    """The Table 2 columns."""

    n_vertices: int
    n_edges: int
    avg_degree: float
    max_degree: int
    csv_bytes: int


class LinkBenchDataset:
    """Generated vertices and edges, loadable into any engine."""

    def __init__(self, config: LinkBenchConfig):
        self.config = config
        rng = random.Random(config.seed)
        n = config.n_vertices
        # vertices: (id, type_index, version, time, data)
        self.vertices: list[tuple[int, int, int, float, str]] = []
        for vertex_id in range(1, n + 1):
            self.vertices.append(
                (
                    vertex_id,
                    vertex_id % N_TYPES,
                    rng.randint(1, 20),
                    1_500_000_000.0 + rng.random() * 1e8,
                    f"payload-{vertex_id % 977:03d}-" + "x" * rng.randint(8, 40),
                )
            )
        # edges: (id1, link_type, id2, visibility, data, time, version)
        self.edges: list[tuple[int, int, int, int, str, float, int]] = []
        self._out: dict[int, list[tuple[int, int]]] = {}  # id1 -> [(lt, id2)]
        degrees = self._sample_degrees(rng, n)
        seen: set[tuple[int, int, int]] = set()
        for vertex_id, degree in zip(range(1, n + 1), degrees):
            for _ in range(degree):
                target = rng.randint(1, n)
                lt = rng.randrange(N_TYPES)
                key = (vertex_id, lt, target)
                if key in seen:
                    continue
                seen.add(key)
                self.edges.append(
                    (
                        vertex_id,
                        lt,
                        target,
                        rng.randint(0, 1),
                        f"edata-{len(self.edges) % 613:03d}",
                        1_500_000_000.0 + rng.random() * 1e8,
                        rng.randint(1, 5),
                    )
                )
                self._out.setdefault(vertex_id, []).append((lt, target))

    def _sample_degrees(self, rng: random.Random, n: int) -> list[int]:
        """Zipf-skewed out-degrees averaging ~target_avg_degree, plus a
        hub vertex reproducing Table 2's extreme max degree."""
        exponent = self.config.zipf_exponent
        cap = max(2, n // 10)
        degrees: list[int] = []
        for _ in range(n):
            # inverse-transform Zipf sample
            u = rng.random()
            degree = int(u ** (-1.0 / (exponent - 1.0)))
            degrees.append(min(max(degree, 0), cap))
        # rescale toward the target average (hub excluded)
        current = sum(degrees) / n
        target = self.config.target_avg_degree
        if current > 0:
            scale = target / current
            degrees = [max(0, round(d * scale)) for d in degrees]
        hub = max(2, int(n * self.config.hub_fraction))
        degrees[0] = hub  # vertex 1 is the hub
        return degrees

    # -- stats (Table 2) -------------------------------------------------------

    def stats(self) -> LinkBenchStats:
        degree_by_vertex: dict[int, int] = {}
        for id1, _lt, id2, *_rest in self.edges:
            degree_by_vertex[id1] = degree_by_vertex.get(id1, 0) + 1
            degree_by_vertex[id2] = degree_by_vertex.get(id2, 0) + 1
        n = len(self.vertices)
        return LinkBenchStats(
            n_vertices=n,
            n_edges=len(self.edges),
            avg_degree=len(self.edges) / n if n else 0.0,
            max_degree=max(degree_by_vertex.values(), default=0),
            csv_bytes=self._csv_bytes(),
        )

    def _csv_bytes(self) -> int:
        total = 0
        for row in self.vertices:
            total += sum(len(str(v)) for v in row) + len(row)
        for row in self.edges:
            total += sum(len(str(v)) for v in row) + len(row)
        return total

    # -- relational install -------------------------------------------------------

    def install_relational(self, db: Database) -> None:
        """Create the node/link tables, load the data, build indexes."""
        connection = db.connect()
        for t in range(N_TYPES):
            db.execute(
                f"CREATE TABLE {node_table(t)} ("
                f"id BIGINT PRIMARY KEY, version INT, time DOUBLE, data VARCHAR)"
            )
            db.execute(
                f"CREATE TABLE {link_table(t)} ("
                f"id1 BIGINT, id2 BIGINT, visibility INT, data VARCHAR, "
                f"time DOUBLE, version INT)"
            )
            # 'building all the indexes necessary for each system' (§8)
            db.execute(f"CREATE INDEX idx_{link_table(t)}_id1 ON {link_table(t)} (id1)")
        node_rows: dict[int, list[tuple]] = {t: [] for t in range(N_TYPES)}
        for vertex_id, t, version, time_, data in self.vertices:
            node_rows[t].append((vertex_id, version, time_, data))
        for t, rows in node_rows.items():
            if rows:
                connection.insert_rows(node_table(t), rows)
        link_rows: dict[int, list[tuple]] = {t: [] for t in range(N_TYPES)}
        for id1, lt, id2, visibility, data, time_, version in self.edges:
            link_rows[lt].append((id1, id2, visibility, data, time_, version))
        for t, rows in link_rows.items():
            if rows:
                connection.insert_rows(link_table(t), rows)

    def overlay_config(self) -> OverlayConfig:
        config = OverlayConfig(
            v_tables=[
                VertexTableConfig(
                    table_name=node_table(t),
                    id_spec="id",
                    label=LabelSpec(constant=node_label(t)),
                    properties=["version", "time", "data"],
                )
                for t in range(N_TYPES)
            ],
            e_tables=[
                EdgeTableConfig(
                    table_name=link_table(t),
                    src_v_spec="id1",
                    dst_v_spec="id2",
                    label=LabelSpec(constant=link_label(t)),
                    implicit_edge_id=True,
                    properties=["visibility", "data", "time", "version"],
                )
                for t in range(N_TYPES)
            ],
        )
        config.validate_internal()
        return config

    def relational_table_names(self) -> list[str]:
        return [node_table(t) for t in range(N_TYPES)] + [
            link_table(t) for t in range(N_TYPES)
        ]

    # -- direct store loading (baselines) --------------------------------------------

    def load_into_store(self, store: Any) -> None:
        for vertex_id, t, version, time_, data in self.vertices:
            store.add_vertex(
                vertex_id,
                node_label(t),
                {"version": version, "time": time_, "data": data},
            )
        for id1, lt, id2, visibility, data, time_, version in self.edges:
            store.add_edge(
                link_label(lt),
                id1,
                id2,
                {"visibility": visibility, "data": data, "time": time_, "version": version},
                edge_id=f"{id1}::{link_label(lt)}::{id2}",
            )
        store.finalize()

    # -- oracle access (for correctness tests) --------------------------------------

    def out_links(self, id1: int) -> list[tuple[int, int]]:
        """[(link_type, id2)] for a vertex — ground truth."""
        return list(self._out.get(id1, ()))

    def vertex_type(self, vertex_id: int) -> int:
        return vertex_id % N_TYPES


# ---------------------------------------------------------------------------
# Table 1: the four query kinds
# ---------------------------------------------------------------------------


def q_get_node(g: GraphTraversalSource, node_id: int, label: str) -> Traversal:
    return g.V(node_id).hasLabel(label)


def q_count_links(g: GraphTraversalSource, id1: int, label: str) -> Traversal:
    return g.V(id1).outE(label).count()


def q_get_link(g: GraphTraversalSource, id1: int, label: str, id2: int) -> Traversal:
    return g.V(id1).outE(label).filter_(__.inV().id_().is_(P.eq(id2)))


def q_get_link_list(g: GraphTraversalSource, id1: int, label: str) -> Traversal:
    return g.V(id1).outE(label)


LINKBENCH_QUERIES: dict[str, Callable[..., Traversal]] = {
    "getNode": q_get_node,
    "countLinks": q_count_links,
    "getLink": q_get_link,
    "getLinkList": q_get_link_list,
}


@dataclass
class QueryCall:
    kind: str
    args: tuple

    def run(self, g: GraphTraversalSource) -> Any:
        traversal = LINKBENCH_QUERIES[self.kind](g, *self.args)
        return traversal.toList()


class LinkBenchWorkload:
    """Samples valid query calls against a dataset (parameters always
    reference existing nodes/links, as LinkBench's query-only mode
    does)."""

    def __init__(self, dataset: LinkBenchDataset, seed: int = 7):
        self.dataset = dataset
        self.rng = random.Random(seed)
        self._sources = [id1 for id1, links in dataset._out.items() if links]

    def sample(self, kind: str) -> QueryCall:
        dataset = self.dataset
        if kind == "getNode":
            vertex_id = self.rng.randint(1, dataset.config.n_vertices)
            return QueryCall(kind, (vertex_id, node_label(dataset.vertex_type(vertex_id))))
        id1 = self.rng.choice(self._sources)
        lt, id2 = self.rng.choice(dataset.out_links(id1))
        if kind == "countLinks":
            return QueryCall(kind, (id1, link_label(lt)))
        if kind == "getLink":
            return QueryCall(kind, (id1, link_label(lt), id2))
        if kind == "getLinkList":
            return QueryCall(kind, (id1, link_label(lt)))
        raise ValueError(f"unknown query kind {kind!r}")

    def stream(self, kind: str, count: int) -> Iterator[QueryCall]:
        for _ in range(count):
            yield self.sample(kind)

    def mixed_stream(self, count: int) -> Iterator[QueryCall]:
        kinds = list(LINKBENCH_QUERIES)
        for _ in range(count):
            yield self.sample(self.rng.choice(kinds))
