"""Tests for the LinkBench workload: Table 1 query mapping, Table 2
dataset shape, relational/overlay installation, and cross-engine
agreement of all four query kinds."""

import pytest

from repro.baselines.janus import JanusLikeStore
from repro.baselines.kvstore import DiskModel
from repro.baselines.native import NativeGraphStore
from repro.core import Db2Graph
from repro.graph import GraphTraversalSource
from repro.relational import Database
from repro.workloads.linkbench import (
    LINKBENCH_QUERIES,
    LinkBenchConfig,
    LinkBenchDataset,
    LinkBenchWorkload,
    N_TYPES,
    link_label,
    node_label,
)


@pytest.fixture(scope="module")
def dataset():
    return LinkBenchDataset(LinkBenchConfig(name="test", n_vertices=1500, seed=2))


@pytest.fixture(scope="module")
def installed(dataset):
    db = Database(enforce_foreign_keys=False)
    dataset.install_relational(db)
    graph = Db2Graph.open(db, dataset.overlay_config())
    return db, graph


class TestGeneration:
    def test_table2_shape(self, dataset):
        stats = dataset.stats()
        assert stats.n_vertices == 1500
        assert 3.0 <= stats.avg_degree <= 5.5
        assert stats.max_degree >= 100  # hub vertex
        assert stats.csv_bytes > 0

    def test_ten_vertex_and_edge_types(self, dataset):
        vertex_types = {t for _id, t, *_ in dataset.vertices}
        edge_types = {lt for _a, lt, *_ in dataset.edges}
        assert vertex_types == set(range(N_TYPES))
        assert edge_types == set(range(N_TYPES))

    def test_property_counts_match_paper(self, dataset):
        """Paper: 'each vertex has 3 properties and each edge has 4'."""
        assert len(dataset.vertices[0]) == 2 + 3  # id, type + 3 props
        assert len(dataset.edges[0]) == 3 + 4  # id1, type, id2 + 4 props

    def test_deterministic_by_seed(self):
        a = LinkBenchDataset(LinkBenchConfig(n_vertices=300, seed=9))
        b = LinkBenchDataset(LinkBenchConfig(n_vertices=300, seed=9))
        assert a.edges == b.edges

    def test_no_duplicate_links(self, dataset):
        keys = [(a, lt, b) for a, lt, b, *_ in dataset.edges]
        assert len(keys) == len(set(keys))

    def test_oracle_out_links(self, dataset):
        for id1, lt, id2, *_ in dataset.edges[:50]:
            assert (lt, id2) in dataset.out_links(id1)


class TestInstallation:
    def test_tables_created_and_filled(self, installed, dataset):
        db, _graph = installed
        total = sum(
            db.execute(f"SELECT COUNT(*) FROM node{t}").scalar() for t in range(N_TYPES)
        )
        assert total == len(dataset.vertices)
        total_links = sum(
            db.execute(f"SELECT COUNT(*) FROM link{t}").scalar() for t in range(N_TYPES)
        )
        assert total_links == len(dataset.edges)

    def test_overlay_counts(self, installed, dataset):
        _db, graph = installed
        g = graph.traversal()
        assert g.V().count().next() == len(dataset.vertices)
        assert g.E().count().next() == len(dataset.edges)

    def test_vertex_types_map_to_labels(self, installed, dataset):
        _db, graph = installed
        g = graph.traversal()
        for t in (0, 5):
            expected = sum(1 for _id, vt, *_ in dataset.vertices if vt == t)
            assert g.V().hasLabel(node_label(t)).count().next() == expected


class TestTable1Mapping:
    """The Gremlin of Table 1, checked against the generator's oracle."""

    def test_get_node(self, installed, dataset):
        _db, graph = installed
        g = graph.traversal()
        result = LINKBENCH_QUERIES["getNode"](g, 7, node_label(7 % N_TYPES)).toList()
        assert len(result) == 1 and result[0].id == 7

    def test_get_node_wrong_label_empty(self, installed, dataset):
        _db, graph = installed
        g = graph.traversal()
        wrong = node_label((7 % N_TYPES + 1) % N_TYPES)
        assert LINKBENCH_QUERIES["getNode"](g, 7, wrong).toList() == []

    def test_count_links(self, installed, dataset):
        _db, graph = installed
        source = next(i for i in range(1, 100) if dataset.out_links(i))
        lt, _target = dataset.out_links(source)[0]
        expected = sum(1 for l, _t in dataset.out_links(source) if l == lt)
        g = graph.traversal()
        assert LINKBENCH_QUERIES["countLinks"](g, source, link_label(lt)).next() == expected

    def test_get_link(self, installed, dataset):
        _db, graph = installed
        source = next(i for i in range(1, 100) if dataset.out_links(i))
        lt, target = dataset.out_links(source)[0]
        g = graph.traversal()
        result = LINKBENCH_QUERIES["getLink"](g, source, link_label(lt), target).toList()
        assert len(result) == 1
        assert result[0].out_v_id == source and result[0].in_v_id == target

    def test_get_link_absent(self, installed, dataset):
        _db, graph = installed
        g = graph.traversal()
        assert LINKBENCH_QUERIES["getLink"](g, 1, link_label(0), -99).toList() == []

    def test_get_link_list(self, installed, dataset):
        _db, graph = installed
        source = next(i for i in range(1, 100) if dataset.out_links(i))
        lt, _ = dataset.out_links(source)[0]
        expected = {t for l, t in dataset.out_links(source) if l == lt}
        g = graph.traversal()
        result = LINKBENCH_QUERIES["getLinkList"](g, source, link_label(lt)).toList()
        assert {e.in_v_id for e in result} == expected


class TestWorkloadSampling:
    def test_samples_reference_existing_data(self, dataset):
        workload = LinkBenchWorkload(dataset, seed=1)
        for kind in LINKBENCH_QUERIES:
            call = workload.sample(kind)
            assert call.kind == kind
        call = workload.sample("getLink")
        id1, label, id2 = call.args
        lt = int(label.removeprefix("lt"))
        assert (lt, id2) in dataset.out_links(id1)

    def test_streams(self, dataset):
        workload = LinkBenchWorkload(dataset, seed=1)
        assert len(list(workload.stream("getNode", 10))) == 10
        kinds = {c.kind for c in workload.mixed_stream(50)}
        assert kinds == set(LINKBENCH_QUERIES)

    def test_unknown_kind_rejected(self, dataset):
        with pytest.raises(ValueError):
            LinkBenchWorkload(dataset).sample("nope")


class TestStatementSavings:
    """Traverser batching and a warm read cache, counted in statements on
    a replayed LinkBench mix: 12 rounds of getNode, getLinkList and
    countLinks (unprefixed ids fan out over every node table) plus
    two-hop ``out().out().count()`` from 6 sources.  Each engine replays
    the mix once to warm up; the second replay is counted."""

    @staticmethod
    def replayed_statements(graph, dataset, seed):
        workload = LinkBenchWorkload(dataset, seed=seed)
        calls = [
            workload.sample(kind)
            for _ in range(12)
            for kind in ("getNode", "getLinkList", "countLinks")
        ]

        def replay():
            for call in calls:
                call.run(graph.traversal())
            for id1 in workload._sources[:6]:
                graph.traversal().V(id1).out().out().count().next()

        replay()
        before = graph.stats()["sql_queries"]
        replay()
        return graph.stats()["sql_queries"] - before

    @pytest.mark.parametrize(
        "baseline, improved, factor, seed",
        [
            ({"batch_size": 1, "cache": False}, {"batch_size": 64, "cache": False}, 4, 29),
            ({"cache": False}, {"cache": True}, 2, 31),
        ],
        ids=["batch-64-vs-1", "warm-cache-vs-off"],
    )
    def test_fewer_statements(self, installed, dataset, baseline, improved, factor, seed):
        db, _graph = installed
        counts = []
        for options in (baseline, improved):
            graph = Db2Graph.open(db, dataset.overlay_config(), **options)
            counts.append(self.replayed_statements(graph, dataset, seed))
            graph.close()
        assert counts[0] > 0
        assert counts[1] * factor <= counts[0], counts


class TestCrossEngineAgreement:
    def test_all_engines_agree_on_workload(self, installed, dataset):
        _db, graph = installed
        native = NativeGraphStore(cache_records=50_000, disk_model=DiskModel(0.0))
        dataset.load_into_store(native)
        native.open_graph(prefetch=False)
        janus = JanusLikeStore(disk_model=DiskModel(0.0))
        dataset.load_into_store(janus)
        janus.open_graph()
        workload = LinkBenchWorkload(dataset, seed=99)
        try:
            for _ in range(80):
                kind = workload.rng.choice(list(LINKBENCH_QUERIES))
                call = workload.sample(kind)
                a = call.run(graph.traversal())
                b = call.run(GraphTraversalSource(native))
                c = call.run(GraphTraversalSource(janus))
                assert len(a) == len(b) == len(c), (kind, call.args)
        finally:
            native.close()
            janus.close()
