"""Tests for the two baseline graph stores: behaviour, caching,
serialization costs, and provider-interface conformance."""

import pytest

from repro.baselines.janus import JanusLikeStore
from repro.baselines.kvstore import DiskModel
from repro.baselines.native import NativeGraphStore
from repro.graph import GraphError, GraphTraversalSource, P, __


def tiny_dataset(store):
    store.add_vertex(1, "person", {"name": "ada", "age": 36})
    store.add_vertex(2, "person", {"name": "bob", "age": 41})
    store.add_vertex(3, "thing", {"name": "lamp"})
    store.add_edge("knows", 1, 2, {"since": 1990}, edge_id="e1")
    store.add_edge("owns", 2, 3, {}, edge_id="e2")
    store.finalize()
    return store


@pytest.fixture(params=["native", "janus"])
def store(request):
    if request.param == "native":
        instance = NativeGraphStore(cache_records=100, disk_model=DiskModel(0.0))
    else:
        instance = JanusLikeStore(cache_blobs=100, disk_model=DiskModel(0.0))
    yield tiny_dataset(instance)
    instance.close()


class TestProviderConformance:
    """Both baselines serve the same Gremlin engine correctly."""

    def test_counts(self, store):
        g = GraphTraversalSource(store)
        assert g.V().count().next() == 3
        assert g.E().count().next() == 2

    def test_label_scan(self, store):
        g = GraphTraversalSource(store)
        assert g.V().hasLabel("person").count().next() == 2

    def test_lookup_by_id(self, store):
        g = GraphTraversalSource(store)
        assert g.V(1).values("name").next() == "ada"
        assert g.E("e1").values("since").next() == 1990

    def test_adjacency(self, store):
        g = GraphTraversalSource(store)
        assert [v.id for v in g.V(1).out("knows")] == [2]
        assert [v.id for v in g.V(2).in_("knows")] == [1]
        assert sorted(v.id for v in g.V(2).both()) == [1, 3]

    def test_edge_vertices(self, store):
        g = GraphTraversalSource(store)
        assert g.E("e1").inV().values("name").next() == "bob"
        assert g.E("e1").outV().values("name").next() == "ada"

    def test_predicates(self, store):
        g = GraphTraversalSource(store)
        assert g.V().has("age", P.gt(40)).count().next() == 1

    def test_aggregate_pushdown_path(self, store):
        from repro.core.strategies import optimized_strategies
        from repro.graph import StrategyRegistry

        g = GraphTraversalSource(store, StrategyRegistry(optimized_strategies()))
        assert g.V(1).outE("knows").count().next() == 1
        assert g.V().values("age").sum_().next() == 77

    def test_missing_ids(self, store):
        g = GraphTraversalSource(store)
        assert g.V(99).toList() == []
        assert g.E("nope").toList() == []

    def test_counts_api(self, store):
        assert store.vertex_count() == 3
        assert store.edge_count() == 2

    def test_disk_usage_positive(self, store):
        assert store.disk_usage_bytes() > 0

    def test_loading_after_finalize_rejected(self, store):
        with pytest.raises(GraphError):
            store.add_vertex(99, "x")


class TestNativeSpecifics:
    def test_cache_bounded_and_misses_counted(self):
        store = NativeGraphStore(cache_records=4, disk_model=DiskModel(0.0))
        for i in range(20):
            store.add_vertex(i, "n", {"i": i})
        store.finalize()
        store.open_graph(prefetch=True)
        g = GraphTraversalSource(store)
        for i in range(20):
            g.V(i).toList()
        stats = store.cache.stats()
        assert stats["entries"] <= 4
        assert stats["misses"] > 0

    def test_prefetch_warms_cache(self):
        store = NativeGraphStore(cache_records=100, disk_model=DiskModel(0.0))
        for i in range(10):
            store.add_vertex(i, "n", {})
        store.finalize()
        store.open_graph(prefetch=True)
        assert len(store.cache) == 10

    def test_property_index_used_for_scans(self):
        store = NativeGraphStore(cache_records=100, disk_model=DiskModel(0.0))
        tiny_dataset(store)
        store.create_property_index("v", "name")
        g = GraphTraversalSource(store)
        assert g.V().has("name", "ada").count().next() == 1

    def test_duplicate_vertex_rejected(self):
        store = NativeGraphStore()
        store.add_vertex(1, "n")
        with pytest.raises(GraphError):
            store.add_vertex(1, "n")
        store.close()

    def test_index_free_adjacency_no_edge_scan(self):
        """out() must not touch unrelated edge records (adjacency is
        embedded in the vertex record)."""
        store = NativeGraphStore(cache_records=1000, disk_model=DiskModel(0.0))
        tiny_dataset(store)
        store.open_graph(prefetch=False)
        store.cache.clear()
        store.cache.reset_stats()
        g = GraphTraversalSource(store)
        g.V(1).out("knows").toList()
        # touched: v1 record + v2 record, not e2
        touched = set(store.cache.keys())
        assert ("e", "e2") not in touched


class TestJanusSpecifics:
    def test_whole_blob_deserialized_per_access(self):
        store = JanusLikeStore(cache_blobs=1, disk_model=DiskModel(0.0))
        tiny_dataset(store)
        reads_before = store._store.reads
        g = GraphTraversalSource(store)
        g.V(1).toList()
        g.V(2).toList()
        g.V(1).toList()  # evicted by v2 with cache size 1 -> re-read
        assert store._store.reads >= reads_before + 3

    def test_edges_duplicated_on_both_endpoints(self):
        """Each edge lives in both endpoint blobs (disk blow-up source)."""
        store = JanusLikeStore(disk_model=DiskModel(0.0))
        tiny_dataset(store)
        blob1 = store._store.get(1)
        blob2 = store._store.get(2)
        edge_ids_1 = {e["edge_id"] for e in blob1["adjacency"]}
        edge_ids_2 = {e["edge_id"] for e in blob2["adjacency"]}
        assert "e1" in edge_ids_1 and "e1" in edge_ids_2


class TestDiskBlowup:
    def test_denormalized_storage_is_larger_than_csv(self):
        """Table 3's disk-usage story: baseline stores use a multiple of
        the relational (CSV-equivalent) footprint."""
        import csv
        import io

        native = NativeGraphStore(disk_model=DiskModel(0.0))
        janus = JanusLikeStore(disk_model=DiskModel(0.0))
        rows = [(i, f"name-{i}", i % 7) for i in range(500)]
        edges = [(i, (i * 3) % 500) for i in range(500)]
        for store in (native, janus):
            for i, name, group in rows:
                store.add_vertex(i, "n", {"name": name, "group": group})
            for src, dst in edges:
                store.add_edge("e", src, dst, {"w": 1})
            store.finalize()
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerows(rows)
        writer.writerows(edges)
        csv_bytes = len(buffer.getvalue())
        assert native.disk_usage_bytes() > 2 * csv_bytes
        assert janus.disk_usage_bytes() > 2 * csv_bytes
        native.close()
        janus.close()
