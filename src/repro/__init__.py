"""repro — reproduction of "IBM Db2 Graph: Supporting Synergistic and
Retrofittable Graph Queries Inside IBM Db2" (SIGMOD 2020).

Layers (bottom-up):

* :mod:`repro.relational` — a from-scratch relational engine (the Db2
  substitute): SQL, MVCC transactions, temporal tables, access control,
  indexes, prepared statements, views, table functions.
* :mod:`repro.graph` — a property-graph model plus a Gremlin-style
  traversal engine and string parser (the TinkerPop substitute).
* :mod:`repro.core` — the paper's contribution: the graph overlay,
  AutoOverlay, the Topology / Graph Structure / SQL Dialect / Traversal
  Strategy modules, and the ``Db2Graph`` facade.
* :mod:`repro.baselines` — GDB-X-like native store and JanusGraph-like
  KV store, with export/load pipelines.
* :mod:`repro.workloads` — LinkBench and the paper's customer
  scenarios (healthcare, finance, police).

Quickstart::

    from repro.relational import Database
    from repro.core import Db2Graph

    db = Database()
    db.execute("CREATE TABLE Person (id BIGINT PRIMARY KEY, name VARCHAR)")
    db.execute("CREATE TABLE Knows (src BIGINT, dst BIGINT)")
    db.execute("INSERT INTO Person VALUES (1, 'ada'), (2, 'lin')")
    db.execute("INSERT INTO Knows VALUES (1, 2)")
    graph = Db2Graph.open(db, {
        "v_tables": [{"table_name": "Person", "id": "id",
                      "fix_label": True, "label": "'person'"}],
        "e_tables": [{"table_name": "Knows", "src_v": "src", "dst_v": "dst",
                      "src_v_table": "Person", "dst_v_table": "Person",
                      "implicit_edge_id": True,
                      "fix_label": True, "label": "'knows'"}],
    })
    g = graph.traversal()
    assert g.V(1).out("knows").values("name").toList() == ["lin"]
"""

__version__ = "1.0.0"

__all__ = ["relational", "graph", "core", "baselines", "workloads", "common"]
