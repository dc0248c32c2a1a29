"""The six workloads: seeded inputs, the calls into the product, and an
oracle per op computed from the generated Python data.

Only the product's public API is imported (``repro.core``,
``repro.relational``, ``repro.service``, ``repro.workloads`` dataset
generators, ...), never ``repro.bench``: the numbers cannot be moved by
editing a harness outside this directory.

Every workload is a closed loop with one client.  ``build()`` is what
``setup_s`` times: data generation + load + index build + ``open()``.
``make_ops()`` then draws the op stream and the expected result of each
op.  Read-only workloads replay one slice every round; workloads that
write take successive slices of one stream, and their expectations are
computed in stream order against a Python model of the tables.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any, Iterable

from metrics import RUN_SECONDS

from repro.cache import CacheConfig
from repro.core.db2graph import Db2Graph
from repro.durability import DurabilityConfig
from repro.relational.database import Database
from repro.replication import ReplicationConfig, state_digest
from repro.service import GraphService, ServiceConfig
from repro.workloads.healthcare import HealthcareConfig, HealthcareDataset, synergy_sql
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDataset

N_TYPES = 10
STRIPES = 10  # chunks per round when a writing workload's rounds are striped


@dataclass(frozen=True)
class Sizes:
    """How much of the stated workload a run executes."""

    data: float = 1.0  # dataset size factor
    ops: float = 1.0  # ops-per-round factor
    rounds: int = 7  # timed rounds (plus one warm-up)
    builds: int = 3  # set-ups timed for setup_s
    recoveries: int = 5  # crash recoveries timed for recovery_s


SCALES = {
    "full": Sizes(),
    "smoke": Sizes(data=0.05, ops=0.05, rounds=3, builds=1, recoveries=1),
}


class Raised:
    """Result placeholder for an op that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"Raised({self.exc!r})"


def sha256_rows(*tables: Iterable[Any]) -> str:
    digest = hashlib.sha256()
    for table in tables:
        for row in table:
            digest.update(repr(row).encode())
        digest.update(b"|")
    return digest.hexdigest()


def user_bytes(values: Iterable[Any]) -> int:
    """Bytes of column values a write carries: 8 per number, UTF-8
    length per string."""
    return sum(len(v.encode()) if isinstance(v, str) else 8 for v in values)


class Workload:
    name = ""
    base_ops = 1  # ops per round at full scale and RUN_SECONDS seconds
    writes = False  # True: successive slices of one stream
    # "wrong_result" / "lost_write": the self-tests prove the checks can fail
    inject: str | None = None

    def __init__(self, seed: int, sizes: Sizes, seconds: float, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ops_per_round = max(
            1, round(self.base_ops * sizes.ops * seconds / RUN_SECONDS)
        )
        self.ops: list[Any] = []
        self.expected: list[Any] = []
        # every acknowledged write, in the order the database saw them
        self.acked: list[Any] = []
        self.dataset_sha256 = ""
        self.pinned = False  # inputs must equal pins.json (see harness.check_pins)
        self._builds = 0

    # -- hooks ---------------------------------------------------------------

    def untraced_slices(self) -> int:
        """Slices an untraced run consumes: a warm-up and the timed rounds."""
        return 1 + self.sizes.rounds

    def build(self, n_slices: int) -> Any:
        raise NotImplementedError

    def make_ops(self, ctx: Any, n_slices: int) -> None:
        raise NotImplementedError

    def run_op(self, ctx: Any, op: Any) -> Any:
        raise NotImplementedError

    def observe(self, op: Any, result: Any) -> Any:
        """Canonical form of a result, compared with the expectation."""
        return result

    def close(self, ctx: Any) -> None:
        ctx["graph"].close()

    def stats(self, ctx: Any) -> dict[str, float]:
        """Flat product counters (public ``stats()`` surfaces only)."""
        return graph_counters(ctx["graph"])

    def is_write(self, op: Any) -> bool:
        return False

    def extra_sql(self, ops: list[Any]) -> list[tuple[str, list]]:
        """SQL the benchmark itself sends for ``ops`` (joins the
        ``sql.issued`` stream in the cold parse/plan replay)."""
        return []

    def after_install(self, ctx: Any) -> None:
        """Called once the span recorder has patched the boundaries."""

    # -- shared --------------------------------------------------------------

    @property
    def chunk(self) -> int:
        """Ops per stripe (see harness.Rounds) of a writing workload."""
        return max(1, self.ops_per_round // STRIPES)

    def round_kinds(self, rng: random.Random, shares: dict[str, float]) -> list[str]:
        """One round's op kinds: exact counts per kind, dealt evenly over
        the round's chunks and shuffled within each, so every chunk (and
        so every striped round) carries the same number of writes, hence
        of commits, checkpoints and invalidations.  The rest are reads."""
        n, size = self.ops_per_round, self.chunk
        chunks: list[list[str]] = [[] for _ in range(-(-n // size))]
        dealt = 0
        for kind, share in shares.items():
            for _ in range(round(n * share)):
                chunks[dealt % len(chunks)].append(kind)
                dealt += 1
        kinds: list[str] = []
        for index, chunk in enumerate(chunks):
            chunk += ["read"] * (min(size, n - index * size) - len(chunk))
            rng.shuffle(chunk)
            kinds += chunk
        return kinds

    def slice(self, index: int) -> tuple[list[Any], list[Any]]:
        n = self.ops_per_round
        start = index * n if self.writes else 0
        return self.ops[start:start + n], self.expected[start:start + n]

    def ops_sha256(self) -> str:
        return sha256_rows(self.ops)

    def matches(self, op: Any, result: Any, want: Any) -> bool:
        return self.observe(op, result) == want

    def check(self, ops: list[Any], results: list[Any], expected: list[Any]) -> int:
        """Number of ops whose result is missing or wrong."""
        failed = 0
        for op, result, want in zip(ops, results, expected):
            ok = not isinstance(result, Raised) and self.inject != "wrong_result"
            if ok:
                try:
                    ok = self.matches(op, result, want)
                except Exception:  # a malformed result is a wrong result
                    ok = False
            failed += not ok
        return failed


def graph_counters(graph: Db2Graph) -> dict[str, float]:
    stats = graph.stats()
    database = graph.connection.database
    out = {
        key: value
        for key, value in stats.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    out["unprepared_statements"] = database.statements_executed
    out["has_cache"] = 1 if graph.cache is not None else 0
    return out


# ---------------------------------------------------------------------------
# LinkBench (paper section 8): four Table 1 queries as Gremlin text
# ---------------------------------------------------------------------------

SCRIPTS = {
    "getNode": "g.V(id).hasLabel(lbl)",
    "countLinks": "g.V(id1).outE(lbl).count()",
    "getLink": "g.V(id1).outE(lbl).filter(inV().id() == id2)",
    "getLinkList": "g.V(id1).outE(lbl)",
}
KINDS = tuple(SCRIPTS)
ADD_LINK_SQL = (
    "INSERT INTO link{t} (id1, id2, visibility, data, time, version) "
    "VALUES (?, ?, ?, ?, ?, ?)"
)
UPDATE_NODE_SQL = "UPDATE node{t} SET version = ?, data = ? WHERE id = ?"


class LinkModel:
    """Python ground truth for the node/link tables."""

    def __init__(self, dataset: LinkBenchDataset):
        self.n = dataset.config.n_vertices
        self.type_of = dataset.vertex_type
        self.nodes = {
            vid: (version, data)
            for vid, _type, version, _time, data in dataset.vertices
        }
        self.links: dict[int, list[tuple[int, int]]] = {}
        self.by_type: dict[tuple[int, int], list[int]] = {}
        self.triples: set[tuple[int, int, int]] = set()
        for vid in range(1, self.n + 1):
            for lt, id2 in dataset.out_links(vid):
                self.add_link(vid, lt, id2)
        self.sources = sorted(self.links)

    def add_link(self, id1: int, lt: int, id2: int) -> None:
        self.links.setdefault(id1, []).append((lt, id2))
        self.by_type.setdefault((id1, lt), []).append(id2)
        self.triples.add((id1, lt, id2))

    # expectations, in the canonical form LinkBenchWorkload.observe returns

    def get_node(self, vid: int) -> list[tuple]:
        version, data = self.nodes[vid]
        return [(vid, f"nt{self.type_of(vid)}", version, data)]

    def count_links(self, id1: int, lt: int) -> list[int]:
        return [len(self.by_type.get((id1, lt), ()))]

    def get_link(self, id1: int, lt: int, id2: int) -> list[tuple]:
        return [(id1, id2, f"lt{lt}")] * self.by_type.get((id1, lt), []).count(id2)

    def get_link_list(self, id1: int, lt: int) -> list[int]:
        return sorted(self.by_type.get((id1, lt), ()))


class LinkBenchWorkload(Workload):
    """Shared by the four LinkBench workloads."""

    n_vertices = 20_000

    def vertices(self) -> int:
        return max(200, int(self.n_vertices * self.sizes.data))

    def dataset(self) -> LinkBenchDataset:
        return LinkBenchDataset(
            LinkBenchConfig(name=self.name, n_vertices=self.vertices(), seed=self.seed)
        )

    def database(self, n_slices: int) -> Database:
        return Database(enforce_foreign_keys=False, durability=False)

    def open(self, database: Database, dataset: LinkBenchDataset) -> dict[str, Any]:
        graph = Db2Graph.open(database, dataset.overlay_config())
        return {"graph": graph}

    def build(self, n_slices: int) -> dict[str, Any]:
        self._builds += 1
        dataset = self.dataset()
        database = self.database(n_slices)
        dataset.install_relational(database)
        ctx = self.open(database, dataset)
        ctx.update(dataset=dataset, database=database)
        return ctx

    # -- op stream -----------------------------------------------------------

    def make_ops(self, ctx: dict[str, Any], n_slices: int) -> None:
        dataset = ctx["dataset"]
        self.dataset_sha256 = sha256_rows(dataset.vertices, dataset.edges)
        model = LinkModel(dataset)
        rng = random.Random(self.seed * 7919 + 17)
        total = self.ops_per_round * (n_slices if self.writes else 1)
        self.ops, self.expected = [], []
        self.draw(rng, model, total)
        ctx["model"] = model

    def draw(self, rng: random.Random, model: LinkModel, total: int) -> None:
        for _ in range(total):
            self.push_read(rng, model, rng.randint(1, model.n), rng.choice(model.sources))

    def push_read(self, rng, model: LinkModel, vertex: int, source: int,
                  link: tuple[int, int] | None = None) -> None:
        kind = rng.choice(KINDS)
        if kind == "getNode":
            variables = {"id": vertex, "lbl": f"nt{model.type_of(vertex)}"}
            want: Any = model.get_node(vertex)
        else:
            lt, id2 = link if link is not None else rng.choice(model.links[source])
            variables = {"id1": source, "lbl": f"lt{lt}"}
            if kind == "countLinks":
                want = model.count_links(source, lt)
            elif kind == "getLink":
                variables["id2"] = id2
                want = model.get_link(source, lt, id2)
            else:
                want = model.get_link_list(source, lt)
        self.ops.append((kind, variables))
        self.expected.append(want)

    def push_add_link(self, rng, model: LinkModel, i: int) -> None:
        while True:
            id1 = rng.choice(model.sources)
            lt = rng.randrange(N_TYPES)
            id2 = rng.randint(1, model.n)
            if (id1, lt, id2) not in model.triples:
                break
        model.add_link(id1, lt, id2)
        params = (id1, id2, rng.randint(0, 1), f"edata-new-{i % 613:03d}",
                  1_600_000_000.0 + i, rng.randint(1, 5))
        self.ops.append(("addLink", lt, params))
        self.expected.append(1)

    def push_update_node(self, rng, model: LinkModel, vertex: int, i: int) -> None:
        version = rng.randint(21, 10_000)
        data = f"payload-upd-{i:06d}"
        model.nodes[vertex] = (version, data)
        self.ops.append(("updateNode", model.type_of(vertex), (version, data, vertex)))
        self.expected.append(1)

    # -- execution -----------------------------------------------------------

    def run_op(self, ctx: dict[str, Any], op: tuple) -> Any:
        return ctx["graph"].execute(SCRIPTS[op[0]], op[1])

    @staticmethod
    def write_sql(op: tuple) -> str:
        return (ADD_LINK_SQL if op[0] == "addLink" else UPDATE_NODE_SQL).format(t=op[1])

    def run_write(self, ctx: dict[str, Any], op: tuple) -> Any:
        connection = ctx["connection"]
        return connection.prepare(self.write_sql(op)).execute(connection, op[2]).rowcount

    def is_write(self, op: tuple) -> bool:
        return op[0] in ("addLink", "updateNode")

    def extra_sql(self, ops: list[tuple]) -> list[tuple[str, list]]:
        return [(self.write_sql(op), list(op[2])) for op in ops if self.is_write(op)]

    def observe(self, op: tuple, result: Any) -> Any:
        kind = op[0]
        if kind == "getNode":
            return [(v.id, v.label, v.value("version"), v.value("data")) for v in result]
        if kind == "getLink":
            return [(e.out_v_id, e.in_v_id, e.label) for e in result]
        if kind == "getLinkList":
            return sorted(e.in_v_id for e in result)
        return result  # countLinks: [n]; writes: rowcount


class LinkBenchRead(LinkBenchWorkload):
    name = "linkbench_read"
    base_ops = 6000


class LinkBenchCached(LinkBenchWorkload):
    name = "linkbench_cached"
    base_ops = 6000
    writes = True
    CACHE = CacheConfig(statement_capacity=512, row_capacity=2048)
    KEYS_PER_KIND = 2048  # 4 kinds -> 8192 statement keys = 16x the cache
    ZIPF_EXPONENT = 1.1
    UPDATE_SHARE = 0.02

    def open(self, database, dataset):
        graph = Db2Graph.open(database, dataset.overlay_config(), cache=self.CACHE)
        return {"graph": graph, "connection": database.connect()}

    def draw(self, rng, model, total):
        keys = min(self.KEYS_PER_KIND, len(model.sources))
        vertices = rng.sample(range(1, model.n + 1), keys)
        sources = rng.sample(model.sources, keys)
        # one fixed link per source, so a (kind, rank) pair is one cache key
        links = [model.links[s][0] for s in sources]
        weights: list[float] = []
        acc = 0.0
        for rank in range(1, keys + 1):
            acc += rank ** -self.ZIPF_EXPONENT
            weights.append(acc)
        for i in range(total):
            if i % self.ops_per_round == 0:
                kinds = self.round_kinds(rng, {"updateNode": self.UPDATE_SHARE})
            rank = bisect.bisect_left(weights, rng.random() * acc)
            if kinds[i % self.ops_per_round] == "updateNode":
                self.push_update_node(rng, model, vertices[rank], i)
            else:
                self.push_read(rng, model, vertices[rank], sources[rank], links[rank])

    def run_op(self, ctx, op):
        if op[0] == "updateNode":
            return self.run_write(ctx, op)
        return ctx["graph"].execute(SCRIPTS[op[0]], op[1])


class ServiceSession(LinkBenchWorkload):
    name = "service_session"
    base_ops = 4800

    def open(self, database, dataset):
        service = GraphService(
            database, dataset.overlay_config(), ServiceConfig(workers=1), cache=False
        )
        session = service.open_session()
        return {"service": service, "session": session, "graph": session.graph}

    # draw() is inherited unchanged and the rng seed does not depend on
    # the workload name: this is the exact linkbench_read op stream

    def run_op(self, ctx, op):
        script, variables = SCRIPTS[op[0]], op[1]
        return ctx["session"].run(lambda s: s.graph.execute(script, variables))

    def run_direct(self, ctx, op):
        """The same op without the service: linkbench_read's path."""
        return ctx["graph"].execute(SCRIPTS[op[0]], op[1])

    def close(self, ctx):
        ctx["service"].shutdown(timeout=30)

    def stats(self, ctx):
        out = graph_counters(ctx["graph"])
        service = ctx["service"].stats()
        for key in ("queue_depth_max", "rejected", "shed", "failed"):
            out[f"service_{key}"] = service[key]
        return out


class LinkBenchMixedDurable(LinkBenchWorkload):
    """70 % reads, 20 % addLink, 10 % updateNode on a WAL database with
    one sync-ack standby; fsync off is the stated flush policy.

    5 000 vertices and 1 000 ops/round instead of the 20 000 / 6 000 the
    issue sketched: a standby redo-apply rebuilds the written table's
    indexes on every commit, so one replicated write costs time
    proportional to the table (8-14 ms at 20 000 vertices) and the
    larger shape cannot fit the driver's run-time cap.
    """

    name = "linkbench_mixed_durable"
    n_vertices = 5000
    base_ops = 1000
    writes = True
    ADD_SHARE, UPDATE_SHARE = 0.20, 0.10

    def untraced_slices(self):
        # half a slice more after the timed rounds, so the crash lands
        # mid-interval and recovery has a WAL suffix to replay
        return super().untraced_slices() + 1

    def database(self, n_slices):
        wal_dir = os.path.join(self.workdir, f"wal-{self._builds}")
        # Exactly one checkpoint per round's worth of writes: >= 3 complete
        # per run and every (striped) round carries one.
        self.checkpoint_every = max(2, round(
            self.ops_per_round * self.ADD_SHARE) + round(
            self.ops_per_round * self.UPDATE_SHARE))
        return Database(
            enforce_foreign_keys=False,
            durability=DurabilityConfig(
                dir=wal_dir, fsync=False, checkpoint_every=self.checkpoint_every
            ),
        )

    def open(self, database, dataset):
        graph = Db2Graph.open(
            database,
            dataset.overlay_config(),
            replication=ReplicationConfig(replicas=1, ack="sync"),
        )
        return {"graph": graph, "connection": database.connect(),
                "wal_dir": str(database.durability.dir)}

    def draw(self, rng, model, total):
        shares = {"addLink": self.ADD_SHARE, "updateNode": self.UPDATE_SHARE}
        for i in range(total):
            if i % self.ops_per_round == 0:
                kinds = self.round_kinds(rng, shares)
            kind = kinds[i % self.ops_per_round]
            if kind == "addLink":
                self.push_add_link(rng, model, i)
            elif kind == "updateNode":
                self.push_update_node(rng, model, rng.randint(1, model.n), i)
            else:
                self.push_read(rng, model, rng.randint(1, model.n), rng.choice(model.sources))

    def run_op(self, ctx, op):
        if op[0] in ("addLink", "updateNode"):
            return self.run_write(ctx, op)
        return ctx["graph"].execute(SCRIPTS[op[0]], op[1])

    def close(self, ctx):
        ctx["graph"].close()
        shutil.rmtree(ctx["wal_dir"], ignore_errors=True)

    def stats(self, ctx):
        out = graph_counters(ctx["graph"])
        durability = ctx["database"].durability
        out["wal_bytes"] = durability.wal_bytes
        out["log_frames"] = ctx["graph"].replication.status()["log_frames"]
        return out

    def new_checkpoint_bytes(self, ctx) -> int:
        """Bytes of the checkpoints written since the last call (older
        generations are pruned, so each is sized while it is current)."""
        durability = ctx["database"].durability
        new = durability.checkpoints_written - ctx.get("checkpoints_seen", 0)
        ctx["checkpoints_seen"] = durability.checkpoints_written
        return new * os.path.getsize(durability.checkpoint_path()) if new else 0

    # -- the durability check ------------------------------------------------

    def crash_and_recover(self, ctx) -> dict[str, Any]:
        """Abandon the handle (no final checkpoint, no close), recover
        copies of the crashed directory, and verify every acknowledged
        write.  Returns recovery times, replayed txns and failures."""
        graph = ctx["graph"]
        failures = 0
        standby = graph.replication.live_replicas()[0]
        if state_digest(standby.database) != state_digest(ctx["database"]):
            failures += 1  # standby diverged from the primary
        times: list[float] = []
        recovered = None
        for i in range(self.sizes.recoveries):
            # a reopen starts a fresh segment, so each timing gets its own
            # copy of the crashed directory
            copy = os.path.join(self.workdir, f"crashed-{i}")
            shutil.copytree(ctx["wal_dir"], copy)
            recovered = None
            gc.collect()
            started = time.perf_counter()
            recovered = Database.open(
                DurabilityConfig(dir=copy, fsync=False), enforce_foreign_keys=False
            )
            times.append(time.perf_counter() - started)
            shutil.rmtree(copy, ignore_errors=True)
        replayed = recovered.recovery_report.replayed_txns
        failures += self.unrecovered(recovered, self.acked)
        return {"times": times, "replayed_txns": replayed, "failures": failures}

    def unrecovered(self, recovered: Database, acked: list[tuple]) -> int:
        """Acknowledged writes that cannot be read back after recovery."""
        connection = recovered.connect()
        links = {
            t: set(connection.query(f"SELECT id1, id2, data FROM link{t}"))
            for t in range(N_TYPES)
        }
        nodes = {
            t: {row[0]: row[1:] for row in
                connection.query(f"SELECT id, version, data FROM node{t}")}
            for t in range(N_TYPES)
        }
        if self.inject == "lost_write":
            acked = acked + [("addLink", 0, (-1, -1, 0, "never-written", 0.0, 0))]
        last_update: dict[int, tuple] = {}
        missing = 0
        for kind, t, params in acked:
            if kind == "addLink":
                if (params[0], params[1], params[3]) not in links[t]:
                    missing += 1
            else:
                last_update[params[2]] = (t, params[0], params[1])
        for vertex, (t, version, data) in last_update.items():
            if nodes[t].get(vertex) != (version, data):
                missing += 1
        return missing


# ---------------------------------------------------------------------------
# Synergy (paper section 4): graphQuery + join + GROUP BY
# ---------------------------------------------------------------------------


class SynergySql(Workload):
    name = "synergy_sql"
    base_ops = 12
    N_PATIENTS = 800
    DEVICE_DAYS = 30
    HOPS = 2

    def build(self, n_slices):
        dataset = HealthcareDataset(
            HealthcareConfig(
                n_patients=max(40, int(self.N_PATIENTS * self.sizes.data)),
                device_days=self.DEVICE_DAYS,
                seed=self.seed,
            )
        )
        database = Database(durability=False)
        dataset.install_relational(database)
        graph = Db2Graph.open(database, dataset.overlay_config())
        graph.register_table_function()
        return {"graph": graph, "dataset": dataset, "database": database,
                "connection": database.connect()}

    def make_ops(self, ctx, n_slices):
        ds = ctx["dataset"]
        self.dataset_sha256 = sha256_rows(
            ds.patients, ds.diseases, ds.has_disease, ds.ontology, ds.device_data
        )
        oracle = self.oracle(ds)
        rng = random.Random(self.seed * 7919 + 29)
        # One patient from each of n size-quantile bins: result size (443
        # or ~714 rows of 800) sets the op's cost, so an unstratified
        # draw of 12 would move ops_per_s by several % between seeds.
        patients = [p[0] for p in ds.patients]
        rng.shuffle(patients)
        patients.sort(key=lambda p: len(oracle(p)))
        n = self.ops_per_round
        self.ops = [
            rng.choice(patients[len(patients) * i // n:len(patients) * (i + 1) // n] or patients)
            for i in range(n)
        ]
        rng.shuffle(self.ops)
        self.expected = [oracle(p) for p in self.ops]

    def oracle(self, ds: HealthcareDataset):
        """synergy_sql(p) recomputed from the generated Python lists."""
        parents: dict[int, list[int]] = {}
        children: dict[int, list[int]] = {}
        for source, target, _type in ds.ontology:
            parents.setdefault(source, []).append(target)
            children.setdefault(target, []).append(source)
        diseases_of: dict[int, list[int]] = {}
        patients_with: dict[int, list[int]] = {}
        for patient, disease, _desc in ds.has_disease:
            diseases_of.setdefault(patient, []).append(disease)
            patients_with.setdefault(disease, []).append(patient)
        subscription = {p[0]: p[3] for p in ds.patients}
        readings: dict[int, list[tuple[int, int]]] = {}
        for sub, _day, steps, minutes in ds.device_data:
            readings.setdefault(sub, []).append((steps, minutes))
        cache: dict[int, dict] = {}

        def walk(frontier: list[int], edges: dict[int, list[int]], store: set[int]) -> list[int]:
            # repeat(<step>.dedup().store('x')).times(HOPS): dedup's seen
            # set spans the iterations of its own repeat
            seen: set[int] = set()
            for _ in range(self.HOPS):
                nxt = []
                for disease in frontier:
                    for other in edges.get(disease, ()):
                        if other not in seen:
                            seen.add(other)
                            nxt.append(other)
                store.update(nxt)
                frontier = nxt
            return frontier

        def expected(patient: int) -> dict[int, tuple[float, float]]:
            if patient not in cache:
                similar: set[int] = set()
                top = walk(list(diseases_of.get(patient, ())), parents, similar)
                walk(top, children, similar)
                out = {}
                for disease in similar:
                    for other in patients_with.get(disease, ()):
                        rows = readings.get(subscription[other])
                        if rows and other not in out:
                            out[other] = (
                                sum(r[0] for r in rows) / len(rows),
                                sum(r[1] for r in rows) / len(rows),
                            )
                cache[patient] = out
            return cache[patient]

        return expected

    def run_op(self, ctx, op):
        return ctx["connection"].execute(synergy_sql(op)).rows

    def after_install(self, ctx):
        # the table function is a closure minted at registration time
        ctx["graph"].register_table_function()

    def extra_sql(self, ops):
        return [(synergy_sql(patient), []) for patient in ops]

    def matches(self, op, result, want):
        return len(result) == len(want) and all(
            patient in want
            and _close(steps, want[patient][0]) and _close(minutes, want[patient][1])
            for patient, steps, minutes in result
        )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Analytics: set-at-a-time WCC + BFS
# ---------------------------------------------------------------------------

ANALYTICS_OVERLAY = {
    "v_tables": [
        {"table_name": "node", "id": "id", "fix_label": True,
         "label": "'node'", "properties": ["id"]},
    ],
    "e_tables": [
        {"table_name": "link", "src_v_table": "node", "src_v": "src",
         "dst_v_table": "node", "dst_v": "dst",
         "implicit_edge_id": True, "fix_label": True, "label": "'link'",
         "properties": ["w"]},
    ],
}


class AnalyticsWcc(Workload):
    """The graph of benchmarks/bench_analytics.py, rebuilt from the
    seed: a dense community (out-degree 10, closed under out()) beside a
    10-ary tree holding the other vertices."""

    name = "analytics_wcc"
    base_ops = 1
    N_VERTICES = 10_000
    COMMUNITY = 250
    OUT_DEGREE = 10
    BATCH_SIZE = 1024

    def graph_data(self) -> tuple[list[tuple], list[tuple]]:
        n = max(200, int(self.N_VERTICES * self.sizes.data))
        community = max(self.OUT_DEGREE + 2, int(self.COMMUNITY * self.sizes.data))
        rng = random.Random(self.seed)
        nodes = [(i,) for i in range(1, n + 1)]
        edges = []
        for src in range(1, community + 1):
            for dst in rng.sample(range(1, community + 1), self.OUT_DEGREE):
                edges.append((src, dst, float(rng.randint(1, 9))))
        for dst in range(community + 2, n + 1):
            edges.append((max(community + 1, dst // 10), dst, 1.0))
        return nodes, edges

    def build(self, n_slices):
        nodes, edges = self.graph_data()
        database = Database(enforce_foreign_keys=False, durability=False)
        database.execute("CREATE TABLE node (id INT PRIMARY KEY)")
        database.execute("CREATE TABLE link (src INT, dst INT, w DOUBLE)")
        connection = database.connect()
        connection.insert_rows("node", nodes)
        connection.insert_rows("link", edges)
        graph = Db2Graph.open(
            database, ANALYTICS_OVERLAY, cache=False, batch_size=self.BATCH_SIZE
        )
        return {"graph": graph, "database": database, "nodes": nodes, "edges": edges}

    def make_ops(self, ctx, n_slices):
        nodes, edges = ctx["nodes"], ctx["edges"]
        self.dataset_sha256 = sha256_rows(nodes, edges)
        self.ops = [1] * self.ops_per_round  # BFS source

        def label(v: int) -> tuple[str, str]:
            return (str(v), repr(v))  # the engine's canonical id order

        # union-find WCC: each component is named by its smallest member
        root = {v[0]: v[0] for v in nodes}

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        out: dict[int, list[int]] = {}
        for src, dst, _w in edges:
            out.setdefault(src, []).append(dst)
            a, b = find(src), find(dst)
            if a != b:
                root[max(a, b, key=label)] = min(a, b, key=label)
        members: dict[int, list[int]] = {}
        for v in root:
            members.setdefault(find(v), []).append(v)
        component = {}
        for group in members.values():
            name = min(group, key=label)
            component.update((v, name) for v in group)
        depth = {1: 0}
        frontier = [1]
        while frontier:
            nxt = []
            for u in frontier:
                for v in out.get(u, ()):
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        self.expected = [(component, depth)] * self.ops_per_round
        ctx["out"] = out

    def run_op(self, ctx, op):
        graph = ctx["graph"]
        return graph.analytics().wcc(), graph.analytics().bfs(op)

    def matches(self, op, result, want):
        (wcc, bfs), (component, depth) = result, want
        return (
            wcc.converged and bfs.converged
            and wcc.component == component and bfs.depth == depth
            and all(
                p is None or bfs.depth[p] == bfs.depth[v] - 1
                for v, p in bfs.parent.items()
            )
        )


REGISTRY: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        LinkBenchRead, LinkBenchCached, SynergySql, AnalyticsWcc,
        LinkBenchMixedDurable, ServiceSession,
    )
}
