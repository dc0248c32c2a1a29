"""A log-structured key-value store — the BerkeleyDB stand-in backing
the JanusGraph-like baseline, and the record file used by the native
baseline.

Values are pickled Python objects appended to a data file; an in-memory
index maps keys to (offset, length).  All file access serializes
through one store lock, as in an embedded store.

``DiskModel`` injects a per-read latency.  Why: the paper's large-graph
results hinge on GDB-X/JanusGraph data (327 GB) no longer fitting in
RAM, so cache misses hit the storage device.  Our test files are small
enough to live in the OS page cache, which would erase that effect; the
disk model restores a realistic ~100 µs device read where the paper's
systems paid one.  Db2 Graph's relational tables always fit the buffer
pool (45.8 GB in the paper), so the relational engine takes no such
penalty.  See DESIGN.md (substitution notes).
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass
class DiskModel:
    """Models storage-device read latency for cache misses."""

    read_latency_seconds: float = 100e-6

    def charge_read(self) -> None:
        if self.read_latency_seconds > 0:
            deadline = time.perf_counter() + self.read_latency_seconds
            # busy-wait: sleep() granularity is far coarser than 100us
            while time.perf_counter() < deadline:
                pass


class LogStructuredKVStore:
    """Append-only data file + in-memory key index."""

    def __init__(
        self,
        path: str | None = None,
        disk_model: DiskModel | None = None,
    ):
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro_kv_", suffix=".dat")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self.disk = disk_model or DiskModel()
        self._index: dict[Any, tuple[int, int]] = {}
        self._file = open(path, "a+b")
        self._lock = threading.Lock()
        self.reads = 0
        self.writes = 0
        self.bytes_written = 0

    # -- operations --------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._file.seek(0, io.SEEK_END)
            offset = self._file.tell()
            self._file.write(payload)
            self._index[key] = (offset, len(payload))
            self.writes += 1
            self.bytes_written += len(payload)

    def get(self, key: Any) -> Any | None:
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                return None
            offset, length = entry
            self._file.flush()
            self._file.seek(offset)
            payload = self._file.read(length)
            self.reads += 1
            self.disk.charge_read()
        return pickle.loads(payload)

    def __contains__(self, key: Any) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> list[Any]:
        with self._lock:
            return list(self._index.keys())

    def scan(self) -> Iterator[tuple[Any, Any]]:
        for key in self.keys():
            value = self.get(key)
            if value is not None:
                yield key, value

    def flush(self) -> None:
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())

    def disk_usage_bytes(self) -> int:
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self, delete: bool = True) -> None:
        self._file.close()
        if delete and self._owns_file and os.path.exists(self.path):
            os.unlink(self.path)
