"""Index-contents check: live indexes equal a rebuild from the chains.

An index maps a key to every rowid whose *some* version carried it
(see ``relational/index.py``), so the expected contents of every index
can be recomputed from ``storage._rows`` alone.  ``state_digest`` only
hashes index definitions; this check compares the buckets themselves,
and for sorted indexes the order of the key list too.
"""

from __future__ import annotations

from typing import Any

from repro.relational.index import HashIndex, SortedIndex


def reference_index_contents(storage) -> dict[str, dict[tuple[Any, ...], set[int]]]:
    """``{index name: {key: rowids}}`` rebuilt from the version chains."""
    expected: dict[str, dict[tuple[Any, ...], set[int]]] = {}
    for name, index in storage.indexes.items():
        positions = [storage.schema.column_position(c) for c in index.columns]
        buckets: dict[tuple[Any, ...], set[int]] = {}
        for rowid, chain in storage._rows.items():
            for version in chain:
                key = tuple(version.values[p] for p in positions)
                if isinstance(index, SortedIndex) and None in key:
                    continue  # sorted indexes never hold NULL keys
                buckets.setdefault(key, set()).add(rowid)
        expected[name] = buckets
    return expected


def live_index_contents(index) -> dict[tuple[Any, ...], set[int]]:
    if isinstance(index, HashIndex):
        return {key: set(rowids) for key, rowids in index._buckets.items()}
    assert isinstance(index, SortedIndex), f"unknown index type {index!r}"
    assert index._keys == sorted(index._rowids), (
        f"{index.name}: sorted key list out of order or out of step"
    )
    return {key: set(rowids) for key, rowids in index._rowids.items()}


def assert_indexes_match_chains(database) -> None:
    """Every index of every table holds exactly the rebuilt contents."""
    for table in database.catalog.tables():
        storage = table.storage
        with storage._mutate_lock:
            expected = reference_index_contents(storage)
            for name, index in storage.indexes.items():
                assert live_index_contents(index) == expected[name], (
                    f"index {name!r} on {table.name!r} differs from a rebuild"
                )
