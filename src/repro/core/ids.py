"""Id templates: how vertex/edge ids map to table columns.

The overlay configuration defines ids with specs like::

    "diseaseID"                      # one column, raw value
    "'patient'::patientID"           # constant prefix + column
    "'ontology'::sourceID::targetID" # prefix + two columns

A single bare column keeps the raw column value as the id (so
``g.V(42)`` works with integer ids); anything else renders to a
``::``-joined string.  Decoding inverts rendering and is the basis of
two runtime optimizations (paper §6.3): *prefixed id* table pinning and
breaking an id apart into conjunctive SQL predicates.

Implicit edge ids are the concatenation ``src_v::label::dst_v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..relational.errors import CatalogError

SEPARATOR = "::"


@dataclass(frozen=True)
class ConstPart:
    value: str


@dataclass(frozen=True)
class ColumnPart:
    column: str


Part = ConstPart | ColumnPart


class IdTemplate:
    """A parsed id spec: a sequence of constant and column parts."""

    def __init__(self, parts: Sequence[Part]):
        if not parts:
            raise CatalogError("id template must have at least one part")
        self.parts = tuple(parts)
        self.columns = tuple(p.column for p in parts if isinstance(p, ColumnPart))
        if not self.columns:
            raise CatalogError("id template must reference at least one column")
        self.constants = tuple(p.value for p in parts if isinstance(p, ConstPart))
        self.is_single_column = len(self.parts) == 1
        # the one varying column, when there is exactly one: ids on it
        # coalesce into IN-list probes
        self.only_column = self.columns[0] if len(self.columns) == 1 else None

    @classmethod
    def parse(cls, spec: str) -> "IdTemplate":
        parts: list[Part] = []
        for raw in spec.split(SEPARATOR):
            token = raw.strip()
            if not token:
                raise CatalogError(f"empty segment in id spec {spec!r}")
            if token.startswith("'") and token.endswith("'") and len(token) >= 2:
                parts.append(ConstPart(token[1:-1]))
            else:
                parts.append(ColumnPart(token))
        return cls(parts)

    @property
    def prefix(self) -> str | None:
        """The leading constant, if the template starts with one."""
        first = self.parts[0]
        return first.value if isinstance(first, ConstPart) else None

    # -- render / decode ------------------------------------------------------

    def render(self, row: Mapping[str, Any]) -> Any:
        """Build the id value for a row (columns looked up lowercase)."""
        if self.is_single_column:
            return row[self.columns[0].lower()]
        rendered: list[str] = []
        for part in self.parts:
            if isinstance(part, ConstPart):
                rendered.append(part.value)
            else:
                rendered.append(_segment(row[part.column.lower()]))
        return SEPARATOR.join(rendered)

    def decode(self, id_value: Any, strict: bool = True) -> dict[str, Any] | None:
        """Invert :meth:`render`: id value -> column values (as strings
        for composite ids), or ``None`` when the id cannot belong to
        this template (e.g. wrong prefix) — which is exactly the signal
        used for table elimination.

        ``strict=False`` models a system *without* the prefixed-id
        optimization (§6.3): constants are not verified and a
        ``::``-bearing string is still tried against a single-column
        template, so the SQL gets issued and simply returns nothing.
        """
        if self.is_single_column:
            if strict and isinstance(id_value, str) and SEPARATOR in id_value:
                return None
            return {self.columns[0]: id_value}
        if not isinstance(id_value, str):
            return None
        segments = id_value.split(SEPARATOR)
        if len(segments) != len(self.parts):
            return None
        values: dict[str, Any] = {}
        for part, segment in zip(self.parts, segments):
            if isinstance(part, ConstPart):
                if strict and part.value != segment:
                    return None
            else:
                values[part.column] = segment
        return values

    def segment_count(self) -> int:
        return len(self.parts)

    def spec(self) -> str:
        return SEPARATOR.join(
            f"'{p.value}'" if isinstance(p, ConstPart) else p.column for p in self.parts
        )

    def __repr__(self) -> str:
        return f"IdTemplate({self.spec()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IdTemplate) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)


class ImplicitEdgeId:
    """``src_v::label::dst_v`` implicit edge ids (paper §5).

    The label segment must be a fixed label for decoding to pin down
    the edge table — the optimization described in §6.3 ("Using
    Implicit Edge Id Values")."""

    def __init__(self, src_template: IdTemplate, label: str, dst_template: IdTemplate):
        self.src_template = src_template
        self.label = label
        self.dst_template = dst_template

    def render(self, row: Mapping[str, Any]) -> str:
        src = _segment(self.src_template.render(row))
        dst = _segment(self.dst_template.render(row))
        return SEPARATOR.join([src, self.label, dst])

    def decode(self, edge_id: Any, strict: bool = True) -> tuple[Any, Any] | None:
        """edge id -> (src_v id, dst_v id), or None on mismatch.

        Composite src/dst ids embed their own ``::`` separators; the
        fixed label anchors the split.  ``strict=False`` skips the
        label check (modelling a system without the implicit-edge-id
        table elimination of §6.3).
        """
        if not isinstance(edge_id, str):
            return None
        segments = edge_id.split(SEPARATOR)
        n_src = self.src_template.segment_count()
        n_dst = self.dst_template.segment_count()
        if len(segments) != n_src + 1 + n_dst:
            return None
        if strict and segments[n_src] != self.label:
            return None
        src_id = SEPARATOR.join(segments[:n_src])
        dst_id = SEPARATOR.join(segments[n_src + 1 :])
        if self.src_template.is_single_column:
            src_id = segments[0]
        if self.dst_template.is_single_column:
            dst_id = segments[-1]
        return src_id, dst_id


def _segment(value: Any) -> str:
    if value is None:
        raise CatalogError("id column value is NULL; cannot build id")
    return str(value)
