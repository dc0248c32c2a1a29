"""Graph overlay configuration (paper §5).

An overlay maps a single property graph onto relational tables/views
*without copying or transforming data*.  The JSON format follows the
paper exactly::

    {
      "v_tables": [
        {"table_name": "Patient",
         "prefixed_id": true,
         "id": "'patient'::patientID",
         "fix_label": true,
         "label": "'patient'",
         "properties": ["patientID", "name", ...]},
        ...
      ],
      "e_tables": [
        {"table_name": "HasDisease",
         "src_v_table": "Patient",
         "src_v": "'patient'::patientID",
         "dst_v_table": "Disease",
         "dst_v": "diseaseID",
         "implicit_edge_id": true,
         "fix_label": true,
         "label": "'hasDisease'"},
        ...
      ]
    }

``properties`` omitted means "all columns not used by required fields"
(paper §5).  A label spec in single quotes is a constant (fixed label);
otherwise it names a column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..relational.errors import CatalogError
from .ids import IdTemplate


class OverlayError(CatalogError):
    """Raised for invalid overlay configurations."""


@dataclass
class LabelSpec:
    """Either a constant label or a label-bearing column."""

    constant: str | None = None
    column: str | None = None

    @classmethod
    def parse(cls, spec: str, fixed: bool) -> "LabelSpec":
        token = spec.strip()
        if token.startswith("'") and token.endswith("'") and len(token) >= 2:
            return cls(constant=token[1:-1])
        if fixed:
            # fix_label=true with an unquoted value: treat as constant
            return cls(constant=token)
        return cls(column=token)

    @property
    def is_fixed(self) -> bool:
        return self.constant is not None

    def spec(self) -> str:
        if self.constant is not None:
            return f"'{self.constant}'"
        return self.column or ""


@dataclass
class VertexTableConfig:
    table_name: str
    id_spec: str
    label: LabelSpec
    prefixed_id: bool = False
    properties: list[str] | None = None  # None = infer from remaining columns

    def __post_init__(self) -> None:
        self.id_template = IdTemplate.parse(self.id_spec)
        if self.prefixed_id and self.id_template.prefix is None:
            raise OverlayError(
                f"vertex table {self.table_name!r}: prefixed_id is true but the id "
                f"spec {self.id_spec!r} does not start with a constant"
            )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VertexTableConfig":
        _require(data, "table_name", "id", context="v_tables entry")
        fixed = bool(data.get("fix_label", False))
        if "label" not in data:
            raise OverlayError(f"vertex table {data['table_name']!r} is missing 'label'")
        return cls(
            table_name=data["table_name"],
            id_spec=data["id"],
            label=LabelSpec.parse(data["label"], fixed),
            prefixed_id=bool(data.get("prefixed_id", False)),
            properties=list(data["properties"]) if "properties" in data else None,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"table_name": self.table_name}
        if self.prefixed_id:
            out["prefixed_id"] = True
        out["id"] = self.id_spec
        if self.label.is_fixed:
            out["fix_label"] = True
        out["label"] = self.label.spec()
        if self.properties is not None:
            out["properties"] = list(self.properties)
        return out


@dataclass
class EdgeTableConfig:
    table_name: str
    src_v_spec: str
    dst_v_spec: str
    label: LabelSpec
    src_v_table: str | None = None
    dst_v_table: str | None = None
    id_spec: str | None = None
    prefixed_edge_id: bool = False
    implicit_edge_id: bool = False
    properties: list[str] | None = None
    # Distinguishes multiple edge-table configs over the same physical
    # table (e.g. a fact table used as several edge tables).
    config_name: str | None = None

    def __post_init__(self) -> None:
        self.src_template = IdTemplate.parse(self.src_v_spec)
        self.dst_template = IdTemplate.parse(self.dst_v_spec)
        if self.implicit_edge_id and self.id_spec is not None:
            raise OverlayError(
                f"edge table {self.table_name!r}: implicit_edge_id excludes an "
                f"explicit id spec"
            )
        if not self.implicit_edge_id and self.id_spec is None:
            raise OverlayError(
                f"edge table {self.table_name!r}: needs either an 'id' spec or "
                f"implicit_edge_id"
            )
        self.id_template = IdTemplate.parse(self.id_spec) if self.id_spec else None
        if self.prefixed_edge_id and (
            self.id_template is None or self.id_template.prefix is None
        ):
            raise OverlayError(
                f"edge table {self.table_name!r}: prefixed_edge_id is true but the "
                f"id spec does not start with a constant"
            )
        if self.implicit_edge_id and not self.label.is_fixed:
            raise OverlayError(
                f"edge table {self.table_name!r}: implicit edge ids require a "
                f"fixed label (the label is part of the id)"
            )

    @property
    def name(self) -> str:
        return self.config_name or self.table_name

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EdgeTableConfig":
        _require(data, "table_name", "src_v", "dst_v", context="e_tables entry")
        fixed = bool(data.get("fix_label", False))
        if "label" not in data:
            raise OverlayError(f"edge table {data['table_name']!r} is missing 'label'")
        return cls(
            table_name=data["table_name"],
            src_v_spec=data["src_v"],
            dst_v_spec=data["dst_v"],
            label=LabelSpec.parse(data["label"], fixed),
            src_v_table=data.get("src_v_table"),
            dst_v_table=data.get("dst_v_table"),
            id_spec=data.get("id"),
            prefixed_edge_id=bool(data.get("prefixed_edge_id", False)),
            implicit_edge_id=bool(data.get("implicit_edge_id", False)),
            properties=list(data["properties"]) if "properties" in data else None,
            config_name=data.get("config_name"),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"table_name": self.table_name}
        if self.config_name:
            out["config_name"] = self.config_name
        if self.src_v_table:
            out["src_v_table"] = self.src_v_table
        out["src_v"] = self.src_v_spec
        if self.dst_v_table:
            out["dst_v_table"] = self.dst_v_table
        out["dst_v"] = self.dst_v_spec
        if self.implicit_edge_id:
            out["implicit_edge_id"] = True
        if self.prefixed_edge_id:
            out["prefixed_edge_id"] = True
        if self.id_spec is not None:
            out["id"] = self.id_spec
        if self.label.is_fixed:
            out["fix_label"] = True
        out["label"] = self.label.spec()
        if self.properties is not None:
            out["properties"] = list(self.properties)
        return out


@dataclass
class OverlayConfig:
    v_tables: list[VertexTableConfig] = field(default_factory=list)
    e_tables: list[EdgeTableConfig] = field(default_factory=list)

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OverlayConfig":
        config = cls(
            v_tables=[VertexTableConfig.from_dict(v) for v in data.get("v_tables", [])],
            e_tables=[EdgeTableConfig.from_dict(e) for e in data.get("e_tables", [])],
        )
        config.validate_internal()
        return config

    @classmethod
    def from_json(cls, text: str) -> "OverlayConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "OverlayConfig":
        return cls.from_json(Path(path).read_text())

    @classmethod
    def load(cls, overlay: "OverlayConfig | dict | str | Path") -> "OverlayConfig":
        """An :class:`OverlayConfig` as-is, a raw dict, or a path to a
        JSON overlay file."""
        if isinstance(overlay, (str, Path)):
            return cls.from_file(overlay)
        if isinstance(overlay, dict):
            return cls.from_dict(overlay)
        return overlay

    def to_dict(self) -> dict[str, Any]:
        return {
            "v_tables": [v.to_dict() for v in self.v_tables],
            "e_tables": [e.to_dict() for e in self.e_tables],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    # -- validation --------------------------------------------------------------

    def validate_internal(self) -> None:
        """Config-only checks (no catalog access)."""
        if not self.v_tables:
            raise OverlayError("overlay must define at least one vertex table")
        seen_v: set[str] = set()
        for vconf in self.v_tables:
            key = vconf.table_name.lower()
            if key in seen_v:
                raise OverlayError(f"duplicate vertex table {vconf.table_name!r}")
            seen_v.add(key)
        seen_e: set[str] = set()
        for econf in self.e_tables:
            key = econf.name.lower()
            if key in seen_e:
                raise OverlayError(
                    f"duplicate edge table config {econf.name!r}; give one of them "
                    f"a distinct 'config_name'"
                )
            seen_e.add(key)
        by_table = {v.table_name.lower(): v for v in self.v_tables}
        for econf in self.e_tables:
            for endpoint, table, template in (
                ("src_v", econf.src_v_table, econf.src_template),
                ("dst_v", econf.dst_v_table, econf.dst_template),
            ):
                if table is None:
                    continue
                vconf = by_table.get(table.lower())
                if vconf is None:
                    raise OverlayError(
                        f"edge table {econf.name!r}: {endpoint}_table {table!r} is "
                        f"not a vertex table of this overlay"
                    )
                # the endpoint definition must match the vertex table's id
                # definition *shape* (paper §5): same constants, same
                # number of column segments
                if (
                    template.constants != vconf.id_template.constants
                    or template.segment_count() != vconf.id_template.segment_count()
                ):
                    raise OverlayError(
                        f"edge table {econf.name!r}: {endpoint} spec "
                        f"{template.spec()!r} does not match the id definition "
                        f"{vconf.id_template.spec()!r} of vertex table {table!r}"
                    )

    def vertex_table(self, name: str) -> VertexTableConfig:
        for vconf in self.v_tables:
            if vconf.table_name.lower() == name.lower():
                return vconf
        raise OverlayError(f"no vertex table {name!r} in overlay")

    def edge_table(self, name: str) -> EdgeTableConfig:
        for econf in self.e_tables:
            if econf.name.lower() == name.lower():
                return econf
        raise OverlayError(f"no edge table {name!r} in overlay")


def _require(data: dict[str, Any], *keys: str, context: str) -> None:
    for key in keys:
        if key not in data:
            raise OverlayError(f"{context} is missing required key {key!r}")
