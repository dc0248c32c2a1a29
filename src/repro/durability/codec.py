"""Binary codec for WAL and checkpoint records.

Two layers:

* **Values** — a tagged, length-prefixed encoding closed over the types
  the engine stores and the record shapes the WAL needs: ``None``,
  ``bool``, ``int`` (arbitrary precision), ``float`` (exact IEEE-754
  round trip), ``str`` (UTF-8, any unicode), ``bytes``, ``list``,
  ``tuple``, and ``dict`` (arbitrary encodable keys).  Tuples and lists
  survive as their own types, which matters because row values are
  tuples and composite graph ids are value tuples.
* **Frames** — each record payload is wrapped as
  ``[4-byte length][4-byte CRC32][payload]``.  A reader that hits a
  short header, a short payload, or a checksum mismatch knows the log
  was torn *at that point* and that every earlier frame is intact: a
  truncated tail can hide records, but it can never misparse into a
  different record (the property the hypothesis suite pins).

No compression, no varints — the format optimizes for being obviously
correct and torn-tail-detectable, not for byte count.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator

from .errors import CodecError, TornLogError

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)
_DOUBLE = struct.Struct(">d")
_LEN = struct.Struct(">I")

HEADER_SIZE = _HEADER.size

# Value tags (one byte each).
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_TUPLE = b"U"
_T_DICT = b"M"


# -- values ----------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """Encode one value into the tagged binary form."""
    out: list[bytes] = []
    encode_into(value, out)
    return b"".join(out)


def encode_into(value: Any, out: list[bytes]) -> None:
    """Encode one value, appending its byte pieces to ``out``."""
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        body = str(value).encode("ascii")
        out.append(_T_INT + _LEN.pack(len(body)) + body)
    elif isinstance(value, float):
        out.append(_T_FLOAT + _DOUBLE.pack(value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_T_STR + _LEN.pack(len(body)) + body)
    elif isinstance(value, bytes):
        out.append(_T_BYTES + _LEN.pack(len(value)) + value)
    elif isinstance(value, (list, tuple)):
        out.append((_T_LIST if isinstance(value, list) else _T_TUPLE) + _LEN.pack(len(value)))
        for item in value:
            encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT + _LEN.pack(len(value)))
        for key, item in value.items():
            encode_into(key, out)
            encode_into(item, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(data: bytes) -> Any:
    """Decode one value; the payload must be exactly one encoding."""
    value, pos = _decode(data, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


def _decode(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("unexpected end of payload")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + _DOUBLE.size > len(data):
            raise CodecError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], pos + _DOUBLE.size
    if tag in (_T_INT, _T_STR, _T_BYTES):
        length, pos = _read_length(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated scalar body")
        body = data[pos : pos + length]
        pos += length
        if tag == _T_INT:
            try:
                return int(body.decode("ascii")), pos
            except ValueError as exc:
                raise CodecError(f"bad integer body {body!r}") from exc
        if tag == _T_STR:
            try:
                return body.decode("utf-8"), pos
            except UnicodeDecodeError as exc:
                raise CodecError("bad UTF-8 in string body") from exc
        return body, pos
    if tag in (_T_LIST, _T_TUPLE):
        count, pos = _read_length(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        count, pos = _read_length(data, pos)
        record: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode(data, pos)
            value, pos = _decode(data, pos)
            record[key] = value
        return record, pos
    raise CodecError(f"unknown value tag {tag!r}")


def _read_length(data: bytes, pos: int) -> tuple[int, int]:
    if pos + _LEN.size > len(data):
        raise CodecError("truncated length prefix")
    return _LEN.unpack_from(data, pos)[0], pos + _LEN.size


# -- frames ----------------------------------------------------------------


def encode_record(record: dict[str, Any]) -> bytes:
    """One framed record: header + encoded dict payload."""
    payload = encode_value(record)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record_with_list(
    head: dict[str, Any], key: str, count: int, items: list[bytes]
) -> bytes:
    """The frame :func:`encode_record` writes for ``{**head, key: list}``,
    where the ``count`` items of the list arrive already encoded and
    concatenated in ``items``.

    A dict encodes as its entries in order and a list as its header
    followed by its items' encodings, so the bytes are identical to
    encoding the materialized record; ``key`` must not be in ``head``.
    """
    out = [_T_DICT + _LEN.pack(len(head) + 1)]
    for name, value in head.items():
        encode_into(name, out)
        encode_into(value, out)
    encode_into(key, out)
    out.append(_T_LIST + _LEN.pack(count))
    out.extend(items)
    payload = b"".join(out)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(frame: bytes) -> dict[str, Any]:
    """Strict single-frame decode (raises :class:`TornLogError`)."""
    records = list(iter_records(frame, strict=True))
    if len(records) != 1:
        raise TornLogError(f"expected exactly one frame, found {len(records)}")
    return records[0]


def iter_records(data: bytes, strict: bool = False) -> Iterator[dict[str, Any]]:
    """Yield records until the data ends or tears.

    ``strict=True`` raises :class:`TornLogError` on a torn tail;
    otherwise iteration simply stops at the last intact frame, which is
    the recovery semantic ("discard the torn suffix").
    """
    for record, _end in iter_records_with_offsets(data, strict):
        yield record


def iter_records_with_offsets(
    data: bytes, strict: bool = False
) -> Iterator[tuple[dict[str, Any], int]]:
    """Like :func:`iter_records` but also yields the byte offset just
    past each intact frame (the truncation point for torn-tail repair)."""
    pos = 0
    total = len(data)
    while pos < total:
        if pos + HEADER_SIZE > total:
            if strict:
                raise TornLogError(f"torn frame header at byte {pos}")
            return
        length, crc = _HEADER.unpack_from(data, pos)
        body_start = pos + HEADER_SIZE
        body_end = body_start + length
        if body_end > total:
            if strict:
                raise TornLogError(f"torn frame payload at byte {pos}")
            return
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            if strict:
                raise TornLogError(f"checksum mismatch at byte {pos}")
            return
        try:
            record = decode_value(payload)
        except CodecError:
            if strict:
                raise TornLogError(f"undecodable payload at byte {pos}")
            return
        if not isinstance(record, dict):
            if strict:
                raise TornLogError(f"frame payload is not a record at byte {pos}")
            return
        yield record, body_end
        pos = body_end


def intact_prefix_length(data: bytes) -> int:
    """Byte length of the longest intact frame prefix of ``data``."""
    end = 0
    for _record, offset in iter_records_with_offsets(data):
        end = offset
    return end
