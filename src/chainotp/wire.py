"""Canonical byte packing shared by signatures, credentials, and file formats.

Every signed or hashed structure is serialized as a domain-separation tag
followed by length-prefixed fields in a fixed order, so two structures can
never collide across types. Lengths are little-endian u32.

Every decoder reads through one ``Reader``, under one rule: the tag (or
file magic and version) comes first; every field has its declared width;
no bytes may trail the value; and every malformed input raises
``ValueError``. A decoder therefore accepts only what its encoder emits.
"""

from __future__ import annotations

import struct

_U32 = struct.Struct("<I")


def u32le(value: int) -> bytes:
    return _U32.pack(value)


def be64(value: int) -> bytes:
    if not 0 <= value < 2**64:
        raise ValueError(f"value out of u64 range: {value}")
    return value.to_bytes(8, "big")


def lp(field: bytes) -> bytes:
    """Length-prefix a single field."""
    return u32le(len(field)) + field


def pack_fields(tag: bytes, *fields: bytes) -> bytes:
    """Tagged canonical serialization: tag || lp(f1) || lp(f2) || ..."""
    return tag + b"".join(lp(f) for f in fields)


class Reader:
    """Bounds-checked cursor over one encoded value that starts with ``tag``.
    As a context manager it calls ``end()`` when its block finishes."""

    __slots__ = ("_data", "_off")

    def __init__(self, data: bytes, tag: bytes = b"") -> None:
        if not data.startswith(tag):
            raise ValueError(f"expected tag {tag!r}")
        self._data = data
        self._off = len(tag)

    def fixed(self, n: int) -> bytes:
        start, end = self._off, self._off + n
        if n < 0 or end > len(self._data):
            raise ValueError(f"truncated: {n}-byte field at offset {start}")
        self._off = end
        return self._data[start:end]

    def u32(self) -> int:
        return _U32.unpack(self.fixed(4))[0]

    def lp(self, width: int | None = None) -> bytes:
        """The next length-prefixed field; with width, its length must equal it."""
        data, start = self._data, self._off + 4
        if start > len(data):
            raise ValueError(f"truncated: length prefix at offset {start - 4}")
        (n,) = _U32.unpack_from(data, start - 4)
        if width is not None and n != width:
            raise ValueError(f"{n}-byte field where {width} bytes are required")
        end = start + n
        if end > len(data):
            raise ValueError(f"truncated: {n}-byte field at offset {start}")
        self._off = end
        return data[start:end]

    def array(self, count: int, width: int) -> tuple[bytes, ...]:
        """The next count fields of width bytes each."""
        block = self.fixed(count * width)
        return tuple(block[k:k + width] for k in range(0, len(block), width))

    def more(self) -> bool:
        return self._off < len(self._data)

    def end(self) -> None:
        if self._off != len(self._data):
            raise ValueError(f"{len(self._data) - self._off} trailing bytes")

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._off != len(self._data):
            self.end()
