"""Durable role state: one append-only record log per role, keyed by SUPI.

A file is a header naming its table and the format version, then records:
the body's length and ``zlib.crc32``, 4 bytes each, then the body, the row's
fields, each length-prefixed, a nullable one after a presence byte. The last
record of a SUPI is its row. A commit appends its one row in one unsynced
``os.write``. The first save of a mapping, and compaction once appended
records outnumber the rows by COMPACT_SLACK, write the file whole through a
fsynced ``path + ".tmp"``. A power loss can drop the last commits, but ``load``
never returns a torn row. File descriptors are cached here by path, not kept
on the role state, so the state stays picklable.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator, Mapping, Optional

VERSION = 1
COMPACT_SLACK = 64
_FRAME = struct.Struct("<II")      # body length, zlib.crc32 of the body


class Table:
    """One role's table: rows keyed on the SUPI in the first column, bytes in
    the others, None only in the nullable one, no two SUPIs on a unique one."""

    def __init__(self, name: str, *columns: str, nullable: str = "", unique: str = ""):
        self.name, self.columns = name, columns
        self.header = f"pqaka-store {VERSION} {name}\n".encode()
        self.nullable = [c == nullable for c in columns]
        self.unique = columns.index(unique) if unique else None

    def encode(self, row: tuple) -> bytes:
        body = bytearray()
        for value, nullable in zip((row[0].encode(), *row[1:]), self.nullable):
            if nullable:
                body.append(value is not None)
                if value is None:
                    continue
            body += len(value).to_bytes(4, "little") + value
        return _FRAME.pack(len(body), zlib.crc32(body)) + body

    def decode(self, body: bytes) -> tuple:
        fields, at = [], 0
        for nullable in self.nullable:
            at += nullable
            if nullable and not body[at - 1]:
                fields.append(None)
                continue
            end = at + 4 + int.from_bytes(body[at:at + 4], "little")
            fields.append(body[at + 4:end])
            at = end
        return (fields[0].decode(), *fields[1:])


@dataclass
class _Log:
    fd: int             # opened O_APPEND
    mapping: Mapping    # held whole by the file; the reference keeps its id unique
    appended: int = 0   # records since the last whole write


_logs: dict[str, _Log] = {}


def save(path: str, table: Table, mapping: Mapping,
         row: Callable[[object, object], tuple], key: Optional[object] = None) -> None:
    """Make the store at path hold mapping; entry (k, v) is stored as row(k, v).
    key names the entry a commit changed; if the file holds this mapping, only
    its row is appended, else (also if removed) the file is written whole.
    A file with another table's header, or none, is refused (ValueError)."""
    log = _logs.get(path)
    if (key is not None and log is not None and log.mapping is mapping
            and log.appended < len(mapping) + COMPACT_SLACK
            and os.fstat(log.fd).st_nlink):
        record = table.encode(row(key, mapping[key]))
        if os.write(log.fd, record) != len(record):
            os.close(_logs.pop(path).fd)   # torn: the next save writes it whole
            raise OSError(f"short write to {path}")
        log.appended += 1
        return
    if os.path.exists(path):       # e.g. the other role's store on the same path
        with open(path, "rb") as f:
            if f.read(len(table.header)) != table.header:
                raise ValueError(f"{path} is not a {table.name} store; not overwritten")
    with open(path + ".tmp", "wb") as f:
        f.write(table.header)
        f.writelines(map(table.encode, starmap(row, mapping.items())))
        f.flush()
        os.fsync(f.fileno())
    os.replace(path + ".tmp", path)
    parent = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(parent)
    finally:
        os.close(parent)
    for other in [p for p, l in _logs.items() if p == path or l.mapping is mapping]:
        os.close(_logs.pop(other).fd)    # the others stop receiving its commits
    _logs[path] = _Log(os.open(path, os.O_WRONLY | os.O_APPEND), mapping)


def load(path: str, table: Table) -> Iterator[tuple]:
    """Every row of the store at path, from the longest prefix of whole
    records with valid checksums. A missing store is an error, not empty."""
    with open(path, "rb") as f:
        if f.read(len(table.header)) != table.header:
            raise ValueError(f"{path} is not a version {VERSION} {table.name} store")
        data = f.read()
    rows, at = {}, _FRAME.size
    while at <= len(data):
        size, crc = _FRAME.unpack_from(data, at - _FRAME.size)
        body = data[at:at + size]
        if len(body) < size or zlib.crc32(body) != crc:
            break
        row = table.decode(body)
        rows[row[0]] = row
        at += size + _FRAME.size
    if table.unique is not None and len({r[table.unique] for r in rows.values()}) < len(rows):
        raise ValueError(f"{path}: two SUPIs hold one {table.columns[table.unique]}")
    return iter(rows.values())
