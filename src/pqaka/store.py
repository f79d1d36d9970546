"""Durable role state: one append-only record log per role, keyed by SUPI.

A file is a header naming its table and the table's version, then records:
the body's length and ``zlib.crc32``, 4 bytes each, then the body, the row
packed by ``wire.pack_fields`` in the table's field kinds, as a message's
fields are after its tag: fixed-width fields raw, the SUPI as ``wire.SUPI``
packs it (an IMSI's digits in BCD) behind its DER length, one byte below
128 B. Each table's version changes with its own layout, and a file of
another version is refused. The last record of a SUPI is its row. A commit
appends its one row in one unsynced ``os.write``. The first save of a
mapping, and compaction once appended records outnumber the rows by
COMPACT_SLACK, write the file whole through a fsynced ``path + ".tmp"``. A
power loss can drop the last commits, but ``load`` never returns a torn
row. File descriptors are cached here by path, not kept on the role state,
so the state stays picklable. Pending sessions are never stored: each role
bounds its table by ``hold_pending``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import starmap
from typing import Callable, Iterator, Mapping, Optional

from .wire import Fields, ParseError, pack_fields, unpack_fields

COMPACT_SLACK = 64
PENDING_MAX = 64        # sessions a role holds awaiting their next message
_FRAME = struct.Struct("<II")      # body length, zlib.crc32 of the body


class Table:
    """One role's table: rows keyed on the SUPI in the first field, no two
    SUPIs on the unique one; each row is packed by wire's field walk."""

    def __init__(self, name: str, version: int, fields: Fields, unique: str = ""):
        self.name, self.version, self.fields = name, version, fields
        self.header = f"pqaka-store {version} {name}\n".encode()
        self.unique = [f for f, _ in fields].index(unique) if unique else None

    def encode(self, row: tuple) -> bytes:
        body = pack_fields(self.fields, row, [])
        return _FRAME.pack(len(body), zlib.crc32(body)) + body

    def decode(self, body: bytes) -> list:
        return unpack_fields(self.fields, body, 0, f"in {self.name} record")


def hold_pending(pending: dict, sid: bytes, entry: object) -> None:
    """Hold entry as pending session sid. Past PENDING_MAX the oldest goes,
    so replays cannot grow the table."""
    pending[sid] = entry
    if len(pending) > PENDING_MAX:
        del pending[next(iter(pending))]


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


def load(path: str, table: Table) -> Iterator[list]:
    """Every row of the store at path, from the longest prefix of whole
    records that check and parse. A missing store is an error, not empty."""
    with open(path, "rb") as f:
        if f.read(len(table.header)) != table.header:
            raise ValueError(f"{path} is not a version {table.version} {table.name} store")
        data = f.read()
    rows, at = {}, _FRAME.size
    while at <= len(data):
        size, crc = _FRAME.unpack_from(data, at - _FRAME.size)
        body = data[at:at + size]
        if len(body) < size or zlib.crc32(body) != crc:
            break
        try:
            row = table.decode(body)
        except ParseError:      # e.g. a zero-filled tail: size 0, crc32(b"") = 0
            break
        rows[row[0]] = row
        at += size + _FRAME.size
    if table.unique is not None and len({r[table.unique] for r in rows.values()}) < len(rows):
        raise ValueError(f"{path}: two SUPIs hold one {table.fields[table.unique][0]}")
    return iter(rows.values())
