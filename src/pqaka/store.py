"""Durable role state: one single-table sqlite file per role, keyed by SUPI.

The HN keeps its subscriber registry and the SN its GUTI table here. The
first save of a mapping to a path writes every row in one transaction;
after that, a commit writes only the row it changed, so its cost does not
grow with the number of subscribers. The file runs in WAL mode with
``synchronous=NORMAL``: a crash of the process loses no committed row, and a
power loss can lose the last commits but leaves a consistent file.

Connections are cached here by path rather than kept on the role state, so
that the state stays picklable. ``sqlite3`` is imported when the first store
is opened, because processes that never persist should not pay for it.
"""

from __future__ import annotations

import errno
import os
from itertools import starmap
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

if TYPE_CHECKING:
    import sqlite3

# page cache per connection in KiB; the writes are one row each, so a small
# cache costs nothing and keeps a 10k-row store's memory down
CACHE_KIB = 64


class Table:
    """One role's table. The first column is the SUPI every row is keyed on."""

    def __init__(self, name: str, *columns: str):
        names = [c.split()[0] for c in columns]
        updates = ", ".join(f"{n} = excluded.{n}" for n in names[1:])
        self.create = (f"CREATE TABLE IF NOT EXISTS {name} "
                       f"({', '.join(columns)}) WITHOUT ROWID")
        self.select = f"SELECT {', '.join(names)} FROM {name}"
        self.clear = f"DELETE FROM {name}"
        self.upsert = (f"INSERT INTO {name} VALUES ({', '.join('?' * len(names))}) "
                       f"ON CONFLICT ({names[0]}) DO UPDATE SET {updates}")


_connections: dict[str, sqlite3.Connection] = {}
# path -> the mapping whose every entry the store at that path holds; the
# reference keeps the mapping alive, so its identity cannot be reused
_mirrored: dict[str, Mapping] = {}


def _connect(path: str, table: Table) -> sqlite3.Connection:
    db = _connections.get(path)
    if db is None:
        import sqlite3

        db = sqlite3.connect(path, isolation_level=None)
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute(f"PRAGMA cache_size=-{CACHE_KIB}")
            db.execute(table.create)
        except sqlite3.DatabaseError:      # e.g. the file is not a database
            db.close()
            raise
        _connections[path] = db
    return db


def _close(path: str) -> None:
    db = _connections.pop(path, None)
    if db is not None:
        db.close()
    _mirrored.pop(path, None)


def save(path: str, table: Table, mapping: Mapping,
         row: Callable[[object, object], tuple], key: Optional[object] = None) -> None:
    """Make the store at path hold mapping; entry (k, v) is stored as row(k, v).

    key names the one entry a commit changed. If the store already holds
    this mapping, only that entry's row is written. Otherwise (the first
    save to the path, or no key) the store is replaced by every entry of the
    mapping in one transaction.
    """
    if not os.path.exists(path):
        _close(path)       # new, or removed since it was opened: write it whole
    db = _connect(path, table)
    if key is not None and _mirrored.get(path) is mapping:
        db.execute(table.upsert, row(key, mapping[key]))
        return
    db.execute("BEGIN")
    try:
        db.execute(table.clear)
        db.executemany(table.upsert, starmap(row, mapping.items()))
    except BaseException:
        db.execute("ROLLBACK")
        raise
    db.execute("COMMIT")
    for other in [p for p, m in _mirrored.items() if m is mapping]:
        del _mirrored[other]       # those stores stop receiving its commits
    _mirrored[path] = mapping


def load(path: str, table: Table) -> Iterator[tuple]:
    """Every row of the store at path. A missing store is an error, not empty."""
    if not os.path.exists(path):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return _connect(path, table).execute(table.select)
