"""Durable HN and SN state: the record log behind save_*/load_*."""

import os
import pickle
import sqlite3

import pytest

from pqaka import hn as hn_mod, sim, sn as sn_mod, store
from pqaka.rng import SeededRandom

# role -> (save, load, the state's mapping the store mirrors)
ROLES = {
    "hn": (hn_mod.save_registry, hn_mod.load_registry, lambda w: w.hn.registry),
    "sn": (sn_mod.save_guti_table, sn_mod.load_guti_table, lambda w: w.sn.guti_table),
}


def _sample(role, supi):
    if role == "hn":
        return {supi: hn_mod.SubscriberRecord(supi=supi, k=b"\x01" * 32, k_s=b"\x02" * 32)}
    return {b"\x03" * 16: sn_mod.GutiEntry(supi=supi, r_sn_prime=b"\x04" * 32)}


def _provisioned(n, rng):
    """n subscribers of one SN/HN pair, each through one SUPI session."""
    base = sim.make_world("test", seed=rng, supi="imsi-0")
    worlds = [base] + [
        sim.World(ue=sim.add_subscriber(base, f"imsi-{i}", rng),
                  sn=base.sn, hn=base.hn, suite=base.suite)
        for i in range(1, n)]
    for w in worlds:
        assert sim.run_session(w, "supi", rng=rng).completed
    return worlds


def _record_count(path):
    """Records after the header line, each a 4-byte body length, a 4-byte
    CRC and the body."""
    with open(path, "rb") as f:
        data = f.read()
    at, n = data.index(b"\n") + 1, 0
    while at < len(data):
        at += 8 + int.from_bytes(data[at:at + 4], "little")
        n += 1
    assert at == len(data)
    return n


@pytest.mark.parametrize("supi", ["imsi-001,01,", "imsi-ü€-中-\U0001d11e"])
@pytest.mark.parametrize("role", ROLES)
def test_any_supi_round_trips(tmp_path, role, supi):
    save, load, _ = ROLES[role]
    path = str(tmp_path / role)
    mapping = _sample(role, supi)
    save(path, mapping)
    assert load(path) == mapping


@pytest.mark.parametrize("role", ROLES)
def test_store_mirrors_state_attached_after_provisioning(tmp_path, role):
    _, load, mapping = ROLES[role]
    rng = SeededRandom(3)
    worlds = _provisioned(5, rng)
    path = str(tmp_path / role)
    getattr(worlds[0], role).persist_path = path
    for i, w in enumerate(worlds[2:] + worlds[:2]):
        assert sim.run_session(w, "guti", rng=rng).completed
        # the first commit writes every row, each later one a single row
        assert _record_count(path) == len(mapping(w)) + i
        assert load(path) == mapping(w)


def test_subscriber_added_after_attach_is_stored(tmp_path):
    rng = SeededRandom(4)
    world = _provisioned(2, rng)[0]
    world.hn.persist_path = path = str(tmp_path / "hn")
    sim.add_subscriber(world, "imsi-late", rng)
    assert hn_mod.load_registry(path) == world.hn.registry


@pytest.mark.parametrize("role", ROLES)
def test_unpickled_copy_rewrites_the_store_it_shares(tmp_path, role):
    _, load, mapping = ROLES[role]
    rng = SeededRandom(5)
    worlds = _provisioned(3, rng)
    getattr(worlds[0], role).persist_path = path = str(tmp_path / role)
    assert sim.run_session(worlds[0], "guti", rng=rng).completed
    blob = pickle.dumps(worlds)
    for w in worlds[1:]:
        assert sim.run_session(w, "guti", rng=rng).completed
    copies = pickle.loads(blob)
    assert sim.run_session(copies[0], "guti", rng=rng).completed
    assert load(path) == mapping(copies[0])


@pytest.mark.parametrize("role", ROLES)
def test_store_removed_while_open_is_written_whole_again(tmp_path, role):
    _, load, mapping = ROLES[role]
    rng = SeededRandom(6)
    worlds = _provisioned(3, rng)
    getattr(worlds[0], role).persist_path = path = str(tmp_path / role)
    assert sim.run_session(worlds[0], "guti", rng=rng).completed
    for f in tmp_path.iterdir():
        f.unlink()
    assert sim.run_session(worlds[1], "guti", rng=rng).completed
    assert load(path) == mapping(worlds[1])


def test_registry_saved_back_to_an_earlier_store_rewrites_it_whole(tmp_path):
    """Saved to A, then B, then A again: A missed B's commits, so the third
    save writes every row, not only the named one."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    registry = {**_sample("hn", "imsi-1"), **_sample("hn", "imsi-2")}
    hn_mod.save_registry(a, registry)
    hn_mod.save_registry(b, registry)
    registry["imsi-1"].k_s = b"\x05" * 32
    hn_mod.save_registry(b, registry, "imsi-1")
    registry["imsi-2"].k_s = b"\x06" * 32
    hn_mod.save_registry(a, registry, "imsi-2")
    assert hn_mod.load_registry(a) == registry


@pytest.mark.parametrize("role", ROLES)
def test_load_of_missing_store_raises_and_creates_nothing(tmp_path, role):
    _, load, _ = ROLES[role]
    path = tmp_path / role
    with pytest.raises(FileNotFoundError):
        load(str(path))
    assert list(tmp_path.iterdir()) == []


# --- the durability contract of the record log -------------------------------

def _rows(role, n):
    """n rows of the role's mapping; every other HN row has no K_S yet."""
    if role == "hn":
        return {f"imsi-{i}": hn_mod.SubscriberRecord(
                    supi=f"imsi-{i}", k=bytes([i % 256]) * 32,
                    k_s=None if i % 2 else bytes([i % 256]) * 32)
                for i in range(n)}
    return {i.to_bytes(16, "big"): sn_mod.GutiEntry(
                supi=f"imsi-{i}", r_sn_prime=bytes([i % 256]) * 32)
            for i in range(n)}


def _commit(role, path, mapping, i, value):
    """The commit each role makes in a session, for its row number i: the HN
    a new K_S, the SN a new GUTI and R_SN' in place of the old GUTI."""
    supi = f"imsi-{i}"
    if role == "hn":
        mapping[supi].k_s = value
        hn_mod.save_registry(path, mapping, supi)
        return
    del mapping[next(g for g, e in mapping.items() if e.supi == supi)]
    mapping[value[:16]] = sn_mod.GutiEntry(supi=supi, r_sn_prime=value)
    sn_mod.save_guti_table(path, mapping, value[:16])


@pytest.mark.parametrize("role", ROLES)
def test_torn_or_corrupt_last_record_loads_the_state_before_it(tmp_path, role):
    save, load, _ = ROLES[role]
    path, copy = str(tmp_path / role), str(tmp_path / "copy")
    mapping = _rows(role, 3)
    save(path, mapping)
    _commit(role, path, mapping, 0, b"\x0a" * 32)
    before, start = load(path), os.path.getsize(path)
    _commit(role, path, mapping, 1, b"\x0b" * 32)
    with open(path, "rb") as f:
        data = f.read()
    assert load(path) == mapping != before

    def load_copy(damaged):
        with open(copy, "wb") as f:
            f.write(damaged)
        return load(copy)

    for cut in range(start, len(data)):
        assert load_copy(data[:cut]) == before, cut
    for at in range(start + 8, len(data)):       # past length and CRC
        flipped = bytearray(data)
        flipped[at] ^= 0x01
        assert load_copy(bytes(flipped)) == before, at


def test_file_with_a_wrong_header_raises(tmp_path):
    hn_path, sn_path, old = (str(tmp_path / n) for n in ("hn", "sn", "old.db"))
    hn_mod.save_registry(hn_path, _rows("hn", 2))
    sn_mod.save_guti_table(sn_path, _rows("sn", 2))
    with pytest.raises(ValueError):
        hn_mod.load_registry(sn_path)
    with pytest.raises(ValueError):
        sn_mod.load_guti_table(hn_path)
    db = sqlite3.connect(old)       # a registry in the former sqlite format
    db.execute("CREATE TABLE registry (supi TEXT PRIMARY KEY, k BLOB NOT NULL, "
               "k_s BLOB) WITHOUT ROWID")
    db.execute("INSERT INTO registry VALUES ('imsi-1', ?, NULL)", (b"\x01" * 32,))
    db.commit()
    db.close()
    for load in (hn_mod.load_registry, sn_mod.load_guti_table):
        with pytest.raises(ValueError):
            load(old)


@pytest.mark.parametrize("first", ROLES)
def test_save_refuses_the_path_of_the_other_roles_store(tmp_path, first):
    """One file holds one role's table: the other role's first save raises
    and writes nothing, so the file still loads as the first role's."""
    second = next(role for role in ROLES if role != first)
    path = str(tmp_path / "shared")
    ROLES[first][0](path, _rows(first, 2))
    with open(path, "rb") as f:
        data = f.read()
    with pytest.raises(ValueError, match="shared"):
        ROLES[second][0](path, _rows(second, 2))
    with open(path, "rb") as f:
        assert f.read() == data
    assert os.listdir(tmp_path) == ["shared"]
    assert ROLES[first][1](path) == _rows(first, 2)


def test_roles_given_one_persist_path_fail_at_the_second_save(tmp_path):
    """The SN commits first in a session; the HN's save then raises instead
    of replacing the SN's table with its own."""
    rng = SeededRandom(7)
    world = _provisioned(2, rng)[0]
    world.hn.persist_path = world.sn.persist_path = path = str(tmp_path / "state")
    with pytest.raises(ValueError):
        sim.run_session(world, "guti", rng=rng)
    assert sn_mod.load_guti_table(path) == world.sn.guti_table


def test_guti_table_with_two_supis_on_one_guti_raises(tmp_path):
    path = str(tmp_path / "sn")
    table = _rows("sn", 2)
    sn_mod.save_guti_table(path, table)
    first = next(iter(table))
    table[first] = sn_mod.GutiEntry(supi="imsi-1", r_sn_prime=b"\x05" * 32)
    sn_mod.save_guti_table(path, table, first)   # imsi-0's row left behind
    with pytest.raises(ValueError):
        sn_mod.load_guti_table(path)


@pytest.mark.parametrize("role", ROLES)
def test_stale_tmp_file_is_ignored_and_replaced(tmp_path, role):
    save, load, _ = ROLES[role]
    path = str(tmp_path / role)
    mapping = _rows(role, 3)
    save(path, mapping)
    _commit(role, path, mapping, 1, b"\x0c" * 32)
    with open(path + ".tmp", "wb") as f:         # a whole write cut short
        f.write(b"pqaka-store")
    assert load(path) == mapping
    save(path, mapping)
    assert not os.path.exists(path + ".tmp")
    assert load(path) == mapping


@pytest.mark.parametrize("role", ROLES)
def test_compaction_keeps_the_file_within_its_bound(tmp_path, role):
    save, load, _ = ROLES[role]
    path, n = str(tmp_path / role), 100
    mapping = _rows(role, n)
    save(path, mapping)
    sizes = []
    for c in range(5 * n):
        _commit(role, path, mapping, c % n, b"\xff" + c.to_bytes(31, "little"))
        assert _record_count(path) <= 2 * n + store.COMPACT_SLACK, c
        sizes.append(os.path.getsize(path))
    assert min(sizes[n:]) < max(sizes)           # it was compacted
    assert load(path) == mapping


def test_short_write_raises_and_the_next_save_writes_whole(tmp_path, monkeypatch):
    path = str(tmp_path / "hn")
    registry = _rows("hn", 3)
    hn_mod.save_registry(path, registry)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:5]))
    with pytest.raises(OSError):
        _commit("hn", path, registry, 0, b"\x0d" * 32)
    monkeypatch.undo()
    _commit("hn", path, registry, 2, b"\x0e" * 32)
    assert hn_mod.load_registry(path) == registry
