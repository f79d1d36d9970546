"""Durable HN and SN state: the sqlite store behind save_*/load_*."""

import pickle

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
        db = store._connections[path]
        # the first commit writes every row, each later one a single row
        assert db.total_changes == len(mapping(w)) + i
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
