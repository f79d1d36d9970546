"""SN operations: forwarding, response verification, GUTI table."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqaka import crypto, hn as hn_mod, sim, sn as sn_mod, ue as ue_mod, wire
from pqaka.rng import RandomSource, SeededRandom


def _to_challenge(world, rng):
    msg = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng, sid)
    challenge = sn_mod.sn_forward_challenge(world.sn, sid, vector)
    return sid, vector, challenge


def test_forward_identification_fresh_r_sn(world, rng):
    msg = ue_mod.ue_identification_response(world.ue, rng)
    a, _ = sn_mod.sn_forward_identification(world.sn, msg, rng)
    b, _ = sn_mod.sn_forward_identification(world.sn, msg, rng)
    assert a.r_sn != b.r_sn
    assert (a.c1, a.suci_conc, a.mac_u) == (msg.c1, msg.suci_conc, msg.mac_u)


def test_forward_identification_seeded_r_sn(world):
    msg = ue_mod.ue_identification_response(world.ue, SeededRandom(1))
    seed = 424242
    to_hn, _sid = sn_mod.sn_forward_identification(world.sn, msg, SeededRandom(seed))
    expected = hashlib.sha256(
        seed.to_bytes(32, "big") + (0).to_bytes(8, "big")).digest()
    assert to_hn.r_sn == expected


def test_forward_challenge_passes_autn_unmodified(world, rng):
    sid, vector, challenge = _to_challenge(world, rng)
    assert challenge.autn == vector.autn
    assert challenge.c2 == vector.c2
    pending = world.sn.pending[sid]
    assert pending.hxres_star == vector.hxres_star
    assert pending.m == vector.m


def test_forward_challenge_unknown_session_dropped(world, rng):
    _sid, vector, _ = _to_challenge(world, rng)
    assert sn_mod.sn_forward_challenge(world.sn, b"nosuch", vector) is None


def test_verify_response_recovers_supi_and_key(world, rng):
    sid, _vector, challenge = _to_challenge(world, rng)
    response = ue_mod.ue_process_challenge(world.ue, challenge)
    result = sn_mod.sn_verify_response(world.sn, sid, response, rng)
    assert result is not None
    assert result.supi == world.ue.supi
    k_seaf_hn = world.hn.pending[sid].k_seaf
    assert result.k_seaf == k_seaf_hn == world.ue.k_seaf
    assert sid not in world.sn.pending


def test_verify_response_bit_flip_fuzz(world, rng):
    sid, _vector, challenge = _to_challenge(world, rng)
    response = ue_mod.ue_process_challenge(world.ue, challenge)
    honest = response.res_star
    for bit in range(0, 256, 11):
        pending_backup = dict(world.sn.pending)
        mutated = bytearray(honest)
        mutated[bit // 8] ^= 1 << (bit % 8)
        bad = wire.ResponseMsg(res_star=bytes(mutated))
        assert sn_mod.sn_verify_response(world.sn, sid, bad, rng) is None
        assert sid not in world.sn.pending      # pending cleared on mismatch
        world.sn.pending.update(pending_backup)


def test_verify_response_unknown_session(world, rng):
    assert sn_mod.sn_verify_response(
        world.sn, b"nosuch", wire.ResponseMsg(res_star=bytes(32)), rng) is None


def test_guti_assignments_fresh_and_indexed(world, rng):
    a = sn_mod.sn_assign_guti(world.sn, "imsi-1", rng)
    b = sn_mod.sn_assign_guti(world.sn, "imsi-2", rng)
    assert a.guti_new != b.guti_new
    assert a.r_sn_prime_new != b.r_sn_prime_new
    assert world.sn.guti_table[a.guti_new].supi == "imsi-1"
    assert world.sn.guti_table[b.guti_new].supi == "imsi-2"


def test_guti_reassignment_drops_old_entry(world, rng):
    a = sn_mod.sn_assign_guti(world.sn, "imsi-1", rng)
    b = sn_mod.sn_assign_guti(world.sn, "imsi-1", rng)
    assert a.guti_new not in world.sn.guti_table
    assert world.sn.guti_table[b.guti_new].supi == "imsi-1"
    supis = [e.supi for e in world.sn.guti_table.values()]
    assert supis.count("imsi-1") == 1


class _CollidingRng(RandomSource):
    """First GUTI draw repeats an existing table key, forcing a redraw."""

    def __init__(self, collide_with: bytes):
        self.queue = [collide_with, b"\x42" * 16, b"\x43" * 32]

    def bytes(self, n: int) -> bytes:
        out = self.queue.pop(0)
        assert len(out) == n
        return out


def test_guti_collision_forces_redraw(world, rng):
    first = sn_mod.sn_assign_guti(world.sn, "imsi-1", rng)
    colliding = _CollidingRng(first.guti_new)
    second = sn_mod.sn_assign_guti(world.sn, "imsi-2", colliding)
    assert second.guti_new == b"\x42" * 16          # redrawn after collision
    table_supis = [e.supi for e in world.sn.guti_table.values()]
    assert sorted(table_supis) == ["imsi-1", "imsi-2"]   # stays injective


def _assign_by_scan(table, supi, rng):
    """Reference: the linear-scan assignment the SUPI -> GUTI index replaced."""
    guti = rng.bytes(16)
    while guti in table:
        guti = rng.bytes(16)
    r_sn_prime = rng.bytes(32)
    for old, entry in list(table.items()):
        if entry.supi == supi:
            del table[old]
    table[guti] = sn_mod.GutiEntry(supi=supi, r_sn_prime=r_sn_prime)
    return wire.GutiAssignMsg(guti_new=guti, r_sn_prime_new=r_sn_prime)


GUTI_STEPS = st.lists(st.one_of(
    st.tuples(st.just("assign"), st.sampled_from(["imsi-1", "imsi-2", "imsi-3"])),
    st.just(("clear",)),       # the table changed from outside
    st.just(("restart",)),     # a new SnState built from the table, as after a load
), max_size=40)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32), GUTI_STEPS)
def test_guti_index_matches_linear_scan(seed, steps):
    state = sn_mod.SnState(id_sn="sn.example")
    table = {}
    rng, ref_rng = SeededRandom(seed), SeededRandom(seed)
    for step in steps:
        if step[0] == "clear":
            state.guti_table.clear()
            table.clear()
        elif step[0] == "restart":
            state = sn_mod.SnState(id_sn="sn.example", guti_table=dict(state.guti_table))
        else:
            _, supi = step
            got = sn_mod.sn_assign_guti(state, supi, rng)
            assert got == _assign_by_scan(table, supi, ref_rng)
        assert list(state.guti_table.items()) == list(table.items())
        supis = [e.supi for e in table.values()]
        assert len(supis) == len(set(supis))       # one GUTI per SUPI
    assert rng.bytes(8) == ref_rng.bytes(8)        # same draws on both sides


def test_guti_index_ignores_a_guti_reassigned_after_clear(world):
    first = sn_mod.sn_assign_guti(world.sn, "imsi-1", SeededRandom(9))
    world.sn.guti_table.clear()
    # the same draws give imsi-2 the GUTI the stale index holds for imsi-1
    again = sn_mod.sn_assign_guti(world.sn, "imsi-2", SeededRandom(9))
    assert again.guti_new == first.guti_new
    # imsi-1's fresh assignment must not take the entry from imsi-2
    fresh = sn_mod.sn_assign_guti(world.sn, "imsi-1", SeededRandom(10))
    assert fresh.guti_new != first.guti_new
    assert world.sn.guti_table[first.guti_new].supi == "imsi-2"
    assert world.sn.guti_table[fresh.guti_new].supi == "imsi-1"


def test_resolve_known_guti_carries_stored_rprime(world, rng):
    assign = sn_mod.sn_assign_guti(world.sn, "imsi-1", rng)
    resolved = sn_mod.sn_resolve_guti(
        world.sn, wire.GutiIdMsg(guti=assign.guti_new), rng)
    msg, sid = resolved
    assert msg.supi == "imsi-1"
    assert msg.r_sn_prime == assign.r_sn_prime_new
    assert world.sn.pending[sid].r_sn == msg.r_sn


def test_resolve_unknown_guti_falls_back_to_supi(world, rng):
    resolved = sn_mod.sn_resolve_guti(
        world.sn, wire.GutiIdMsg(guti=b"\x00" * 16), rng)
    assert resolved == wire.IdRequestMsg(force_supi=True)


def test_guti_table_persistence_roundtrip(tmp_path):
    table = {
        b"\x01" * 16: sn_mod.GutiEntry(supi="imsi-1", r_sn_prime=b"\x02" * 32),
        b"\x03" * 16: sn_mod.GutiEntry(supi="imsi-2", r_sn_prime=b"\x04" * 32),
    }
    path = str(tmp_path / "guti.db")
    sn_mod.save_guti_table(path, table)
    loaded = sn_mod.load_guti_table(path)
    assert loaded.keys() == table.keys()
    for guti in table:
        assert loaded[guti].supi == table[guti].supi
        assert loaded[guti].r_sn_prime == table[guti].r_sn_prime


def test_assignment_persists_when_configured(world, rng, tmp_path):
    world.sn.persist_path = str(tmp_path / "guti.db")
    outcome = sim.run_session(world, "supi", rng=rng)
    assert outcome.completed
    loaded = sn_mod.load_guti_table(world.sn.persist_path)
    assert loaded[world.ue.guti].supi == world.ue.supi
