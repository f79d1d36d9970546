"""SN operations: forwarding, response verification, GUTI table."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drive import to_challenge
from pqaka import crypto, hn as hn_mod, sim, sn as sn_mod, ue as ue_mod, wire
from pqaka.rng import RandomSource, SeededRandom


def test_forward_identification_fresh_r_sn(world, rng):
    msg, _pair = ue_mod.ue_identification_response(world.ue, rng)
    a, _ = sn_mod.sn_forward_identification(world.sn, msg, rng)
    b, _ = sn_mod.sn_forward_identification(world.sn, msg, rng)
    assert a.r_sn != b.r_sn
    assert (a.c1, a.suci_conc, a.mac_u) == (msg.c1, msg.suci_conc, msg.mac_u)


def test_forward_identification_seeded_r_sn(world):
    msg, _pair = ue_mod.ue_identification_response(world.ue, SeededRandom(1))
    seed = 424242
    to_hn, _sid = sn_mod.sn_forward_identification(world.sn, msg, SeededRandom(seed))
    # block 0 of the child stream under the label "r_sn"
    child_seed = hashlib.sha256(seed.to_bytes(32, "big") + b"r_sn").digest()
    expected = hashlib.sha256(
        child_seed + (0).to_bytes(8, "big")).digest()[:wire.RAND_LEN]
    assert to_hn.r_sn == expected


def test_forward_challenge_passes_autn_unmodified(world, rng):
    _msg, _pair, sid, vector, challenge = to_challenge(world, rng)
    assert (challenge.conc, challenge.mac) == (vector.conc, vector.mac)
    assert challenge.c2 == vector.c2
    pending = world.sn.pending[sid]
    assert (pending.conc, pending.m) == (vector.conc, vector.m)


def test_pending_session_holds_r_sn_conc_and_m_only(world, rng):
    """Before RES* the SN keeps, under its R_SN, the vector's CONC and M, no
    check value: opening M under K3 is its RES* check. The SUPI field is
    set on the GUTI path only, so a SUPI session holds no SUPI before RES*."""
    assert [f.name for f in dataclasses.fields(sn_mod.PendingSession)] == [
        "conc", "m", "supi"]
    _msg, pair, sid, vector, _challenge = to_challenge(world, rng)
    pending = world.sn.pending[sid]
    assert pending.supi is None
    assert crypto.xor_bytes(pending.conc, sid) == crypto.prf_f(
        "5", crypto.prf_key(world.ue.k), [crypto.kem_decaps(world.suite, pair, vector.c2)])


def _m_plaintext(world, sid, vector, response):
    """M opened under K3 = KDF(RES*, AK), AK = CONC xor R_SN, as the SN
    opens it."""
    ak = crypto.xor_bytes(vector.conc, sid)
    return crypto.aead_open(crypto.kdf([response.res_star, ak]), vector.m)


def test_m_carries_the_supi_only_to_an_sn_that_sent_a_suci(world, rng):
    """The HN returns the SUPI only to an SN that sent a SUCI (TS 33.501
    §6.1.3.2, step 12). On the SUPI path M opens to K_seaf and the SUPI; on
    the GUTI path to K_seaf alone, and the SN's result names the SUPI of its
    own GUTI entry."""
    _msg, pair, sid, vector, challenge = to_challenge(world, rng)
    response, k_seaf, k_s_new = ue_mod.ue_process_challenge(world.ue, challenge, pair)
    assert _m_plaintext(world, sid, vector, response) == wire.pack_m_payload(
        k_seaf, world.ue.supi)
    result = sn_mod.sn_verify_response(world.sn, sid, response, rng)
    assert (result.supi, result.k_seaf) == (world.ue.supi, k_seaf)
    ue_mod.ue_handle_guti_assignment(world.ue, result.assignment, k_seaf, k_s_new)
    assert hn_mod.hn_finalize(world.hn, sid) == k_seaf

    entry = world.sn.guti_table[world.ue.guti]
    to_hn, sid = sn_mod.sn_resolve_guti(world.sn, wire.GutiIdMsg(guti=world.ue.guti), rng)
    vector = hn_mod.hn_guti_auth_vector(world.hn, to_hn, world.sn.id_sn)
    challenge = sn_mod.sn_forward_challenge(world.sn, sid, vector)
    response, k_seaf, _k_s_new = ue_mod.ue_process_challenge(world.ue, challenge, None)
    assert _m_plaintext(world, sid, vector, response) == k_seaf
    assert world.sn.pending[sid].supi is entry.supi
    result = sn_mod.sn_verify_response(world.sn, sid, response, rng)
    assert (result.supi, result.k_seaf) == (entry.supi, k_seaf)


@pytest.mark.parametrize("path", ["supi", "guti"])
def test_each_role_names_the_session_by_its_r_sn(world, rng, path):
    """The handle the SN returns is the R_SN its message to the HN carries,
    and with the session held at its challenge the SN and the HN each hold
    it under that R_SN alone."""
    if path == "guti":
        assert sim.run_session(world, "supi", rng=rng).completed
        to_hn, sid = sn_mod.sn_resolve_guti(world.sn, wire.GutiIdMsg(guti=world.ue.guti), rng)
        vector = hn_mod.hn_guti_auth_vector(world.hn, to_hn, world.sn.id_sn)
    else:
        msg, _pair = ue_mod.ue_identification_response(world.ue, rng)
        to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
        _supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
        vector = hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    assert sid == to_hn.r_sn
    assert sn_mod.sn_forward_challenge(world.sn, sid, vector) is not None
    assert list(world.sn.pending) == list(world.hn.pending) == [to_hn.r_sn]


def test_forward_challenge_unknown_session_dropped(world, rng):
    _msg, _pair, _sid, vector, _challenge = to_challenge(world, rng)
    assert sn_mod.sn_forward_challenge(world.sn, b"nosuch", vector) is None


def test_verify_response_recovers_supi_and_key(world, rng):
    _msg, pair, sid, _vector, challenge = to_challenge(world, rng)
    response, k_seaf_ue, _k_s_new = ue_mod.ue_process_challenge(world.ue, challenge, pair)
    result = sn_mod.sn_verify_response(world.sn, sid, response, rng)
    assert result is not None
    assert result.supi == world.ue.supi
    k_seaf_hn = world.hn.pending[sid].k_seaf
    assert result.k_seaf == k_seaf_hn == k_seaf_ue
    assert sid not in world.sn.pending


def test_verify_response_bit_flip_fuzz(world, rng):
    _msg, pair, sid, _vector, challenge = to_challenge(world, rng)
    response, _k_seaf, _k_s_new = ue_mod.ue_process_challenge(world.ue, challenge, pair)
    honest = response.res_star
    assert len(honest) == crypto.CHECK_LEN
    for bit in range(8 * crypto.CHECK_LEN):
        pending_backup = dict(world.sn.pending)
        mutated = bytearray(honest)
        mutated[bit // 8] ^= 1 << (bit % 8)
        bad = wire.ResponseMsg(res_star=bytes(mutated))
        assert sn_mod.sn_verify_response(world.sn, sid, bad, rng) is None
        assert sid not in world.sn.pending      # pending cleared on mismatch
        world.sn.pending.update(pending_backup)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2 ** 128 - 1))
def test_verify_response_rejects_every_res_star_but_xres_star(delta):
    """RES* = XRES* xor delta, delta nonzero, spans every other 128-bit
    RES*: M does not open, so the SN returns None and keeps no entry."""
    world, rng = sim.make_world("test", seed=0), SeededRandom(1)
    _msg, pair, sid, _vector, challenge = to_challenge(world, rng)
    xres_star = ue_mod.ue_process_challenge(world.ue, challenge, pair)[0].res_star
    bad = crypto.xor_bytes(xres_star, delta.to_bytes(crypto.CHECK_LEN, "big"))
    assert sn_mod.sn_verify_response(
        world.sn, sid, wire.ResponseMsg(res_star=bad), rng) is None
    assert world.sn.pending == {}


def test_verify_response_unknown_session(world, rng):
    assert sn_mod.sn_verify_response(
        world.sn, b"nosuch", wire.ResponseMsg(res_star=bytes(crypto.CHECK_LEN)), rng) is None


K_SEAF_1, K_SEAF_2 = SeededRandom(31).bytes(32), SeededRandom(32).bytes(32)


def test_guti_assignments_fresh_and_indexed(world, rng):
    a = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, rng)
    b = sn_mod.sn_assign_guti(world.sn, "imsi-2", K_SEAF_2, rng)
    assert a != b
    entry_a, entry_b = world.sn.guti_table[a], world.sn.guti_table[b]
    assert (entry_a.supi, entry_b.supi) == ("imsi-1", "imsi-2")
    # two assignments under different K_seaf carry different R_SN'
    assert entry_a.r_sn_prime == crypto.r_sn_prime(K_SEAF_1)
    assert entry_b.r_sn_prime == crypto.r_sn_prime(K_SEAF_2)
    assert entry_a.r_sn_prime != entry_b.r_sn_prime


def test_guti_reassignment_drops_old_entry(world, rng):
    a = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, rng)
    b = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_2, rng)
    assert a not in world.sn.guti_table
    assert world.sn.guti_table[b].supi == "imsi-1"
    supis = [e.supi for e in world.sn.guti_table.values()]
    assert supis.count("imsi-1") == 1


class _CollidingRng(RandomSource):
    """First GUTI draw repeats an existing table key, forcing a redraw."""

    def __init__(self, collide_with: bytes):
        self.queue = [collide_with, b"\x42" * wire.GUTI_LEN]

    def bytes(self, n: int) -> bytes:
        out = self.queue.pop(0)
        assert len(out) == n
        return out


def test_guti_collision_forces_redraw(world, rng):
    first = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, rng)
    colliding = _CollidingRng(first)
    second = sn_mod.sn_assign_guti(world.sn, "imsi-2", K_SEAF_2, colliding)
    assert second == b"\x42" * wire.GUTI_LEN  # redrawn after collision
    assert colliding.queue == []                    # and R_SN' draws nothing
    table_supis = [e.supi for e in world.sn.guti_table.values()]
    assert sorted(table_supis) == ["imsi-1", "imsi-2"]   # stays injective


def _assign_by_scan(table, supi, k_seaf, rng):
    """Reference: the linear-scan assignment the SUPI -> GUTI index replaced."""
    draw = rng.stream("guti")
    guti = draw.bytes(wire.GUTI_LEN)
    while guti in table:
        guti = draw.bytes(wire.GUTI_LEN)
    for old, entry in list(table.items()):
        if entry.supi == supi:
            del table[old]
    table[guti] = sn_mod.GutiEntry(supi=supi, r_sn_prime=crypto.r_sn_prime(k_seaf))
    return guti


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
    for i, step in enumerate(steps):
        if step[0] == "clear":
            state.guti_table.clear()
            table.clear()
        elif step[0] == "restart":
            state = sn_mod.SnState(id_sn="sn.example", guti_table=dict(state.guti_table))
        else:
            _, supi = step
            k_seaf = hashlib.sha256(i.to_bytes(4, "big")).digest()
            got = sn_mod.sn_assign_guti(state, supi, k_seaf, rng)
            assert got == _assign_by_scan(table, supi, k_seaf, ref_rng)
        assert list(state.guti_table.items()) == list(table.items())
        supis = [e.supi for e in table.values()]
        assert len(supis) == len(set(supis))       # one GUTI per SUPI
    # same draws on both sides
    assert rng.stream("guti").bytes(8) == ref_rng.stream("guti").bytes(8)


def test_guti_index_ignores_a_guti_reassigned_after_clear(world):
    first = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, SeededRandom(9))
    world.sn.guti_table.clear()
    # the same draws give imsi-2 the GUTI the stale index holds for imsi-1
    again = sn_mod.sn_assign_guti(world.sn, "imsi-2", K_SEAF_2, SeededRandom(9))
    assert again == first
    # imsi-1's fresh assignment must not take the entry from imsi-2
    fresh = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, SeededRandom(10))
    assert fresh != first
    assert world.sn.guti_table[first].supi == "imsi-2"
    assert world.sn.guti_table[fresh].supi == "imsi-1"


def test_resolve_known_guti_carries_stored_rprime(world, rng):
    guti = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, rng)
    resolved = sn_mod.sn_resolve_guti(world.sn, wire.GutiIdMsg(guti=guti), rng)
    msg, sid = resolved
    assert msg.supi == "imsi-1"
    assert msg.r_sn_prime == crypto.r_sn_prime(K_SEAF_1)
    assert sid == msg.r_sn and sid in world.sn.pending


def test_resolve_unknown_guti_falls_back_to_supi(world, rng):
    resolved = sn_mod.sn_resolve_guti(
        world.sn, wire.GutiIdMsg(guti=b"\x00" * wire.GUTI_LEN), rng)
    assert resolved == wire.IdRequestMsg(force_supi=True)


_FORCING = wire.IdRequestMsg(force_supi=True)


def test_identify_forwards_a_suci_under_either_request(world, rng):
    msg, _pair = ue_mod.ue_identification_response(world.ue, rng)
    for request in (_FORCING, wire.IdRequestMsg(force_supi=False)):
        to_hn, sid = sn_mod.sn_identify(world.sn, request, msg, rng)
        assert isinstance(to_hn, wire.SnToHnIdentMsg) and to_hn.c1 == msg.c1
        assert sid == to_hn.r_sn and sid in world.sn.pending


def test_identify_takes_no_guti_under_a_request_that_forced_supi(world, rng):
    """A known GUTI is resolved under a request that allowed one; under one
    that forced SUPI it ends the session and opens no pending entry."""
    guti = sn_mod.sn_assign_guti(world.sn, "imsi-1", K_SEAF_1, rng)
    guti_id = wire.GutiIdMsg(guti=guti)
    assert sn_mod.sn_identify(world.sn, _FORCING, guti_id, rng) is None
    assert world.sn.pending == {}
    to_hn, sid = sn_mod.sn_identify(
        world.sn, wire.IdRequestMsg(force_supi=False), guti_id, rng)
    assert to_hn.supi == "imsi-1" and sid in world.sn.pending


def test_identify_unknown_guti_under_a_request_allowing_one_falls_back(world, rng):
    unknown = wire.GutiIdMsg(guti=b"\x00" * wire.GUTI_LEN)
    assert sn_mod.sn_identify(
        world.sn, wire.IdRequestMsg(force_supi=False), unknown, rng) == _FORCING
    assert world.sn.pending == {}


def test_identify_foreign_type_ends_the_session(world, rng):
    foreign = wire.ResponseMsg(res_star=bytes(crypto.CHECK_LEN))
    for request in (_FORCING, wire.IdRequestMsg(force_supi=False)):
        assert sn_mod.sn_identify(world.sn, request, foreign, rng) is None
    assert world.sn.pending == {}


def test_abort_drops_only_its_own_session(world, rng):
    """hn-abort drops the session's entry; an unknown sid changes nothing."""
    _msg, _pair, sid, _vector, _challenge = to_challenge(world, rng)
    snapshot = dict(world.sn.pending)
    sn_mod.sn_abort(world.sn, b"nosuch")
    assert world.sn.pending == snapshot
    sn_mod.sn_abort(world.sn, sid)
    assert world.sn.pending == {}


def test_guti_table_persistence_roundtrip(tmp_path):
    table = {
        b"\x01" * wire.GUTI_LEN: sn_mod.GutiEntry(supi="imsi-1", r_sn_prime=b"\x02" * 32),
        b"\x03" * wire.GUTI_LEN: sn_mod.GutiEntry(supi="imsi-2", r_sn_prime=b"\x04" * 32),
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
