"""HN operations: identification, vector derivation, ratchet staging."""

import copy
import dataclasses

import pytest

from drive import finish, run_until
from pqaka import crypto, hn as hn_mod, sim, sn as sn_mod, ue as ue_mod, wire
from pqaka.rng import SeededRandom


def _ident_msg(world, rng):
    """The SN's forward of a fresh id-response, its session's name (the
    R_SN it carries) and the sk_U pair the UE drew."""
    msg, pair = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    return to_hn, sid, pair


def test_identify_recovers_supi_and_pk(world, rng):
    to_hn, _sid, pair = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    assert supi == world.ue.supi
    assert pk_u == pair.pk
    assert record is world.hn.registry[supi]


def test_identify_rejects_wrong_claimed_sn(world, rng):
    to_hn, _sid, _pair = _ident_msg(world, rng)
    world.hn.sn_allowlist.add("other-sn.example")
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, to_hn, "other-sn.example")


def test_identify_rejects_unlisted_sn(world, rng, monkeypatch):
    to_hn, _sid, _pair = _ident_msg(world, rng)
    world.hn.sn_allowlist.clear()
    decaps_calls = []
    real_decaps = crypto.kem_decaps

    def counting(*args):
        decaps_calls.append(args)
        return real_decaps(*args)

    monkeypatch.setattr(crypto, "kem_decaps", counting)
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    # an SN off the allowlist is refused before any KEM work is spent on it
    assert decaps_calls == []


def test_identify_rejects_zeroed_mac(world, rng):
    to_hn, _sid, _pair = _ident_msg(world, rng)
    bad = wire.SnToHnIdentMsg(c1=to_hn.c1, suci_conc=to_hn.suci_conc,
                              mac_u=bytes(crypto.AEAD_TAG_OVERHEAD), r_sn=to_hn.r_sn)
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, bad, world.sn.id_sn)


def test_identify_rejects_every_one_bit_flip_of_mac_u(world, rng):
    to_hn, _sid, _pair = _ident_msg(world, rng)
    assert len(to_hn.mac_u) == crypto.AEAD_TAG_OVERHEAD
    hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)      # the honest tag passes
    for bit in range(crypto.AEAD_TAG_OVERHEAD * 8):
        mac_u = bytearray(to_hn.mac_u)
        mac_u[bit // 8] ^= 1 << (bit % 8)
        bad = dataclasses.replace(to_hn, mac_u=bytes(mac_u))
        with pytest.raises(hn_mod.IdentificationAbort):
            hn_mod.hn_identify(world.hn, bad, world.sn.id_sn)


def test_identify_rejects_every_one_bit_flip_of_suci_conc(world, rng):
    """MAC_U is SUCI_conc's AEAD tag: with the tag intact, no flipped
    ciphertext bit gets past identification."""
    to_hn, _sid, _pair = _ident_msg(world, rng)
    for bit in range(len(to_hn.suci_conc) * 8):
        suci_conc = bytearray(to_hn.suci_conc)
        suci_conc[bit // 8] ^= 1 << (bit % 8)
        bad = dataclasses.replace(to_hn, suci_conc=bytes(suci_conc))
        with pytest.raises(hn_mod.IdentificationAbort):
            hn_mod.hn_identify(world.hn, bad, world.sn.id_sn)


def test_identify_rejects_mac_u_of_another_suci_of_the_same_ue(world, rng):
    to_hn, _sid, _pair = _ident_msg(world, rng)
    other, _other_sid, _pair = _ident_msg(world, rng)
    assert other.mac_u != to_hn.mac_u
    for c1 in (to_hn.c1, other.c1):     # under either SUCI's K_S1
        bad = dataclasses.replace(to_hn, c1=c1, mac_u=other.mac_u)
        with pytest.raises(hn_mod.IdentificationAbort):
            hn_mod.hn_identify(world.hn, bad, world.sn.id_sn)
    hn_mod.hn_identify(world.hn, other, world.sn.id_sn)     # its own SUCI opens


def test_identify_rejects_unknown_subscriber(world, rng):
    to_hn, _sid, _pair = _ident_msg(world, rng)
    del world.hn.registry[world.ue.supi]
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)


def test_all_aborts_share_one_code(world, rng):
    """Each cause raises the same exception, carrying nothing of the cause."""
    raised = set()
    for mutate in ("mac", "registry", "sn"):
        w = sim.make_world("test", seed=0)
        to_hn, _sid, _pair = _ident_msg(w, SeededRandom(1))
        if mutate == "mac":
            to_hn = wire.SnToHnIdentMsg(c1=to_hn.c1, suci_conc=to_hn.suci_conc,
                                        mac_u=bytes(crypto.AEAD_TAG_OVERHEAD), r_sn=to_hn.r_sn)
            claimed = w.sn.id_sn
        elif mutate == "registry":
            w.hn.registry.clear()
            claimed = w.sn.id_sn
        else:
            claimed = "nosuch-sn"
        with pytest.raises(hn_mod.IdentificationAbort) as exc:
            hn_mod.hn_identify(w.hn, to_hn, claimed)
        raised.add((type(exc.value), exc.value.args))
    assert raised == {(hn_mod.IdentificationAbort, ())}


def test_vector_internal_consistency(world, rng):
    to_hn, sid, pair = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    pending = world.hn.pending[sid]
    # AUTN CONC must unmask to the forwarded R_SN under the subscriber key
    k_star = crypto.kem_decaps(world.suite, pair, vector.c2)
    k = crypto.prf_key(record.k)
    ak = crypto.prf_f("5", k, [k_star])
    assert crypto.xor_bytes(vector.conc, ak) == to_hn.r_sn
    xres_star, _, _ = crypto.session_keys(
        k, k_star, to_hn.r_sn, vector.conc, world.sn.id_sn)
    # M opens under K3 = KDF(XRES*, f5) to the anchored key and identity
    k3 = crypto.kdf([xres_star, ak])
    k_seaf, supi_in_m = wire.unpack_m_payload(crypto.aead_open(k3, vector.m))
    assert (k_seaf, supi_in_m) == (pending.k_seaf, supi)


def test_auth_vector_carries_no_session_secrets(world, rng):
    to_hn, sid, pair = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    pending = world.hn.pending[sid]
    k_star = crypto.kem_decaps(world.suite, pair, vector.c2)
    k = crypto.prf_key(record.k)
    xres_star, _, _ = crypto.session_keys(
        k, k_star, to_hn.r_sn, vector.conc, world.sn.id_sn)
    k3 = crypto.kdf([xres_star, crypto.prf_f("5", k, [k_star])])
    secrets = {k3, xres_star, pending.k_seaf}
    for f in dataclasses.fields(vector):
        assert getattr(vector, f.name) not in secrets, f.name


def test_guti_vector_zero_rprime_reuses_ratchet_key(world, rng):
    record = world.hn.registry[world.ue.supi]
    record.k_s = SeededRandom(11).bytes(32)
    r_sn = SeededRandom(12).bytes(wire.RAND_LEN)
    msg = wire.GutiSnToHnMsg(supi=world.ue.supi, r_sn_prime=bytes(32), r_sn=r_sn)
    vector = hn_mod.hn_guti_auth_vector(world.hn, msg, world.sn.id_sn)
    # with R' = 0 the derived key K* equals the stored ratchet key
    assert vector.mac == crypto.prf_f("1", crypto.prf_key(record.k), [record.k_s, r_sn])
    assert vector.c2 is None


def test_guti_vector_requires_ratchet_key(world):
    msg = wire.GutiSnToHnMsg(supi=world.ue.supi, r_sn_prime=bytes(32),
                             r_sn=bytes(wire.RAND_LEN))
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_guti_auth_vector(world.hn, msg, world.sn.id_sn)
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_guti_auth_vector(world.hn, msg, "nosuch-sn")


def test_finalize_commits_staged_key(world, rng):
    to_hn, sid, _pair = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    pending = world.hn.pending[sid]
    assert pending.k_s_new is not None and record.k_s is None
    assert hn_mod.hn_finalize(world.hn, sid) == pending.k_seaf
    assert record.k_s == pending.k_s_new
    assert sid not in world.hn.pending


def test_finalize_twice_second_ignored(world, rng):
    to_hn, sid, _pair = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    assert hn_mod.hn_finalize(world.hn, sid) is not None
    snapshot = (record.k_s, dict(world.hn.pending))
    assert hn_mod.hn_finalize(world.hn, sid) is None
    assert (record.k_s, world.hn.pending) == snapshot


def test_abort_drops_the_entry_and_commits_no_key(world, rng):
    """sn-abort drops the session's entry without committing its K_S; an
    unknown sid changes nothing."""
    to_hn, sid, _pair = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    snapshot = dict(world.hn.pending)
    hn_mod.hn_abort(world.hn, b"nosuch")
    assert world.hn.pending == snapshot
    hn_mod.hn_abort(world.hn, sid)
    assert world.hn.pending == {} and record.k_s is None
    assert hn_mod.hn_finalize(world.hn, sid) is None and record.k_s is None


# --- overlapping sessions of one subscriber ---------------------------------

def _assert_ratchet_in_step(world, rng):
    assert world.ue.k_s == world.hn.registry[world.ue.supi].k_s is not None
    for _ in range(3):
        outcome = sim.run_session(world, "guti", rng=rng)
        assert outcome.completed and outcome.key_source == "guti"


def test_overlapping_guti_sessions_keep_ratchet_in_step(world, rng):
    assert sim.run_session(world, "supi", rng=rng).completed
    a = sim.session(world, "guti", rng)
    challenge_a = run_until(a, "challenge")                 # held back
    b = sim.session(world, "guti", rng)
    run_until(b, "response")
    assert finish(b, None).abort_step == "response"         # B's response lost
    outcome = finish(a, challenge_a)
    assert outcome.completed and outcome.key_source == "guti"
    _assert_ratchet_in_step(world, rng)


@pytest.mark.parametrize("mode", ["supi", "guti"])
def test_overlapped_sessions_each_report_their_own_ue_key(world, rng, mode):
    """The UE answers A's challenge, then B's; A's response arrives first.
    Each session reports the key its own challenge gave the UE, and each
    assignment, sealed under that key, opens and commits; B's, committed
    last, leaves the UE in step with the HN and the SN."""
    assert sim.run_session(world, "supi", rng=rng).completed
    a = sim.session(world, mode, rng)
    response_a = run_until(a, "response")                   # held back
    b = sim.session(world, mode, rng)
    response_b = run_until(b, "response")                   # held back
    outcomes = [finish(a, response_a), finish(b, response_b)]
    for outcome in outcomes:
        assert outcome.completed and outcome.key_source == mode
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn
    assert outcomes[0].k_seaf_ue != outcomes[1].k_seaf_ue
    assert [o.assignment_delivered for o in outcomes] == [True, True]
    _assert_ratchet_in_step(world, rng)


def test_replayed_suci_during_supi_session_keeps_ratchet_in_step(world, rng):
    earlier = sim.run_session(world, "supi", rng=rng)
    old = next(e.data for e in earlier.transcript.radio_entries()
               if e.annotation == "id-response")
    honest = sim.session(world, "supi", rng)
    challenge = run_until(honest, "challenge")              # held back
    # the attacker replays the recorded SUCI from its own device
    device = sim.World(ue=copy.deepcopy(world.ue), sn=world.sn, hn=world.hn,
                       suite=world.suite)
    replay = sim.session(device, "supi", rng)
    run_until(replay, "id-response")
    assert replay.send(old)[0] == "challenge"               # HN built a vector
    assert finish(honest, challenge).completed
    _assert_ratchet_in_step(world, rng)


def _forged_id_response(world, pk_u, rng) -> bytes:
    """The id-response a device holding pk_H and a registered SUPI seals
    around a pk_U of its choosing: it opens, tag and all, at the HN."""
    c1, k_s1 = crypto.kem_encaps(world.suite, world.ue.pk_h, rng)
    sealed = crypto.aead_seal(
        k_s1, wire.pack_suci_payload(world.ue.supi, pk_u, world.sn.id_sn))
    tag = crypto.AEAD_TAG_OVERHEAD
    return wire.encode(wire.IdResponseMsg(
        c1=c1, suci_conc=sealed[:-tag], mac_u=sealed[-tag:], id_hn=world.ue.id_hn))


# a pk_U of the wrong length, or of the right length but no point on the curve
BAD_PK_U = [("test", bytes(31)), ("ecies-x25519", bytes(31)),
            ("ecies-x25519", bytes(32)), ("ecies-p256", bytes(32)),
            ("ecies-p256", bytes(33))]


@pytest.mark.parametrize("name, pk_u", BAD_PK_U,
                         ids=[f"{n}-{len(pk)}B" for n, pk in BAD_PK_U])
def test_forged_suci_with_a_bad_pk_u_aborts_at_hn_identify(name, pk_u):
    rng = SeededRandom(8)
    world = sim.make_world(name, seed=rng)
    to_hn, _sid = sn_mod.sn_forward_identification(
        world.sn, wire.decode(_forged_id_response(world, pk_u, rng)), rng)
    supi, got_pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    assert (supi, got_pk_u) == (world.ue.supi, pk_u)
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    assert world.hn.pending == {}
    world.sn.pending.clear()

    forged = _forged_id_response(world, pk_u, rng)
    attacker = sim.ScriptedAttacker({"id-response": lambda data, ctx: forged})
    outcome = sim.run_session(world, "supi", attacker, rng)
    assert outcome.abort_step == "hn-identify"
    last = outcome.transcript.entries[-1]
    assert (last.channel, last.annotation) == (sim.CORE, "hn-abort")
    assert world.sn.pending == {} and world.hn.pending == {}


def test_registry_persistence_roundtrip(tmp_path):
    registry = {
        "imsi-1": hn_mod.SubscriberRecord(supi="imsi-1", k=b"\x01" * 32),
        "imsi-2": hn_mod.SubscriberRecord(supi="imsi-2", k=b"\x02" * 32,
                                          k_s=b"\x03" * 32),
    }
    path = str(tmp_path / "registry.db")
    hn_mod.save_registry(path, registry)
    loaded = hn_mod.load_registry(path)
    assert loaded.keys() == registry.keys()
    for supi in registry:
        assert loaded[supi].k == registry[supi].k
        assert loaded[supi].k_s == registry[supi].k_s


def test_finalize_persists_when_configured(world, rng, tmp_path):
    world.hn.persist_path = str(tmp_path / "registry.db")
    outcome = sim.run_session(world, "supi", rng=rng)
    assert outcome.completed
    loaded = hn_mod.load_registry(world.hn.persist_path)
    assert loaded[world.ue.supi].k_s == world.hn.registry[world.ue.supi].k_s


def test_sk_h_never_crosses_any_channel(world, rng):
    sk_h = world.hn.kem_pair.sk
    for mode in ("supi", "guti"):
        outcome = sim.run_session(world, mode, rng=rng)
        assert outcome.completed
        for entry in outcome.transcript.entries:
            assert sk_h not in entry.data
