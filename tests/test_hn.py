"""HN operations: identification, vector derivation, ratchet staging."""

import copy
import dataclasses

import pytest

from pqaka import crypto, hn as hn_mod, sim, sn as sn_mod, ue as ue_mod, wire
from pqaka.rng import SeededRandom


def _ident_msg(world, rng):
    msg = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    return to_hn, sid


def test_identify_recovers_supi_and_pk(world, rng):
    to_hn, _sid = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    assert supi == world.ue.supi
    assert pk_u == world.ue.ephemeral.pk
    assert record is world.hn.registry[supi]


def test_identify_rejects_wrong_claimed_sn(world, rng):
    to_hn, _sid = _ident_msg(world, rng)
    world.hn.sn_allowlist.add("other-sn.example")
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, to_hn, "other-sn.example")


def test_identify_rejects_unlisted_sn(world, rng):
    to_hn, _sid = _ident_msg(world, rng)
    world.hn.sn_allowlist.clear()
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)


def test_identify_rejects_zeroed_mac(world, rng):
    to_hn, _sid = _ident_msg(world, rng)
    bad = wire.SnToHnIdentMsg(
        c1=to_hn.c1, suci_conc=to_hn.suci_conc, mac_u=bytes(32), r_sn=to_hn.r_sn)
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, bad, world.sn.id_sn)


def test_identify_rejects_tampered_ciphertext(world, rng):
    to_hn, _sid = _ident_msg(world, rng)
    bad = wire.SnToHnIdentMsg(
        c1=to_hn.c1,
        suci_conc=bytes([to_hn.suci_conc[0] ^ 1]) + to_hn.suci_conc[1:],
        mac_u=to_hn.mac_u, r_sn=to_hn.r_sn)
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, bad, world.sn.id_sn)


def test_identify_rejects_unknown_subscriber(world, rng):
    to_hn, _sid = _ident_msg(world, rng)
    del world.hn.registry[world.ue.supi]
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)


def test_all_aborts_share_one_code(world, rng):
    """Each cause raises the same exception, carrying nothing of the cause."""
    raised = set()
    for mutate in ("mac", "registry", "sn"):
        w = sim.make_world("test", seed=0)
        to_hn, _sid = _ident_msg(w, SeededRandom(1))
        if mutate == "mac":
            to_hn = wire.SnToHnIdentMsg(c1=to_hn.c1, suci_conc=to_hn.suci_conc,
                                        mac_u=bytes(32), r_sn=to_hn.r_sn)
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
    to_hn, sid = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng, sid)
    pending = world.hn.pending[sid]
    # AUTN CONC must unmask to the forwarded R_SN under the subscriber key
    k_star = crypto.as_shared_key(
        crypto.kem_decaps(world.suite, world.ue.ephemeral.sk, vector.c2))
    ak = crypto.prf_f("5", record.k, [k_star])
    assert crypto.xor_bytes(vector.autn.conc, ak) == to_hn.r_sn
    assert vector.hxres_star == crypto.hash_h([to_hn.r_sn, pending.xres_star])
    # M opens under K3 = XRES* xor f5 to the anchored key and identity
    k3 = crypto.xor_bytes(pending.xres_star, ak)
    k_seaf, supi_in_m = wire.unpack_m_payload(crypto.aead_open(k3, vector.m))
    assert (k_seaf, supi_in_m) == (pending.k_seaf, supi)


def test_auth_vector_carries_no_session_secrets(world, rng):
    to_hn, sid = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng, sid)
    pending = world.hn.pending[sid]
    k_star = crypto.as_shared_key(
        crypto.kem_decaps(world.suite, world.ue.ephemeral.sk, vector.c2))
    k3 = crypto.xor_bytes(pending.xres_star,
                          crypto.prf_f("5", record.k, [k_star]))
    secrets = {k3, pending.xres_star, pending.k_seaf}
    for f in dataclasses.fields(vector):
        assert getattr(vector, f.name) not in secrets, f.name


def test_guti_vector_zero_rprime_reuses_ratchet_key(world, rng):
    record = world.hn.registry[world.ue.supi]
    record.k_s = SeededRandom(11).bytes(32)
    r_sn = SeededRandom(12).bytes(32)
    msg = wire.GutiSnToHnMsg(supi=world.ue.supi, r_sn_prime=bytes(32), r_sn=r_sn)
    vector = hn_mod.hn_guti_auth_vector(world.hn, msg, world.sn.id_sn, b"sid1")
    # with R' = 0 the derived key K* equals the stored ratchet key
    assert vector.autn.mac == crypto.prf_f("1", record.k, [record.k_s, r_sn])
    assert vector.c2 is None


def test_guti_vector_requires_ratchet_key(world):
    msg = wire.GutiSnToHnMsg(supi=world.ue.supi, r_sn_prime=bytes(32),
                             r_sn=bytes(32))
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_guti_auth_vector(world.hn, msg, world.sn.id_sn, b"sid")
    with pytest.raises(hn_mod.IdentificationAbort):
        hn_mod.hn_guti_auth_vector(world.hn, msg, "nosuch-sn", b"sid")


def test_finalize_commits_staged_key(world, rng):
    to_hn, sid = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn,
                          rng, sid)
    pending = world.hn.pending[sid]
    assert pending.k_s_new is not None and record.k_s is None
    assert hn_mod.hn_finalize(world.hn, sid) == pending.k_seaf
    assert record.k_s == pending.k_s_new
    assert sid not in world.hn.pending


def test_finalize_twice_second_ignored(world, rng):
    to_hn, sid = _ident_msg(world, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    hn_mod.hn_auth_vector(world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn,
                          rng, sid)
    assert hn_mod.hn_finalize(world.hn, sid) is not None
    snapshot = (record.k_s, dict(world.hn.pending))
    assert hn_mod.hn_finalize(world.hn, sid) is None
    assert (record.k_s, world.hn.pending) == snapshot


# --- overlapping sessions of one subscriber ---------------------------------

def _run_until(steps, label):
    """Pass a session's radio messages through until it yields `label`;
    return the bytes of that message, which is held."""
    message = next(steps)
    while message[0] != label:
        message = steps.send(message[1])
    return message[1]


def _finish(steps, delivered):
    """Deliver `delivered` for the held message, pass the rest through and
    return the session's outcome."""
    try:
        while True:
            delivered = steps.send(delivered)[1]
    except StopIteration as stop:
        return stop.value


def _assert_ratchet_in_step(world, rng):
    assert world.ue.k_s == world.hn.registry[world.ue.supi].k_s is not None
    for _ in range(3):
        outcome = sim.run_session(world, "guti", rng=rng)
        assert outcome.completed and outcome.key_source == "guti"


def test_overlapping_guti_sessions_keep_ratchet_in_step(world, rng):
    assert sim.run_session(world, "supi", rng=rng).completed
    a = sim.session(world, "guti", rng)
    challenge_a = _run_until(a, "challenge")                # held back
    b = sim.session(world, "guti", rng)
    _run_until(b, "response")
    assert _finish(b, None).abort_step == "response"        # B's response lost
    outcome = _finish(a, challenge_a)
    assert outcome.completed and outcome.key_source == "guti"
    _assert_ratchet_in_step(world, rng)


@pytest.mark.parametrize("mode", ["supi", "guti"])
def test_overlapped_sessions_each_report_their_own_ue_key(world, rng, mode):
    """The UE answers A's challenge, then B's; A's response arrives first.
    A reports the key its own challenge gave the UE, its assignment, sealed
    under that key, fails to open at the UE, which now holds B's, and B's
    assignment commits."""
    assert sim.run_session(world, "supi", rng=rng).completed
    a = sim.session(world, mode, rng)
    response_a = _run_until(a, "response")                  # held back
    b = sim.session(world, mode, rng)
    response_b = _run_until(b, "response")                  # held back
    outcomes = [_finish(a, response_a), _finish(b, response_b)]
    for outcome in outcomes:
        assert outcome.completed and outcome.key_source == mode
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn
    assert outcomes[0].k_seaf_ue != outcomes[1].k_seaf_ue
    assert [o.assignment_delivered for o in outcomes] == [False, True]
    _assert_ratchet_in_step(world, rng)


def test_replayed_suci_during_supi_session_keeps_ratchet_in_step(world, rng):
    earlier = sim.run_session(world, "supi", rng=rng)
    old = next(e.data for e in earlier.transcript.radio_entries()
               if e.annotation == "id-response")
    honest = sim.session(world, "supi", rng)
    challenge = _run_until(honest, "challenge")             # held back
    # the attacker replays the recorded SUCI from its own device
    device = sim.World(ue=copy.deepcopy(world.ue), sn=world.sn, hn=world.hn,
                       suite=world.suite)
    replay = sim.session(device, "supi", rng)
    _run_until(replay, "id-response")
    assert replay.send(old)[0] == "challenge"               # HN built a vector
    assert _finish(honest, challenge).completed
    _assert_ratchet_in_step(world, rng)


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
