"""UE operations: identification, challenge processing, ratchet commit."""

import copy
import dataclasses

import pytest

from drive import fields_holding, finish, keeping_pairs, run_until, to_challenge
from golden import SESSION_WIRE, SESSION_VALUES
from pqaka import crypto, hn as hn_mod, sim, sn as sn_mod, ue as ue_mod, wire
from pqaka.rng import SeededRandom


def test_id_response_seed0_matches_independent_composition(world):
    msg, pair = ue_mod.ue_identification_response(world.ue, SeededRandom(1))
    assert wire.encode(msg) == SESSION_WIRE["id-response"]
    assert pair.sk == SESSION_VALUES["sk_u"]
    assert pair.pk == SESSION_VALUES["pk_u"]


def test_key_schedule_matches_independent_oracle():
    world = sim.make_world("test", seed=0)
    outcome = sim.run_session(world, "supi", rng=SeededRandom(1))
    assert outcome.completed and outcome.k_seaf_ue == SESSION_VALUES["k_seaf"]
    assert (world.ue.k_s == world.hn.registry[world.ue.supi].k_s
            == SESSION_VALUES["k_s_next"])
    r_sn = wire.decode(SESSION_WIRE["sn-hn-ident"]).r_sn
    conc = wire.decode(SESSION_WIRE["challenge"]).conc
    assert crypto.session_keys(
        crypto.prf_key(SESSION_VALUES["k"]), SESSION_VALUES["k_star"], r_sn, conc,
        "sn.example") == (SESSION_VALUES["res_star"], SESSION_VALUES["k_seaf"],
                          SESSION_VALUES["k_s_next"])


def test_id_response_fresh_per_call(world):
    a, pair_a = ue_mod.ue_identification_response(world.ue, SeededRandom(1))
    b, pair_b = ue_mod.ue_identification_response(world.ue, SeededRandom(2))
    assert a.c1 != b.c1 and a.suci_conc != b.suci_conc
    assert a.mac_u != b.mac_u and pair_a.pk != pair_b.pk


def test_hn_recovers_identity_from_honest_response(world, rng):
    msg, pair = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, _sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    assert supi == world.ue.supi
    assert pk_u == pair.pk
    assert record.k == world.ue.k


def test_honest_challenge_response_matches_expected(world, rng):
    _msg, pair, sid, _vector, challenge = to_challenge(world, rng)
    k_star = crypto.kem_decaps(world.suite, pair, challenge.c2)
    xres_star, _, _ = crypto.session_keys(
        crypto.prf_key(world.hn.registry[world.ue.supi].k), k_star, sid,
        challenge.conc, world.sn.id_sn)
    accepted = ue_mod.ue_process_challenge(world.ue, challenge, pair)
    assert accepted is not None
    response, k_seaf, k_s_new = accepted
    hn_pending = world.hn.pending[sid]
    assert response.res_star == xres_star
    assert (k_seaf, k_s_new) == (hn_pending.k_seaf, hn_pending.k_s_new)


def test_single_bit_flips_cause_silent_abort_sampled(world, rng):
    _msg, pair, _sid, _vector, challenge = to_challenge(world, rng)
    mac_at, c2_at = len(challenge.conc), len(challenge.conc) + len(challenge.mac)
    raw = challenge.conc + challenge.mac + challenge.c2
    total_bits = len(raw) * 8
    for bit in range(0, total_bits, 37):   # exhaustively covered in acceptance
        mutated = bytearray(raw)
        mutated[bit // 8] ^= 1 << (bit % 8)
        ue = copy.deepcopy(world.ue)
        ch = wire.ChallengeMsg(conc=bytes(mutated[:mac_at]), mac=bytes(mutated[mac_at:c2_at]),
                               c2=bytes(mutated[c2_at:]))
        assert ue_mod.ue_process_challenge(ue, ch, pair) is None
        assert ue == world.ue


def test_replayed_challenge_against_fresh_ephemeral_aborts(world, rng):
    _msg, _pair, _sid, _vector, old_challenge = to_challenge(world, rng)
    # new identification: fresh sk_U; the old (c2, AUTN) no longer matches
    _msg, fresh = ue_mod.ue_identification_response(world.ue, rng)
    assert ue_mod.ue_process_challenge(world.ue, old_challenge, fresh) is None


def test_challenge_without_ephemeral_aborts(world):
    """A SUPI challenge in a session that drew no sk_U."""
    ch = wire.ChallengeMsg(conc=bytes(16), mac=bytes(16), c2=bytes(32))
    assert ue_mod.ue_process_challenge(world.ue, ch, None) is None


@pytest.mark.parametrize("bad", ["short-c2", "guti-without-k_s"])
def test_bad_second_challenge_aborts_silently_and_clears_session(world, rng, bad):
    """A second challenge in a session that drew sk_U, with a c2 that does
    not decapsulate or with none (a GUTI challenge), aborts; the UE's state
    holds nothing of the session, before or after."""
    _msg, pair, _sid, _vector, challenge = to_challenge(world, rng)
    before = copy.deepcopy(world.ue)
    assert ue_mod.ue_process_challenge(world.ue, challenge, pair) is not None
    c2 = challenge.c2[:-1] if bad == "short-c2" else None
    assert world.ue == before
    assert ue_mod.ue_process_challenge(
        world.ue, dataclasses.replace(challenge, c2=c2), pair) is None
    assert world.ue == before


_ALLOWING = wire.IdRequestMsg(force_supi=False)


def test_guti_identification_requires_ratchet_state(world):
    assert ue_mod.ue_guti_identification(world.ue, _ALLOWING, True) is None  # no GUTI yet
    world.ue.guti = bytes(wire.GUTI_LEN)
    assert ue_mod.ue_guti_identification(world.ue, _ALLOWING, True) is None  # k_s missing
    world.ue.k_s = bytes(32)
    world.ue.r_sn_prime = bytes(32)
    msg = ue_mod.ue_guti_identification(world.ue, _ALLOWING, True)
    assert msg == wire.GutiIdMsg(guti=bytes(wire.GUTI_LEN))


@pytest.mark.parametrize("req, first", [
    pytest.param(wire.IdRequestMsg(force_supi=True), True, id="forcing-request"),
    pytest.param(wire.ResponseMsg(res_star=bytes(crypto.CHECK_LEN)), True, id="foreign-type"),
    pytest.param(_ALLOWING, False, id="second-round")])
def test_guti_identification_answers_only_a_first_request_allowing_one(world, rng, req, first):
    """A UE that holds a GUTI sends it only in answer to a first request that
    allows one; to any other request it returns None, the SUPI path."""
    assert sim.run_session(world, "supi", rng=rng).completed
    assert ue_mod.ue_guti_identification(world.ue, _ALLOWING, True) is not None
    assert ue_mod.ue_guti_identification(world.ue, req, first) is None


def test_guti_path_challenge_uses_ratchet_key(world, rng):
    outcome = sim.run_session(world, "supi", rng=rng)
    assert outcome.completed and world.ue.k_s is not None
    outcome2 = sim.run_session(world, "guti", rng=rng)
    assert outcome2.completed and outcome2.key_source == "guti"
    assert outcome2.k_seaf_ue == outcome2.k_seaf_hn


def test_assignment_commits_pending_ratchet(world, rng):
    _msg, pair, _sid, _vector, challenge = to_challenge(world, rng)
    _response, k_seaf, k_s_new = ue_mod.ue_process_challenge(world.ue, challenge, pair)
    assert world.ue.k_s is None
    ue_mod.ue_handle_guti_assignment(world.ue, b"\x01" * wire.GUTI_LEN, k_seaf, k_s_new)
    assert world.ue.guti == b"\x01" * wire.GUTI_LEN
    assert world.ue.r_sn_prime == crypto.r_sn_prime(k_seaf)
    assert world.ue.k_s == k_s_new


def test_three_guti_sessions_keep_ratchet_agreement(world, rng):
    assert sim.run_session(world, "supi", rng=rng).completed
    record = world.hn.registry[world.ue.supi]
    for _ in range(3):
        outcome = sim.run_session(world, "guti", rng=rng)
        assert outcome.completed and outcome.key_source == "guti"
        assert world.ue.k_s == record.k_s


@pytest.mark.parametrize("tamper", [False, True], ids=["completed", "aborted"])
def test_ue_holds_no_key_handle_after_session(tamper):
    """sk_U's loaded key lives in the session's pair; neither the UE's state
    nor the outcome holds the pair or its sk_U."""
    rng = SeededRandom(7)
    world = sim.make_world("ecies-x25519", seed=rng)
    pairs = []

    def on_challenge(data, ctx):
        return data[:-1] + bytes([data[-1] ^ 1]) if tamper else data

    tap = sim.ScriptedAttacker({"challenge": on_challenge})
    outcome = sim.run_session(world, "supi", tap, rng, ue_mod=keeping_pairs(pairs))
    assert [pair.handle is not None for pair in pairs] == [True]
    assert outcome.abort_step == ("ue-challenge" if tamper else None)
    assert fields_holding(world.ue, pairs) == fields_holding(outcome, pairs) == []
    for f in dataclasses.fields(ue_mod.UeState):
        value = getattr(world.ue, f.name)
        assert value is None or isinstance(value, (bytes, str, crypto.KemSuite)), f.name


@pytest.mark.parametrize("mode,label", [
    ("supi", "challenge"), ("supi", "response"), ("supi", "guti-assign"),
    ("fallback", "challenge"), ("fallback", "response"), ("fallback", "guti-assign"),
])
def test_ue_drops_sk_u_when_session_ends_after_id_response(mode, label):
    """However a session ends once sk_U is drawn, the UE's state does not
    hold it."""
    rng = SeededRandom(8)
    world = sim.make_world("ecies-x25519", seed=rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    if mode == "fallback":
        world.sn.guti_table.clear()      # the SN forgot the UE's GUTI
    pairs = []
    outcome = sim.run_session(world, "guti" if mode == "fallback" else "supi",
                              sim.ScriptedAttacker({label: lambda data, ctx: None}), rng,
                              ue_mod=keeping_pairs(pairs))
    assert len(pairs) == 1
    assert outcome.abort_step == (None if label == "guti-assign" else label)
    assert fields_holding(world.ue, pairs) == []


def test_ending_session_leaves_an_overlapping_sessions_sk_u(world, rng):
    """B's sk_U, held by B alone, outlives A's end and opens B's challenge."""
    pairs = []
    a = sim.session(world, "supi", rng, ue_mod=keeping_pairs(pairs))
    run_until(a, "challenge")
    b = sim.session(world, "supi", rng, ue_mod=keeping_pairs(pairs))
    challenge_b = run_until(b, "challenge")
    assert finish(a, None).abort_step == "challenge"     # A's challenge is lost
    assert finish(b, challenge_b).completed
    assert len(pairs) == 2 and fields_holding(world.ue, pairs) == []
