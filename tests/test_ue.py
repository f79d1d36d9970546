"""UE operations: identification, challenge processing, ratchet commit."""

import copy
import dataclasses

import pytest

from golden import SESSION_WIRE, SESSION_VALUES
from pqaka import crypto, hn as hn_mod, sim, sn as sn_mod, ue as ue_mod, wire
from pqaka.rng import SeededRandom


def _identified(world, rng):
    """Run the flow up to the challenge by direct module calls."""
    msg = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng, sid)
    challenge = sn_mod.sn_forward_challenge(world.sn, sid, vector)
    return msg, sid, vector, challenge


def test_id_response_seed0_matches_independent_composition(world):
    msg = ue_mod.ue_identification_response(world.ue, SeededRandom(1))
    assert wire.encode(msg) == SESSION_WIRE["id-response"]
    assert world.ue.ephemeral.sk == SESSION_VALUES["sk_u"]
    assert world.ue.ephemeral.pk == SESSION_VALUES["pk_u"]


def test_key_schedule_matches_independent_oracle():
    world = sim.make_world("test", seed=0)
    outcome = sim.run_session(world, "supi", rng=SeededRandom(1))
    assert outcome.completed and world.ue.k_seaf == SESSION_VALUES["k_seaf"]
    assert (world.ue.k_s == world.hn.registry[world.ue.supi].k_s
            == SESSION_VALUES["k_s_next"])
    r_sn = wire.decode(SESSION_WIRE["sn-hn-ident"]).r_sn
    conc = wire.decode(SESSION_WIRE["challenge"]).autn.conc
    assert crypto.session_keys(
        SESSION_VALUES["k"], SESSION_VALUES["k_star"], r_sn, conc,
        "sn.example") == (SESSION_VALUES["res_star"], SESSION_VALUES["k_seaf"],
                          SESSION_VALUES["k_s_next"])


def test_id_response_requires_hn_key(world):
    world.ue.pk_h = None
    with pytest.raises(ue_mod.ConfigurationError):
        ue_mod.ue_identification_response(world.ue, SeededRandom(1))


def test_id_response_fresh_per_call(world):
    a = ue_mod.ue_identification_response(world.ue, SeededRandom(1))
    pk_a = world.ue.ephemeral.pk
    b = ue_mod.ue_identification_response(world.ue, SeededRandom(2))
    pk_b = world.ue.ephemeral.pk
    assert a.c1 != b.c1 and a.suci_conc != b.suci_conc
    assert a.mac_u != b.mac_u and pk_a != pk_b


def test_hn_recovers_identity_from_honest_response(world, rng):
    msg = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, _sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    assert supi == world.ue.supi
    assert pk_u == world.ue.ephemeral.pk
    assert record.k == world.ue.k


def test_honest_challenge_response_matches_expected(world, rng):
    _msg, sid, _vector, challenge = _identified(world, rng)
    response = ue_mod.ue_process_challenge(world.ue, challenge)
    assert response is not None
    hn_pending = world.hn.pending[sid]
    assert response.res_star == hn_pending.xres_star
    assert world.ue.k_seaf == hn_pending.k_seaf


def test_single_bit_flips_cause_silent_abort_sampled(world, rng):
    _msg, _sid, _vector, challenge = _identified(world, rng)
    raw = challenge.autn.raw + challenge.c2
    total_bits = len(raw) * 8
    for bit in range(0, total_bits, 37):   # exhaustively covered in acceptance
        mutated = bytearray(raw)
        mutated[bit // 8] ^= 1 << (bit % 8)
        ue = copy.deepcopy(world.ue)
        ch = wire.ChallengeMsg(
            autn=wire.Autn.from_raw(bytes(mutated[:64])), c2=bytes(mutated[64:]))
        assert ue_mod.ue_process_challenge(ue, ch) is None
        assert ue.ephemeral is None and ue.k_s_pending is None


def test_replayed_challenge_against_fresh_ephemeral_aborts(world, rng):
    _msg, _sid, _vector, old_challenge = _identified(world, rng)
    # new identification: fresh sk_U; the old (c2, AUTN) no longer matches
    ue_mod.ue_identification_response(world.ue, rng)
    assert ue_mod.ue_process_challenge(world.ue, old_challenge) is None


def test_challenge_without_ephemeral_aborts(world):
    ch = wire.ChallengeMsg(
        autn=wire.Autn(conc=bytes(32), mac=bytes(32)), c2=bytes(32))
    assert world.ue.ephemeral is None
    assert ue_mod.ue_process_challenge(world.ue, ch) is None


@pytest.mark.parametrize("bad", ["short-c2", "guti-without-k_s"])
def test_bad_second_challenge_aborts_silently_and_clears_session(world, rng, bad):
    _msg, _sid, _vector, challenge = _identified(world, rng)
    assert ue_mod.ue_process_challenge(world.ue, challenge) is not None
    assert world.ue.k_s_pending is not None and world.ue.ephemeral is not None
    c2 = challenge.c2[:-1] if bad == "short-c2" else None
    assert world.ue.k_s is None
    assert ue_mod.ue_process_challenge(
        world.ue, wire.ChallengeMsg(autn=challenge.autn, c2=c2)) is None
    assert world.ue.k_s_pending is None and world.ue.ephemeral is None


def test_guti_identification_requires_ratchet_state(world):
    assert ue_mod.ue_guti_identification(world.ue) is None  # no GUTI yet
    world.ue.guti = bytes(16)
    assert ue_mod.ue_guti_identification(world.ue) is None  # k_s missing
    world.ue.k_s = bytes(32)
    world.ue.r_sn_prime = bytes(32)
    msg = ue_mod.ue_guti_identification(world.ue)
    assert msg == wire.GutiIdMsg(guti=bytes(16))


def test_guti_path_challenge_uses_ratchet_key(world, rng):
    outcome = sim.run_session(world, "supi", rng=rng)
    assert outcome.completed and world.ue.k_s is not None
    outcome2 = sim.run_session(world, "guti", rng=rng)
    assert outcome2.completed and outcome2.key_source == "guti"
    assert outcome2.k_seaf_ue == outcome2.k_seaf_hn


def test_assignment_commits_pending_ratchet(world, rng):
    _msg, _sid, vector, challenge = _identified(world, rng)
    ue_mod.ue_process_challenge(world.ue, challenge)
    pending = world.ue.k_s_pending
    assert pending is not None
    assign = wire.GutiAssignMsg(guti_new=b"\x01" * 16, r_sn_prime_new=b"\x02" * 32)
    ue_mod.ue_handle_guti_assignment(world.ue, assign)
    assert world.ue.guti == b"\x01" * 16
    assert world.ue.r_sn_prime == b"\x02" * 32
    assert world.ue.k_s == pending
    assert world.ue.k_s_pending is None and world.ue.ephemeral is None


def test_duplicate_assignment_ignored(world, rng):
    _msg, _sid, _vector, challenge = _identified(world, rng)
    ue_mod.ue_process_challenge(world.ue, challenge)
    first = wire.GutiAssignMsg(guti_new=b"\x01" * 16, r_sn_prime_new=b"\x02" * 32)
    ue_mod.ue_handle_guti_assignment(world.ue, first)
    snapshot = (world.ue.guti, world.ue.r_sn_prime, world.ue.k_s)
    second = wire.GutiAssignMsg(guti_new=b"\x03" * 16, r_sn_prime_new=b"\x04" * 32)
    ue_mod.ue_handle_guti_assignment(world.ue, second)
    assert (world.ue.guti, world.ue.r_sn_prime, world.ue.k_s) == snapshot


def test_three_guti_sessions_keep_ratchet_agreement(world, rng):
    assert sim.run_session(world, "supi", rng=rng).completed
    record = world.hn.registry[world.ue.supi]
    for _ in range(3):
        outcome = sim.run_session(world, "guti", rng=rng)
        assert outcome.completed and outcome.key_source == "guti"
        assert world.ue.k_s == record.k_s


@pytest.mark.parametrize("tamper", [False, True], ids=["completed", "aborted"])
def test_ue_holds_no_key_handle_after_session(tamper):
    """sk_U's loaded key lives in the ephemeral pair and goes with it."""
    rng = SeededRandom(7)
    world = sim.make_world("ecies-x25519", seed=rng)
    held = []

    def on_challenge(data, ctx):
        held.append(world.ue.ephemeral.handle is not None)
        return data[:-1] + bytes([data[-1] ^ 1]) if tamper else data

    tap = sim.ScriptedAttacker({"challenge": on_challenge})
    outcome = sim.run_session(world, "supi", tap, rng)
    assert held == [True]
    assert outcome.abort_step == ("ue-challenge" if tamper else None)
    for f in dataclasses.fields(ue_mod.UeState):
        value = getattr(world.ue, f.name)
        assert value is None or isinstance(value, (bytes, str, crypto.KemSuite)), f.name


@pytest.mark.parametrize("mode,label", [
    ("supi", "challenge"), ("supi", "response"), ("supi", "guti-assign"),
    ("fallback", "challenge"), ("fallback", "response"), ("fallback", "guti-assign"),
])
def test_ue_drops_sk_u_when_session_ends_after_id_response(mode, label):
    """However a session ends once sk_U is drawn, the UE no longer holds it."""
    rng = SeededRandom(8)
    world = sim.make_world("ecies-x25519", seed=rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    if mode == "fallback":
        world.sn.guti_table.clear()      # the SN forgot the UE's GUTI
    held = []

    def drop(data, ctx):
        held.append(world.ue.ephemeral is not None)
        return None

    outcome = sim.run_session(world, "guti" if mode == "fallback" else "supi",
                              sim.ScriptedAttacker({label: drop}), rng)
    assert held == [True]
    assert outcome.abort_step == (None if label == "guti-assign" else label)
    assert world.ue.ephemeral is None


def test_ending_session_leaves_an_overlapping_sessions_sk_u(world, rng):
    def to_challenge(steps):
        message = next(steps)
        while message[0] != "challenge":
            message = steps.send(message[1])
        return message[1]

    a = sim.session(world, "supi", rng)
    to_challenge(a)
    b = sim.session(world, "supi", rng)
    challenge_b = to_challenge(b)
    pair_b = world.ue.ephemeral
    with pytest.raises(StopIteration) as stop:
        a.send(None)                     # A's challenge is lost
    assert stop.value.value.abort_step == "challenge"
    assert world.ue.ephemeral is pair_b
    message = b.send(challenge_b)
    while True:
        try:
            message = b.send(message[1])
        except StopIteration as stop:
            assert stop.value.completed
            break
