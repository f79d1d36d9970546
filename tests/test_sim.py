"""Session driver: transcripts, the radio tap, abort paths, returned values."""

import dataclasses

import pytest

from drive import fields_holding, finish, keeping_pairs, run_until
from pqaka import attacks, crypto, hn as hn_mod, sim, sn as sn_mod, store, ue as ue_mod, wire
from pqaka.rng import SeededRandom


def test_identical_seeds_identical_transcripts():
    lines = []
    for _ in range(2):
        world = sim.make_world("test", seed=0)
        outcome = sim.run_session(world, "supi", rng=SeededRandom(1))
        lines.append(outcome.transcript.to_lines())
    assert lines[0] == lines[1]


def test_a_draw_under_a_new_label_moves_no_other_value():
    """Each use draws from its own labelled stream, so a UE that draws a
    nonce under a new label before its SUCI leaves every seeded value where
    it was: those of its SUPI session, and of the GUTI session after it."""
    def identification_response(state, rng):
        rng.stream("n_u").bytes(16)
        return ue_mod.ue_identification_response(state, rng)

    drawing = attacks.Weakened(ue_mod, ue_identification_response=identification_response)
    lines = []
    for roles in (ue_mod, drawing):
        world, rng = sim.make_world("test", seed=0), SeededRandom(1)
        outcomes = [sim.run_session(world, mode, rng=rng, ue_mod=roles)
                    for mode in ("supi", "guti")]
        assert [o.key_source for o in outcomes] == ["supi", "guti"]
        lines.append(sim.export_transcript(outcomes))
    assert lines[0] == lines[1]


def test_honest_supi_session_shape(world, rng):
    outcome = sim.run_session(world, "supi", rng=rng)
    assert outcome.completed
    assert len(outcome.transcript.entries) == 8
    annotations = [e.annotation for e in outcome.transcript.entries]
    assert annotations == [
        "id-request", "id-response", "sn-hn-ident", "auth-vector",
        "challenge", "response", "confirm", "guti-assign"]
    assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn
    assert outcome.k_seaf_ue is not None
    assert outcome.supi_at_sn == world.ue.supi
    assert outcome.assignment_delivered


def test_honest_guti_session_has_no_c2(world, rng):
    assert sim.run_session(world, "supi", rng=rng).completed
    outcome = sim.run_session(world, "guti", rng=rng)
    assert outcome.completed and outcome.key_source == "guti"
    ch = next(wire.decode(e.data) for e in outcome.transcript.entries
              if e.annotation == "challenge")
    assert ch.c2 is None


# one honest session's communication cost per suite and path, as (radio,
# core) bytes, and the radio size of each of its messages; the core bytes
# are sn-hn-ident 121 (sn-hn-guti 59), auth-vector 126 (83) and confirm 1.
# Every variable-length field here is under 128 B: its length is one byte.
SESSION_BYTES = {
    "test": {"supi": (215, 248), "guti": (79, 143)},
    "ecies-x25519": {"supi": (215, 248), "guti": (79, 143)},
    "ecies-p256": {"supi": (218, 251), "guti": (79, 143)},
}
RADIO_MESSAGE_BYTES = {
    "supi": {"id-request": 2, "id-response": 108, "challenge": 67,
             "response": 17, "guti-assign": 21},
    "guti": {"id-request": 2, "guti-id": 5, "challenge": 34,
             "response": 17, "guti-assign": 21},
}
# a compressed P-256 point (c1, pk_U, c2) is one byte longer than an X25519 key
P256_SUPI_RADIO_BYTES = {"id-response": 110, "challenge": 68}


@pytest.mark.parametrize("suite", list(SESSION_BYTES))
def test_session_communication_cost_pinned(suite):
    rng = SeededRandom(0)
    world = sim.make_world(suite, seed=rng)
    for path in ("supi", "guti"):    # the GUTI session uses the GUTI just assigned
        outcome = sim.run_session(world, path, rng=rng)
        assert outcome.completed and outcome.key_source == path
        radio = {e.annotation: len(e.data) for e in outcome.transcript.entries
                 if e.channel == sim.RADIO}
        core = sum(len(e.data) for e in outcome.transcript.entries
                   if e.channel == sim.CORE)
        want = dict(RADIO_MESSAGE_BYTES[path])
        if (suite, path) == ("ecies-p256", "supi"):
            want.update(P256_SUPI_RADIO_BYTES)
        assert radio == want
        assert (sum(radio.values()), core) == SESSION_BYTES[suite][path]


@pytest.mark.parametrize("suite", ["test", "ecies-x25519"])
def test_r_sn_prime_agreed_at_every_end_and_never_sent(suite):
    """Along SUPI -> GUTI -> GUTI, the UE's R_SN', the SN's stored one, the
    one the next sn-hn-guti carries to the HN and the one derived from the
    session's K_seaf are the same 32 bytes, and no radio entry holds them."""
    rng = SeededRandom(12)
    world = sim.make_world(suite, seed=rng)
    outcomes, derived = [], []
    for mode in ("supi", "guti", "guti"):
        out = sim.run_session(world, mode, rng=rng)
        assert out.completed and out.key_source == mode and out.assignment_delivered
        if derived:       # the HN gets the previous session's R_SN' from the SN
            (to_hn,) = [wire.decode(e.data) for e in out.transcript.entries
                        if e.annotation == "sn-hn-guti"]
            assert to_hn.r_sn_prime == derived[-1]
        r_sn_prime = crypto.r_sn_prime(out.k_seaf_ue)
        assert world.ue.r_sn_prime == world.sn.guti_table[world.ue.guti].r_sn_prime \
            == r_sn_prime
        outcomes.append(out)
        derived.append(r_sn_prime)
    assert len(set(derived)) == 3
    radio = [e.data for out in outcomes for e in out.transcript.radio_entries()]
    assert not any(r in data for r in derived for data in radio)


@pytest.mark.parametrize("suite", ["test", "ecies-x25519"])
def test_stolen_hn_row_does_not_reveal_the_next_guti_session_key(suite):
    """The next GUTI session's K* is K_S xor R_SN', with K_S in the HN's
    store and R_SN' in the SN's. Whoever reads the HN's row (K, K_S) before
    a GUTI session and sees its challenge on the radio still lacks that
    session's K_seaf; only with the SN's R_SN' added does it follow."""
    rng = SeededRandom(13)
    world = sim.make_world(suite, seed=rng)
    sim.run_session(world, "supi", rng=rng)
    for _ in range(2):
        record = world.hn.registry[world.ue.supi]
        stolen_k, stolen_k_s = crypto.prf_key(record.k), record.k_s
        sn_share = world.sn.guti_table[world.ue.guti].r_sn_prime
        out = sim.run_session(world, "guti", rng=rng)
        assert out.completed and out.key_source == "guti"
        (ch,) = [wire.decode(e.data) for e in out.transcript.radio_entries()
                 if e.annotation == "challenge"]

        def k_seaf_from(k_star):
            r_sn = crypto.xor_bytes(ch.conc, crypto.prf_f("5", stolen_k, [k_star]))
            return crypto.session_keys(stolen_k, k_star, r_sn, ch.conc,
                                       world.sn.id_sn)[1]

        assert k_seaf_from(stolen_k_s) != out.k_seaf_ue
        # the control: the two stores together do give the session key
        assert k_seaf_from(crypto.xor_bytes(stolen_k_s, sn_share)) == out.k_seaf_ue


def test_guti_mode_without_state_falls_back_to_supi(world, rng):
    outcome = sim.run_session(world, "guti", rng=rng)
    assert outcome.completed and outcome.key_source == "supi"


def test_unknown_guti_triggers_reidentification(world, rng):
    assert sim.run_session(world, "supi", rng=rng).completed
    world.sn.guti_table.clear()     # SN lost the mapping
    outcome = sim.run_session(world, "guti", rng=rng)
    assert outcome.completed and outcome.key_source == "supi"
    annotations = [e.annotation for e in outcome.transcript.entries]
    assert annotations.count("id-request") == 2   # fallback request to the UE


def test_failed_guti_challenge_sends_every_ue_to_supi_alike(world, rng):
    """A victim's GUTI challenge replayed to the victim and to a second UE
    fails at both, and both identify by SUPI next: the failure does not
    tell the two apart."""
    other = sim.World(ue=sim.add_subscriber(world, "imsi-001010000000002", rng),
                      sn=world.sn, hn=world.hn, suite=world.suite)
    for w in (world, other):
        assert sim.run_session(w, "supi", rng=rng).completed
    recorded = sim.run_session(world, "guti", rng=rng)
    assert recorded.completed and recorded.key_source == "guti"
    old = next(e.data for e in recorded.transcript.radio_entries()
               if e.annotation == "challenge")
    replay = sim.ScriptedAttacker({"challenge": lambda data, ctx: old})
    for w in (world, other):
        assert sim.run_session(w, "guti", replay, rng).abort_step == "ue-challenge"
        nxt = sim.run_session(w, "guti", rng=rng)
        assert [e.annotation for e in nxt.transcript.radio_entries()][:2] == [
            "id-request", "id-response"]
        assert nxt.completed and nxt.key_source == "supi"


def _recording(label, sent, drop=False):
    """An attacker that records each `label` message sent, and drops it if drop."""
    def handler(data, ctx):
        sent.append(data)
        return None if drop else data
    return sim.ScriptedAttacker({label: handler})


def test_guti_res_star_is_fresh_after_a_dropped_response(world, rng):
    """RES* binds R_SN: a GUTI session whose response was dropped leaves the
    UE on the same K*, and its next honest GUTI session still sends other
    RES* bytes, so a recorded RES* answers no later challenge."""
    assert sim.run_session(world, "supi", rng=rng).completed
    sent = []
    dropped = sim.run_session(world, "guti", _recording("response", sent, drop=True), rng)
    assert dropped.abort_step == "response"
    again = sim.run_session(world, "guti", _recording("response", sent), rng)
    assert again.completed and again.key_source == "guti"
    assert len(sent) == 2 and sent[0] != sent[1]


def test_recorded_guti_challenge_in_a_supi_session_ends_at_the_ue(world, rng):
    """A UE that drew sk_U this session answers no challenge without c2,
    even one of its own ratchet epoch."""
    assert sim.run_session(world, "supi", rng=rng).completed
    ratchet = (world.ue.k_s, world.ue.r_sn_prime)
    # a GUTI challenge of the UE's current epoch, its response dropped
    recorded = []
    attacker = _recording("challenge", recorded)
    attacker.handlers["response"] = lambda data, ctx: None
    assert sim.run_session(world, "guti", attacker, rng).abort_step == "response"
    (old,) = recorded
    replay = sim.ScriptedAttacker({"challenge": lambda data, ctx: old})
    out = sim.run_session(world, "supi", replay, rng)
    assert out.abort_step == "ue-challenge"
    assert "response" not in [e.annotation for e in out.transcript.radio_entries()]
    assert (world.ue.k_s, world.ue.r_sn_prime) == ratchet


def test_hn_identification_abort_ends_session_and_frees_pending(world, rng):
    def zero_mac(data, ctx):
        return wire.encode(dataclasses.replace(
            wire.decode(data), mac_u=bytes(crypto.AEAD_TAG_OVERHEAD)))

    attacker = sim.ScriptedAttacker({"id-response": zero_mac})
    outcome = sim.run_session(world, "supi", attacker, rng)
    assert not outcome.completed and outcome.abort_step == "hn-identify"
    last = outcome.transcript.entries[-1]
    assert (last.channel, last.annotation) == (sim.CORE, "hn-abort")
    assert last.data == wire.encode(wire.AbortMsg())
    assert world.sn.pending == {} and world.hn.pending == {}


def test_dropped_challenge_aborts_without_commits(world, rng):
    attacker = sim.ScriptedAttacker({"challenge": lambda data, ctx: None})
    outcome = sim.run_session(world, "supi", attacker, rng)
    assert not outcome.completed and outcome.abort_step == "challenge"
    assert outcome.k_seaf_ue is None
    assert world.ue.k_s is None
    assert world.hn.registry[world.ue.supi].k_s is None
    assert world.ue.guti is None


# annotations of an honest run after one SUPI session, per identification
# path; "fallback" is a GUTI run whose GUTI the SN has forgotten
_HONEST = {
    "supi": ["id-request", "id-response", "sn-hn-ident", "auth-vector",
             "challenge", "response", "confirm", "guti-assign"],
    "guti": ["id-request", "guti-id", "sn-hn-guti", "auth-vector",
             "challenge", "response", "confirm", "guti-assign"],
    "fallback": ["id-request", "guti-id", "id-request", "id-response",
                 "sn-hn-ident", "auth-vector", "challenge", "response",
                 "confirm", "guti-assign"],
}
_CORE_LABELS = ("sn-hn-ident", "sn-hn-guti", "auth-vector", "confirm")


class _DropNth(sim.Attacker):
    """Drops the n-th radio message of a session and passes the others."""

    def __init__(self, n: int):
        super().__init__()
        self.n, self.seen = n, 0

    def tap(self, label, data):
        self.seen += 1
        return None if self.seen == self.n + 1 else data


def _provisioned(path):
    world = sim.make_world("test", seed=0)
    rng = SeededRandom(1)
    assert sim.run_session(world, "supi", rng=rng).completed
    if path == "fallback":
        world.sn.guti_table.clear()
    return world, rng, "supi" if path == "supi" else "guti"


def _radio_drops():
    for path, annotations in _HONEST.items():
        radio = [i for i, a in enumerate(annotations) if a not in _CORE_LABELS]
        for n, at in enumerate(radio[:-1]):      # guti-assign: see below
            yield pytest.param(path, n, at, id=f"{path}-{n}-{annotations[at]}")


def _foreign_type(world, rng):
    return wire.encode(wire.ResponseMsg(res_star=bytes(crypto.CHECK_LEN)))


def _known_guti(world, rng):
    """The GUTI the SN holds for a second subscriber of the world."""
    other = sim.World(ue=sim.add_subscriber(world, "imsi-001010000000002", rng),
                      sn=world.sn, hn=world.hn, suite=world.suite)
    assert sim.run_session(other, "supi", rng=rng).completed
    return wire.encode(wire.GutiIdMsg(guti=other.ue.guti))


def test_guessed_guti_earns_one_challenge_and_no_key():
    """An attacker who sends b's GUTI in a's guti-id gets what replaying b's
    own guti-id gives: one challenge that a's UE cannot answer and one
    pending entry per role. b's ratchet stays where it was, and only a,
    who then identifies by SUPI, pays for it."""
    rng = SeededRandom(21)
    world = sim.make_world("test", seed=rng)
    world_b = sim.World(ue=sim.add_subscriber(world, "imsi-001010000000002", rng),
                        sn=world.sn, hn=world.hn, suite=world.suite)
    for w in (world, world_b):
        assert sim.run_session(w, "supi", rng=rng).completed
    k_s_b = world.hn.registry[world_b.ue.supi].k_s
    guessed = wire.encode(wire.GutiIdMsg(guti=world_b.ue.guti))
    attacker = sim.ScriptedAttacker({"guti-id": lambda data, ctx: guessed})
    outcome = sim.run_session(world, "guti", attacker, rng)
    assert outcome.abort_step == "ue-challenge"
    assert world.hn.registry[world_b.ue.supi].k_s == k_s_b
    assert len(world.sn.pending) == len(world.hn.pending) == 1
    assert sim.run_session(world_b, "guti", rng=rng).key_source == "guti"
    assert sim.run_session(world, "guti", rng=rng).key_source == "supi"


@pytest.mark.parametrize("path,forge", [
    pytest.param("supi", _foreign_type, id="supi"),
    pytest.param("fallback", _foreign_type, id="fallback"),
    pytest.param("fallback", _known_guti, id="fallback-known-guti")])
def test_foreign_message_for_id_response_aborts_at_sn_ident(path, forge):
    """A foreign type in place of the id-response gets one label on either
    path, and so does a GUTI, even a known one, in answer to the fallback's
    request; a dropped id-response keeps the label id-response."""
    world, rng, mode = _provisioned(path)
    forged = forge(world, rng)
    attacker = sim.ScriptedAttacker({"id-response": lambda data, ctx: forged})
    outcome = sim.run_session(world, mode, attacker, rng)
    assert not outcome.completed and outcome.abort_step == "sn-ident"
    assert outcome.transcript.entries[-1].data == forged
    assert not any(e.channel == sim.CORE for e in outcome.transcript.entries)
    assert world.sn.pending == {}


def _nth_replaced(n, data):
    """A handler that delivers `data` for the n-th message of its label."""
    seen = []

    def handler(sent, ctx):
        seen.append(sent)
        return data if len(seen) == n else sent
    return handler


@pytest.mark.parametrize("path,n,substitute", [
    pytest.param("guti", 1, wire.ResponseMsg(res_star=bytes(crypto.CHECK_LEN)),
                 id="first-foreign"),
    pytest.param("fallback", 2, wire.IdRequestMsg(force_supi=False),
                 id="fallback-guti-allowed")])
def test_id_request_that_allows_no_guti_gets_a_suci(path, n, substitute):
    """The UE answers with its GUTI only to a first request that allows
    one; any other request it is delivered gets a SUCI."""
    world, rng, mode = _provisioned(path)
    attacker = sim.ScriptedAttacker(
        {"id-request": _nth_replaced(n, wire.encode(substitute))})
    outcome = sim.run_session(world, mode, attacker, rng)
    assert outcome.completed and outcome.key_source == "supi"
    request_at, answer_at = outcome.transcript.radio_entries()[2 * n - 2:2 * n]
    assert request_at.data == wire.encode(substitute)
    assert answer_at.annotation == "id-response"


@pytest.mark.parametrize("suite", ["test", "ecies-x25519"])
def test_flipped_force_supi_does_not_put_a_supi_session_on_guti(suite):
    """The radio attacker who flips the SN's request for a SUCI to one that
    allows a GUTI does not pick the path: the SN takes a GUTI only under a
    request of its own that allowed one, so the session ends at sn-ident
    with nothing sent on the core and nothing held, and the UE's ratchet
    stays for its next GUTI session."""
    world, rng = sim.make_world(suite, seed=0), SeededRandom(1)
    assert sim.run_session(world, "supi", rng=rng).completed
    ratchet = (world.ue.guti, world.ue.k_s, world.ue.r_sn_prime)
    flipped = wire.encode(wire.IdRequestMsg(force_supi=False))
    attacker = sim.ScriptedAttacker({"id-request": lambda data, ctx: flipped})
    outcome = sim.run_session(world, "supi", attacker, rng)
    assert outcome.abort_step == "sn-ident"
    assert [e.annotation for e in outcome.transcript.entries] == ["id-request", "guti-id"]
    assert not any(e.channel == sim.CORE for e in outcome.transcript.entries)
    assert world.sn.pending == {} and world.hn.pending == {}
    assert (world.ue.guti, world.ue.k_s, world.ue.r_sn_prime) == ratchet
    nxt = sim.run_session(world, "guti", rng=rng)
    assert nxt.completed and nxt.key_source == "guti"


@pytest.mark.parametrize("path,n,at", list(_radio_drops()))
def test_dropped_radio_message_aborts_at_its_step(path, n, at):
    world, rng, mode = _provisioned(path)
    record = world.hn.registry[world.ue.supi]
    k_s_before = (world.ue.k_s, record.k_s)
    outcome = sim.run_session(world, mode, _DropNth(n), rng)
    label = _HONEST[path][at]
    assert not outcome.completed and outcome.abort_step == label
    assert [e.annotation for e in outcome.transcript.entries] == (
        _HONEST[path][:at] + [f"{label} [dropped]"])
    assert (world.ue.k_s, record.k_s) == k_s_before


@pytest.mark.parametrize("path", list(_HONEST))
def test_dropped_assignment_still_completes(path):
    world, rng, mode = _provisioned(path)
    attacker = sim.ScriptedAttacker({"guti-assign": lambda data, ctx: None})
    outcome = sim.run_session(world, mode, attacker, rng)
    assert outcome.completed and not outcome.assignment_delivered
    assert [e.annotation for e in outcome.transcript.entries] == (
        _HONEST[path][:-1] + ["guti-assign [dropped]"])


def test_replayed_assignment_leaves_the_ue_state(world, rng):
    """The previous session's guti-assign, delivered in the next session,
    does not open under that session's K_seaf: the session completes, the
    UE keeps its (GUTI, R_SN', K_S), and the session after it completes."""
    recorded = []

    def record(data, ctx):
        recorded.append(data)
        return data

    assert sim.run_session(
        world, "supi", sim.ScriptedAttacker({"guti-assign": record}), rng).completed
    before = (world.ue.guti, world.ue.r_sn_prime, world.ue.k_s)
    replay = sim.ScriptedAttacker({"guti-assign": lambda data, ctx: recorded[0]})
    outcome = sim.run_session(world, "guti", replay, rng)
    assert outcome.completed and not outcome.assignment_delivered
    assert (world.ue.guti, world.ue.r_sn_prime, world.ue.k_s) == before
    # the SN has replaced the UE's GUTI, so the UE identifies by SUPI
    after = sim.run_session(world, "guti", rng=rng)
    assert after.completed and after.key_source == "supi"


def _pass_through(steps):
    """Drive a session with every radio message delivered unchanged; return
    the labels it yielded and its outcome."""
    labels = []
    try:
        label, data = next(steps)
        while True:
            labels.append(label)
            label, data = steps.send(data)
    except StopIteration as stop:
        return labels, stop.value


@pytest.mark.parametrize("path", list(_HONEST))
def test_session_yields_radio_labels_like_run_session(path):
    world, rng, mode = _provisioned(path)
    labels, outcome = _pass_through(sim.session(world, mode, rng))
    assert labels == [a for a in _HONEST[path] if a not in _CORE_LABELS]
    world, rng, mode = _provisioned(path)
    driven = sim.run_session(world, mode, rng=rng)
    assert outcome.transcript.to_lines() == driven.transcript.to_lines()


def _same_exactly(a, b) -> bool:
    """a == b, with each field, nested ones too, of the same exact type."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same_exactly(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("path", list(_HONEST))
def test_every_message_a_role_builds_decodes_to_itself(path, monkeypatch):
    """The receiver of unchanged bytes gets the sender's message instead
    of decoding them; that is sound because each message the roles build
    is exactly what decoding its encoding gives."""
    world, rng, mode = _provisioned(path)
    built = []
    encode = wire.encode

    def recording(msg):
        built.append(msg)
        return encode(msg)

    monkeypatch.setattr(wire, "encode", recording)
    assert sim.run_session(world, mode, rng=rng).completed
    assert {type(m) for m in built} >= {
        wire.IdRequestMsg, wire.ChallengeMsg, wire.ResponseMsg, wire.ConfirmMsg,
        wire.HnToSnAuthMsg, wire.GutiAssignMsg}
    for msg in built:
        assert _same_exactly(wire.decode(encode(msg)), msg), msg


def _outcome_fields(outcome):
    return ([getattr(outcome, f.name) for f in dataclasses.fields(outcome)
             if f.name != "transcript"], outcome.transcript.to_lines())


@pytest.mark.parametrize("path", list(_HONEST))
def test_equal_copies_of_the_sent_bytes_decode_to_the_same_session(path, monkeypatch):
    """Delivering an equal copy of the sent bytes ends the session exactly
    as passing them on does, and neither is decoded again: no radio
    message is decoded at all."""
    world, rng, mode = _provisioned(path)
    passed = sim.run_session(world, mode, rng=rng)
    world, rng, mode = _provisioned(path)
    decoded = []
    decode = wire.decode

    def counting(data):
        decoded.append(data)
        return decode(data)

    monkeypatch.setattr(wire, "decode", counting)
    copied = sim.run_session(world, mode, rng=rng, attacker=sim.ScriptedAttacker(
        {label: lambda data, ctx: bytes(bytearray(data))
         for label in _HONEST[path] if label not in _CORE_LABELS}))
    assert passed.completed
    assert _outcome_fields(copied) == _outcome_fields(passed)
    assert decoded == []


@pytest.mark.parametrize("mode", ["supi", "guti"])
def test_interleaved_sessions_of_two_subscribers_agree_on_keys(world, rng, mode):
    other = sim.World(ue=sim.add_subscriber(world, "imsi-001010000000002", rng),
                      sn=world.sn, hn=world.hn, suite=world.suite)
    worlds = (world, other)
    for w in worlds:
        assert sim.run_session(w, "supi", rng=rng).completed
    live = [sim.session(w, mode, rng) for w in worlds]
    messages = [next(steps) for steps in live]
    outcomes = [None, None]
    while None in outcomes:          # one radio message of each in turn
        for i, steps in enumerate(live):
            if outcomes[i] is None:
                try:
                    messages[i] = steps.send(messages[i][1])
                except StopIteration as stop:
                    outcomes[i] = stop.value
    for w, outcome in zip(worlds, outcomes):
        assert outcome.completed and outcome.key_source == mode
        assert outcome.supi_at_sn == w.ue.supi
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn
        assert outcome.k_seaf_ue is not None
    assert outcomes[0].k_seaf_ue != outcomes[1].k_seaf_ue


def _held_supi_session_with(world, rng, case):
    """Hold a SUPI session of the UE at its challenge, then run the case:
    "guti", a GUTI session of the same UE run to its end before the held
    one finishes; "supi", a second SUPI session also held at its challenge,
    the first one's challenge delivered first. Returns both outcomes."""
    a = sim.session(world, "supi", rng)
    challenge_a = run_until(a, "challenge")
    if case == "guti":
        b = sim.run_session(world, "guti", rng=rng)
        return [finish(a, challenge_a), b]
    b = sim.session(world, "supi", rng)
    challenge_b = run_until(b, "challenge")
    return [finish(a, challenge_a), finish(b, challenge_b)]


@pytest.mark.parametrize("case", ["guti", "supi"])
@pytest.mark.parametrize("suite", ["test", "ecies-x25519"])
def test_sessions_of_one_ue_held_at_their_challenges_each_complete(suite, case):
    """One UE's overlapping sessions share no sk_U, K_seaf or staged K_S:
    each completes with one K_seaf at UE, SN and HN, and the UE's K_S ends
    equal to the HN's."""
    rng = SeededRandom(4)
    world = sim.make_world(suite, seed=rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    outcomes = _held_supi_session_with(world, rng, case)
    for outcome in outcomes:
        assert outcome.completed, outcome.abort_step
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn is not None
    assert world.ue.k_s == world.hn.registry[world.ue.supi].k_s is not None
    nxt = sim.run_session(world, "guti", rng=rng)
    assert nxt.completed and nxt.key_source == "guti"


def test_core_messages_never_reach_the_attacker(world, rng):
    seen = []
    attacker = sim.ScriptedAttacker(
        {label: lambda data, ctx, label=label: seen.append(label) or data
         for label in _CORE_LABELS})
    for mode in ("supi", "guti"):
        assert sim.run_session(world, mode, attacker, rng).completed
    assert seen == []


def _leaves(value):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(k)
            yield from _leaves(v)
    elif isinstance(value, (list, tuple, set)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_outcomes_carry_no_secrets(world, rng):
    """Besides the transcript and the three K_seaf copies, nothing a session
    returns equals K, sk_H, an ephemeral sk_U or a ratchet key K_S; and the
    UE's state holds no sk_U."""
    record = world.hn.registry[world.ue.supi]
    secrets = {world.ue.k, world.hn.kem_pair.sk}
    pairs = []
    outcomes = []
    for mode in ("supi", "guti", "supi", "guti"):
        outcomes.append(sim.run_session(world, mode, rng=rng, ue_mod=keeping_pairs(pairs)))
        secrets |= {world.ue.k_s, record.k_s}
    assert all(o.completed for o in outcomes)
    assert fields_holding(world.ue, pairs) == []
    secrets |= {pair.sk for pair in pairs}
    secrets.discard(None)
    assert len(secrets) == 8     # K, sk_H, two sk_U, four ratchet keys
    exempt = {"transcript", "k_seaf_ue", "k_seaf_sn", "k_seaf_hn"}
    for outcome in outcomes:
        for f in dataclasses.fields(outcome):
            if f.name not in exempt:
                leaked = secrets.intersection(_leaves(getattr(outcome, f.name)))
                assert not leaked, f.name


@pytest.mark.parametrize("module, name", [
    (ue_mod, "ue_process_challenge"), (hn_mod, "hn_finalize"),
    (ue_mod, "ue_guti_identification"), (sn_mod, "sn_identify")])
def test_default_roles_are_looked_up_at_call_time(world, rng, monkeypatch,
                                                  module, name):
    """A role function patched on its module after import is the one
    every session calls."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    for mode in ("supi", "guti", "supi"):
        assert sim.run_session(world, mode, rng=rng).completed
    assert len(calls) == 3


def test_misconfigured_world_raises_setup_error(rng):
    world = sim.make_world("test", seed=0)
    world.hn.sn_allowlist.clear()
    with pytest.raises(sim.SetupError):
        sim.run_session(world, "supi", rng=rng)
    world2 = sim.make_world("test", seed=0)
    world2.ue.pk_h = bytes(32)
    with pytest.raises(sim.SetupError):
        sim.run_session(world2, "supi", rng=rng)
    world3 = sim.make_world("test", seed=0)
    del world3.hn.registry[world3.ue.supi]
    with pytest.raises(sim.SetupError):
        sim.run_session(world3, "supi", rng=rng)
    world4 = sim.make_world("test", seed=0)
    world4.ue.id_hn = "other-hn.example"
    with pytest.raises(sim.SetupError):
        sim.run_session(world4, "supi", rng=rng)


@pytest.mark.parametrize("mode", ["supi", "guti"])
def test_an_hn_identity_that_is_not_a_plmn_identity_raises_setup_error(rng, mode):
    """Both roles agree on "hn.example", which the id-response cannot carry:
    the session refuses the world before it sends any message."""
    world = sim.make_world("test", seed=0)
    world.hn.id_hn = world.ue.id_hn = "hn.example"
    with pytest.raises(sim.SetupError, match="PLMN"):
        next(sim.session(world, mode, rng))


def test_unknown_mode_raises_value_error(world, rng):
    with pytest.raises(ValueError):
        next(sim.session(world, "suci", rng))


def _wide(key: bytes) -> bytes:
    return key + crypto.hash_h([key])


def _wide_encaps(pk, rng):
    ct, key = crypto._test_encaps(pk, rng)
    return ct, _wide(key)


# the test KEM with a 64-byte shared secret, as HQC-128 has
WIDE_KEM = dataclasses.replace(
    crypto.TEST_KEM, name="test-wide", key_len=64, encaps=_wide_encaps,
    decaps=lambda sk, pk, ct: _wide(crypto._test_decaps(sk, pk, ct)))


def test_sessions_over_a_kem_whose_shared_secret_is_not_32_bytes(monkeypatch, rng):
    """The KEM wrappers hash a 64-byte shared secret to the 32-byte protocol
    key alike at both ends, and both paths complete with one K_seaf."""
    monkeypatch.setitem(crypto._REGISTRY, WIDE_KEM.name, WIDE_KEM)
    pair = crypto.kem_keygen(WIDE_KEM, SeededRandom(0))
    ct, key = crypto.kem_encaps(WIDE_KEM, pair.pk, SeededRandom(1))
    _ct, raw = WIDE_KEM.encaps(pair.pk, SeededRandom(1).stream("kem_encaps"))
    assert len(raw) == 64
    assert key == crypto.kdf([raw]) == crypto.kem_decaps(WIDE_KEM, pair, ct)
    world = sim.make_world(WIDE_KEM.name, seed=0)
    for mode in ("supi", "guti"):
        outcome = sim.run_session(world, mode, rng=rng)
        assert outcome.completed and outcome.key_source == mode
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn


def test_compromised_sk_h_opens_recorded_suci(world, rng):
    """Negative control: with sk_H the concealed identifier opens."""
    outcome = sim.run_session(world, "supi", rng=rng)
    # sk_H alone, with the public pk_H, not the HN's loaded pair
    stolen = crypto.KemKeyPair(pk=world.hn.kem_pair.pk, sk=world.hn.kem_pair.sk)
    id_resp = next(wire.decode(e.data) for e in outcome.transcript.radio_entries()
                   if e.annotation == "id-response")
    k_s1 = crypto.kem_decaps(world.suite, stolen, id_resp.c1)
    supi, _pk_u, _id_sn = wire.unpack_suci_payload(
        crypto.aead_open(k_s1, id_resp.suci_conc + id_resp.mac_u))
    assert supi == world.ue.supi


def test_transcript_is_byte_faithful_under_tamper(world, rng):
    tampered = bytearray(64)
    attacker = sim.ScriptedAttacker(
        {"challenge": lambda data, ctx: bytes(tampered)})
    outcome = sim.run_session(world, "supi", attacker, rng)
    entry = next(e for e in outcome.transcript.entries
                 if e.annotation == "challenge")
    assert entry.data == bytes(tampered)        # delivered bytes, not sent ones
    assert not outcome.completed


def test_assignment_envelope_roundtrip():
    k_seaf = SeededRandom(20).bytes(32)
    guti = b"\x05" * wire.GUTI_LEN
    msg = sim.seal_assignment(k_seaf, guti)
    assert len(wire.encode(msg)) == 1 + wire.GUTI_LEN + crypto.AEAD_TAG_OVERHEAD
    assert sim.open_assignment(k_seaf, msg) == guti
    assert sim.open_assignment(SeededRandom(21).bytes(32), msg) is None


def _flip_bit(at: int):
    def flip(data, ctx):
        return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]
    return flip


def _sealed_under_another_session():
    """A GUTI sealed under the K_seaf of another subscriber's session."""
    other = sim.make_world("test", seed=5)
    k_seaf = sim.run_session(other, "supi", rng=SeededRandom(6)).k_seaf_sn
    forged = wire.encode(sim.seal_assignment(k_seaf, b"\x05" * wire.GUTI_LEN))
    return lambda data, ctx: forged


# a substitute guti-assign per case: a bit flipped in the sealed GUTI's
# ciphertext or in its GCM tag, or a GUTI sealed under another K_seaf
_BAD_ASSIGNMENTS = {
    "flipped-guti-bit": lambda: _flip_bit(1),
    "flipped-tag-bit": lambda: _flip_bit(1 + wire.GUTI_LEN + 15),
    "another-k-seaf": _sealed_under_another_session,
}


@pytest.mark.parametrize("path", list(_HONEST))
@pytest.mark.parametrize("case", list(_BAD_ASSIGNMENTS))
def test_a_sealed_guti_that_does_not_open_leaves_the_ue_state(case, path):
    """The session completes, but the UE commits no GUTI, K_S or R_SN'."""
    world, rng, mode = _provisioned(path)
    before = (world.ue.guti, world.ue.k_s, world.ue.r_sn_prime)
    attacker = sim.ScriptedAttacker({"guti-assign": _BAD_ASSIGNMENTS[case]()})
    outcome = sim.run_session(world, mode, attacker, rng)
    assert outcome.completed and not outcome.assignment_delivered
    assert (world.ue.guti, world.ue.k_s, world.ue.r_sn_prime) == before


def test_export_transcript_lines(world, rng):
    outcomes = [sim.run_session(world, "supi", rng=rng)]
    lines = sim.export_transcript(outcomes)
    assert len(lines) == 8
    assert all(line.startswith("0 ") for line in lines)



def test_default_rng_makes_supi_sessions_unlinkable(world):
    """Without an injected rng, two SUPI sessions of one UE send different
    concealed identifiers."""
    c1 = []
    for _ in range(2):
        outcome = sim.run_session(world, "supi")
        assert outcome.completed
        c1.append(next(wire.decode(e.data).c1 for e in outcome.transcript.entries
                       if e.annotation == "id-response"))
    assert c1[0] != c1[1]


def _replay_suci(world, rng, times):
    """Replay one recorded SUCI of world's UE times over: each replay opens a
    session at the SN and at the HN that the UE then aborts."""
    recorded = sim.run_session(world, "supi", rng=rng)
    old = next(e.data for e in recorded.transcript.radio_entries()
               if e.annotation == "id-response")
    replay = sim.ScriptedAttacker({"id-response": lambda data, ctx: old})
    for _ in range(times):
        assert sim.run_session(world, "supi", replay, rng).abort_step == "ue-challenge"


def test_replayed_suci_leaves_at_most_pending_max_entries(world, rng):
    _replay_suci(world, rng, store.PENDING_MAX + 10)
    assert len(world.sn.pending) == store.PENDING_MAX
    assert len(world.hn.pending) == store.PENDING_MAX


def _second_ue(world, rng):
    return sim.World(ue=sim.add_subscriber(world, "imsi-001010000000002", rng),
                     sn=world.sn, hn=world.hn, suite=world.suite)


def test_session_evicted_while_its_response_is_in_flight_aborts_then_heals(world, rng):
    """Replays from another UE push a GUTI session's entries out of both
    pending tables before its RES* arrives: the SN aborts it, nothing is
    committed, and the UE's next GUTI session completes."""
    other = _second_ue(world, rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    replays = store.PENDING_MAX

    def in_flight(data, ctx):
        _replay_suci(other, rng, replays)
        return data

    evicted = sim.run_session(world, "guti", sim.ScriptedAttacker({"response": in_flight}), rng)
    assert not evicted.completed and evicted.abort_step == "sn-verify"
    nxt = sim.run_session(world, "guti", rng=rng)
    assert nxt.completed and nxt.key_source == "guti"


def _clear_hn_pending(world, tmp_path):
    return world.hn.pending.clear


def _rebuild_hn_from_store(world, tmp_path):
    world.hn.persist_path = str(tmp_path / "registry")
    hn_mod.save_registry(world.hn.persist_path, world.hn.registry)

    def restart():
        world.hn.registry = hn_mod.load_registry(world.hn.persist_path)
        world.hn.pending = {}
    return restart


@pytest.mark.parametrize("lose_entry", [_clear_hn_pending, _rebuild_hn_from_store],
                         ids=["pending-cleared", "rebuilt-from-store"])
def test_lost_hn_pending_entry_heals_at_the_next_session(lose_entry, world, rng, tmp_path):
    """The HN loses its staged K_S while a GUTI session's RES* is on the
    radio, so the entry is lost at the HN only: the UE and SN complete the
    session and commit theirs, the HN commits nothing. The next GUTI
    challenge fails at the UE, which then identifies by SUPI, and the
    ratchet is in step again."""
    lose = lose_entry(world, tmp_path)

    def in_flight(data, ctx):
        assert len(world.sn.pending) == len(world.hn.pending) == 1
        lose()
        return data

    assert sim.run_session(world, "supi", rng=rng).completed
    lost = sim.run_session(world, "guti", sim.ScriptedAttacker({"response": in_flight}), rng)
    assert lost.completed and lost.k_seaf_hn is None
    outcomes = [sim.run_session(world, "guti", rng=rng) for _ in range(5)]
    assert [o.abort_step for o in outcomes] == ["ue-challenge"] + [None] * 4
    assert [o.key_source for o in outcomes[1:]] == ["supi", "guti", "guti", "guti"]


def test_failed_res_star_frees_the_hn_entry(world, rng):
    """A RES* that fails at the SN ends the session at the HN too: the SN
    sends it an abort, and neither role keeps a pending entry."""
    corrupt = sim.ScriptedAttacker(
        {"response": lambda data, ctx: data[:-1] + bytes([data[-1] ^ 1])})
    outcome = sim.run_session(world, "supi", corrupt, rng)
    assert outcome.abort_step == "sn-verify"
    last = outcome.transcript.entries[-1]
    assert (last.channel, last.direction, last.annotation) == (
        sim.CORE, "SN->HN", "sn-abort")
    assert last.data == wire.encode(wire.AbortMsg())
    assert len(world.sn.pending) == 0
    assert len(world.hn.pending) == 0


def test_sn_abort_reaches_the_hn_role_the_session_runs_with(world, rng):
    """The HN's side of sn-abort is hn_abort on the HN role the session is
    given, so a weakened HN receives it, named by the R_SN the HN's vector
    call was given."""
    r_sns, aborts = [], []

    def auth_vector(state, record, pk_u, r_sn, id_sn, rng):
        r_sns.append(r_sn)
        return hn_mod.hn_auth_vector(state, record, pk_u, r_sn, id_sn, rng)

    def hn_abort(state, sid):
        aborts.append(sid)
        hn_mod.hn_abort(state, sid)

    weakened = attacks.Weakened(hn_mod, hn_auth_vector=auth_vector, hn_abort=hn_abort)
    corrupt = sim.ScriptedAttacker(
        {"response": lambda data, ctx: data[:-1] + bytes([data[-1] ^ 1])})
    outcome = sim.run_session(world, "supi", corrupt, rng, hn_mod=weakened)
    assert outcome.abort_step == "sn-verify"
    assert len(aborts) == 1 and aborts == r_sns
    assert world.hn.pending == {}


def test_lost_sn_entry_at_the_challenge_frees_the_hn_entry(world, rng):
    """The SN's entry is gone when the HN's vector arrives, as when other
    sessions evict it meanwhile: the SN aborts at sn-challenge and sends
    the HN an abort, so neither role keeps a pending entry."""
    def auth_vector_after_sn_loss(state, *args):
        world.sn.pending.clear()
        return hn_mod.hn_auth_vector(state, *args)

    hn_losing_sn = attacks.Weakened(hn_mod, hn_auth_vector=auth_vector_after_sn_loss)
    pairs = []
    outcome = sim.run_session(world, "supi", rng=rng, hn_mod=hn_losing_sn,
                              ue_mod=keeping_pairs(pairs))
    assert outcome.abort_step == "sn-challenge"
    last = outcome.transcript.entries[-1]
    assert (last.channel, last.direction, last.annotation) == (
        sim.CORE, "SN->HN", "sn-abort")
    assert last.data == wire.encode(wire.AbortMsg())
    assert world.sn.pending == {} and world.hn.pending == {}
    assert len(pairs) == 1 and fields_holding(world.ue, pairs) == []
    assert sim.run_session(world, "supi", rng=rng).completed
    assert world.hn.pending == {}
