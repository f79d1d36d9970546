"""Session driver: transcripts, the radio tap, abort paths, returned values."""

import dataclasses

import pytest

from pqaka import crypto, hn as hn_mod, sim, ue as ue_mod, wire
from pqaka.rng import SeededRandom


def test_identical_seeds_identical_transcripts():
    lines = []
    for _ in range(2):
        world = sim.make_world("test", seed=0)
        outcome = sim.run_session(world, "supi", rng=SeededRandom(1))
        lines.append(outcome.transcript.to_lines())
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
# core) bytes, and the radio size of each of its messages
SESSION_BYTES = {
    "test": {"supi": (384, 407), "guti": (188, 265)},
    "ecies-x25519": {"supi": (384, 407), "guti": (188, 265)},
    "ecies-p256": {"supi": (387, 410), "guti": (188, 265)},
}
RADIO_MESSAGE_BYTES = {
    "supi": {"id-request": 2, "id-response": 177, "challenge": 102,
             "response": 33, "guti-assign": 70},
    "guti": {"id-request": 2, "guti-id": 17, "challenge": 66,
             "response": 33, "guti-assign": 70},
}
# a compressed P-256 point (c1, pk_U, c2) is one byte longer than an X25519 key
P256_SUPI_RADIO_BYTES = {"id-response": 179, "challenge": 103}


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


def test_lost_hn_pending_entry_heals_at_the_next_session():
    """An HN restart during a GUTI session loses its staged K_S while the UE
    and SN commit theirs. The next GUTI challenge fails at the UE, which then
    identifies by SUPI, and the ratchet is in step again."""
    rng = SeededRandom(1)
    world = sim.make_world("test", seed=rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    steps = sim.session(world, "guti", rng)
    label, data = next(steps)
    while label != "response":
        label, data = steps.send(data)
    world.hn.pending.clear()
    try:
        while True:
            label, data = steps.send(data)
    except StopIteration as stop:
        lost = stop.value
    assert lost.completed and lost.k_seaf_hn is None
    outcomes = [sim.run_session(world, "guti", rng=rng) for _ in range(5)]
    assert [o.abort_step for o in outcomes] == ["ue-challenge"] + [None] * 4
    assert [o.key_source for o in outcomes[1:]] == ["supi", "guti", "guti", "guti"]


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


def test_hn_identification_abort_ends_session_and_frees_pending(world, rng):
    def zero_mac(data, ctx):
        return wire.encode(dataclasses.replace(wire.decode(data), mac_u=bytes(32)))

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
    assert world.ue.k_seaf is None
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
    return wire.encode(wire.ResponseMsg(res_star=bytes(32)))


def _known_guti(world, rng):
    """The GUTI the SN holds for a second subscriber of the world."""
    other = sim.World(ue=sim.add_subscriber(world, "imsi-001010000000002", rng),
                      sn=world.sn, hn=world.hn, suite=world.suite)
    assert sim.run_session(other, "supi", rng=rng).completed
    return wire.encode(wire.GutiIdMsg(guti=other.ue.guti))


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
    pytest.param("guti", 1, wire.ResponseMsg(res_star=bytes(32)), id="first-foreign"),
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
        wire.HnToSnAuthMsg, wire.SecureEnvelopeMsg, wire.GutiAssignMsg}
    for msg in built:
        assert _same_exactly(wire.decode(encode(msg)), msg), msg


def _outcome_fields(outcome):
    return ([getattr(outcome, f.name) for f in dataclasses.fields(outcome)
             if f.name != "transcript"], outcome.transcript.to_lines())


@pytest.mark.parametrize("path", list(_HONEST))
def test_equal_copies_of_the_sent_bytes_decode_to_the_same_session(path, monkeypatch):
    """Delivering an equal copy of the sent bytes ends the session exactly
    as passing them on does, and neither is decoded again: the decoder
    sees only the sealed assignment's plaintext."""
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
    assert len(decoded) == 1 and decoded[0][0] == wire.SCHEMA[wire.GutiAssignMsg][0]


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
    returns equals K, sk_H, an ephemeral sk_U or a ratchet key K_S."""
    record = world.hn.registry[world.ue.supi]
    secrets = {world.ue.k, world.hn.kem_pair.sk}

    def keep_sk_u(data, ctx):
        if world.ue.ephemeral is not None:
            secrets.add(world.ue.ephemeral.sk)
        return data

    attacker = sim.ScriptedAttacker({"challenge": keep_sk_u})
    outcomes = []
    for mode in ("supi", "guti", "supi", "guti"):
        outcomes.append(sim.run_session(world, mode, attacker, rng))
        secrets |= {world.ue.k_s, record.k_s}
    assert all(o.completed for o in outcomes)
    secrets.discard(None)
    assert len(secrets) == 8     # K, sk_H, two sk_U, four ratchet keys
    exempt = {"transcript", "k_seaf_ue", "k_seaf_sn", "k_seaf_hn"}
    for outcome in outcomes:
        for f in dataclasses.fields(outcome):
            if f.name not in exempt:
                leaked = secrets.intersection(_leaves(getattr(outcome, f.name)))
                assert not leaked, f.name


@pytest.mark.parametrize("module, name", [
    (ue_mod, "ue_process_challenge"), (hn_mod, "hn_finalize")])
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


def test_compromised_sk_h_opens_recorded_suci(world, rng):
    """Negative control: with sk_H the concealed identifier opens."""
    outcome = sim.run_session(world, "supi", rng=rng)
    sk_h = world.hn.kem_pair.sk
    id_resp = next(wire.decode(e.data) for e in outcome.transcript.radio_entries()
                   if e.annotation == "id-response")
    k_s1 = crypto.as_shared_key(
        crypto.kem_decaps(world.suite, sk_h, id_resp.c1))
    supi, _pk_u, _id_sn = wire.unpack_suci_payload(
        crypto.aead_open(k_s1, id_resp.suci_conc))
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
    msg = wire.GutiAssignMsg(guti_new=b"\x05" * 16, r_sn_prime_new=b"\x06" * 32)
    env = sim.seal_assignment(k_seaf, msg)
    assert sim.open_assignment(k_seaf, env) == msg
    assert sim.open_assignment(SeededRandom(21).bytes(32), env) is None


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
