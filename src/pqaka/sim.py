"""Deterministic two-channel session driver with a radio attacker.

The attacker sees the radio only: every radio message goes through its
tap, which may pass, drop, or substitute bytes (substitution covers
tamper, replay and inject). Delivered bytes that differ from the bytes
sent are decoded, so every attacker effect reaches the parser; bytes
delivered unchanged hand the receiver the sender's own frozen message,
which is what decoding them would give. The SN-HN core channel is secure
by assumption, so it has no tap at all: a core message is encoded and
logged, in order, and the receiver gets the message sent. Transcripts
keep raw bytes so parser bugs cannot hide attacker effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from . import crypto, hn as hn_mod, sn as sn_mod, ue as ue_mod, wire
from .crypto import KemSuite, get_suite
from .rng import OsRandom, RandomSource, SeededRandom

RADIO = "radio"
CORE = "core"

# the one SN and HN of every world
ID_SN = "sn.example"
ID_HN = "hn.example"


class SetupError(Exception):
    """Inconsistent provisioning detected before any message is sent."""


@dataclass
class TranscriptEntry:
    step: int
    channel: str
    direction: str
    data: bytes
    annotation: str


class SessionTranscript:
    """Append-only, byte-faithful log of everything crossing a channel."""

    def __init__(self):
        self.entries: list[TranscriptEntry] = []

    def append(self, channel: str, direction: str, data: bytes,
               annotation: str) -> TranscriptEntry:
        entry = TranscriptEntry(
            step=len(self.entries), channel=channel, direction=direction,
            data=bytes(data), annotation=annotation)
        self.entries.append(entry)
        return entry

    def radio_entries(self) -> list[TranscriptEntry]:
        return [e for e in self.entries if e.channel == RADIO]

    def to_lines(self) -> list[str]:
        return [
            f"{e.step} {e.channel} {e.direction} {e.data.hex() or '-'} {e.annotation}"
            for e in self.entries
        ]


class Attacker:
    """Base Dolev-Yao radio attacker: every radio message passes through
    tap(), which by default delivers it unchanged.

    tap() returns the bytes to deliver, or None to drop the message.
    """

    def tap(self, label: str, data: bytes) -> Optional[bytes]:
        return data


class ScriptedAttacker(Attacker):
    """Per-label handlers: handler(data, ctx) -> delivered bytes or None,
    where ctx is always None; a handler keeps any state in its closure."""

    def __init__(self, handlers: dict[str, Callable[[bytes, None], Optional[bytes]]]):
        self.handlers = dict(handlers)

    def tap(self, label: str, data: bytes) -> Optional[bytes]:
        handler = self.handlers.get(label)
        if handler is None:
            return data
        return handler(data, None)


def seal_assignment(k_seaf: bytes, msg: wire.GutiAssignMsg) -> wire.SecureEnvelopeMsg:
    key = crypto.kdf([k_seaf, b"guti-transport"])
    return wire.SecureEnvelopeMsg(ct=crypto.aead_seal(key, wire.encode(msg)))


def open_assignment(k_seaf: bytes, env: wire.SecureEnvelopeMsg) -> Optional[wire.GutiAssignMsg]:
    key = crypto.kdf([k_seaf, b"guti-transport"])
    try:
        inner = wire.decode(crypto.aead_open(key, env.ct))
    except (crypto.AeadFailure, wire.ParseError):
        return None
    if not isinstance(inner, wire.GutiAssignMsg):
        return None
    return inner


@dataclass(slots=True)
class World:
    ue: ue_mod.UeState
    sn: sn_mod.SnState
    hn: hn_mod.HnState
    suite: KemSuite


def make_world(
    suite_name: str = "test",
    seed: int | RandomSource = 0,
    supi: str = "imsi-001010000000001",
) -> World:
    """A consistently provisioned UE/SN/HN triple."""
    rng = seed if isinstance(seed, RandomSource) else SeededRandom(seed)
    suite = get_suite(suite_name)
    k = rng.bytes(32)
    hn_pair = crypto.kem_keygen(suite, rng)
    hn = hn_mod.HnState(
        id_hn=ID_HN, kem=suite, kem_pair=hn_pair,
        registry={supi: hn_mod.SubscriberRecord(supi=supi, k=k)},
        sn_allowlist={ID_SN})
    ue = ue_mod.UeState(
        supi=supi, k=k, pk_h=hn_pair.pk, id_hn=ID_HN,
        id_sn_expected=ID_SN, kem=suite)
    sn = sn_mod.SnState(id_sn=ID_SN)
    return World(ue=ue, sn=sn, hn=hn, suite=suite)


def add_subscriber(world: World, supi: str, rng: RandomSource) -> ue_mod.UeState:
    """Provision another UE against the same SN/HN pair."""
    k = rng.bytes(32)
    world.hn.registry[supi] = hn_mod.SubscriberRecord(supi=supi, k=k)
    if world.hn.persist_path:
        hn_mod.save_registry(world.hn.persist_path, world.hn.registry, supi)
    return ue_mod.UeState(
        supi=supi, k=k, pk_h=world.hn.kem_pair.pk, id_hn=world.hn.id_hn,
        id_sn_expected=world.sn.id_sn, kem=world.suite)


@dataclass
class SessionOutcome:
    abort_step: Optional[str]            # None: the session completed
    transcript: SessionTranscript
    k_seaf_ue: Optional[bytes] = None
    k_seaf_sn: Optional[bytes] = None
    k_seaf_hn: Optional[bytes] = None
    supi_at_sn: Optional[str] = None
    assignment_delivered: bool = False
    key_source: Optional[str] = None     # "supi" or "guti"

    @property
    def completed(self) -> bool:
        return self.abort_step is None


def _aborted(transcript: SessionTranscript, step: str) -> SessionOutcome:
    return SessionOutcome(abort_step=step, transcript=transcript)


def session(
    world: World,
    mode: str = "supi",
    rng: Optional[RandomSource] = None,
    *, ue_mod=ue_mod, hn_mod=hn_mod,
) -> Generator[tuple[str, bytes], Optional[bytes], SessionOutcome]:
    """One authentication session over both channels, calling the UE and HN
    roles by name on ue_mod and hn_mod (weakened in games). Yields (label,
    bytes) per radio message, is sent the bytes the radio delivers (None if
    dropped) and returns the SessionOutcome. However it ends, the UE then
    holds no sk_U drawn for it."""
    if mode not in ("supi", "guti"):
        raise ValueError("mode must be 'supi' or 'guti'")
    rng = rng or OsRandom()
    ue, sn, hn = world.ue, world.sn, world.hn

    if ue.supi not in hn.registry:
        raise SetupError("UE SUPI not registered at the HN")
    if ue.pk_h != hn.kem_pair.pk:
        raise SetupError("UE holds a stale HN public key")
    if sn.id_sn not in hn.sn_allowlist:
        raise SetupError("SN identity not allowlisted at the HN")
    if ue.id_hn != hn.id_hn:
        raise SetupError("UE and HN disagree on the HN identity")

    t = SessionTranscript()
    drawn = None     # the sk_U pair this session drew

    def send_radio(direction: str, label: str, msg: wire.Message):
        data = wire.encode(msg)
        delivered = yield label, data
        if delivered is None:
            t.append(RADIO, direction, b"", f"{label} [dropped]")
            return None
        t.append(RADIO, direction, delivered, label)
        if delivered == data:
            return msg
        try:
            return wire.decode(delivered)
        except wire.ParseError:
            return None

    def send_core(direction: str, label: str, msg: wire.Message) -> wire.Message:
        t.append(CORE, direction, wire.encode(msg), label)
        return msg

    try:
        # 1-3. identification, in at most two rounds: the UE answers with its
        # GUTI only a first request that allows one, and with a SUCI otherwise;
        # an unknown GUTI makes the SN's fallback the second round's request
        request = wire.IdRequestMsg(force_supi=(mode == "supi"))
        for first in (True, False):
            req = yield from send_radio("SN->UE", "id-request", request)
            if req is None:
                return _aborted(t, "id-request")
            ident: Optional[wire.Message] = None
            if first and isinstance(req, wire.IdRequestMsg) and not req.force_supi:
                ident = ue_mod.ue_guti_identification(ue)
            if ident is None:
                ident = ue_mod.ue_identification_response(ue, rng)
                drawn = ue.ephemeral
            label = "guti-id" if isinstance(ident, wire.GutiIdMsg) else "id-response"
            received = yield from send_radio("UE->SN", label, ident)
            if received is None:
                return _aborted(t, label)
            if isinstance(received, wire.IdResponseMsg):
                forwarded = sn_mod.sn_forward_identification(sn, received, rng)
            elif first and isinstance(received, wire.GutiIdMsg):
                forwarded = sn_mod.sn_resolve_guti(sn, received, rng)
            else:
                return _aborted(t, "sn-ident")   # a foreign type, or a GUTI again
            if not isinstance(forwarded, wire.IdRequestMsg):
                break
            request = forwarded
        to_hn, sid = forwarded

        ident_label = "sn-hn-guti" if isinstance(to_hn, wire.GutiSnToHnMsg) else "sn-hn-ident"
        at_hn = send_core("SN->HN", ident_label, to_hn)

        # 4. HN: identification and authentication vector
        try:
            if isinstance(at_hn, wire.SnToHnIdentMsg):
                supi, pk_u, record = hn_mod.hn_identify(hn, at_hn, sn.id_sn)
                to_sn = hn_mod.hn_auth_vector(
                    hn, record, pk_u, at_hn.r_sn, sn.id_sn, rng, sid)
            else:
                to_sn = hn_mod.hn_guti_auth_vector(hn, at_hn, sn.id_sn, sid)
        except hn_mod.IdentificationAbort:
            send_core("HN->SN", "hn-abort", wire.AbortMsg())
            sn.pending.pop(sid, None)
            return _aborted(t, "hn-identify")

        vector = send_core("HN->SN", "auth-vector", to_sn)

        # 5. challenge to the UE
        challenge = sn_mod.sn_forward_challenge(sn, sid, vector)
        if challenge is None:
            return _aborted(t, "sn-challenge")
        ch = yield from send_radio("SN->UE", "challenge", challenge)
        if ch is None or not isinstance(ch, wire.ChallengeMsg):
            return _aborted(t, "challenge")

        # 6. UE response (silent abort emits nothing on the radio)
        response = ue_mod.ue_process_challenge(ue, ch)
        if response is None:
            return _aborted(t, "ue-challenge")
        k_seaf_ue = ue.k_seaf     # a later session's challenge may replace it
        resp = yield from send_radio("UE->SN", "response", response)
        if resp is None or not isinstance(resp, wire.ResponseMsg):
            return _aborted(t, "response")

        # 7. SN verification, confirmation, GUTI reassignment
        result = sn_mod.sn_verify_response(sn, sid, resp, rng)
        if result is None:
            return _aborted(t, "sn-verify")
        send_core("SN->HN", "confirm", wire.ConfirmMsg())
        k_seaf_hn = hn_mod.hn_finalize(hn, sid)

        envelope = seal_assignment(result.k_seaf, result.assignment)
        delivered = yield from send_radio("SN->UE", "guti-assign", envelope)
        assignment_delivered = False
        if isinstance(delivered, wire.SecureEnvelopeMsg) and ue.k_seaf:
            inner = open_assignment(ue.k_seaf, delivered)
            if inner is not None:
                ue_mod.ue_handle_guti_assignment(ue, inner)
                assignment_delivered = True

        return SessionOutcome(
            abort_step=None, transcript=t,
            k_seaf_ue=k_seaf_ue,
            k_seaf_sn=result.k_seaf, k_seaf_hn=k_seaf_hn,
            supi_at_sn=result.supi, assignment_delivered=assignment_delivered,
            key_source="guti" if ch.c2 is None else "supi")
    finally:
        if drawn is not None and ue.ephemeral is drawn:
            ue.ephemeral = None


def run_session(
    world: World,
    mode: str = "supi",
    attacker: Optional[Attacker] = None,
    rng: Optional[RandomSource] = None,
    *, ue_mod=ue_mod, hn_mod=hn_mod,
) -> SessionOutcome:
    """Drive one session to its end through the attacker's tap."""
    steps = session(world, mode, rng, ue_mod=ue_mod, hn_mod=hn_mod)
    tap = (attacker or Attacker()).tap
    message = next(steps)
    while True:
        try:
            message = steps.send(tap(*message))
        except StopIteration as stop:
            return stop.value


def export_transcript(outcomes: list[SessionOutcome]) -> list[str]:
    """Line-delimited records: session step channel direction hex annotation."""
    return [f"{i} {line}" for i, outcome in enumerate(outcomes)
            for line in outcome.transcript.to_lines()]
