"""SN state machine: forwarding, R_SN generation, response check, GUTI table.

Before a valid RES* arrives, SN state for a SUCI-initiated session holds
only (CONC, M) under its R_SN; the session key and SUPI come out of one
AEAD open over M, so they cannot be separated or learned early. A GUTI session also
holds the SUPI its GUTI resolved to, and its M seals the key alone. That
open is also the SN's RES* check: M is sealed under K3 = KDF(XRES*, AK),
AK = CONC xor R_SN, so its GCM tag fails for any RES* other than XRES*.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Union

from . import crypto, store, wire
from .rng import RandomSource
from .wire import (
    ChallengeMsg,
    GutiIdMsg,
    GutiSnToHnMsg,
    HnToSnAuthMsg,
    IdRequestMsg,
    IdResponseMsg,
    Message,
    ResponseMsg,
    SnToHnIdentMsg,
    unpack_m_payload,
    ParseError,
)

log = logging.getLogger(__name__)


@dataclass(slots=True)
class GutiEntry:
    supi: str
    r_sn_prime: bytes


@dataclass
class PendingSession:
    conc: Optional[bytes] = None
    m: Optional[bytes] = None
    supi: Optional[str] = None                # set on the GUTI path only


@dataclass
class SnState:
    id_sn: str
    guti_table: dict[bytes, GutiEntry] = field(default_factory=dict)
    pending: dict[bytes, PendingSession] = field(default_factory=dict)
    persist_path: Optional[str] = None

    # SUPI -> its GUTI. An entry is trusted only while the table still maps
    # that GUTI back to the SUPI, so a table changed from outside is tolerated.
    guti_of: dict[str, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.guti_of = {e.supi: guti for guti, e in self.guti_table.items()}


def _open_session(state: SnState, rng: RandomSource, supi: Optional[str] = None) -> bytes:
    """Draw a fresh R_SN, the session's one name, and hold its pending session."""
    r_sn = rng.stream("r_sn").bytes(wire.RAND_LEN)
    store.hold_pending(state.pending, r_sn, PendingSession(supi=supi))
    return r_sn


def sn_forward_identification(
    state: SnState, msg: IdResponseMsg, rng: RandomSource
) -> tuple[SnToHnIdentMsg, bytes]:
    """Draw a fresh R_SN and forward the concealed identifier to the HN."""
    r_sn = _open_session(state, rng)
    return SnToHnIdentMsg(
        c1=msg.c1, suci_conc=msg.suci_conc, mac_u=msg.mac_u, r_sn=r_sn), r_sn


def sn_forward_challenge(
    state: SnState, sid: bytes, msg: HnToSnAuthMsg
) -> Optional[ChallengeMsg]:
    """Retain the checkable material; pass only (CONC, MAC, c2) to the UE."""
    p = state.pending.get(sid)
    if p is None:
        log.info("auth vector for unknown session; dropped")
        return None
    p.conc = msg.conc
    p.m = msg.m
    return ChallengeMsg(conc=msg.conc, mac=msg.mac, c2=msg.c2)


@dataclass
class SnSessionResult:
    supi: str
    k_seaf: bytes
    assignment: bytes    # the new GUTI, sealed for the radio by sim


def sn_verify_response(
    state: SnState, sid: bytes, msg: ResponseMsg, rng: RandomSource
) -> Optional[SnSessionResult]:
    """Check RES* by opening M under K3 = KDF(RES*, AK), AK = CONC xor R_SN:
    the one decryption that recovers K_seaf, with the SUPI on the SUPI path,
    fails for any RES* other than the XRES* the HN sealed M under."""
    p = state.pending.get(sid)
    if p is None or p.m is None:
        return None
    del state.pending[sid]          # one response is checked per challenge
    try:
        k3 = crypto.kdf([msg.res_star, crypto.xor_bytes(p.conc, sid)])
        k_seaf, supi = unpack_m_payload(crypto.aead_open(k3, p.m), p.supi)
    except (crypto.CryptoError, ParseError):
        return None
    assignment = sn_assign_guti(state, supi, k_seaf, rng)
    return SnSessionResult(supi=supi, k_seaf=k_seaf, assignment=assignment)


def sn_assign_guti(state: SnState, supi: str, k_seaf: bytes,
                   rng: RandomSource) -> bytes:
    """Fresh GUTI (collision-checked), stored with the R_SN' derived from the
    session's K_seaf; old GUTI for the SUPI goes."""
    old = state.guti_of.get(supi)
    draw = rng.stream("guti")
    guti = draw.bytes(wire.GUTI_LEN)
    while guti in state.guti_table:
        guti = draw.bytes(wire.GUTI_LEN)
    r_sn_prime = crypto.r_sn_prime(k_seaf)
    if old in state.guti_table and state.guti_table[old].supi == supi:
        del state.guti_table[old]
    state.guti_table[guti] = GutiEntry(supi=supi, r_sn_prime=r_sn_prime)
    state.guti_of[supi] = guti
    if state.persist_path:
        save_guti_table(state.persist_path, state.guti_table, guti)
    return guti


def sn_resolve_guti(
    state: SnState, msg: GutiIdMsg, rng: RandomSource
) -> Union[tuple[GutiSnToHnMsg, bytes], IdRequestMsg]:
    """Known GUTI goes to the HN with stored R_SN'; unknown falls back to SUPI."""
    entry = state.guti_table.get(msg.guti)
    if entry is None:
        return IdRequestMsg(force_supi=True)
    r_sn = _open_session(state, rng, entry.supi)
    return GutiSnToHnMsg(
        supi=entry.supi, r_sn_prime=entry.r_sn_prime, r_sn=r_sn), r_sn


def sn_identify(state: SnState, request: IdRequestMsg, msg: Message,
                rng: RandomSource) -> Union[tuple[Message, bytes], IdRequestMsg, None]:
    """Take the UE's answer to the SN's own request: a SUCI is forwarded, and
    a GUTI resolved if that request allowed one; None ends the session."""
    if isinstance(msg, IdResponseMsg):
        return sn_forward_identification(state, msg, rng)
    if isinstance(msg, GutiIdMsg) and not request.force_supi:
        return sn_resolve_guti(state, msg, rng)
    return None


def sn_abort(state: SnState, sid: bytes) -> None:
    """The HN ended the session (hn-abort): drop its pending entry."""
    state.pending.pop(sid, None)


# --- GUTI table persistence --------------------------------------------------

# keyed by SUPI, so writing a SUPI's row replaces its old GUTI
_GUTI_TABLE = store.Table(
    "guti_table", 5, (("supi", wire.SUPI), ("guti", wire.fixed(wire.GUTI_LEN)),
                      ("r_sn_prime", wire.fixed(crypto.KEY_LEN))), unique="guti")


def save_guti_table(path: str, table: dict[bytes, GutiEntry],
                    guti: Optional[bytes] = None) -> None:
    """Store every (GUTI, SUPI, R_SN') at path; once the store holds this
    table, a commit naming its new guti writes that SUPI's row only."""
    store.save(path, _GUTI_TABLE, table,
               lambda g, e: (e.supi, g, e.r_sn_prime), guti)


def load_guti_table(path: str) -> dict[bytes, GutiEntry]:
    return {guti: GutiEntry(supi=supi, r_sn_prime=r_sn_prime)
            for supi, guti, r_sn_prime in store.load(path, _GUTI_TABLE)}
