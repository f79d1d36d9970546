"""SN state machine: forwarding, R_SN generation, response check, GUTI table.

Before a valid RES* arrives, SN state for a SUCI-initiated session holds
only (R_SN, HXRES*, AUTN, M); the session key and SUPI come out of one
AEAD open over M, so they cannot be separated or learned early.
"""

from __future__ import annotations

import hmac as _hmac
import logging
from dataclasses import dataclass, field
from typing import Optional, Union

from . import crypto, store
from .rng import RandomSource
from .wire import (
    Autn,
    ChallengeMsg,
    GutiAssignMsg,
    GutiIdMsg,
    GutiSnToHnMsg,
    HnToSnAuthMsg,
    IdRequestMsg,
    IdResponseMsg,
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
    r_sn: bytes
    hxres_star: Optional[bytes] = None
    autn: Optional[Autn] = None
    m: Optional[bytes] = None


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


def _open_session(state: SnState, identifier: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
    """Draw a fresh R_SN and open pending session sid = H(identifier, R_SN)."""
    r_sn = rng.bytes(32)
    sid = crypto.hash_h([identifier, r_sn])
    state.pending[sid] = PendingSession(r_sn=r_sn)
    return r_sn, sid


def sn_forward_identification(
    state: SnState, msg: IdResponseMsg, rng: RandomSource
) -> tuple[SnToHnIdentMsg, bytes]:
    """Draw a fresh R_SN and forward the concealed identifier to the HN."""
    r_sn, sid = _open_session(state, msg.c1, rng)
    return SnToHnIdentMsg(
        c1=msg.c1, suci_conc=msg.suci_conc, mac_u=msg.mac_u, r_sn=r_sn), sid


def sn_forward_challenge(
    state: SnState, sid: bytes, msg: HnToSnAuthMsg
) -> Optional[ChallengeMsg]:
    """Retain the checkable material; pass only (AUTN, c2) to the UE."""
    p = state.pending.get(sid)
    if p is None:
        log.info("auth vector for unknown session; dropped")
        return None
    p.hxres_star = msg.hxres_star
    p.autn = msg.autn
    p.m = msg.m
    return ChallengeMsg(autn=msg.autn, c2=msg.c2)


@dataclass
class SnSessionResult:
    supi: str
    k_seaf: bytes
    assignment: GutiAssignMsg


def sn_verify_response(
    state: SnState, sid: bytes, msg: ResponseMsg, rng: RandomSource
) -> Optional[SnSessionResult]:
    """HXRES* check, then recover (K_seaf, SUPI) from M in one decryption."""
    p = state.pending.get(sid)
    if p is None or p.hxres_star is None:
        return None
    del state.pending[sid]          # one response is checked per challenge
    if not _hmac.compare_digest(
            crypto.hash_h([p.r_sn, msg.res_star]), p.hxres_star):
        return None
    f5 = crypto.xor_bytes(p.autn.conc, p.r_sn)
    k3 = crypto.xor_bytes(msg.res_star, f5)
    try:
        k_seaf, supi = unpack_m_payload(crypto.aead_open(k3, p.m))
    except (crypto.AeadFailure, ParseError):
        return None
    assignment = sn_assign_guti(state, supi, rng)
    return SnSessionResult(supi=supi, k_seaf=k_seaf, assignment=assignment)


def sn_assign_guti(state: SnState, supi: str, rng: RandomSource) -> GutiAssignMsg:
    """Fresh GUTI (collision-checked) and R_SN'; old GUTI for the SUPI goes."""
    old = state.guti_of.get(supi)
    guti = rng.bytes(16)
    while guti in state.guti_table:
        guti = rng.bytes(16)
    r_sn_prime = rng.bytes(32)
    if old in state.guti_table and state.guti_table[old].supi == supi:
        del state.guti_table[old]
    state.guti_table[guti] = GutiEntry(supi=supi, r_sn_prime=r_sn_prime)
    state.guti_of[supi] = guti
    if state.persist_path:
        save_guti_table(state.persist_path, state.guti_table, guti)
    return GutiAssignMsg(guti_new=guti, r_sn_prime_new=r_sn_prime)


def sn_resolve_guti(
    state: SnState, msg: GutiIdMsg, rng: RandomSource
) -> Union[tuple[GutiSnToHnMsg, bytes], IdRequestMsg]:
    """Known GUTI goes to the HN with stored R_SN'; unknown falls back to SUPI."""
    entry = state.guti_table.get(msg.guti)
    if entry is None:
        return IdRequestMsg(force_supi=True)
    r_sn, sid = _open_session(state, msg.guti, rng)
    return GutiSnToHnMsg(
        supi=entry.supi, r_sn_prime=entry.r_sn_prime, r_sn=r_sn), sid


# --- GUTI table persistence --------------------------------------------------

# keyed by SUPI, so writing a SUPI's row replaces its old GUTI
_GUTI_TABLE = store.Table(
    "guti_table", "supi", "guti", "r_sn_prime", unique="guti")


def save_guti_table(path: str, table: dict[bytes, GutiEntry],
                    guti: Optional[bytes] = None) -> None:
    """Store every (GUTI, SUPI, R_SN') at path; once the store holds this
    table, a commit naming its new guti writes that SUPI's row only."""
    store.save(path, _GUTI_TABLE, table,
               lambda g, e: (e.supi, g, e.r_sn_prime), guti)


def load_guti_table(path: str) -> dict[bytes, GutiEntry]:
    return {guti: GutiEntry(supi=supi, r_sn_prime=r_sn_prime)
            for supi, guti, r_sn_prime in store.load(path, _GUTI_TABLE)}
