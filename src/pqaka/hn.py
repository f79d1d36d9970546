"""HN state machine: subscriber registry, identification, vector generation.

Every identification failure, whatever its cause, raises the same
IdentificationAbort, so the SN (and anything observing the core channel)
cannot tell the causes apart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from . import crypto, store, wire
from .crypto import KemKeyPair, KemSuite
from .rng import RandomSource
from .wire import (
    GutiSnToHnMsg,
    HnToSnAuthMsg,
    SnToHnIdentMsg,
    pack_m_payload,
    unpack_suci_payload,
    ParseError,
)

log = logging.getLogger(__name__)


class IdentificationAbort(Exception):
    """Generic abort, raised alike for every failure cause."""


@dataclass(slots=True)
class SubscriberRecord:
    supi: str
    k: bytes
    k_s: Optional[bytes] = None


@dataclass
class PendingAuth:
    k_seaf: bytes
    supi: str
    k_s_new: bytes                            # committed on confirmation


@dataclass
class HnState:
    id_hn: str
    kem: KemSuite
    kem_pair: KemKeyPair                      # sk_H never serialized
    registry: dict[str, SubscriberRecord] = field(default_factory=dict)
    sn_allowlist: set[str] = field(default_factory=set)
    pending: dict[bytes, PendingAuth] = field(default_factory=dict)
    persist_path: Optional[str] = None


def hn_identify(
    state: HnState, msg: SnToHnIdentMsg, claimed_id_sn: str
) -> tuple[str, bytes, SubscriberRecord]:
    """Recover (SUPI, pk_U) from the concealed identifier, or abort. MAC_U
    is SUCI_conc's AEAD tag, so opening checks it."""
    if claimed_id_sn not in state.sn_allowlist:     # before any KEM work
        raise IdentificationAbort()
    if state.kem_pair.handle is None:        # a pickled pair drops its handle
        state.kem_pair = crypto.kem_load(state.kem, state.kem_pair)
    try:
        k_s1 = crypto.kem_decaps(state.kem, state.kem_pair, msg.c1)
        plain = crypto.aead_open(k_s1, msg.suci_conc + msg.mac_u)
        supi, pk_u, id_sn = unpack_suci_payload(plain)
    except (crypto.CryptoError, ParseError):
        raise IdentificationAbort() from None
    if id_sn != claimed_id_sn:
        raise IdentificationAbort()
    record = state.registry.get(supi)
    if record is None:
        raise IdentificationAbort()
    return supi, pk_u, record


def _derive_vector(
    state: HnState,
    record: SubscriberRecord,
    k_star: bytes,
    c2: Optional[bytes],
    r_sn: bytes,
    id_sn: str,
) -> HnToSnAuthMsg:
    k = crypto.prf_key(record.k)
    mac = crypto.prf_f("1", k, [k_star, r_sn])
    f5 = crypto.prf_f("5", k, [k_star])
    conc = crypto.xor_bytes(f5, r_sn)
    res_star, k_seaf, k_s_new = crypto.session_keys(
        k, k_star, r_sn, conc, id_sn)
    k3 = crypto.kdf([res_star, f5])
    # the SUPI goes back only to an SN that sent a SUCI (TS 33.501
    # §6.1.3.2, step 12); c2 is None on the GUTI path alone
    m = crypto.aead_seal(k3, pack_m_payload(k_seaf, None if c2 is None else record.supi))
    store.hold_pending(state.pending, r_sn, PendingAuth(
        k_seaf=k_seaf, supi=record.supi, k_s_new=k_s_new))
    return HnToSnAuthMsg(conc=conc, mac=mac, m=m, c2=c2)


def hn_auth_vector(
    state: HnState,
    record: SubscriberRecord,
    pk_u: bytes,
    r_sn: bytes,
    id_sn: str,
    rng: RandomSource,
) -> HnToSnAuthMsg:
    """SUPI-path vector: fresh encapsulation against the UE public key. A
    pk_U the suite rejects (a SUCI forged by a subscriber's own device)
    aborts like any identification failure."""
    try:
        c2, k_s2 = crypto.kem_encaps(state.kem, pk_u, rng)
    except crypto.CryptoError:
        raise IdentificationAbort() from None
    return _derive_vector(state, record, k_s2, c2, r_sn, id_sn)


def hn_guti_auth_vector(
    state: HnState, msg: GutiSnToHnMsg, id_sn: str
) -> HnToSnAuthMsg:
    """GUTI-path vector: ratchet key replaces the encapsulated key, no c2."""
    if id_sn not in state.sn_allowlist:
        raise IdentificationAbort()
    record = state.registry.get(msg.supi)
    if record is None or record.k_s is None:
        raise IdentificationAbort()
    k_s_prime = crypto.xor_bytes(record.k_s, msg.r_sn_prime)
    return _derive_vector(state, record, k_s_prime, None, msg.r_sn, id_sn)


def hn_finalize(state: HnState, sid: bytes) -> Optional[bytes]:
    """Commit the confirmed session's own ratchet key and return its K_seaf
    (None for an unknown session)."""
    pending = state.pending.pop(sid, None)
    if pending is None:
        log.info("confirmation for unknown session; ignored")
        return None
    state.registry[pending.supi].k_s = pending.k_s_new
    if state.persist_path:
        save_registry(state.persist_path, state.registry, pending.supi)
    return pending.k_seaf


def hn_abort(state: HnState, sid: bytes) -> None:
    """sn-abort: drop the session's pending entry, so its K_S is never committed."""
    state.pending.pop(sid, None)


# --- registry persistence ---------------------------------------------------

_REGISTRY = store.Table(
    "registry", 5, (("supi", wire.SUPI), ("k", wire.fixed(crypto.KEY_LEN)),
                    ("k_s", wire.Kind(crypto.KEY_LEN, optional=True))))


def save_registry(path: str, registry: dict[str, SubscriberRecord],
                  supi: Optional[str] = None) -> None:
    """Store K and K_S of every subscriber at path; once the store holds
    this registry, a commit naming its supi writes that row only."""
    store.save(path, _REGISTRY, registry,
               lambda s, rec: (s, rec.k, rec.k_s), supi)


def load_registry(path: str) -> dict[str, SubscriberRecord]:
    return {supi: SubscriberRecord(supi=supi, k=k, k_s=k_s)
            for supi, k, k_s in store.load(path, _REGISTRY)}
