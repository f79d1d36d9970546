"""HN state machine: subscriber registry, identification, vector generation.

Every identification failure, whatever its cause, raises the same
IdentificationAbort, so the SN (and anything observing the core channel)
cannot tell the causes apart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from . import crypto, store
from .crypto import KemKeyPair, KemSuite
from .rng import RandomSource
from .wire import (
    Autn,
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
    xres_star: bytes
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
    """Recover (SUPI, pk_U) from the concealed identifier, or abort."""
    if state.kem_pair.handle is None:        # a pickled pair drops its handle
        state.kem_pair = crypto.kem_load(state.kem, state.kem_pair)
    try:
        k_s1 = crypto.as_shared_key(
            crypto.kem_decaps(state.kem, state.kem_pair, msg.c1))
        plain = crypto.aead_open(k_s1, msg.suci_conc)
        supi, pk_u, id_sn = unpack_suci_payload(plain)
    except (crypto.CryptoError, crypto.AeadFailure, ParseError):
        raise IdentificationAbort() from None
    if not crypto.hmac_verify(k_s1, msg.suci_conc, msg.mac_u):
        raise IdentificationAbort()
    if id_sn != claimed_id_sn or claimed_id_sn not in state.sn_allowlist:
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
    sid: bytes,
) -> HnToSnAuthMsg:
    k = crypto.prf_key(record.k)
    mac = crypto.prf_f("1", k, [k_star, r_sn])
    f5 = crypto.prf_f("5", k, [k_star])
    conc = crypto.xor_bytes(f5, r_sn)
    xres_star, k_seaf, k_s_new = crypto.session_keys(
        k, k_star, r_sn, conc, id_sn)
    k3 = crypto.xor_bytes(xres_star, f5)
    m = crypto.aead_seal(k3, pack_m_payload(k_seaf, record.supi))
    state.pending[sid] = PendingAuth(xres_star=xres_star, k_seaf=k_seaf,
                                     supi=record.supi, k_s_new=k_s_new)
    return HnToSnAuthMsg(autn=Autn(conc=conc, mac=mac),
                         hxres_star=crypto.hash_h([r_sn, xres_star]), m=m, c2=c2)


def hn_auth_vector(
    state: HnState,
    record: SubscriberRecord,
    pk_u: bytes,
    r_sn: bytes,
    id_sn: str,
    rng: RandomSource,
    sid: bytes,
) -> HnToSnAuthMsg:
    """SUPI-path vector: fresh encapsulation against the UE public key."""
    c2, k_s2_raw = crypto.kem_encaps(state.kem, pk_u, rng)
    k_s2 = crypto.as_shared_key(k_s2_raw)
    return _derive_vector(state, record, k_s2, c2, r_sn, id_sn, sid)


def hn_guti_auth_vector(
    state: HnState, msg: GutiSnToHnMsg, id_sn: str, sid: bytes
) -> HnToSnAuthMsg:
    """GUTI-path vector: ratchet key replaces the encapsulated key, no c2."""
    if id_sn not in state.sn_allowlist:
        raise IdentificationAbort()
    record = state.registry.get(msg.supi)
    if record is None or record.k_s is None:
        raise IdentificationAbort()
    k_s_prime = crypto.xor_bytes(record.k_s, msg.r_sn_prime)
    return _derive_vector(state, record, k_s_prime, None, msg.r_sn, id_sn, sid)


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


# --- registry persistence ---------------------------------------------------

_REGISTRY = store.Table("registry", "supi", "k", "k_s", nullable="k_s")


def save_registry(path: str, registry: dict[str, SubscriberRecord],
                  supi: Optional[str] = None) -> None:
    """Store K and K_S of every subscriber at path; once the store holds
    this registry, a commit naming its supi writes that row only."""
    store.save(path, _REGISTRY, registry,
               lambda s, rec: (s, rec.k, rec.k_s), supi)


def load_registry(path: str) -> dict[str, SubscriberRecord]:
    return {supi: SubscriberRecord(supi=supi, k=k, k_s=k_s)
            for supi, k, k_s in store.load(path, _REGISTRY)}
