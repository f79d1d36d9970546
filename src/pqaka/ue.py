"""UE state machine: identification, challenge verification, ratchet upkeep.

The USIM and ME are modeled as one entity holding one state object, which
keeps only what outlives a session: what one session makes (sk_U, K_seaf,
the next K_S) goes back to the caller, so one UE's sessions may overlap.
All verification failures abort silently: the UE emits nothing, so an
observer cannot distinguish failure causes. No operation touches a
sequence number.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass
from typing import Optional

from . import crypto
from .crypto import KemKeyPair, KemSuite
from .rng import RandomSource
from .wire import (
    ChallengeMsg,
    GutiIdMsg,
    IdRequestMsg,
    IdResponseMsg,
    Message,
    ResponseMsg,
    pack_suci_payload,
)


@dataclass(slots=True)
class UeState:
    supi: str
    k: bytes                      # long-term key; never leaves this object
    pk_h: bytes
    id_hn: str
    id_sn_expected: str
    kem: KemSuite
    guti: Optional[bytes] = None
    k_s: Optional[bytes] = None              # confirmed ratchet key
    r_sn_prime: Optional[bytes] = None


def ue_identification_response(state: UeState,
                               rng: RandomSource) -> tuple[IdResponseMsg, KemKeyPair]:
    """SUPI-based identification: fresh KEM pair, SUCI concealment. The AEAD's
    tag is sent as MAC_U, apart from the ciphertext SUCI_conc. The pair,
    sk_U/pk_U and sk_U's handle, belongs to this session alone."""
    pair = crypto.kem_keygen(state.kem, rng)
    c1, k_s1 = crypto.kem_encaps(state.kem, state.pk_h, rng)
    sealed = crypto.aead_seal(
        k_s1, pack_suci_payload(state.supi, pair.pk, state.id_sn_expected))
    del k_s1  # single-use; not retained in state
    cut = len(sealed) - crypto.AEAD_TAG_OVERHEAD
    return IdResponseMsg(c1=c1, suci_conc=sealed[:cut], mac_u=sealed[cut:],
                         id_hn=state.id_hn), pair


def ue_guti_identification(state: UeState, req: Message,
                           first: bool) -> Optional[GutiIdMsg]:
    """GUTI-based identification, in answer to a first request that allows
    one; None tells the caller to run the SUPI path."""
    allowed = first and isinstance(req, IdRequestMsg) and not req.force_supi
    if not allowed or state.guti is None or state.k_s is None or state.r_sn_prime is None:
        return None
    return GutiIdMsg(guti=state.guti)


def ue_process_challenge(
    state: UeState, ch: ChallengeMsg, ephemeral: Optional[KemKeyPair],
) -> Optional[tuple[ResponseMsg, bytes, bytes]]:
    """Verify AUTN under the sk_U pair this session drew (None if it drew
    none) and derive the session keys: (RES*, K_seaf, the next K_S), the
    last staged with the caller until the GUTI assignment. None means
    silent abort."""
    if ch.c2 is not None:
        if ephemeral is None:
            return None
        try:
            k_star = crypto.kem_decaps(state.kem, ephemeral, ch.c2)
        except crypto.CryptoError:
            return None
    else:       # the GUTI path: never in a session that drew sk_U
        if ephemeral is not None or state.k_s is None or state.r_sn_prime is None:
            return None
        k_star = crypto.xor_bytes(state.k_s, state.r_sn_prime)
    return _answer(state, ch, k_star)


def _answer(state: UeState, ch: ChallengeMsg,
            k_star: bytes) -> Optional[tuple[ResponseMsg, bytes, bytes]]:
    """Check AUTN under K* and derive (RES*, K_seaf, the next K_S); None
    means silent abort."""
    k = crypto.prf_key(state.k)
    ak = crypto.prf_f("5", k, [k_star])
    r_sn = crypto.xor_bytes(ch.conc, ak)
    mac = crypto.prf_f("1", k, [k_star, r_sn])
    if not _hmac.compare_digest(mac, ch.mac):
        if ch.c2 is None:    # the HN may hold another K_S: identify by SUPI next
            state.guti = None
        return None

    res_star, k_seaf, k_s_new = crypto.session_keys(
        k, k_star, r_sn, ch.conc, state.id_sn_expected)
    return ResponseMsg(res_star=res_star), k_seaf, k_s_new


def ue_handle_guti_assignment(state: UeState, guti: bytes,
                              k_seaf: bytes, k_s_new: bytes) -> None:
    """Commit the session's ratchet key, and R_SN' derived from the K_seaf
    that opened the assignment; doubles as completion confirmation."""
    state.guti = guti
    state.r_sn_prime = crypto.r_sn_prime(k_seaf)
    state.k_s = k_s_new
