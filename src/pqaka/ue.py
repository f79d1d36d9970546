"""UE state machine: identification, challenge verification, ratchet upkeep.

The USIM and ME are modeled as one entity holding one state object. All
verification failures abort silently: the UE emits nothing, so an observer
cannot distinguish failure causes. No operation touches a sequence number.
"""

from __future__ import annotations

import hmac as _hmac
import logging
from dataclasses import dataclass
from typing import Optional

from . import crypto
from .crypto import KemKeyPair, KemSuite
from .rng import RandomSource
from .wire import (
    ChallengeMsg,
    GutiAssignMsg,
    GutiIdMsg,
    IdResponseMsg,
    ResponseMsg,
    pack_suci_payload,
)

log = logging.getLogger(__name__)


class ConfigurationError(Exception):
    pass


@dataclass(slots=True)
class UeState:
    supi: str
    k: bytes                      # long-term key; never leaves this object
    pk_h: Optional[bytes]
    id_hn: str
    id_sn_expected: str
    kem: KemSuite
    guti: Optional[bytes] = None
    k_s: Optional[bytes] = None              # confirmed ratchet key
    k_s_pending: Optional[bytes] = None      # staged until GUTI assignment
    r_sn_prime: Optional[bytes] = None
    ephemeral: Optional[KemKeyPair] = None   # sk_U/pk_U and sk_U's handle, session-scoped
    k_seaf: Optional[bytes] = None           # anchor key of the last session


def ue_identification_response(state: UeState, rng: RandomSource) -> IdResponseMsg:
    """SUPI-based identification: fresh KEM pair, SUCI concealment. The AEAD's
    tag is sent as MAC_U, apart from the ciphertext SUCI_conc."""
    if state.pk_h is None:
        raise ConfigurationError("UE has no HN public key provisioned")
    pair = crypto.kem_keygen(state.kem, rng)
    state.ephemeral = pair
    c1, k_s1_raw = crypto.kem_encaps(state.kem, state.pk_h, rng)
    k_s1 = crypto.as_shared_key(k_s1_raw)
    sealed = crypto.aead_seal(
        k_s1, pack_suci_payload(state.supi, pair.pk, state.id_sn_expected))
    del k_s1  # single-use; not retained in state
    cut = len(sealed) - crypto.AEAD_TAG_OVERHEAD
    return IdResponseMsg(c1=c1, suci_conc=sealed[:cut], mac_u=sealed[cut:],
                         id_hn=state.id_hn)


def ue_guti_identification(state: UeState) -> Optional[GutiIdMsg]:
    """GUTI-based identification; None tells the caller to run the SUPI path."""
    if state.guti is None or state.k_s is None or state.r_sn_prime is None:
        return None
    return GutiIdMsg(guti=state.guti)


def _abort(state: UeState) -> None:
    state.ephemeral = None
    state.k_s_pending = None


def ue_process_challenge(state: UeState, ch: ChallengeMsg) -> Optional[ResponseMsg]:
    """Verify AUTN and derive the session keys; None means silent abort."""
    if ch.c2 is not None:
        if state.ephemeral is None:
            _abort(state)
            return None
        try:
            k_star = crypto.as_shared_key(
                crypto.kem_decaps(state.kem, state.ephemeral, ch.c2))
        except crypto.CryptoError:
            _abort(state)
            return None
    else:       # the GUTI path: never in a session that drew sk_U
        if state.ephemeral is not None or state.k_s is None or state.r_sn_prime is None:
            _abort(state)
            return None
        k_star = crypto.xor_bytes(state.k_s, state.r_sn_prime)

    k = crypto.prf_key(state.k)
    ak = crypto.prf_f("5", k, [k_star])
    r_sn = crypto.xor_bytes(ch.conc, ak)
    mac = crypto.prf_f("1", k, [k_star, r_sn])
    if not _hmac.compare_digest(mac, ch.mac):
        _abort(state)
        if ch.c2 is None:    # the HN may hold another K_S: identify by SUPI next
            state.guti = None
        return None

    res_star, state.k_seaf, state.k_s_pending = crypto.session_keys(
        k, k_star, r_sn, ch.conc, state.id_sn_expected)
    return ResponseMsg(res_star=res_star)


def ue_handle_guti_assignment(state: UeState, msg: GutiAssignMsg) -> None:
    """Commit the pending ratchet key, and R_SN' derived from the K_seaf
    that opened the assignment; doubles as completion confirmation."""
    if state.k_s_pending is None:
        log.info("GUTI assignment with no pending session; ignored")
        return
    state.guti = msg.guti_new
    state.r_sn_prime = crypto.r_sn_prime(state.k_seaf)
    state.k_s = state.k_s_pending
    state.k_s_pending = None
    state.ephemeral = None
