"""Cryptographic core: KEM abstraction, test KEM, and the symmetric suite.

The symmetric family f1..f5 is a keyed PRF (HMAC-SHA-256 with a
one-byte domain tag), not MILENAGE. Keys are 32 bytes. R_SN is 16 bytes,
as 5G sizes RAND, and so is its mask AK = f5, so both XORs in the
protocol are well-typed: K_S xor R_SN' at 32 bytes, AK xor R_SN at 16.
The AUTN MAC and RES*, the check values, are 16 bytes, the width of the
AEAD tags. MAC_U is the AEAD tag of SUCI_conc, and the SN checks RES* by
opening M, whose tag is under K3 = KDF(RES*, AK).
The test KEM is insecure by design: a deterministic construction over
SHA-256 used as a test double.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .rng import RandomSource

KEY_LEN = 32
CHECK_LEN = 16      # the AUTN MAC and RES*: no key, no XOR operand
RAND_LEN = 16       # R_SN and AK = f5, which masks it into CONC (TS 33.102 RAND)
AEAD_TAG_OVERHEAD = 16
_AEAD_NONCE = bytes(12)  # keys are single-use per session; fixed nonce is safe

# f-index -> (domain-separation tag, output width); f1 is the AUTN MAC, f5 AK
_F_FAMILY = {"1": (b"\x01", CHECK_LEN), "2": (b"\x02", KEY_LEN), "3": (b"\x03", KEY_LEN),
             "4": (b"\x04", KEY_LEN), "5": (b"\x05", RAND_LEN)}

# RFC 2104 key pads as bytes.translate tables: byte b becomes b ^ pad
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_SHA256_BLOCK = 64


class CryptoError(Exception):
    """Malformed input to a cryptographic operation."""


class SuiteUnavailableError(CryptoError):
    """The named KEM backend is registered for metadata only."""


class AeadFailure(Exception):
    """Authentication failure on open; callers abort silently."""


def _check_key(key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise CryptoError(f"key must be {KEY_LEN} bytes, got {len(key)}")


def _lp(inputs: list[bytes] | tuple[bytes, ...]) -> bytes:
    """Length-prefixed concatenation: 4-byte big-endian length per field."""
    parts = []
    for x in inputs:
        parts.append(len(x).to_bytes(4, "big"))
        parts.append(x)
    return b"".join(parts)


class PrfKey(NamedTuple):
    """A key loaded for the f-family: the SHA-256 states after HMAC's inner
    and outer key blocks. It is derived from the key, so keep it in a local
    for the calls of one session, never in role state or outcomes."""
    inner: object
    outer: object


def prf_key(key: bytes) -> PrfKey:
    """Check the key and hash its two HMAC-SHA-256 key blocks once."""
    _check_key(key)
    block = key.ljust(_SHA256_BLOCK, b"\0")
    return PrfKey(hashlib.sha256(block.translate(_IPAD)),
                  hashlib.sha256(block.translate(_OPAD)))


def prf_f(index: str, key: bytes | PrfKey, inputs: list[bytes]) -> bytes:
    """f_index(key, inputs): HMAC-SHA-256 over a tag byte plus the inputs,
    under the raw key or the PrfKey that prf_key loaded from it, cut to the
    index's width (its leftmost bytes, RFC 2104 §5)."""
    if index not in _F_FAMILY:
        raise CryptoError(f"unknown f-index {index!r}")
    tag, width = _F_FAMILY[index]
    inner, outer = key if isinstance(key, PrfKey) else prf_key(key)
    if not inputs:
        raise CryptoError("f-family requires at least one input")
    inner = inner.copy()
    inner.update(tag + _lp(inputs))
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:width]


def kdf(inputs: list[bytes]) -> bytes:
    """SHA-256 over the length-prefixed input fields."""
    if not inputs:
        raise CryptoError("kdf requires at least one input")
    return hashlib.sha256(_lp(inputs)).digest()


def hash_h(inputs: list[bytes]) -> bytes:
    """The protocol hash h: same construction as the KDF."""
    if not inputs:
        raise CryptoError("hash_h requires at least one input")
    return hashlib.sha256(_lp(inputs)).digest()


def hmac_tag(key: bytes, data: bytes) -> bytes:
    """The leftmost CHECK_LEN bytes of HMAC-SHA-256 (RFC 2104 §5). No role
    calls it since MAC_U became SUCI_conc's AEAD tag; it is kept because
    perfbench/tracer.py wraps it by name."""
    _check_key(key)
    return _hmac.new(key, data, hashlib.sha256).digest()[:CHECK_LEN]


def aead_seal(key: bytes, plaintext: bytes) -> bytes:
    """AES-256-GCM under a zero nonce; key must be fresh per session."""
    _check_key(key)
    return AESGCM(key).encrypt(_AEAD_NONCE, plaintext, None)


def aead_open(key: bytes, ciphertext: bytes) -> bytes:
    _check_key(key)
    try:
        return AESGCM(key).decrypt(_AEAD_NONCE, ciphertext, None)
    except InvalidTag as exc:
        raise AeadFailure("ciphertext rejected") from exc


def r_sn_prime(k_seaf: bytes) -> bytes:
    """R_SN', the GUTI path's ratchet mask, from the K_seaf of the session
    that assigned the GUTI: UE and SN both hold that key, so each derives
    R_SN' and the radio never carries it."""
    return kdf([k_seaf, b"r-sn-prime"])


def as_shared_key(k: bytes) -> bytes:
    """Normalize a KEM shared secret to the protocol's 32-byte key width."""
    return k if len(k) == KEY_LEN else kdf([k])


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise CryptoError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def session_keys(k: bytes | PrfKey, k_star: bytes, r_sn: bytes, conc: bytes,
                 id_sn: str) -> tuple[bytes, bytes, bytes]:
    """The key schedule UE and HN share: (RES*, K_SEAF, next K_S), under
    the raw K or its PrfKey. RES* is the CHECK_LEN least significant bytes
    of its KDF output, as TS 33.501 Annex A.4 takes them, and binds R_SN,
    so it is fresh per session even where K* repeats (the GUTI path)."""
    id_sn_b = id_sn.encode()
    res = prf_f("2", k, [k_star])
    ck = prf_f("3", k, [k_star])
    ik = prf_f("4", k, [k_star])
    res_star = kdf([ck, ik, k_star, res, r_sn, id_sn_b])[-CHECK_LEN:]
    k_ausf = kdf([ck, ik, k_star, conc, id_sn_b])
    return res_star, kdf([k_ausf, id_sn_b]), hash_h([k_star, r_sn])


@dataclass(frozen=True)
class KemKeyPair:
    pk: bytes
    sk: bytes
    # sk loaded by the suite (see KemSuite.load_sk); None: not loaded yet.
    # Loaded keys do not pickle, so a pickled or deep-copied pair drops it.
    handle: object = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {"pk": self.pk, "sk": self.sk, "handle": None}


@dataclass(frozen=True)
class KemSuite:
    """One KEM algorithm plus its parameter-size metadata.

    A suite with callables set to None is metadata-only: its sizes appear
    in reports but key operations raise SuiteUnavailableError.

    decaps(handle, pk, ct) takes the sk as load_sk loaded it, and the pk
    of the pair, or None for the suite to derive it from the handle.
    Without load_sk the handle is the sk bytes.
    """

    name: str
    sk_len: int
    pk_len: int
    ct_len: int
    key_len: int
    keygen: Optional[Callable[[RandomSource], KemKeyPair]] = field(default=None)
    encaps: Optional[Callable[[bytes, RandomSource], tuple[bytes, bytes]]] = field(default=None)
    decaps: Optional[Callable[[object, Optional[bytes], bytes], bytes]] = field(default=None)
    load_sk: Optional[Callable[[bytes], object]] = field(default=None)

    @property
    def available(self) -> bool:
        return self.keygen is not None

    def __reduce__(self):
        # by name if registered (a backend's callables may be closures), else by value
        if _REGISTRY.get(self.name) is self:
            return get_suite, (self.name,)
        return KemSuite, tuple(getattr(self, f.name) for f in fields(self))


def kem_keygen(suite: KemSuite, rng: RandomSource) -> KemKeyPair:
    if not suite.available:
        raise SuiteUnavailableError(f"KEM backend {suite.name!r} not compiled in")
    pair = suite.keygen(rng.stream("kem_keygen"))
    if len(pair.pk) != suite.pk_len or len(pair.sk) != suite.sk_len:
        raise CryptoError(f"{suite.name}: keypair lengths differ from metadata")
    return pair


def kem_encaps(suite: KemSuite, pk: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
    """(ct, the protocol key): as_shared_key of the shared secret."""
    if not suite.available:
        raise SuiteUnavailableError(f"KEM backend {suite.name!r} not compiled in")
    if len(pk) != suite.pk_len:
        raise CryptoError(f"{suite.name}: pk must be {suite.pk_len} bytes")
    ct, k = suite.encaps(pk, rng.stream("kem_encaps"))
    if len(ct) != suite.ct_len or len(k) != suite.key_len:
        raise CryptoError(f"{suite.name}: encaps output lengths differ from metadata")
    return ct, as_shared_key(k)


def _load_sk(suite: KemSuite, sk: bytes) -> object:
    return suite.load_sk(sk) if suite.load_sk else sk


def kem_load(suite: KemSuite, pair: KemKeyPair) -> KemKeyPair:
    """The pair with its sk loaded into the suite's handle."""
    return replace(pair, handle=_load_sk(suite, pair.sk))


def kem_decaps(suite: KemSuite, sk: bytes | KemKeyPair, ct: bytes) -> bytes:
    """The protocol key from ct, under raw sk bytes or a key pair with its pk
    and handle; raw bytes, or a pair without a handle, are loaded for this call."""
    if not suite.available:
        raise SuiteUnavailableError(f"KEM backend {suite.name!r} not compiled in")
    if isinstance(sk, KemKeyPair):
        sk, pk, handle = sk.sk, sk.pk, sk.handle
    else:
        pk = handle = None
    if len(sk) != suite.sk_len:
        raise CryptoError(f"{suite.name}: sk must be {suite.sk_len} bytes")
    if len(ct) != suite.ct_len:
        raise CryptoError(f"{suite.name}: ct must be {suite.ct_len} bytes")
    return as_shared_key(
        suite.decaps(_load_sk(suite, sk) if handle is None else handle, pk, ct))


# --- test KEM -------------------------------------------------------------

def _test_pk(sk: bytes) -> bytes:
    return _hmac.new(sk, b"pk", hashlib.sha256).digest()


def _test_keygen(rng: RandomSource) -> KemKeyPair:
    sk = rng.bytes(32)
    return KemKeyPair(pk=_test_pk(sk), sk=sk, handle=sk)


def _test_encaps(pk: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
    r = rng.bytes(32)
    return r, hash_h([pk, r])


def _test_decaps(sk: bytes, pk: Optional[bytes], ct: bytes) -> bytes:
    return hash_h([pk or _test_pk(sk), ct])


TEST_KEM = KemSuite(
    name="test",
    sk_len=32, pk_len=32, ct_len=32, key_len=32,
    keygen=_test_keygen, encaps=_test_encaps, decaps=_test_decaps,
)


# --- suite registry --------------------------------------------------------

_REGISTRY: dict[str, KemSuite] = {}


def register_suite(suite: KemSuite) -> None:
    _REGISTRY[suite.name] = suite


def get_suite(name: str) -> KemSuite:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown KEM suite {name!r}; registered: {', '.join(registered_suites())}"
        ) from None


def registered_suites() -> list[str]:
    return sorted(_REGISTRY)


def available_suites() -> list[str]:
    return sorted(n for n, s in _REGISTRY.items() if s.available)


register_suite(TEST_KEM)

# Post-quantum parameter sizes at the NIST level-1 / 128-bit setting, for size
# reports; key operations need liboqs, whose backends replace these rows.
# ML-KEM ships operational in backends when cryptography's mlkem imports.
for _name, _sk, _pk, _ct, _k in [
    ("kyber", 1632, 800, 768, 32),
    ("mceliece", 6452, 261120, 128, 32),
    ("bike", 5223, 1541, 1573, 32),
    ("hqc", 2289, 2249, 4481, 64),
]:
    register_suite(KemSuite(name=_name, sk_len=_sk, pk_len=_pk, ct_len=_ct, key_len=_k))
