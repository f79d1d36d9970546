"""Real KEM backends behind the suite registry.

Two ECIES profiles (Curve25519, secp256r1) are always built, serving as the
classical baseline: one DH-KEM construction, registered once per curve.
ML-KEM-768 and ML-KEM-1024 (FIPS 203) are registered when the installed
``cryptography`` has its ``mlkem`` module. The other post-quantum backends
are wired up only when the optional liboqs python binding is importable;
otherwise the PQ names stay metadata-only and operations on them raise
SuiteUnavailableError.
"""

from __future__ import annotations

from typing import Callable

from cryptography.hazmat.primitives.asymmetric import ec, x25519
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .crypto import CryptoError, KemKeyPair, KemSuite, hash_h, register_suite
from .rng import RandomSource


def _register_dh_kem(name: str, pk_len: int, sk_from_rng: Callable, load: Callable,
                     pk_bytes: Callable, exchange: Callable) -> None:
    """Register TS 33.501 Annex C's ECIES KEM over one curve as RFC 9180's DHKEM:
    ct is an ephemeral pk and the key hash_h(ct, pk, shared secret). A peer
    point that exchange(priv, peer) rejects is a CryptoError: the role aborts."""

    def dh(priv: object, peer: bytes) -> bytes:
        try:
            return exchange(priv, peer)
        except ValueError:
            raise CryptoError(f"{name}: peer point rejected") from None

    def keygen(rng: RandomSource) -> KemKeyPair:
        sk = sk_from_rng(rng)
        priv = load(sk)
        return KemKeyPair(pk=pk_bytes(priv), sk=sk, handle=priv)

    def encaps(pk: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
        eph = load(sk_from_rng(rng))
        ct = pk_bytes(eph)
        return ct, hash_h([ct, pk, dh(eph, pk)])

    def decaps(priv: object, pk: bytes, ct: bytes) -> bytes:
        return hash_h([ct, pk, dh(priv, ct)])

    register_suite(KemSuite(
        name=name, sk_len=32, pk_len=pk_len, ct_len=pk_len, key_len=32,
        keygen=keygen, encaps=encaps, decaps=decaps, load_sk=load))


# profile A: sk is 32 drawn bytes, pk the raw 32-byte u-coordinate
_register_dh_kem(
    "ecies-x25519", 32, lambda rng: rng.bytes(32),
    lambda sk: X25519PrivateKey.from_private_bytes(sk),   # looked up per call
    lambda priv: priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw),
    lambda priv, peer: priv.exchange(x25519.X25519PublicKey.from_public_bytes(peer)))

# profile B: sk is d = drawn int mod (n - 1) + 1, pk a 33-byte compressed point
_P256 = ec.SECP256R1()
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_register_dh_kem(
    "ecies-p256", 33,
    lambda rng: (int.from_bytes(rng.bytes(32), "big") % (_P256_ORDER - 1) + 1
                 ).to_bytes(32, "big"),
    lambda sk: ec.derive_private_key(int.from_bytes(sk, "big"), _P256),
    lambda priv: priv.public_key().public_bytes(
        Encoding.X962, PublicFormat.CompressedPoint),
    lambda priv, peer: priv.exchange(
        ec.ECDH(), ec.EllipticCurvePublicKey.from_encoded_point(_P256, peer)))


# FIPS 203 parameter sets: suite name, class-name stem in cryptography's
# mlkem module, pk and ct lengths; sk is the 64-byte seed d || z, key 32 B
_MLKEM = (("ml-kem-768", "MLKEM768", 1184, 1088),
          ("ml-kem-1024", "MLKEM1024", 1568, 1568))


def _register_mlkem(name: str, pk_len: int, ct_len: int, load: Callable,
                    public: Callable) -> None:
    """Register one ML-KEM parameter set: keygen draws the seed from the
    RandomSource and load (from_seed_bytes) expands it, but encapsulate()
    draws its own randomness, so c1 and c2 cannot be seeded. A pk that
    public (from_public_bytes) rejects is a CryptoError: the role aborts. A
    wrong ct decapsulates to a key the peer lacks (implicit rejection)."""

    def keygen(rng: RandomSource) -> KemKeyPair:
        sk = rng.bytes(64)
        priv = load(sk)
        return KemKeyPair(pk=priv.public_key().public_bytes_raw(), sk=sk, handle=priv)

    def encaps(pk: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
        try:
            key, ct = public(pk).encapsulate()
        except ValueError:
            raise CryptoError(f"{name}: public key rejected") from None
        return ct, key

    register_suite(KemSuite(
        name=name, sk_len=64, pk_len=pk_len, ct_len=ct_len, key_len=32,
        keygen=keygen, encaps=encaps,
        decaps=lambda priv, pk, ct: priv.decapsulate(ct), load_sk=load))


def _try_register_mlkem() -> None:
    try:
        from cryptography.hazmat.primitives.asymmetric import mlkem
    except ImportError:
        return
    for name, stem, pk_len, ct_len in _MLKEM:
        _register_mlkem(name, pk_len, ct_len,
                        getattr(mlkem, stem + "PrivateKey").from_seed_bytes,
                        getattr(mlkem, stem + "PublicKey").from_public_bytes)


_try_register_mlkem()


def _try_register_liboqs() -> None:
    try:
        import oqs  # type: ignore[import-not-found]
    except ImportError:
        return

    mapping = {
        "kyber": "Kyber512",
        "mceliece": "Classic-McEliece-348864",
        "bike": "BIKE-L1",
        "hqc": "HQC-128",
    }
    enabled = set(oqs.get_enabled_kem_mechanisms())
    for name, mech in mapping.items():
        if mech not in enabled:
            continue
        with oqs.KeyEncapsulation(mech) as probe:
            d = probe.details

        def keygen(rng: RandomSource, _mech=mech) -> KemKeyPair:
            with oqs.KeyEncapsulation(_mech) as kem:
                pk = kem.generate_keypair()
                return KemKeyPair(pk=pk, sk=kem.export_secret_key())

        def encaps(pk: bytes, rng: RandomSource, _mech=mech) -> tuple[bytes, bytes]:
            with oqs.KeyEncapsulation(_mech) as kem:
                return kem.encap_secret(pk)

        def decaps(sk: bytes, pk: bytes, ct: bytes, _mech=mech) -> bytes:
            with oqs.KeyEncapsulation(_mech, sk) as kem:
                return kem.decap_secret(ct)

        register_suite(KemSuite(
            name=name,
            sk_len=d["length_secret_key"],
            pk_len=d["length_public_key"],
            ct_len=d["length_ciphertext"],
            key_len=d["length_shared_secret"],
            keygen=keygen, encaps=encaps, decaps=decaps,
        ))


_try_register_liboqs()
