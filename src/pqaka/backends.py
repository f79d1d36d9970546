"""Real KEM backends behind the suite registry.

Two ECIES profiles (Curve25519, secp256r1) are always built, serving as the
classical baseline. Post-quantum backends are wired up only when the
optional liboqs python binding is importable; otherwise the PQ names stay
metadata-only and operations on them raise SuiteUnavailableError.
"""

from __future__ import annotations

from typing import Optional

from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from .crypto import KemKeyPair, KemSuite, hash_h, register_suite
from .rng import RandomSource


def _x25519_load(sk: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(sk)


def _x25519_pk_bytes(priv: X25519PrivateKey) -> bytes:
    return priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def _x25519_keygen(rng: RandomSource) -> KemKeyPair:
    sk = rng.bytes(32)
    priv = _x25519_load(sk)
    return KemKeyPair(pk=_x25519_pk_bytes(priv), sk=sk, handle=priv)


def _x25519_encaps(pk: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
    eph = _x25519_load(rng.bytes(32))
    eph_pk = _x25519_pk_bytes(eph)
    shared = eph.exchange(X25519PublicKey.from_public_bytes(pk))
    return eph_pk, hash_h([eph_pk, pk, shared])


def _x25519_decaps(priv: X25519PrivateKey, pk: Optional[bytes], ct: bytes) -> bytes:
    shared = priv.exchange(X25519PublicKey.from_public_bytes(ct))
    return hash_h([ct, pk or _x25519_pk_bytes(priv), shared])


_P256 = ec.SECP256R1()
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def _p256_priv_from_rng(rng: RandomSource) -> ec.EllipticCurvePrivateKey:
    d = int.from_bytes(rng.bytes(32), "big") % (_P256_ORDER - 1) + 1
    return ec.derive_private_key(d, _P256)


def _p256_pk_bytes(priv: ec.EllipticCurvePrivateKey) -> bytes:
    return priv.public_key().public_bytes(
        Encoding.X962, PublicFormat.CompressedPoint
    )


def _p256_load(sk: bytes) -> ec.EllipticCurvePrivateKey:
    return ec.derive_private_key(int.from_bytes(sk, "big"), _P256)


def _p256_keygen(rng: RandomSource) -> KemKeyPair:
    priv = _p256_priv_from_rng(rng)
    sk = priv.private_numbers().private_value.to_bytes(32, "big")
    return KemKeyPair(pk=_p256_pk_bytes(priv), sk=sk, handle=priv)


def _p256_encaps(pk: bytes, rng: RandomSource) -> tuple[bytes, bytes]:
    eph = _p256_priv_from_rng(rng)
    eph_pk = _p256_pk_bytes(eph)
    peer = ec.EllipticCurvePublicKey.from_encoded_point(_P256, pk)
    shared = eph.exchange(ec.ECDH(), peer)
    return eph_pk, hash_h([eph_pk, pk, shared])


def _p256_decaps(priv: ec.EllipticCurvePrivateKey, pk: Optional[bytes],
                 ct: bytes) -> bytes:
    peer = ec.EllipticCurvePublicKey.from_encoded_point(_P256, ct)
    shared = priv.exchange(ec.ECDH(), peer)
    return hash_h([ct, pk or _p256_pk_bytes(priv), shared])


register_suite(KemSuite(
    name="ecies-x25519",
    sk_len=32, pk_len=32, ct_len=32, key_len=32,
    keygen=_x25519_keygen, encaps=_x25519_encaps, decaps=_x25519_decaps,
    load_sk=_x25519_load,
))

# compressed-point encodings: 33 bytes, one more than the raw coordinate
register_suite(KemSuite(
    name="ecies-p256",
    sk_len=32, pk_len=33, ct_len=33, key_len=32,
    keygen=_p256_keygen, encaps=_p256_encaps, decaps=_p256_decaps,
    load_sk=_p256_load,
))


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

        def decaps(sk: bytes, pk: Optional[bytes], ct: bytes, _mech=mech) -> bytes:
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
