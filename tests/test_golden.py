"""SESSION_WIRE derived from the former layout's vectors, without pqaka.

Until fixed-width fields were sent raw, every field of a message crossed the
wire behind a 4-byte big-endian length. LEGACY_WIRE is the honest session of
golden.py in that layout, frozen from the same independent oracle. The
current vectors follow from it using only hashlib and AES-256-GCM, so they
stay independent of the encoder they check:

- a field whose width the protocol fixes (AUTN, RES*, HXRES*, MAC_U, R_SN,
  R_SN', GUTI) and every one-byte flag or presence flag loses its length
  prefix; variable-length fields keep theirs;
- the two ciphertexts over a plaintext with such a field are opened and
  sealed again: M in auth-vector (its K_seaf), under K3 = RES* xor CONC xor
  R_SN, and the secure envelope (the GUTI assignment), under SHA-256 of the
  length-prefixed K_seaf and b"guti-transport". Both use the zero nonce.
"""

import hashlib

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from golden import SESSION_VALUES, SESSION_WIRE

LEGACY_WIRE = {
    'id-request': bytes.fromhex('010000000101'),
    'id-response': bytes.fromhex('020000002064af77cf4efc95ceed9df59465aeb158a75266342e87eaf75727fe7848733d9d0000005a6d6e349845c35cd3e783567f1e22c51cf2c5331a82541c7916142281a6552fb9596dfe57253f21f7f9ff21a881faa7db2b568791eda3e02a6ca474788427e4e6584e37d74c668356ea5af790d38195789aa5a8b0b183d3159edf000000200e6de99f22b49f798bef5e167d1eb3430baf5886c37d7259f32d236a5576914f0000000a686e2e6578616d706c65'),
    'sn-hn-ident': bytes.fromhex('030000002064af77cf4efc95ceed9df59465aeb158a75266342e87eaf75727fe7848733d9d0000005a6d6e349845c35cd3e783567f1e22c51cf2c5331a82541c7916142281a6552fb9596dfe57253f21f7f9ff21a881faa7db2b568791eda3e02a6ca474788427e4e6584e37d74c668356ea5af790d38195789aa5a8b0b183d3159edf000000200e6de99f22b49f798bef5e167d1eb3430baf5886c37d7259f32d236a5576914f000000209a76a6f7fcb7d22ba1bbd0541d72ad952494d4c90a35efe5dccb9c6da61e402a'),
    'auth-vector': bytes.fromhex('0400000040420c07b1cfffe785974638c6d3dc0dd0412fc79457cce189d4fd6bf1aa10562e057bded317b00399bddd3c6dd97c5eda9b7bcf7c29e65a1c470bc4e72c6cca5f00000020da991df4421586c406c8abc23e94547af178db78083d4773929f048a5b8f1e790000004c6b0bfd9d1f215f2eed6b5f0f20757f5bb5f848748fb5903ed6807e623c3b60b1e9b4c7e3303f5cc07246e64881a568b4ec4f512c346449ab29b28879c9885d5270099669d37076e6a88a55bf000000010100000020ea07967cfcb36ce127c216f8aa955932cb06e2181fad06ab0c868a71e919dfdd'),
    'challenge': bytes.fromhex('0500000040420c07b1cfffe785974638c6d3dc0dd0412fc79457cce189d4fd6bf1aa10562e057bded317b00399bddd3c6dd97c5eda9b7bcf7c29e65a1c470bc4e72c6cca5f000000010100000020ea07967cfcb36ce127c216f8aa955932cb06e2181fad06ab0c868a71e919dfdd'),
    'response': bytes.fromhex('0600000020abd83a4482b9d407c1e93dcc7f01819249dd92acf5c63f0ee71f08c14f2a8a4c'),
    'confirm': bytes.fromhex('070000000101'),
    'guti-id': bytes.fromhex('0800000010de8d192421cc79eb37484270549b5258'),
    'sn-hn-guti': bytes.fromhex('0900000014696d73692d30303130313030303030303030303100000020a4cacb0810db33c4d13d762ca52925593faf87365cf855b09fbed033a1f4a1b8000000209a76a6f7fcb7d22ba1bbd0541d72ad952494d4c90a35efe5dccb9c6da61e402a'),
    'guti-assign': bytes.fromhex('0a00000010de8d192421cc79eb37484270549b525800000020a4cacb0810db33c4d13d762ca52925593faf87365cf855b09fbed033a1f4a1b8'),
    'secure-envelope': bytes.fromhex('0b00000049126b648dc81b966faf3e449993e89c4a23d313c8f66abf77f1cd2e075b5308b2ec82b339576c7787e349f38bd359ae1c3c3ebe1672b22babfe3296f8d52f8bf14dfb2c749925f0e8e6'),
    'abort': bytes.fromhex('0c00000001ff'),
}


# each vector's fields in wire order: "r" is sent raw now, "l" keeps its length
LAYOUT = {
    "id-request": "r",        # force_supi
    "id-response": "llrl",    # c1, suci_conc, mac_u, id_hn
    "sn-hn-ident": "llrr",    # c1, suci_conc, mac_u, r_sn
    "auth-vector": "rrlrl",   # autn, hxres_star, m, c2 presence, c2
    "challenge": "rrl",       # autn, c2 presence, c2
    "response": "r",          # res_star
    "confirm": "r",           # ok
    "guti-id": "r",           # guti
    "sn-hn-guti": "lrr",      # supi, r_sn_prime, r_sn
    "guti-assign": "rr",      # guti_new, r_sn_prime_new
    "secure-envelope": "l",   # ct
    "abort": "r",             # code
}
SUPI = b"imsi-001010000000001"
ZERO_NONCE = bytes(12)


def _lp(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _legacy_fields(blob: bytes) -> list[bytes]:
    fields, pos = [], 1
    while pos < len(blob):
        n = int.from_bytes(blob[pos:pos + 4], "big")
        fields.append(blob[pos + 4:pos + 4 + n])
        pos += 4 + n
    assert pos == len(blob)
    return fields


def _reseal(key: bytes, ct: bytes, old_plain: bytes, new_plain: bytes) -> bytes:
    assert AESGCM(key).decrypt(ZERO_NONCE, ct, None) == old_plain
    return AESGCM(key).encrypt(ZERO_NONCE, new_plain, None)


def derive_session_wire() -> dict[str, bytes]:
    fields = {name: _legacy_fields(blob) for name, blob in LEGACY_WIRE.items()}
    k_seaf = SESSION_VALUES["k_seaf"]
    conc, r_sn = fields["auth-vector"][0][:32], fields["sn-hn-ident"][3]
    k3 = bytes(a ^ b ^ c for a, b, c in
               zip(SESSION_VALUES["res_star"], conc, r_sn, strict=True))
    fields["auth-vector"][2] = _reseal(
        k3, fields["auth-vector"][2], _lp(k_seaf) + _lp(SUPI), k_seaf + _lp(SUPI))
    out = {name: LEGACY_WIRE[name][:1] + b"".join(
               f if kind == "r" else _lp(f)
               for kind, f in zip(LAYOUT[name], fields[name], strict=True))
           for name in LEGACY_WIRE}
    envelope_key = hashlib.sha256(_lp(k_seaf) + _lp(b"guti-transport")).digest()
    ct = _reseal(envelope_key, fields["secure-envelope"][0],
                 LEGACY_WIRE["guti-assign"], out["guti-assign"])
    out["secure-envelope"] = LEGACY_WIRE["secure-envelope"][:1] + _lp(ct)
    return out


def test_session_wire_derived_from_legacy_vectors():
    assert derive_session_wire() == SESSION_WIRE

