"""golden.py's session derived from the former layout's vectors, without pqaka.

Until fixed-width fields were sent raw, every field of a message crossed the
wire behind a 4-byte big-endian length. LEGACY_WIRE is the honest session of
golden.py in that layout, as an independent oracle froze it before the
changes below. The current vectors and values follow from it using only
hashlib, hmac and AES-256-GCM, so they stay independent of the encoder and
the roles they check:

- a field whose width the protocol fixes (AUTN, RES*, MAC_U, R_SN, R_SN',
  GUTI) and every one-byte flag or presence flag loses its length
  prefix, and ConfirmMsg's always-set flag and AbortMsg's constant code
  are gone, leaving each its tag alone;
- a variable-length field keeps a length prefix, now the DER definite
  length: each field of this session is shorter than 128 bytes, so its
  prefix is the one byte of its length;
- the AUTN MAC is 16 bytes, no longer 32: f1 (HMAC-SHA-256) keeps its
  leftmost 16 bytes, as RFC 2104 §5 truncates an HMAC;
- HXRES* is no longer sent in auth-vector: the SN checks RES* by opening
  M, whose AES-GCM tag is under K3, so the HN's hash of XRES* is gone;
- R_SN is 16 bytes, as 5G sizes RAND, no longer 32;
- the GUTI is 4 bytes, the 5G-TMSI's width, no longer 16: the first 4
  bytes of its labelled stream;
- every seeded value is drawn under a label naming its use, from a child
  stream of the seed's: the child's seed is SHA-256 of the parent's 32
  seed bytes and the label, and its block i, as any stream's, SHA-256 of
  its seed and the 8-byte counter i. In the world of seed 0, K is drawn
  under "k" and sk_H under "kem_keygen"; in the session of seed 1, sk_U
  under "kem_keygen", c1 and then c2 (the test KEM's encapsulation
  randomness, so its ciphertexts) under "kem_encaps", R_SN under "r_sn"
  and the GUTI under "guti". The former session drew them all, in that
  order, from the seeds' own streams, as checked below, so every value of
  the session is new: pk_H and pk_U are HMAC-SHA-256 of b"pk" under sk_H
  and sk_U, K_S1 SHA-256 over the length-prefixed pk_H and c1, and K*
  that over pk_U and c2, as the test KEM decapsulates;
- f1..f5 are HMAC-SHA-256 under K over the f-index byte and the
  length-prefixed inputs; each keeps its leftmost bytes (RFC 2104 §5). AK
  is f5 of K* at 16 bytes, the width of R_SN, and CONC = AK xor R_SN; the
  AUTN MAC is f1 of K* and R_SN at 16 bytes;
- RES* binds R_SN and is 16 bytes: the last 16 bytes of SHA-256 over the
  4-byte length-prefixed CK, IK, K*, RES, R_SN and ID_SN, where RES, CK
  and IK are f2, f3 and f4 of K* (TS 33.501 A.4 keeps RES*'s 128 least
  significant bits). K_seaf is SHA-256 of K_AUSF and ID_SN, K_AUSF that
  of CK, IK, K*, CONC and ID_SN, and the next K_S that of K* and R_SN.
  The former CONC, MAC and RES* are checked against the same formulas on
  the former K* and R_SN, 32 bytes wide, with RES* untruncated and
  without R_SN, before the new values replace them;
- the three ciphertexts are opened under the former keys and checked
  against the former plaintexts, and the new plaintexts are sealed under
  the new keys: SUCI_conc in id-response and sn-hn-ident (SUPI, pk_U and
  ID_SN, all variable-length) under K_S1; M in auth-vector (its K_seaf
  and SUPI), formerly under K3 = RES* xor CONC xor R_SN and now under K3
  = SHA-256 of the length-prefixed RES* and AK; and the secure envelope
  (the GUTI assignment), under SHA-256 of the 4-byte length-prefixed
  K_seaf and b"guti-transport". All use the zero nonce;
- MAC_U is no longer an HMAC of SUCI_conc but SUCI_conc's GCM tag: the
  last 16 bytes of the sealed SUCI payload cross the wire as MAC_U, and
  SUCI_conc is the ciphertext before them;
- R_SN' is no longer drawn by the SN and sent in the GUTI assignment,
  which is the GUTI alone: both ends derive it as SHA-256 of the 4-byte
  length-prefixed K_seaf and b"r-sn-prime";
- the SUPI, in the SUCI payload, in M on the SUPI path and in sn-hn-guti,
  is no longer its UTF-8 text but, as TS 24.501 §9.11.3.4 conceals an
  IMSI, the format byte 0x00 and its 15 digits as packed BCD: two to a
  byte, the first in the low nibble, the odd count's last high nibble 0xF
  (TS 24.008 §10.5.1.4), 9 bytes in all;
- the HN identity in id-response is no longer the UTF-8 text
  "hn.example" but, as the SUCI names its home network (TS 24.501
  §9.11.3.4), the MCC 001 and MNC 01 of the SUPI's IMSI as 3 raw BCD
  octets in TS 24.008 §10.5.1.3's order: MCC digits 1 and 2, MCC digit 3
  and MNC digit 3 (0xF, as the MNC has two digits), MNC digits 1 and 2,
  each pair's first digit in the low nibble;
- the GUTI assignment is no longer an envelope around a tagged inner
  message: guti-assign, under its own tag, is the 4-byte GUTI sealed under
  the envelope's key, raw, and the secure-envelope message is gone;
- guti-id and sn-hn-guti are those of the GUTI session that follows, as it
  sends them: the GUTI the SUPI session assigned, and that session's R_SN'
  with the GUTI session's own R_SN.
"""

import hashlib
import hmac

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from golden import (
    CONSTANTS, GUTI_SESSION_VALUES, GUTI_SESSION_WIRE, SESSION_VALUES, SESSION_WIRE)

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


# each SUPI-session vector's fields in wire order: "r" is sent raw now, "l"
# keeps a length prefix and "x" is no longer sent. guti-id and sn-hn-guti
# are the GUTI session's, built whole by derive_guti_session
LAYOUT = {
    "id-request": "r",        # force_supi
    "id-response": "llrr",    # c1, suci_conc, mac_u, id_hn
    "sn-hn-ident": "llrr",    # c1, suci_conc, mac_u, r_sn
    "auth-vector": "rxlrl",   # autn, hxres_star (dropped), m, c2 presence, c2
    "challenge": "rrl",       # autn, c2 presence, c2
    "response": "r",          # res_star
    "confirm": "x",           # ok, always set
    "guti-assign": "rx",      # the GUTI (sealed now), r_sn_prime_new (derived now)
    "abort": "x",             # code, a constant
}
SUPI = b"imsi-001010000000001"
PLMN = b"00101"             # the MCC and MNC the SUPI's IMSI starts with
ID_SN = b"sn.example"
ZERO_NONCE = bytes(12)
KEY_LEN = 32                # K, every sk and KEM ciphertext of the test KEM
CHECK_LEN = 16              # the AUTN MAC and RES* on the wire
RAND_LEN = 16               # R_SN, AK and CONC
GUTI_LEN = 4                # the 5G-TMSI's 32 bits
TAG_LEN = 16                # AES-256-GCM's tag, sent as MAC_U


def _draw(seed: int, label: str | None, n: int) -> bytes:
    """The first n bytes of seed's stream, or of its child stream under label."""
    stream_seed = seed.to_bytes(32, "big")
    if label is not None:
        stream_seed = hashlib.sha256(stream_seed + label.encode()).digest()
    return b"".join(hashlib.sha256(stream_seed + i.to_bytes(8, "big")).digest()
                    for i in range(-(-n // 32)))[:n]


def _cut(data: bytes, *widths: int) -> list[bytes]:
    at = [sum(widths[:i]) for i in range(len(widths) + 1)]
    assert at[-1] == len(data)
    return [data[a:b] for a, b in zip(at, at[1:])]


def _test_pk(sk: bytes) -> bytes:
    return hmac.new(sk, b"pk", hashlib.sha256).digest()


def _lp(data: bytes) -> bytes:
    """The former prefix, and crypto's on KDF and hash inputs: 4-byte length."""
    return len(data).to_bytes(4, "big") + data


def _der(data: bytes) -> bytes:
    """The wire's prefix on a field shorter than 128 bytes: one length byte."""
    assert len(data) < 128
    return bytes([len(data)]) + data


def _packed_supi(supi: bytes) -> bytes:
    """The SUPI's raw wire field: format 0x00 (IMSI), then its digits two to
    a byte, the first in the low nibble, an odd count padded with 0xF."""
    digits = [int(d) for d in supi.removeprefix(b"imsi-").decode()]
    digits += [0xF] * (len(digits) % 2)
    return b"\x00" + bytes(lo | hi << 4 for lo, hi in zip(digits[::2], digits[1::2]))


def _packed_plmn(plmn: bytes) -> bytes:
    """The HN identity's raw wire field: MCC digits 1-2, MCC digit 3 and MNC
    digit 3 (0xF for a 2-digit MNC), MNC digits 1-2, low nibble first."""
    mcc1, mcc2, mcc3, mnc1, mnc2, *mnc3 = (int(d) for d in plmn.decode())
    return bytes([mcc1 | mcc2 << 4, mcc3 | (mnc3 or [0xF])[0] << 4, mnc1 | mnc2 << 4])


def _kdf(*inputs: bytes) -> bytes:
    return hashlib.sha256(b"".join(map(_lp, inputs))).digest()


def _f(index: int, k: bytes, *inputs: bytes) -> bytes:
    """f_index(K, inputs), untruncated: HMAC-SHA-256 under K over the index
    byte and the length-prefixed inputs."""
    return hmac.new(k, bytes([index]) + b"".join(map(_lp, inputs)),
                    hashlib.sha256).digest()


def _schedule(k: bytes, k_star: bytes, conc: bytes) -> tuple[bytes, ...]:
    """RES, CK and IK, f2..f4 of K*, and K_seaf, from K_AUSF."""
    res, ck, ik = (_f(i, k, k_star) for i in (2, 3, 4))
    return res, ck, ik, _kdf(_kdf(ck, ik, k_star, conc, ID_SN), ID_SN)


def _legacy_fields(blob: bytes) -> list[bytes]:
    fields, pos = [], 1
    while pos < len(blob):
        n = int.from_bytes(blob[pos:pos + 4], "big")
        fields.append(blob[pos + 4:pos + 4 + n])
        pos += 4 + n
    assert pos == len(blob)
    return fields


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def _opens(key: bytes, ct: bytes, plain: bytes) -> None:
    assert AESGCM(key).decrypt(ZERO_NONCE, ct, None) == plain


def _seal(key: bytes, plain: bytes) -> bytes:
    return AESGCM(key).encrypt(ZERO_NONCE, plain, None)


def check_legacy_session(fields: dict[str, list[bytes]]) -> None:
    """The former session's draws and values against the formulas that
    derive_session applies to the labelled draws."""
    old_k, old_sk_h = _cut(_draw(0, None, 64), KEY_LEN, KEY_LEN)
    # R_SN was 32 bytes then, and the GUTI 16
    old_sk_u, old_c1, old_r_sn, old_c2, old_guti = _cut(
        _draw(1, None, 144), KEY_LEN, KEY_LEN, 32, KEY_LEN, 16)
    assert fields["id-response"][:3] == fields["sn-hn-ident"][:3]
    assert fields["id-response"][0] == old_c1
    assert fields["sn-hn-ident"][3] == old_r_sn
    assert fields["challenge"][0] == fields["auth-vector"][0]
    assert fields["challenge"][2] == fields["auth-vector"][4] == old_c2
    assert fields["guti-id"][0] == fields["guti-assign"][0] == old_guti
    assert fields["sn-hn-guti"][1:] == [fields["guti-assign"][1], old_r_sn]
    old_pk_u = _test_pk(old_sk_u)
    _opens(_kdf(_test_pk(old_sk_h), old_c1), fields["id-response"][1],
           _lp(SUPI) + _lp(old_pk_u) + _lp(ID_SN))
    old_conc, old_mac = fields["auth-vector"][0][:32], fields["auth-vector"][0][32:]
    old_k_star = _kdf(old_pk_u, old_c2)
    assert _xor(_f(5, old_k, old_k_star), old_r_sn) == old_conc
    assert _f(1, old_k, old_k_star, old_r_sn) == old_mac
    old_res, old_ck, old_ik, old_k_seaf = _schedule(old_k, old_k_star, old_conc)
    old_res_star = fields["response"][0]
    assert _kdf(old_ck, old_ik, old_k_star, old_res, ID_SN) == old_res_star
    _opens(_xor(old_res_star, _xor(old_conc, old_r_sn)), fields["auth-vector"][2],
           _lp(old_k_seaf) + _lp(SUPI))
    _opens(_kdf(old_k_seaf, b"guti-transport"), fields["secure-envelope"][0],
           LEGACY_WIRE["guti-assign"])


def derive_session() -> tuple[dict[str, bytes], dict[str, bytes]]:
    """(SESSION_WIRE, SESSION_VALUES): the former layout's fields, each
    value drawn or computed again for the session of the labelled draws."""
    fields = {name: _legacy_fields(blob) for name, blob in LEGACY_WIRE.items()}
    check_legacy_session(fields)
    k, sk_h = _draw(0, "k", KEY_LEN), _draw(0, "kem_keygen", KEY_LEN)
    sk_u = _draw(1, "kem_keygen", KEY_LEN)
    c1, c2 = _cut(_draw(1, "kem_encaps", 2 * KEY_LEN), KEY_LEN, KEY_LEN)
    r_sn, guti = _draw(1, "r_sn", RAND_LEN), _draw(1, "guti", GUTI_LEN)
    pk_h, pk_u = _test_pk(sk_h), _test_pk(sk_u)
    k_s1 = _kdf(pk_h, c1)
    sealed = _seal(k_s1, _der(_packed_supi(SUPI)) + _der(pk_u) + _der(ID_SN))
    for name in ("id-response", "sn-hn-ident"):
        fields[name][:3] = [c1, sealed[:-TAG_LEN], sealed[-TAG_LEN:]]
    fields["id-response"][3] = _packed_plmn(PLMN)

    k_star = _kdf(pk_u, c2)
    ak = _f(5, k, k_star)[:RAND_LEN]
    conc = _xor(ak, r_sn)
    mac = _f(1, k, k_star, r_sn)[:CHECK_LEN]
    res, ck, ik, k_seaf = _schedule(k, k_star, conc)
    res_star = _kdf(ck, ik, k_star, res, r_sn, ID_SN)[-CHECK_LEN:]
    fields["sn-hn-ident"][3] = r_sn
    for name in ("auth-vector", "challenge"):       # AUTN = CONC || MAC
        fields[name][0] = conc + mac
        fields[name][-1] = c2
    fields["response"][0] = res_star
    fields["auth-vector"][2] = _seal(_kdf(res_star, ak), k_seaf + _der(_packed_supi(SUPI)))
    fields["guti-assign"][0] = _seal(_kdf(k_seaf, b"guti-transport"), guti)
    out = {name: LEGACY_WIRE[name][:1] + b"".join(
               {"r": f, "l": _der(f), "x": b""}[kind]
               for kind, f in zip(LAYOUT[name], fields[name], strict=True))
           for name in LAYOUT}
    values = {"k": k, "sk_h": sk_h, "pk_h": pk_h, "sk_u": sk_u, "pk_u": pk_u,
              "k_s1": k_s1, "k_star": k_star, "res_star": res_star,
              "k_seaf": k_seaf, "k_s_next": _kdf(k_star, r_sn)}
    return out, values


def derive_guti_session(values: dict[str, bytes]) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """(GUTI_SESSION_WIRE, GUTI_SESSION_VALUES): the auth-vector of the GUTI
    session that follows the SUPI session of `values` in its world and
    seeded source, and the guti-id and sn-hn-guti before it. The UE sends
    the GUTI the SUPI session assigned; the SN sends the SUPI that GUTI
    names, the SUPI session's R_SN' and its own R_SN, the next 16 bytes
    under "r_sn". K* is the SUPI session's next K_S xor R_SN', and M, under
    K3, seals K_seaf alone: the HN returns the SUPI only to an SN that sent
    a SUCI (TS 33.501 §6.1.3.2, step 12). The vector has no c2, so it ends
    in a zero presence byte."""
    k = values["k"]
    r_sn = _draw(1, "r_sn", 2 * RAND_LEN)[RAND_LEN:]
    r_sn_prime = _kdf(values["k_seaf"], b"r-sn-prime")
    k_star = _xor(values["k_s_next"], r_sn_prime)
    ak = _f(5, k, k_star)[:RAND_LEN]
    conc = _xor(ak, r_sn)
    mac = _f(1, k, k_star, r_sn)[:CHECK_LEN]
    res, ck, ik, k_seaf = _schedule(k, k_star, conc)
    res_star = _kdf(ck, ik, k_star, res, r_sn, ID_SN)[-CHECK_LEN:]
    m = _seal(_kdf(res_star, ak), k_seaf)
    wire = {
        "guti-id": LEGACY_WIRE["guti-id"][:1] + _draw(1, "guti", GUTI_LEN),
        "sn-hn-guti": LEGACY_WIRE["sn-hn-guti"][:1] + _der(_packed_supi(SUPI))
                      + r_sn_prime + r_sn,
        "auth-vector": LEGACY_WIRE["auth-vector"][:1] + conc + mac + _der(m) + b"\x00",
    }
    return wire, {"m_plaintext": k_seaf}


def test_session_derived_from_legacy_vectors_and_labelled_draws():
    wire, values = derive_session()
    assert wire == SESSION_WIRE
    assert values == SESSION_VALUES
    # the frozen test-KEM vectors: keygen of seed 0 (sk_H), and encaps to
    # its pk of seed 1 (c1 and K_S1)
    assert CONSTANTS["kem_seed0_sk"] == values["sk_h"]
    assert CONSTANTS["kem_seed0_pk"] == values["pk_h"]
    assert CONSTANTS["kem_seed1_ct"] == _draw(1, "kem_encaps", KEY_LEN)
    assert CONSTANTS["kem_seed1_k"] == values["k_s1"]


def test_guti_session_auth_vector_derived_from_labelled_draws():
    wire, values = derive_guti_session(derive_session()[1])
    assert wire == GUTI_SESSION_WIRE
    assert values == GUTI_SESSION_VALUES
    assert len(values["m_plaintext"]) == KEY_LEN
