"""Wire format: golden vectors, round-trips, strict-parser totality."""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from golden import SESSION_WIRE
from pqaka import wire


def lp(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


# --- layout-forced encodings ---------------------------------------------

def test_response_msg_zero_layout():
    encoded = wire.encode(wire.ResponseMsg(res_star=bytes(32)))
    assert encoded == b"\x06" + bytes(32)   # fixed width: no length prefix


def test_id_request_layout():
    assert wire.encode(wire.IdRequestMsg(force_supi=True)) == b"\x01\x01"
    assert wire.encode(wire.IdRequestMsg(force_supi=False)) == b"\x01\x00"


def test_abort_layout():
    assert wire.encode(wire.AbortMsg()) == b"\x0c\xff"


# --- golden vectors (one honest session, frozen from an independent oracle) --

def test_golden_vectors_decode_and_reencode():
    for name, blob in SESSION_WIRE.items():
        msg = wire.decode(blob)
        assert wire.encode(msg) == blob, name


def test_golden_id_response_fields():
    msg = wire.decode(SESSION_WIRE["id-response"])
    assert isinstance(msg, wire.IdResponseMsg)
    assert msg.id_hn == "hn.example"
    assert len(msg.c1) == 32 and len(msg.mac_u) == 32


def test_golden_challenge_has_c2_and_guti_assign_sizes():
    ch = wire.decode(SESSION_WIRE["challenge"])
    assert isinstance(ch, wire.ChallengeMsg) and ch.c2 is not None
    ga = wire.decode(SESSION_WIRE["guti-assign"])
    assert isinstance(ga, wire.GutiAssignMsg)
    assert len(ga.guti_new) == 16 and len(ga.r_sn_prime_new) == 32


# --- randomized round-trips ---------------------------------------------

def _random_messages(r: random.Random):
    b = r.randbytes
    autn = wire.Autn(conc=b(32), mac=b(32))
    c2 = b(r.randint(1, 64)) if r.random() < 0.5 else None
    supi = "imsi-" + "".join(r.choices("0123456789", k=15))
    return [
        wire.IdRequestMsg(force_supi=r.random() < 0.5),
        wire.IdResponseMsg(c1=b(r.randint(0, 64)), suci_conc=b(r.randint(0, 64)),
                           mac_u=b(32), id_hn=supi),
        wire.SnToHnIdentMsg(c1=b(16), suci_conc=b(40), mac_u=b(32), r_sn=b(32)),
        wire.HnToSnAuthMsg(autn=autn, hxres_star=b(32), m=b(r.randint(0, 80)), c2=c2),
        wire.ChallengeMsg(autn=autn, c2=c2),
        wire.ResponseMsg(res_star=b(32)),
        wire.ConfirmMsg(ok=r.random() < 0.5),
        wire.GutiIdMsg(guti=b(16)),
        wire.GutiSnToHnMsg(supi=supi, r_sn_prime=b(32), r_sn=b(32)),
        wire.GutiAssignMsg(guti_new=b(16), r_sn_prime_new=b(32)),
        wire.SecureEnvelopeMsg(ct=b(r.randint(0, 100))),
        wire.AbortMsg(code=r.randint(0, 255)),
    ]


def test_roundtrip_randomized():
    r = random.Random(2024)
    count = 0
    while count < 1200:
        for msg in _random_messages(r):
            assert wire.decode(wire.encode(msg)) == msg
            count += 1


# --- strictness ------------------------------------------------------------

def test_decode_empty_rejected():
    with pytest.raises(wire.ParseError):
        wire.decode(b"")


def test_decode_unknown_tag_rejected():
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x7f" + lp(b"\x00"))


def test_decode_trailing_byte_rejected():
    blob = wire.encode(wire.ResponseMsg(res_star=bytes(32)))
    with pytest.raises(wire.ParseError) as exc:
        wire.decode(blob + b"\x00")
    assert exc.value.offset == len(blob)


def test_decode_invalid_utf8_rejected_at_its_field():
    msg = wire.IdResponseMsg(c1=b"\x01", suci_conc=b"\x02\x03",
                             mac_u=bytes(32), id_hn="h")
    blob = wire.encode(msg)
    with pytest.raises(wire.ParseError) as exc:
        wire.decode(blob[:-1] + b"\xff")
    # tag, then c1 and suci_conc behind a 4-byte length, and raw mac_u
    assert exc.value.offset == 1 + (4 + 1) + (4 + 2) + 32


def test_decode_truncated_rejected():
    blob = wire.encode(wire.GutiIdMsg(guti=bytes(16)))
    with pytest.raises(wire.ParseError):
        wire.decode(blob[:-1])


def test_decode_wrong_fixed_width_rejected():
    # a GutiIdMsg with a 15- or 17-byte GUTI
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x08" + bytes(15))
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x08" + bytes(17))


def test_decode_bad_flag_rejected():
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x01\x02")


def test_parser_totality_on_random_bytes():
    r = random.Random(7)
    for _ in range(2000):
        blob = r.randbytes(r.randint(0, 120))
        try:
            msg = wire.decode(blob)
        except wire.ParseError:
            continue
        assert wire.encode(msg) == blob  # anything accepted re-encodes exactly


# --- encode invariants -------------------------------------------------------

def test_encode_rejects_bad_widths():
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.ResponseMsg(res_star=bytes(31)))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.GutiIdMsg(guti=bytes(17)))
    with pytest.raises(wire.EncodeError):
        wire.Autn(conc=bytes(31), mac=bytes(32))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.IdResponseMsg(c1=b"", suci_conc=b"", mac_u=b"x", id_hn="h"))


def test_encode_rejects_foreign_type():
    with pytest.raises(wire.EncodeError):
        wire.encode(object())


# --- payload helpers -----------------------------------------------------

def test_suci_payload_roundtrip():
    packed = wire.pack_suci_payload("imsi-1", b"\x01\x02", "sn-x")
    assert wire.unpack_suci_payload(packed) == ("imsi-1", b"\x01\x02", "sn-x")
    with pytest.raises(wire.ParseError):
        wire.unpack_suci_payload(packed + b"\x00")


def test_m_payload_roundtrip():
    packed = wire.pack_m_payload(bytes(32), "imsi-2")
    assert wire.unpack_m_payload(packed) == (bytes(32), "imsi-2")
    with pytest.raises(wire.ParseError) as exc:
        wire.unpack_m_payload(packed + b"\x00")
    assert exc.value.offset == len(packed)
    with pytest.raises(wire.ParseError):
        wire.unpack_m_payload(wire.pack_m_payload(bytes(32), "x")[:-1])
    with pytest.raises(wire.ParseError):
        wire.unpack_m_payload(bytes(31))
    with pytest.raises(wire.EncodeError):
        wire.pack_m_payload(bytes(31), "imsi-2")


# --- fixed-width enforcement, from a list written independently of the table --

FIXED_FIELDS = [
    (wire.IdResponseMsg, "mac_u", 32),
    (wire.SnToHnIdentMsg, "mac_u", 32),
    (wire.SnToHnIdentMsg, "r_sn", 32),
    (wire.HnToSnAuthMsg, "autn", 64),
    (wire.HnToSnAuthMsg, "hxres_star", 32),
    (wire.ChallengeMsg, "autn", 64),
    (wire.ResponseMsg, "res_star", 32),
    (wire.GutiIdMsg, "guti", 16),
    (wire.GutiSnToHnMsg, "r_sn_prime", 32),
    (wire.GutiSnToHnMsg, "r_sn", 32),
    (wire.GutiAssignMsg, "guti_new", 16),
    (wire.GutiAssignMsg, "r_sn_prime_new", 32),
    (wire.AbortMsg, "code", 1),
]
SAMPLES = {type(m): m for m in _random_messages(random.Random(11))}


@pytest.mark.parametrize("cls,name,width", FIXED_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in FIXED_FIELDS])
def test_fixed_width_enforced_on_encode(cls, name, width):
    if name == "code":
        bad_values = [0x100, -1]
    elif name == "autn":   # a stand-in AUTN that bypasses Autn's own check
        bad_values = [SimpleNamespace(raw=bytes(width - 1)),
                      SimpleNamespace(raw=bytes(width + 1))]
    else:
        bad_values = [bytes(width - 1), bytes(width + 1)]
    for bad in bad_values:
        with pytest.raises(wire.EncodeError):
            wire.encode(dataclasses.replace(SAMPLES[cls], **{name: bad}))


# --- strictness property, over every message type and both sealed payloads --

def _flag_offsets(msg) -> list[int]:
    """Offsets of the FLAG and presence bytes in encode(msg), written
    independently of the table."""
    if isinstance(msg, (wire.IdRequestMsg, wire.ConfirmMsg)):
        return [1]
    if isinstance(msg, wire.ChallengeMsg):
        return [1 + 64]
    if isinstance(msg, wire.HnToSnAuthMsg):
        return [1 + 64 + 32 + 4 + len(msg.m)]
    return []


def _strict_cases():
    r = random.Random(18)
    samples = [m for _ in range(8) for m in _random_messages(r)]
    samples += [dataclasses.replace(m, c2=c2) for m in list(samples)
                if isinstance(m, (wire.HnToSnAuthMsg, wire.ChallengeMsg))
                for c2 in (None, b"", b"\x05")]
    cases = {cls.__name__: (wire.encode, wire.decode,
                            [m for m in samples if type(m) is cls])
             for cls in wire.SCHEMA}
    cases["suci-payload"] = (
        lambda v: wire.pack_suci_payload(*v), wire.unpack_suci_payload,
        [("imsi-" + str(r.getrandbits(40)), r.randbytes(r.randint(0, 64)),
          "sn-" + "é" * r.randint(0, 3)) for _ in range(8)])
    cases["m-payload"] = (
        lambda v: wire.pack_m_payload(*v), wire.unpack_m_payload,
        [(r.randbytes(32), "imsi-" + str(r.getrandbits(40))) for _ in range(8)])
    return cases


STRICT_CASES = _strict_cases()


@pytest.mark.parametrize("case", list(STRICT_CASES))
def test_decoding_is_strict_and_canonical(case):
    encode, decode, values = STRICT_CASES[case]
    assert values
    for value in values:
        blob = encode(value)
        assert decode(blob) == value
        for n in range(len(blob)):
            with pytest.raises(wire.ParseError):
                decode(blob[:n])
        with pytest.raises(wire.ParseError, match="trailing bytes") as exc:
            decode(blob + b"\x00")
        assert exc.value.offset == len(blob)
        for at in _flag_offsets(value):
            assert blob[at] in (0, 1)
            for bad in range(2, 256):
                with pytest.raises(wire.ParseError) as exc:
                    decode(blob[:at] + bytes([bad]) + blob[at + 1:])
                assert exc.value.offset == at
