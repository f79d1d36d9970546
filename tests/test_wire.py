"""Wire format: golden vectors, round-trips, strict-parser totality."""

import dataclasses
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from golden import GUTI_SESSION_WIRE, SESSION_WIRE
from pqaka import wire


def lp(data: bytes) -> bytes:
    """A short variable-length field: one length byte, then the bytes."""
    assert len(data) < 128
    return bytes([len(data)]) + data


# --- layout-forced encodings ---------------------------------------------

def test_response_msg_zero_layout():
    encoded = wire.encode(wire.ResponseMsg(res_star=bytes(16)))
    assert encoded == b"\x06" + bytes(16)   # fixed width: no length prefix


def test_response_msg_carries_a_128_bit_res_star_only():
    """RES* is 16 bytes, as TS 33.501 sizes it: a 32-byte RES* does not
    encode, and 32 bytes after the tag are 16 trailing bytes."""
    res_star = bytes(range(16))
    assert wire.decode(b"\x06" + res_star) == wire.ResponseMsg(res_star=res_star)
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.ResponseMsg(res_star=bytes(32)))
    with pytest.raises(wire.ParseError, match="trailing bytes") as exc:
        wire.decode(b"\x06" + bytes(32))
    assert exc.value.offset == 17


def test_r_sn_and_conc_are_128_bits_and_r_sn_prime_256():
    """R_SN, and CONC = AK xor R_SN, are 16 bytes, as 5G sizes RAND; R_SN'
    masks a 32-byte key and stays 32 bytes. A 32-byte R_SN or CONC does not
    encode, and 16 bytes after a challenge are trailing bytes."""
    conc, mac, r_sn = bytes(range(16)), bytes(range(16, 32)), bytes(range(32, 48))
    blob = wire.encode(wire.ChallengeMsg(conc=conc, mac=mac))
    assert blob == b"\x05" + conc + mac + b"\x00"
    assert wire.encode(wire.SnToHnIdentMsg(c1=b"", suci_conc=b"", mac_u=mac, r_sn=r_sn)) \
        == b"\x03\x00\x00" + mac + r_sn
    assert wire.decode(wire.encode(wire.GutiSnToHnMsg(
        supi="s", r_sn_prime=bytes(32), r_sn=r_sn))).r_sn == r_sn
    for bad in [wire.ChallengeMsg(conc=bytes(32), mac=mac),
                wire.HnToSnAuthMsg(conc=bytes(32), mac=mac, m=b""),
                wire.SnToHnIdentMsg(c1=b"", suci_conc=b"", mac_u=mac, r_sn=bytes(32)),
                wire.GutiSnToHnMsg(supi="s", r_sn_prime=bytes(32), r_sn=bytes(32)),
                wire.GutiSnToHnMsg(supi="s", r_sn_prime=bytes(16), r_sn=r_sn)]:
        with pytest.raises(wire.EncodeError):
            wire.encode(bad)
    with pytest.raises(wire.ParseError, match="trailing bytes") as exc:
        wire.decode(blob + bytes(16))
    assert exc.value.offset == len(blob)


def test_id_request_layout():
    assert wire.encode(wire.IdRequestMsg(force_supi=True)) == b"\x01\x01"
    assert wire.encode(wire.IdRequestMsg(force_supi=False)) == b"\x01\x00"


def test_abort_layout():
    assert wire.encode(wire.AbortMsg()) == SESSION_WIRE["abort"]


def test_confirm_is_its_tag_alone():
    assert wire.encode(wire.ConfirmMsg()) == b"\x07"
    assert wire.decode(b"\x07") == wire.ConfirmMsg()
    with pytest.raises(wire.ParseError, match="trailing bytes") as exc:
        wire.decode(b"\x07\x01")
    assert exc.value.offset == 1


def test_abort_is_its_tag_alone():
    assert wire.encode(wire.AbortMsg()) == b"\x0c"
    assert wire.decode(b"\x0c") == wire.AbortMsg()
    with pytest.raises(wire.ParseError, match="trailing bytes") as exc:
        wire.decode(b"\x0c\xff")
    assert exc.value.offset == 1


# --- DER length prefixes, written by hand (X.690 §8.1.3, minimal) ---------

def _auth_vector(m: bytes) -> wire.HnToSnAuthMsg:
    """A message whose M, a VAR field, carries m: tag, conc and mac, then m
    behind its prefix, then c2's absent presence byte."""
    return wire.HnToSnAuthMsg(conc=bytes(16), mac=bytes(16), m=m)


DER_LENGTHS = [
    (0, "00"), (127, "7f"), (128, "8180"), (255, "81ff"), (256, "820100"),
    (65_535, "82ffff"), (65_536, "83010000"), (261_120, "8303fc00"),
]


@pytest.mark.parametrize("n,prefix", DER_LENGTHS, ids=[str(n) for n, _ in DER_LENGTHS])
def test_length_prefix_round_trips(n, prefix):
    ct = bytes(range(256)) * (n // 256) + bytes(n % 256)
    blob = wire.encode(_auth_vector(ct))
    assert blob == b"\x04" + bytes(32) + bytes.fromhex(prefix) + ct + b"\x00"
    assert wire.decode(blob) == _auth_vector(ct)


class _Sized(bytes):
    """Empty bytes that report a length, to size a prefix without allocating it."""

    def __new__(cls, n: int):
        self = super().__new__(cls)
        self.n = n
        return self

    def __len__(self):
        return self.n


def test_length_prefix_takes_at_most_four_length_bytes():
    assert wire.encode(_auth_vector(_Sized(2**32 - 1))) == \
        b"\x04" + bytes(32) + bytes.fromhex("84ffffffff") + b"\x00"
    with pytest.raises(wire.EncodeError):
        wire.encode(_auth_vector(_Sized(2**32)))


# a prefix the strict decoder refuses, then enough bytes for the length it claims
BAD_PREFIXES = {
    "long-form-under-128": "8105" + "00" * 5,
    "leading-zero": "820090" + "00" * 0x90,
    "no-length-bytes": "80",
    "five-length-bytes": "850000000001" + "00",
    "truncated-long-form": "8201",
}
# (message bytes before the prefix, bytes after the field) per position
PREFIX_SITES = {
    "auth-vector-m": ("04" + "00" * 32, "00"),
    "suci-conc": ("02" + "01aa", "00" * 16 + "00"),
    "optional-c2": ("05" + "00" * 32 + "01", ""),
}


@pytest.mark.parametrize("site", list(PREFIX_SITES))
@pytest.mark.parametrize("bad", list(BAD_PREFIXES))
def test_bad_length_prefix_rejected_at_its_offset(bad, site):
    before, after = (bytes.fromhex(h) for h in PREFIX_SITES[site])
    blob = before + bytes.fromhex(BAD_PREFIXES[bad])
    if bad != "truncated-long-form":
        blob += after
    with pytest.raises(wire.ParseError, match="length prefix") as exc:
        wire.decode(blob)
    assert exc.value.offset == len(before)


# --- golden vectors (one honest session, frozen from an independent oracle) --

def test_golden_vectors_decode_and_reencode():
    for name, blob in [*SESSION_WIRE.items(), *GUTI_SESSION_WIRE.items()]:
        msg = wire.decode(blob)
        assert wire.encode(msg) == blob, name


def test_golden_id_response_fields():
    msg = wire.decode(SESSION_WIRE["id-response"])
    assert isinstance(msg, wire.IdResponseMsg)
    assert msg.id_hn == "00101"
    assert len(msg.c1) == 32 and len(msg.mac_u) == 16


def test_golden_challenge_has_c2_and_guti_assign_sizes():
    ch = wire.decode(SESSION_WIRE["challenge"])
    assert isinstance(ch, wire.ChallengeMsg) and ch.c2 is not None
    ga = wire.decode(SESSION_WIRE["guti-assign"])
    assert isinstance(ga, wire.GutiAssignMsg)
    assert len(ga.sealed_guti) == wire.GUTI_LEN + 16   # the GUTI and its GCM tag


# --- randomized round-trips ---------------------------------------------

def _random_messages(r: random.Random):
    b = r.randbytes
    conc, mac = b(16), b(16)
    c2 = b(r.randint(1, 64)) if r.random() < 0.5 else None
    supi = "imsi-" + "".join(r.choices("0123456789", k=15))
    plmn = "".join(r.choices("0123456789", k=r.choice((5, 6))))
    return [
        wire.IdRequestMsg(force_supi=r.random() < 0.5),
        wire.IdResponseMsg(c1=b(r.randint(0, 64)), suci_conc=b(r.randint(0, 64)),
                           mac_u=b(16), id_hn=plmn),
        wire.SnToHnIdentMsg(c1=b(16), suci_conc=b(40), mac_u=b(16), r_sn=b(16)),
        wire.HnToSnAuthMsg(conc=conc, mac=mac, m=b(r.randint(0, 80)), c2=c2),
        wire.ChallengeMsg(conc=conc, mac=mac, c2=c2),
        wire.ResponseMsg(res_star=b(16)),
        wire.ConfirmMsg(),
        wire.GutiIdMsg(guti=b(wire.GUTI_LEN)),
        wire.GutiSnToHnMsg(supi=supi, r_sn_prime=b(32), r_sn=b(16)),
        wire.GutiAssignMsg(sealed_guti=b(wire.GUTI_LEN + 16)),
        wire.AbortMsg(),
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
    blob = wire.encode(wire.ResponseMsg(res_star=bytes(16)))
    with pytest.raises(wire.ParseError) as exc:
        wire.decode(blob + b"\x00")
    assert exc.value.offset == len(blob)


def test_decode_invalid_utf8_rejected_at_its_field():
    blob = wire.pack_suci_payload("imsi-1", b"\x02\x03", "h")
    with pytest.raises(wire.ParseError, match="id_sn is not valid UTF-8") as exc:
        wire.unpack_suci_payload(blob[:-1] + b"\xff")
    # the SUPI (format byte, one BCD byte) and pk_u, each behind a one-byte length
    assert exc.value.offset == (1 + 2) + (1 + 2)


def test_decode_truncated_rejected():
    blob = wire.encode(wire.GutiIdMsg(guti=bytes(wire.GUTI_LEN)))
    with pytest.raises(wire.ParseError):
        wire.decode(blob[:-1])


def test_decode_wrong_fixed_width_rejected():
    # a GutiIdMsg with a GUTI one byte short or one byte long
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x08" + bytes(wire.GUTI_LEN - 1))
    with pytest.raises(wire.ParseError):
        wire.decode(b"\x08" + bytes(wire.GUTI_LEN + 1))


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
        wire.encode(wire.ResponseMsg(res_star=bytes(15)))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.GutiIdMsg(guti=bytes(wire.GUTI_LEN + 1)))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.ChallengeMsg(conc=bytes(31), mac=bytes(16)))
    with pytest.raises(wire.EncodeError):
        wire.encode(wire.IdResponseMsg(c1=b"", suci_conc=b"", mac_u=b"x", id_hn="00101"))


@pytest.mark.parametrize("cls", list(wire.SCHEMA), ids=lambda cls: cls.__name__)
def test_dataclass_fields_are_the_schema_fields_in_order(cls):
    # encode packs vars(msg).values() and decode calls cls(*values)
    assert [f.name for f in dataclasses.fields(cls)] == [
        name for name, _ in wire.SCHEMA[cls][1]]


def test_every_message_class_is_in_the_schema_under_its_own_tag():
    # a reused tag would shadow a message in decode's tag table
    classes = {obj for name, obj in vars(wire).items()
               if name.endswith("Msg") and isinstance(obj, type)}
    assert classes == set(wire.SCHEMA)
    assert len(wire._BY_TAG) == len(wire.SCHEMA) == 11
    assert all(isinstance(kind, wire.Kind)
               for _tag, fields in wire.SCHEMA.values() for _name, kind in fields)


def test_encode_rejects_foreign_type():
    with pytest.raises(wire.EncodeError):
        wire.encode(object())


# --- payload helpers -----------------------------------------------------

def test_suci_payload_roundtrip():
    packed = wire.pack_suci_payload("imsi-1", b"\x01\x02", "sn-x")
    assert wire.unpack_suci_payload(packed) == ("imsi-1", b"\x01\x02", "sn-x")
    with pytest.raises(wire.ParseError):
        wire.unpack_suci_payload(packed + b"\x00")


# M seals (K_seaf, SUPI) on the SUPI path and K_seaf alone on the GUTI path,
# where the SN reads it with the SUPI its GUTI resolved to: (sealed, known,
# the error when read as the other layout). A SUPI-layout M is a GUTI-layout
# M with a SUPI appended, and a GUTI-layout M a SUPI-layout M missing its SUPI
M_LAYOUTS = {"supi-path": ("imsi-2", None, "trailing bytes in M payload"),
             "guti-path": (None, "imsi-2", "truncated length prefix")}


@pytest.mark.parametrize("layout", list(M_LAYOUTS))
def test_m_payload_roundtrip(layout):
    sealed, known, as_other = M_LAYOUTS[layout]
    packed = wire.pack_m_payload(bytes(32), sealed)
    # imsi-2: its length, format 0x00 (IMSI), then 2 and the 0xF filler
    assert packed == bytes(32) + (b"" if sealed is None else b"\x02\x00\xf2")
    assert wire.unpack_m_payload(packed, known) == (bytes(32), "imsi-2")
    with pytest.raises(wire.ParseError) as exc:
        wire.unpack_m_payload(packed + b"\x00", known)
    assert exc.value.offset == len(packed)
    with pytest.raises(wire.ParseError):
        wire.unpack_m_payload(packed[:-1], known)
    with pytest.raises(wire.ParseError):
        wire.unpack_m_payload(bytes(31), known)
    with pytest.raises(wire.EncodeError):
        wire.pack_m_payload(bytes(31), sealed)
    with pytest.raises(wire.ParseError, match=as_other) as exc:
        wire.unpack_m_payload(packed, "imsi-2" if known is None else None)
    assert exc.value.offset == 32


# --- the SUPI: a format byte, then packed BCD or UTF-8 (TS 24.501 §9.11.3.4) --

SUPI_FIELD = (("supi", wire.SUPI),)


def _pack_supi(supi: str) -> bytes:
    return wire.pack_fields(SUPI_FIELD, [supi], [])


def _unpack_supi(blob: bytes) -> str:
    return wire.unpack_fields(SUPI_FIELD, blob, 0, "after supi")[0]


def test_imsi_packs_as_bcd_in_ts_24_008_order():
    """Two digits a byte, the first in the low nibble, and the odd count's
    last high nibble 0xF: 9 bytes behind the length, not 20 characters."""
    assert _pack_supi("imsi-001010000000001") == bytes.fromhex("09" "00" "00010100000000f1")
    assert _pack_supi("imsi-12") == bytes.fromhex("02" "00" "21")
    assert _unpack_supi(bytes.fromhex("09" "00" "00010100000000f1")) == "imsi-001010000000001"


@given(st.text("0123456789", min_size=1, max_size=20))
def test_imsi_of_ascii_digits_round_trips_as_packed_bcd(digits):
    supi = "imsi-" + digits
    packed = _pack_supi(supi)
    assert packed[:2] == bytes([1 + (len(digits) + 1) // 2, 0x00])
    assert _unpack_supi(packed) == supi


@given(st.one_of(st.text(max_size=40), st.text(max_size=40).map("imsi-".__add__)))
def test_any_text_supi_round_trips(supi):
    raw = wire.SUPI.to_raw(supi, "supi")
    if re.fullmatch(r"imsi-[0-9]+", supi):
        assert raw[0] == 0x00
    else:
        assert raw == b"\x01" + supi.encode()
    assert _unpack_supi(_pack_supi(supi)) == supi


def test_imsi_of_non_ascii_digits_packs_as_text():
    assert "١٢".isdigit()
    assert _pack_supi("imsi-١٢") == lp(b"\x01" + "imsi-١٢".encode())
    assert _unpack_supi(_pack_supi("imsi-١٢")) == "imsi-١٢"


# raw SUPI values the decoder refuses, and the error each gives
BAD_SUPIS = {
    "empty": ("", "no known SUPI format"),
    "unknown-format": ("0231", "no known SUPI format"),
    "zero-digits": ("00", "not a canonical SUPI"),
    "filler-as-first-digit": ("001f", "not a canonical SUPI"),
    "filler-mid-value": ("00f121", "not a canonical SUPI"),
    "filler-on-even-count": ("0021ff", "not a canonical SUPI"),
    "filler-alone": ("00ff", "not a canonical SUPI"),
    "non-bcd-nibble": ("00a1", "not a canonical SUPI"),
    "imsi-as-text": ("01" + b"imsi-12".hex(), "not a canonical SUPI"),
    "invalid-utf8": ("01ff", "not valid UTF-8"),
}


@pytest.mark.parametrize("bad", list(BAD_SUPIS))
def test_bad_supi_rejected_at_its_field(bad):
    raw, error = BAD_SUPIS[bad]
    blob = b"\x09" + lp(bytes.fromhex(raw)) + bytes(32) + bytes(16)
    with pytest.raises(wire.ParseError, match=error) as exc:
        wire.decode(blob)
    assert exc.value.offset == 1        # the SUPI's length prefix, after the tag


# --- the HN identity: MCC and MNC as 3 BCD octets (TS 24.008 §10.5.1.3) -----

PLMN_FIELD = (("id_hn", wire.PLMN),)


@given(st.text("0123456789", min_size=5, max_size=6))
def test_plmn_of_five_or_six_digits_round_trips_in_three_octets(plmn):
    raw = wire.pack_fields(PLMN_FIELD, [plmn], [])
    assert len(raw) == 3                    # fixed width: no length prefix
    assert wire.unpack_fields(PLMN_FIELD, raw, 0, "after id_hn") == [plmn]


def test_plmn_packs_in_ts_24_008_order():
    """MCC digits 1-2, then MCC digit 3 beside MNC digit 3 (0xF for a
    2-digit MNC), then MNC digits 1-2, each pair's first in the low nibble."""
    assert wire.PLMN.to_raw("00101", "id_hn") == bytes.fromhex("00f110")
    assert wire.PLMN.to_raw("310260", "id_hn") == bytes.fromhex("130062")


# raw 3-octet HN identities the decoder refuses
BAD_PLMNS = {
    "non-bcd-mcc-digit": "0af110",
    "non-bcd-mnc-digit": "00f1e0",
    "non-bcd-mnc-digit-3": "00c110",
    "filler-as-mcc-digit-1": "0ff110",
    "filler-as-mcc-digit-2": "f0f110",
    "filler-as-mcc-digit-3": "00ff10",
    "filler-as-mnc-digit-1": "00f11f",
    "filler-as-mnc-digit-2": "00f1f0",
}


@pytest.mark.parametrize("bad", list(BAD_PLMNS))
def test_bad_plmn_rejected_at_its_field(bad):
    head = wire.encode(wire.IdResponseMsg(c1=b"\x01", suci_conc=b"\x02\x03",
                                          mac_u=bytes(16), id_hn="00101"))[:-3]
    with pytest.raises(wire.ParseError, match="not a BCD PLMN identity") as exc:
        wire.decode(head + bytes.fromhex(BAD_PLMNS[bad]))
    # tag, then c1 and suci_conc behind a one-byte length, and raw mac_u
    assert exc.value.offset == 1 + (1 + 1) + (1 + 2) + 16 == len(head)


@pytest.mark.parametrize("plmn", ["", "0010", "0010101", "0010a", "00 01", "٠٠١٠١"])
def test_plmn_of_other_than_five_or_six_ascii_digits_does_not_encode(plmn):
    with pytest.raises(wire.EncodeError, match="id_hn must be 5 or 6 digits"):
        wire.encode(wire.IdResponseMsg(c1=b"", suci_conc=b"", mac_u=bytes(16), id_hn=plmn))


# --- fixed-width enforcement, from a list written independently of the table --

FIXED_FIELDS = [
    (wire.IdResponseMsg, "mac_u", 16),
    (wire.SnToHnIdentMsg, "mac_u", 16),
    (wire.SnToHnIdentMsg, "r_sn", 16),
    (wire.HnToSnAuthMsg, "conc", 16),
    (wire.HnToSnAuthMsg, "mac", 16),
    (wire.ChallengeMsg, "conc", 16),
    (wire.ChallengeMsg, "mac", 16),
    (wire.ResponseMsg, "res_star", 16),
    (wire.GutiIdMsg, "guti", wire.GUTI_LEN),
    (wire.GutiSnToHnMsg, "r_sn_prime", 32),
    (wire.GutiSnToHnMsg, "r_sn", 16),
    (wire.GutiAssignMsg, "sealed_guti", wire.GUTI_LEN + 16),
]
SAMPLES = {type(m): m for m in _random_messages(random.Random(11))}


@pytest.mark.parametrize("cls,name,width", FIXED_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in FIXED_FIELDS])
def test_fixed_width_enforced_on_encode(cls, name, width):
    for bad in [bytes(width - 1), bytes(width + 1)]:
        with pytest.raises(wire.EncodeError):
            wire.encode(dataclasses.replace(SAMPLES[cls], **{name: bad}))


# --- strictness property, over every message type and both sealed payloads --

def _flag_offsets(msg) -> list[int]:
    """Offsets of the FLAG and presence bytes in encode(msg), written
    independently of the table."""
    if isinstance(msg, wire.IdRequestMsg):
        return [1]
    if isinstance(msg, wire.ChallengeMsg):
        return [1 + 16 + 16]
    if isinstance(msg, wire.HnToSnAuthMsg):
        return [1 + 16 + 16 + 1 + len(msg.m)]   # m is shorter than 128 B
    return []


def _strict_cases():
    r = random.Random(18)
    samples = [m for _ in range(8) for m in _random_messages(r)]
    samples += [dataclasses.replace(m, c2=c2) for m in list(samples)
                if isinstance(m, (wire.HnToSnAuthMsg, wire.ChallengeMsg))
                for c2 in (None, b"", b"\x05")]
    # long-form lengths: 0x81 and 0x82 prefixes
    samples += [wire.IdResponseMsg(c1=r.randbytes(n), suci_conc=r.randbytes(40),
                                   mac_u=r.randbytes(16), id_hn="310260")
                for n in (128, 300)]
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
    cases["supi"] = (_pack_supi, _unpack_supi, [
        "imsi-1", "imsi-12", "imsi-001010000000001", "imsi-" + "9" * 20,
        "imsi-", "imsi-١٢", "imsi-1,2", "nai-user@example", ""])
    cases["m-payload-guti-path"] = (
        lambda v: wire.pack_m_payload(v[0], None),
        lambda blob: wire.unpack_m_payload(blob, "imsi-2"),
        [(r.randbytes(32), "imsi-2") for _ in range(8)])
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
