"""Bit-exact wire encoding for every protocol message.

One table, ``SCHEMA``, is the only statement of the layout: it maps each
message class to its tag byte and its ordered ``(field, kind)`` pairs.
``encode``, ``decode`` and the linkability field walk (``field_values``)
all iterate it; the untagged SUCI and M payloads are field tuples of the
same kinds, packed and unpacked by the same walk.

Layout: one message-type tag byte, then each field in table order. A
field whose kind fixes its width (``fixed(n)``, ``AUTN``, ``FLAG``,
``BYTE``) is sent as its raw bytes alone; a variable-length field (``VAR``,
``UTF8``, ``OPTIONAL_VAR``) is a 4-byte big-endian length prefix followed by
its raw bytes, as in the V and LV formats of 3GPP TS 24.007 §11.2. A 2-byte
length would not carry McEliece's 261,120-byte public key. An optional
field is preceded by one raw presence byte, 0x00 or 0x01. Decoding is
strict and canonical: unknown tags, truncation, a flag or presence byte
other than 0 or 1, invalid UTF-8 and trailing bytes are all rejected with
the failing offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

GUTI_LEN = 16
RAND_LEN = 32
AUTN_LEN = 64


class EncodeError(Exception):
    """Message violates a field invariant."""


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class Autn:
    conc: bytes  # f5(K, K*) xor R_SN
    mac: bytes

    def __post_init__(self):
        if len(self.conc) != RAND_LEN or len(self.mac) != RAND_LEN:
            raise EncodeError("AUTN halves must be 32 bytes each")

    @property
    def raw(self) -> bytes:
        return self.conc + self.mac

    @classmethod
    def from_raw(cls, raw: bytes) -> "Autn":
        if len(raw) != AUTN_LEN:
            raise EncodeError("AUTN must be 64 bytes")
        return cls(conc=raw[:RAND_LEN], mac=raw[RAND_LEN:])


@dataclass(frozen=True)
class IdRequestMsg:
    """SN-to-UE identification request; force_supi forbids the GUTI path."""
    force_supi: bool = False


@dataclass(frozen=True)
class IdResponseMsg:
    c1: bytes
    suci_conc: bytes
    mac_u: bytes
    id_hn: str


@dataclass(frozen=True)
class SnToHnIdentMsg:
    c1: bytes
    suci_conc: bytes
    mac_u: bytes
    r_sn: bytes


@dataclass(frozen=True)
class HnToSnAuthMsg:
    autn: Autn
    hxres_star: bytes
    m: bytes
    c2: Optional[bytes] = None  # absent on the GUTI path


@dataclass(frozen=True)
class ChallengeMsg:
    autn: Autn
    c2: Optional[bytes] = None


@dataclass(frozen=True)
class ResponseMsg:
    res_star: bytes


@dataclass(frozen=True)
class ConfirmMsg:
    ok: bool = True


@dataclass(frozen=True)
class GutiIdMsg:
    guti: bytes


@dataclass(frozen=True)
class GutiSnToHnMsg:
    supi: str
    r_sn_prime: bytes
    r_sn: bytes


@dataclass(frozen=True)
class GutiAssignMsg:
    guti_new: bytes
    r_sn_prime_new: bytes


@dataclass(frozen=True)
class SecureEnvelopeMsg:
    """A message sealed under a key derived from the session's K_seaf.

    Carries the GUTI assignment: the ratchet material must cross the radio
    only over the secure channel the session just established.
    """
    ct: bytes


@dataclass(frozen=True)
class AbortMsg:
    """HN-to-SN generic abort; every failure cause carries the same code."""
    code: int = 0xFF


class Kind(NamedTuple):
    """How one field crosses the wire.

    ``width`` is the exact byte length the field must have, and a field
    with a width is sent raw, with no length prefix (None: any length, sent
    behind a 4-byte length). ``to_raw(value, name)`` turns a field value
    into bytes and ``from_raw(raw, name, offset)`` turns bytes back; None
    means the value is the bytes. Each raises on a value it cannot carry. An ``optional``
    field is preceded by a raw presence byte, 0 or 1, and may be None.
    """
    width: Optional[int] = None
    to_raw: Optional[Callable[[object, str], bytes]] = None
    from_raw: Optional[Callable[[bytes, str, int], object]] = None
    optional: bool = False


def _flag_from_raw(raw: bytes, name: str, at: int) -> bool:
    if raw not in (b"\x00", b"\x01"):
        raise ParseError(f"{name} must be 0 or 1", at)
    return raw == b"\x01"


def _utf8_from_raw(raw: bytes, name: str, at: int) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise ParseError(f"{name} is not valid UTF-8", at) from None


def _byte_to_raw(value: int, name: str) -> bytes:
    if not 0 <= value <= 0xFF:
        raise EncodeError(f"{name} must fit one byte")
    return bytes([value])


def fixed(n: int) -> Kind:
    return Kind(width=n)


VAR = Kind()
UTF8 = Kind(to_raw=lambda v, name: v.encode(), from_raw=_utf8_from_raw)
FLAG = Kind(1, lambda v, name: b"\x01" if v else b"\x00", _flag_from_raw)
BYTE = Kind(1, _byte_to_raw, lambda raw, name, at: raw[0])
AUTN = Kind(AUTN_LEN, lambda v, name: v.raw, lambda raw, name, at: Autn.from_raw(raw))
OPTIONAL_VAR = Kind(optional=True)

Fields = tuple[tuple[str, Kind], ...]

# message class -> (tag, fields in wire order == dataclass field order)
SCHEMA: dict[type, tuple[int, Fields]] = {
    IdRequestMsg: (0x01, (("force_supi", FLAG),)),
    IdResponseMsg: (0x02, (("c1", VAR), ("suci_conc", VAR), ("mac_u", fixed(32)),
                           ("id_hn", UTF8))),
    SnToHnIdentMsg: (0x03, (("c1", VAR), ("suci_conc", VAR), ("mac_u", fixed(32)),
                            ("r_sn", fixed(RAND_LEN)))),
    HnToSnAuthMsg: (0x04, (("autn", AUTN), ("hxres_star", fixed(32)), ("m", VAR),
                           ("c2", OPTIONAL_VAR))),
    ChallengeMsg: (0x05, (("autn", AUTN), ("c2", OPTIONAL_VAR))),
    ResponseMsg: (0x06, (("res_star", fixed(32)),)),
    ConfirmMsg: (0x07, (("ok", FLAG),)),
    GutiIdMsg: (0x08, (("guti", fixed(GUTI_LEN)),)),
    GutiSnToHnMsg: (0x09, (("supi", UTF8), ("r_sn_prime", fixed(RAND_LEN)),
                           ("r_sn", fixed(RAND_LEN)))),
    GutiAssignMsg: (0x0A, (("guti_new", fixed(GUTI_LEN)),
                           ("r_sn_prime_new", fixed(RAND_LEN)))),
    SecureEnvelopeMsg: (0x0B, (("ct", VAR),)),
    AbortMsg: (0x0C, (("code", BYTE),)),
}
_BY_TAG = {tag: (cls, fields) for cls, (tag, fields) in SCHEMA.items()}

# plaintexts sealed inside SUCI_conc and M; untagged
_SUCI_PAYLOAD: Fields = (("supi", UTF8), ("pk_u", VAR), ("id_sn", UTF8))
_M_PAYLOAD: Fields = (("k_seaf", fixed(32)), ("supi", UTF8))

Message = (
    IdRequestMsg | IdResponseMsg | SnToHnIdentMsg | HnToSnAuthMsg
    | ChallengeMsg | ResponseMsg | ConfirmMsg | GutiIdMsg
    | GutiSnToHnMsg | GutiAssignMsg | SecureEnvelopeMsg | AbortMsg
)


def _pack(fields: Fields, values: dict, out: list[bytes]) -> bytes:
    """Append each named value to out, raw if its kind fixes the width and
    length-prefixed otherwise, checking its kind; return the joined bytes."""
    for name, (width, to_raw, _, optional) in fields:
        value = values[name]
        if optional:
            out.append(b"\x00" if value is None else b"\x01")
            if value is None:
                continue
        raw = value if to_raw is None else to_raw(value, name)
        if width is None:
            out.append(len(raw).to_bytes(4, "big"))
        elif len(raw) != width:
            raise EncodeError(f"{name} must be {width} bytes")
        out.append(raw)
    return b"".join(out)


def _unpack(data: bytes, pos: int, fields: Fields) -> tuple[list, int]:
    """Read fields from data at pos; return their values and the end offset."""
    values = []
    end = len(data)
    for name, (width, _, from_raw, optional) in fields:
        if optional:
            if pos >= end:
                raise ParseError(f"truncated {name} presence flag", pos)
            present = _flag_from_raw(data[pos:pos + 1], f"{name} presence flag", pos)
            pos += 1
            if not present:
                values.append(None)
                continue
        at = pos
        n = width
        if n is None:
            if pos + 4 > end:
                raise ParseError("truncated length prefix", pos)
            n = int.from_bytes(data[pos:pos + 4], "big")
            pos += 4
        if pos + n > end:
            raise ParseError("truncated field", pos)
        raw = data[pos:pos + n]
        pos += n
        values.append(raw if from_raw is None else from_raw(raw, name, at))
    return values, pos


def encode(msg: Message) -> bytes:
    spec = SCHEMA.get(type(msg))
    if spec is None:
        raise EncodeError(f"not a protocol message: {type(msg).__name__}")
    tag, fields = spec
    return _pack(fields, vars(msg), [bytes([tag])])


def decode(data: bytes) -> Message:
    if not data:
        raise ParseError("empty message", 0)
    spec = _BY_TAG.get(data[0])
    if spec is None:
        raise ParseError(f"unknown message tag 0x{data[0]:02x}", 0)
    cls, fields = spec
    values, pos = _unpack(data, 1, fields)
    if pos != len(data):
        raise ParseError("trailing bytes after message", pos)
    return cls(*values)


def field_values(msg: Message) -> Iterator[bytes]:
    """Each field of msg as the bytes it carries on the wire, AUTN as its
    conc and mac halves; absent optional fields and presence flags yield
    nothing."""
    for name, kind in SCHEMA[type(msg)][1]:
        value = getattr(msg, name)
        if value is None:
            continue
        if kind is AUTN:
            yield value.conc
            yield value.mac
        else:
            yield value if kind.to_raw is None else kind.to_raw(value, name)


def pack_suci_payload(supi: str, pk_u: bytes, id_sn: str) -> bytes:
    """Plaintext concealed into SUCI_conc: all three fields are encrypted."""
    return _pack(_SUCI_PAYLOAD, {"supi": supi, "pk_u": pk_u, "id_sn": id_sn}, [])


def unpack_suci_payload(data: bytes) -> tuple[str, bytes, str]:
    values, pos = _unpack(data, 0, _SUCI_PAYLOAD)
    if pos != len(data):
        raise ParseError("trailing bytes in SUCI payload", pos)
    return tuple(values)


def pack_m_payload(k_seaf: bytes, supi: str) -> bytes:
    """Plaintext of M: session key and subscriber identity bound together."""
    return _pack(_M_PAYLOAD, {"k_seaf": k_seaf, "supi": supi}, [])


def unpack_m_payload(data: bytes) -> tuple[bytes, str]:
    values, pos = _unpack(data, 0, _M_PAYLOAD)
    if pos != len(data):
        raise ParseError("trailing bytes in M payload", pos)
    return tuple(values)
