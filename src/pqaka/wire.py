"""Bit-exact wire encoding for every protocol message.

Each message class is the one statement of its layout: its class line
declares its tag byte, and each field's annotation its Python type and its
``Kind``, in wire order. ``SCHEMA``, read off these declarations, maps each
class to its tag and ordered ``(field, kind)`` pairs; ``encode``, ``decode``
and the linkability field walk (``field_values``) all iterate it.
``pack_fields`` and ``unpack_fields`` pack and parse the fields of every
message after its tag, of the untagged SUCI and M payloads, and of each
``store`` record's body, which is one row in this layout.

Layout: one message-type tag byte, then each field in declared order. A
field whose kind fixes its width (``fixed(n)``, ``FLAG``, ``PLMN``) is
sent as its raw bytes alone; a variable-length field (``VAR``, ``UTF8``,
``SUPI``, ``OPTIONAL_VAR``) is a length prefix followed by its raw bytes, as
in the V and LV formats of 3GPP TS 24.007 §11.2. The prefix is the definite
length of ASN.1 DER (X.690 §8.1.3, minimal as §10.1 asks): a length of 0 to
127 is one byte, and a longer one is ``0x80 | k`` followed by its k
big-endian bytes, k from 1 to 4. On the test and ECIES suites every
field is shorter than 128 bytes, so each prefix is one byte; four length
bytes still carry McEliece's 261,120-byte public key. An optional field is
preceded by one raw presence byte, 0x00 or 0x01. A SUPI opens with a
format byte (TS 24.501 §9.11.3.4): 0x00 and packed BCD for ``imsi-`` and
ASCII digits, the first in the low nibble and an odd count padded with 0xF
(TS 24.008 §10.5.1.4), else 0x01 and UTF-8. The SUCI's home network
identity is a ``PLMN``: the MCC and a 2- or 3-digit MNC as 3 BCD octets
(TS 24.008 §10.5.1.3), MNC digit 3 0xF when the MNC has two. Decoding is
strict and canonical: unknown tags, truncation, a long-form or zero-led
length a shorter prefix could carry, a flag or presence byte other than 0
or 1, invalid UTF-8 or BCD, a SUPI in a format not its own and trailing
bytes are all rejected with the failing offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, Iterable, Iterator, NamedTuple, Optional, get_type_hints

from .crypto import AEAD_TAG_OVERHEAD, CHECK_LEN, KEY_LEN, RAND_LEN

GUTI_LEN = 4        # the 5G-TMSI's 32 bits (TS 23.003 §2.10.1)


class EncodeError(Exception):
    """Message violates a field invariant."""


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class Kind(NamedTuple):
    """How one field crosses the wire.

    ``width`` is the exact byte length the field must have, and a field
    with a width is sent raw, with no length prefix (None: any length, sent
    behind its DER length). ``to_raw(value, name)`` turns a field value
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


_NIBBLE_SWAP = bytes((b >> 4) | (b & 0xF) << 4 for b in range(256))


def _supi_to_raw(supi: str, name: str) -> bytes:
    digits = supi[5:]
    if not (supi.startswith("imsi-") and digits.isascii() and digits.isdigit()):
        return b"\x01" + supi.encode()
    return b"\x00" + bytes.fromhex(digits + "f" * (len(digits) % 2)).translate(_NIBBLE_SWAP)


def _supi_from_raw(raw: bytes, name: str, at: int) -> str:
    """The SUPI raw carries, if encoding it gives raw back."""
    if raw[:1] == b"\x00":
        supi = "imsi-" + raw[1:].translate(_NIBBLE_SWAP).hex().removesuffix("f")
    elif raw[:1] == b"\x01":
        supi = _utf8_from_raw(raw[1:], name, at)
    else:
        raise ParseError(f"{name} has no known SUPI format", at)
    if _supi_to_raw(supi, name) != raw:
        raise ParseError(f"{name} is not a canonical SUPI", at)
    return supi


def _plmn_to_raw(plmn: str, name: str) -> bytes:
    if len(plmn) not in (5, 6) or not (plmn.isascii() and plmn.isdigit()):
        raise EncodeError(f"{name} must be 5 or 6 digits")
    return bytes.fromhex(plmn[:3] + (plmn[5:] or "f") + plmn[3:5]).translate(_NIBBLE_SWAP)


def _plmn_from_raw(raw: bytes, name: str, at: int) -> str:
    """MCC, MNC digits 1-2 and MNC digit 3 unless it is the 0xF filler."""
    nibbles = raw.translate(_NIBBLE_SWAP).hex()
    plmn = nibbles[:3] + nibbles[4:] + nibbles[3].replace("f", "")
    if not plmn.isdigit():
        raise ParseError(f"{name} is not a BCD PLMN identity", at)
    return plmn


def fixed(n: int) -> Kind:
    return Kind(width=n)


VAR = Kind()
UTF8 = Kind(to_raw=lambda v, name: v.encode(), from_raw=_utf8_from_raw)
SUPI = Kind(to_raw=_supi_to_raw, from_raw=_supi_from_raw)
FLAG = Kind(1, lambda v, name: b"\x01" if v else b"\x00", _flag_from_raw)
PLMN = Kind(3, _plmn_to_raw, _plmn_from_raw)
OPTIONAL_VAR = Kind(optional=True)

Fields = tuple[tuple[str, Kind], ...]
SCHEMA: dict[type, tuple[int, Fields]] = {}


class Message:
    """A protocol message: ``class XMsg(Message, tag=...)`` with fields
    ``name: Annotated[type, kind]`` becomes a frozen dataclass whose tag and
    fields ``SCHEMA`` records."""

    def __init_subclass__(cls, tag: int):
        dataclass(frozen=True)(cls)
        hints = get_type_hints(cls, include_extras=True)
        SCHEMA[cls] = (tag, tuple((name, hint.__metadata__[0]) for name, hint in hints.items()))


class IdRequestMsg(Message, tag=0x01):
    """SN-to-UE identification request; force_supi forbids the GUTI path."""
    force_supi: Annotated[bool, FLAG] = False


class IdResponseMsg(Message, tag=0x02):
    c1: Annotated[bytes, VAR]
    suci_conc: Annotated[bytes, VAR]                   # the AEAD ciphertext of the
    mac_u: Annotated[bytes, fixed(AEAD_TAG_OVERHEAD)]  # SUCI payload, and its tag
    id_hn: Annotated[str, PLMN]                        # the HN's MCC and MNC digits


class SnToHnIdentMsg(Message, tag=0x03):
    c1: Annotated[bytes, VAR]
    suci_conc: Annotated[bytes, VAR]
    mac_u: Annotated[bytes, fixed(AEAD_TAG_OVERHEAD)]
    r_sn: Annotated[bytes, fixed(RAND_LEN)]


class HnToSnAuthMsg(Message, tag=0x04):
    # conc is f5(K, K*) xor R_SN; conc and mac are the paper's AUTN
    conc: Annotated[bytes, fixed(RAND_LEN)]
    mac: Annotated[bytes, fixed(CHECK_LEN)]
    m: Annotated[bytes, VAR]
    c2: Annotated[Optional[bytes], OPTIONAL_VAR] = None  # absent on the GUTI path


class ChallengeMsg(Message, tag=0x05):
    # conc and mac are the paper's AUTN, as the HN sent them
    conc: Annotated[bytes, fixed(RAND_LEN)]
    mac: Annotated[bytes, fixed(CHECK_LEN)]
    c2: Annotated[Optional[bytes], OPTIONAL_VAR] = None


class ResponseMsg(Message, tag=0x06):
    res_star: Annotated[bytes, fixed(CHECK_LEN)]


class ConfirmMsg(Message, tag=0x07):
    """SN-to-HN confirmation that the UE's RES* checked; its tag alone."""


class GutiIdMsg(Message, tag=0x08):
    guti: Annotated[bytes, fixed(GUTI_LEN)]


class GutiSnToHnMsg(Message, tag=0x09):
    supi: Annotated[str, SUPI]
    r_sn_prime: Annotated[bytes, fixed(KEY_LEN)]
    r_sn: Annotated[bytes, fixed(RAND_LEN)]


class GutiAssignMsg(Message, tag=0x0A):
    """The new GUTI alone, sealed under a key derived from the session's
    K_seaf: it crosses the radio only over the secure channel the session
    just established. R_SN' is derived from K_seaf at both ends."""
    sealed_guti: Annotated[bytes, fixed(GUTI_LEN + AEAD_TAG_OVERHEAD)]


class AbortMsg(Message, tag=0x0C):
    """Generic abort on the core channel, its tag alone, so no failure cause
    can be told apart: HN-to-SN as ``hn-abort``, SN-to-HN as ``sn-abort``."""


_BY_TAG = {tag: (cls, fields) for cls, (tag, fields) in SCHEMA.items()}

# plaintexts sealed inside SUCI_conc and M; untagged
_SUCI_PAYLOAD: Fields = (("supi", SUPI), ("pk_u", VAR), ("id_sn", UTF8))
_M_PAYLOAD: Fields = (("k_seaf", fixed(KEY_LEN)), ("supi", SUPI))


def _length_prefix(n: int, name: str) -> bytes:
    """n as a DER definite length: one byte below 128, else 0x80 | k and
    the k minimal big-endian bytes of n."""
    if n < 0x80:
        return bytes((n,))
    k = (n.bit_length() + 7) // 8
    if k > 4:
        raise EncodeError(f"{name} is longer than 2**32 - 1 bytes")
    return bytes((0x80 | k,)) + n.to_bytes(k, "big")


def pack_fields(fields: Fields, values: Iterable, out: list[bytes]) -> bytes:
    """Append values, in field order, to out, raw if its kind fixes the width
    and behind a DER length otherwise, checking each kind; return the joined
    bytes."""
    for (name, (width, to_raw, _, optional)), value in zip(fields, values, strict=True):
        if optional:
            out.append(b"\x00" if value is None else b"\x01")
            if value is None:
                continue
        raw = value if to_raw is None else to_raw(value, name)
        if width is None:
            out.append(_length_prefix(len(raw), name))
        elif len(raw) != width:
            raise EncodeError(f"{name} must be {width} bytes")
        out.append(raw)
    return b"".join(out)


def unpack_fields(fields: Fields, data: bytes, pos: int, where: str) -> list:
    """Read fields from data at pos to its end; bytes left after the last
    field are rejected as trailing bytes ``where``."""
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
            if pos >= end:
                raise ParseError("truncated length prefix", at)
            n = data[pos]
            pos += 1
            if n & 0x80:
                k = n & 0x7F
                if not 1 <= k <= 4:
                    raise ParseError(f"length prefix of {k} length bytes", at)
                if pos + k > end:
                    raise ParseError("truncated length prefix", at)
                n = int.from_bytes(data[pos:pos + k], "big")
                if n < 0x80 or not data[pos]:
                    raise ParseError("non-minimal length prefix", at)
                pos += k
        if pos + n > end:
            raise ParseError("truncated field", pos)
        raw = data[pos:pos + n]
        pos += n
        values.append(raw if from_raw is None else from_raw(raw, name, at))
    if pos != end:
        raise ParseError(f"trailing bytes {where}", pos)
    return values


def encode(msg: Message) -> bytes:
    spec = SCHEMA.get(type(msg))
    if spec is None:
        raise EncodeError(f"not a protocol message: {type(msg).__name__}")
    tag, fields = spec
    return pack_fields(fields, vars(msg).values(), [bytes([tag])])


def decode(data: bytes) -> Message:
    if not data:
        raise ParseError("empty message", 0)
    spec = _BY_TAG.get(data[0])
    if spec is None:
        raise ParseError(f"unknown message tag 0x{data[0]:02x}", 0)
    cls, fields = spec
    return cls(*unpack_fields(fields, data, 1, "after message"))


def field_values(msg: Message) -> Iterator[bytes]:
    """Each field of msg as the bytes it carries on the wire; absent
    optional fields and presence flags yield nothing."""
    for name, kind in SCHEMA[type(msg)][1]:
        value = getattr(msg, name)
        if value is not None:
            yield value if kind.to_raw is None else kind.to_raw(value, name)


def pack_suci_payload(supi: str, pk_u: bytes, id_sn: str) -> bytes:
    """Plaintext concealed into SUCI_conc: all three fields are encrypted."""
    return pack_fields(_SUCI_PAYLOAD, (supi, pk_u, id_sn), [])


def unpack_suci_payload(data: bytes) -> tuple[str, bytes, str]:
    return tuple(unpack_fields(_SUCI_PAYLOAD, data, 0, "in SUCI payload"))


def pack_m_payload(k_seaf: bytes, supi: Optional[str]) -> bytes:
    """Plaintext of M: session key and subscriber identity bound together,
    or the key alone (supi None) for an SN that named the SUPI itself."""
    values = (k_seaf,) if supi is None else (k_seaf, supi)
    return pack_fields(_M_PAYLOAD[:len(values)], values, [])


def unpack_m_payload(data: bytes, supi: Optional[str] = None) -> tuple[bytes, str]:
    """(K_seaf, SUPI) from M; given the supi, M is read as the key alone."""
    if supi is None:
        return tuple(unpack_fields(_M_PAYLOAD, data, 0, "in M payload"))
    return unpack_fields(_M_PAYLOAD[:1], data, 0, "in M payload")[0], supi
