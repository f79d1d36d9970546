"""KEM cost reporting: running-time medians and communication byte counts.

UE cost is one KeyGen + one Encaps + one Decaps per session; HN cost is
one Encaps + one Decaps. Timings are medians over the configured
iteration count with the interquartile range as dispersion. Size rows
come straight from suite metadata; message rows are measured by encoding
messages with correctly sized placeholder contents.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

from . import crypto, wire
from .crypto import KemSuite, get_suite
from .rng import OsRandom
from .sim import DEFAULT_SUPI, ID_HN, ID_SN


@dataclass
class BenchRow:
    name: str
    available: bool
    iterations: int = 0
    ue_cost_ms: float = 0.0
    hn_cost_ms: float = 0.0
    ue_iqr_ms: float = 0.0
    hn_iqr_ms: float = 0.0


@dataclass
class SizeRow:
    name: str
    sk_len: int
    pk_len: int
    ct_len: int
    key_len: int
    msg_bytes: dict[str, int]


def _iqr(samples: list[float]) -> float:
    qs = statistics.quantiles(samples, n=4)
    return qs[2] - qs[0]


def bench_suite(suite: KemSuite, iters: int) -> BenchRow:
    if not suite.available:
        return BenchRow(name=suite.name, available=False)
    rng = OsRandom()
    ue_samples: list[float] = []
    hn_samples: list[float] = []
    for _ in range(iters):
        t0 = time.perf_counter()
        pair = crypto.kem_keygen(suite, rng)
        t1 = time.perf_counter()
        ct, _k = crypto.kem_encaps(suite, pair.pk, rng)
        t2 = time.perf_counter()
        crypto.kem_decaps(suite, pair, ct)   # held handle and pk, as in a session
        t3 = time.perf_counter()
        ue_samples.append((t3 - t0) * 1e3)          # KeyGen + Encaps + Decaps
        hn_samples.append((t3 - t1) * 1e3)          # Encaps + Decaps
    return BenchRow(
        name=suite.name, available=True, iterations=iters,
        ue_cost_ms=statistics.median(ue_samples),
        hn_cost_ms=statistics.median(hn_samples),
        ue_iqr_ms=_iqr(ue_samples), hn_iqr_ms=_iqr(hn_samples))


def run_bench(suite_names: list[str], iters: int) -> list[BenchRow]:
    return [bench_suite(get_suite(n), iters) for n in suite_names]


def size_row(suite: KemSuite) -> SizeRow:
    """Protocol message sizes for this suite, measured on real encodings."""
    c = bytes(suite.ct_len)
    # SUCI_conc is the bare ciphertext; its AEAD tag is sent as MAC_U
    suci_conc = bytes(len(wire.pack_suci_payload(DEFAULT_SUPI, bytes(suite.pk_len), ID_SN)))
    tag = bytes(crypto.AEAD_TAG_OVERHEAD)
    m = bytes(len(wire.pack_m_payload(bytes(crypto.KEY_LEN), DEFAULT_SUPI))
              + crypto.AEAD_TAG_OVERHEAD)
    conc, check = bytes(wire.RAND_LEN), bytes(crypto.CHECK_LEN)
    msgs = {
        "IdResponseMsg": wire.IdResponseMsg(
            c1=c, suci_conc=suci_conc, mac_u=tag, id_hn=ID_HN),
        "HnToSnAuthMsg": wire.HnToSnAuthMsg(
            conc=conc, mac=check, m=m, c2=c),
        "ChallengeMsg": wire.ChallengeMsg(conc=conc, mac=check, c2=c),
        "ResponseMsg": wire.ResponseMsg(res_star=check),
        # the GUTI assignment as it crosses the radio, sealed
        "SecureEnvelopeMsg": wire.SecureEnvelopeMsg(ct=bytes(
            len(wire.encode(wire.GutiAssignMsg(guti_new=bytes(wire.GUTI_LEN))))
            + crypto.AEAD_TAG_OVERHEAD)),
    }
    return SizeRow(
        name=suite.name, sk_len=suite.sk_len, pk_len=suite.pk_len,
        ct_len=suite.ct_len, key_len=suite.key_len,
        msg_bytes={k: len(wire.encode(v)) for k, v in msgs.items()})


def run_sizes(suite_names: list[str]) -> list[SizeRow]:
    return [size_row(get_suite(n)) for n in suite_names]


def format_bench_table(rows: list[BenchRow]) -> str:
    header = f"{'algorithm':<14} {'iters':>6} {'ue_ms':>10} {'ue_iqr':>8} {'hn_ms':>10} {'hn_iqr':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        if not r.available:
            lines.append(f"{r.name:<14} {'unavailable':>6}")
            continue
        lines.append(
            f"{r.name:<14} {r.iterations:>6} {r.ue_cost_ms:>10.4f} "
            f"{r.ue_iqr_ms:>8.4f} {r.hn_cost_ms:>10.4f} {r.hn_iqr_ms:>8.4f}")
    return "\n".join(lines)


def format_size_table(rows: list[SizeRow]) -> str:
    header = (f"{'algorithm':<14} {'sk':>8} {'pk':>8} {'ct':>8} {'key':>5} "
              f"{'id-resp':>8} {'hn-sn':>8} {'chall':>8} {'resp':>6} {'assign':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<14} {r.sk_len:>8} {r.pk_len:>8} {r.ct_len:>8} {r.key_len:>5} "
            f"{r.msg_bytes['IdResponseMsg']:>8} {r.msg_bytes['HnToSnAuthMsg']:>8} "
            f"{r.msg_bytes['ChallengeMsg']:>8} {r.msg_bytes['ResponseMsg']:>6} "
            f"{r.msg_bytes['SecureEnvelopeMsg']:>7}")
    return "\n".join(lines)


def rows_jsonl(rows: list[BenchRow] | list[SizeRow]) -> list[str]:
    return [json.dumps(vars(r), sort_keys=True) for r in rows]
