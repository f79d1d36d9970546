"""KEM cost reporting: running-time medians and communication byte counts.

UE cost is one KeyGen + one Encaps + one Decaps per session; HN cost is
one Encaps + one Decaps. Timings are medians over the configured
iteration count with the interquartile range as dispersion. A size row
takes the four lengths from suite metadata and the message sizes from one
seeded honest SUPI session over the suite's stand-in, operational or not.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace

from . import crypto, sim
from .crypto import KemKeyPair, KemSuite, get_suite
from .rng import OsRandom, SeededRandom

# each measured message: table column, width, SizeRow.msg_bytes key, transcript label
MESSAGES = (
    ("id-resp", 8, "IdResponseMsg", "id-response"),
    ("hn-sn", 8, "HnToSnAuthMsg", "auth-vector"),
    ("chall", 8, "ChallengeMsg", "challenge"),
    ("resp", 6, "ResponseMsg", "response"),
    ("assign", 7, "SecureEnvelopeMsg", "guti-assign"),
)


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


def stand_in(suite: KemSuite) -> KemSuite:
    """The suite with its four lengths, whose every sk, pk, ct and key is
    zero bytes: the roles run on it whether or not the suite is operational.
    It loads no sk, since P-256's own load_sk refuses an all-zero one."""
    sk, pk, ct, key = map(bytes, (suite.sk_len, suite.pk_len, suite.ct_len, suite.key_len))
    return replace(suite, load_sk=None, keygen=lambda rng: KemKeyPair(pk=pk, sk=sk),
                   encaps=lambda _pk, rng: (ct, key), decaps=lambda _sk, _pk, _ct: key)


def size_row(suite: KemSuite) -> SizeRow:
    """Protocol message sizes for this suite, read off the transcript of one
    seeded honest SUPI session over its stand-in."""
    outcome = sim.run_session(sim.make_world(stand_in(suite)), "supi", rng=SeededRandom(0))
    sent = {e.annotation: len(e.data) for e in outcome.transcript.entries}
    return SizeRow(
        name=suite.name, sk_len=suite.sk_len, pk_len=suite.pk_len,
        ct_len=suite.ct_len, key_len=suite.key_len,
        msg_bytes={key: sent[label] for _col, _w, key, label in MESSAGES})


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
              + " ".join(f"{col:>{w}}" for col, w, _key, _label in MESSAGES))
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<14} {r.sk_len:>8} {r.pk_len:>8} {r.ct_len:>8} {r.key_len:>5} "
            + " ".join(f"{r.msg_bytes[key]:>{w}}" for _col, w, key, _label in MESSAGES))
    return "\n".join(lines)


def rows_jsonl(rows: list[BenchRow] | list[SizeRow]) -> list[str]:
    return [json.dumps(vars(r), sort_keys=True) for r in rows]
