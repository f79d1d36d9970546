"""pqaka benchmark: a closed loop with one client, one op at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload supi-x25519 --seed 1 --seconds 20 --trace 0

Each op starts only after the previous one returned. The driver calls only
public pqaka functions and checks every op (see workloads.py). With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it first
runs the op stream untraced for half the time, then replays the same ops
from a copy of the post-set-up state under the tracer and prints the
per-layer metrics. The two halves must give the same transcript digest.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every op
passed its check, 1 when one failed, and 2 when the run could not start.
Spans and run metadata go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("supi-x25519", "guti-10k", "guti-10k-persist", "attack-all")


@dataclass
class Phase:
    """One measured stretch of the op stream."""

    latencies_ns: list[int] = field(default_factory=list)
    failed: int = 0
    radio_bytes: int = 0
    core_bytes: int = 0
    elapsed_s: float = 0.0
    digest: str = ""

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


def measure(state, seconds: Optional[float] = None, ops: Optional[int] = None,
            tracer=None) -> Phase:
    """Run ops back to back for `seconds`, or exactly `ops` of them."""
    phase = Phase()
    digest = hashlib.sha256()
    lat = phase.latencies_ns
    clock = time.perf_counter_ns
    start = time.perf_counter()
    with state.capturing():
        while (len(lat) < ops) if ops is not None else (
                time.perf_counter() - start < seconds):
            if tracer is not None:
                tracer.op = len(lat)
            t0 = clock()
            result = state.run_op()
            t1 = clock()
            lat.append(t1 - t0)
            ok, radio, core = state.settle(result, digest)
            phase.failed += not ok
            phase.radio_bytes += radio
            phase.core_bytes += core
    phase.elapsed_s = time.perf_counter() - start
    phase.digest = digest.hexdigest()
    return phase


def percentiles_us(latencies_ns: list[int]) -> dict[str, float]:
    """p50/p90/p99 in microseconds; a single sample stands for all three."""
    if len(latencies_ns) < 2:
        v = latencies_ns[0] / 1e3
        return {"p50": v, "p90": v, "p99": v}
    q = statistics.quantiles(latencies_ns, n=100)
    return {"p50": statistics.median(latencies_ns) / 1e3,
            "p90": q[89] / 1e3, "p99": q[98] / 1e3}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    import cryptography

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "git_commit": git_commit(),
    }


def end_to_end(phase: Phase, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (phase.ops / phase.elapsed_s, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "radio_bytes_per_op": (phase.radio_bytes / phase.ops, "B"),
        "core_bytes_per_op": (phase.core_bytes / phase.ops, "B"),
    }


PER_LAYER_UNITS = {"self_us": "us", "calls": "1/op", "share": "ratio"}
COUNTER_UNITS = {
    "python.gc.pause_us": "us", "python.gc.gen2": "1/kop",
    "sn.guti_hit_ratio": "ratio", "hn.pending_max": "count",
    "sn.pending_max": "count", "sn.guti_table_size": "count",
    "ue.silent_aborts": "1/op", "hn.identify_aborts": "1/op",
    "wire.parse_errors": "1/op", "crypto.aead_failures": "1/op",
    "hn.persist.bytes_per_op": "B", "sn.persist.bytes_per_op": "B",
    "trace_overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in COUNTER_UNITS:
        return COUNTER_UNITS[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many measured ops instead of --seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")

    src = ROOT / "src"
    if not (src / "pqaka" / "__init__.py").is_file():
        print(f"error: no pqaka sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pqaka
    if Path(pqaka.__file__).resolve().parent != (src / "pqaka").resolve():
        print(f"error: pqaka imported from {pqaka.__file__}, not {src}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    persist_dir = tempfile.mkdtemp(prefix="persist-", dir=OUT)
    try:
        return _run(args, persist_dir)
    finally:
        shutil.rmtree(persist_dir, ignore_errors=True)


def _fresh_copy(blob: bytes):
    gc.collect()
    return pickle.loads(blob)


def _run(args, persist_dir: str) -> int:
    import workloads   # both import pqaka, so only once src/ is on the path
    from tracer import Tracer

    meta = run_metadata(args.workload, args.seed, args.trace)
    setup_times = []
    for _ in range(workloads.SETUP_REPEATS[args.workload]):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            state = workloads.setup(args.workload, args.seed, persist_dir)
        except workloads.SetupFailure as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        setup_times.append(time.perf_counter() - t0)

    seconds = args.seconds
    if not args.trace:
        phase = measure(state, seconds=seconds, ops=args.ops)
        metrics = end_to_end(phase, setup_times)
        attempted, failed = phase.ops, phase.failed
        correct = failed == 0
        # reported, not gated: see "Metrics" in README.md
        p = percentiles_us(phase.latencies_ns)
        extra = {"op_us_p50": (p["p50"], "us"), "op_us_p90": (p["p90"], "us"),
                 "op_us_p99": (p["p99"], "us"),
                 "op_fail_ratio": (failed / attempted, "ratio")}
        meta["samples"] = {**dict.fromkeys([*metrics, *extra], phase.ops),
                           "ops_per_s": 1, "peak_rss_mb": 1,
                           "setup_s": len(setup_times)}
        meta["digest"] = phase.digest
    else:
        # both halves start from a fresh copy of the set-up state, so that
        # they see the same heap and the same collector history
        blob = pickle.dumps(state)
        del state
        base = measure(_fresh_copy(blob), seconds=seconds / 2, ops=args.ops)
        state = _fresh_copy(blob)
        del blob
        with Tracer() as tracer:
            traced = measure(state, ops=base.ops, tracer=tracer)
        op_ns = sum(traced.latencies_ns)
        values = tracer.metrics(traced.ops, op_ns)
        values["trace_overhead_ratio"] = (
            percentiles_us(traced.latencies_ns)["p50"]
            / percentiles_us(base.latencies_ns)["p50"])
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        attempted = base.ops + traced.ops
        failed = base.failed + traced.failed
        digests_equal = base.digest == traced.digest
        correct = failed == 0 and digests_equal
        extra = {"digests_equal": (digests_equal, "bool"),
                 "spans": (tracer.n_spans, "count")}
        meta["samples"] = {**dict.fromkeys(metrics, traced.ops),
                           "trace_overhead_ratio": base.ops + traced.ops,
                           "setup_s": len(setup_times)}
        meta["digest"] = base.digest
        meta["traced_digest"] = traced.digest
        stem = OUT / f"{args.workload}-seed{args.seed}"
        meta["spans_written"] = tracer.write_spans(f"{stem}.spans.csv")

    meta.update({k: v for k, (v, _) in extra.items()})
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1, sort_keys=True)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
