"""Cross-check of the traced per-layer split against cProfile.

Usage (from the repository root):

    python3 perfbench/profile_split.py --workload supi-x25519 --seed 1 --ops 1500

The workload is set up once. The same ops then run twice, each time from a
fresh copy of the post-set-up state: once with cProfile on around each op,
once under the tracer. The script prints, per layer, the cProfile
``tottime`` share beside the traced self-time share, and marks each layer
whose shares differ by more than ``TOLERANCE``.

cProfile charges a function that belongs to no layer (stdlib, builtins,
the cryptography package, generated dataclass methods) to the layer of
its callers, split by the time each caller spent in it. That matches the
tracer, which charges such calls to the self time of the enclosing span.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import os
import pickle
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DRIVER = "driver"   # the benchmark's own code inside the timed op
TOLERANCE = 0.03    # three points of share
_MODULE_LAYER = {
    "backends": "backends", "wire": "wire", "rng": "rng", "ue": "ue",
    "sn": "sn", "hn": "hn", "sim": "sim", "attacks": "attacks",
}
_FUNCTION_LAYER = {
    ("crypto", "prf_f"): "crypto.prf", ("crypto", "hmac_tag"): "crypto.prf",
    ("crypto", "hmac_verify"): "crypto.prf",
    ("crypto", "kdf"): "crypto.kdf", ("crypto", "hash_h"): "crypto.kdf",
    ("crypto", "as_shared_key"): "crypto.kdf",
    ("crypto", "xor_bytes"): "crypto.xor",
    ("crypto", "aead_seal"): "crypto.aead", ("crypto", "aead_open"): "crypto.aead",
    ("crypto", "kem_keygen"): "backends", ("crypto", "kem_encaps"): "backends",
    ("crypto", "kem_decaps"): "backends", ("crypto", "_test_keygen"): "backends",
    ("crypto", "_test_encaps"): "backends", ("crypto", "_test_decaps"): "backends",
    ("hn", "save_registry"): "hn.persist", ("sn", "save_guti_table"): "sn.persist",
}


def own_layer(key: tuple[str, int, str]) -> str | None:
    """The layer a profiled function belongs to, or None to use its callers'."""
    path, _, func = key
    p = Path(path)
    if p.parent.name == "pqaka":
        module = p.stem
        if (module, func) in _FUNCTION_LAYER:
            return _FUNCTION_LAYER[(module, func)]
        return _MODULE_LAYER.get(module)   # crypto helpers follow their caller
    if p.parent.name == "perfbench":
        return DRIVER
    return None


def cprofile_split(stats: dict) -> dict[str, float]:
    """Total tottime per layer, following callers for unowned functions."""
    memo: dict = {}

    def dist(key, active: frozenset) -> dict[str, float]:
        if key in memo:
            return memo[key]
        layer = own_layer(key)
        if layer is not None:
            return {layer: 1.0}
        callers = stats[key][4] if key in stats else {}
        total = sum(v[2] for v in callers.values())
        if not callers or key in active or total == 0:
            return {"other": 1.0}
        out: dict[str, float] = {}
        for caller, v in callers.items():
            for name, frac in dist(caller, active | {key}).items():
                out[name] = out.get(name, 0.0) + frac * v[2] / total
        memo[key] = out
        return out

    split: dict[str, float] = {}
    for key, (_, _, tt, _, _) in stats.items():
        for name, frac in dist(key, frozenset()).items():
            split[name] = split.get(name, 0.0) + frac * tt
    return split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=1000)
    args = parser.parse_args()

    run.OUT.mkdir(parents=True, exist_ok=True)
    persist_dir = tempfile.mkdtemp(prefix="persist-", dir=run.OUT)
    try:
        blob = pickle.dumps(workloads.setup(args.workload, args.seed, persist_dir))

        state = pickle.loads(blob)
        prof = cProfile.Profile()
        digest = hashlib.sha256()
        with state.capturing():
            for _ in range(args.ops):
                prof.enable()
                result = state.run_op()
                prof.disable()
                if not state.settle(result, digest)[0]:
                    raise SystemExit("an op failed its check")
        split = cprofile_split(pstats.Stats(prof).stats)
        total = sum(split.values())
        profiled = {k: v / total for k, v in split.items()}

        with Tracer() as tracer:
            phase = run.measure(pickle.loads(blob), ops=args.ops, tracer=tracer)
        if phase.failed or phase.digest != digest.hexdigest():
            raise SystemExit("traced ops differ from profiled ops")
        op_ns = sum(phase.latencies_ns)
        traced = {layer: tracer.self_ns[i] / op_ns for i, layer in enumerate(LAYERS)}
        traced[DRIVER] = 1.0 - sum(traced.values())
    finally:
        shutil.rmtree(persist_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.ops} ops, "
          f"{os.cpu_count()} CPUs")
    print("| layer | cProfile tottime share | traced self share | differs |")
    print("|---|---:|---:|---|")
    for layer in (*LAYERS, DRIVER, "other"):
        a, b = profiled.get(layer, 0.0), traced.get(layer, 0.0)
        if a == 0.0 and b == 0.0:
            continue
        mark = "yes" if abs(a - b) > TOLERANCE else ""
        print(f"| {layer} | {a:.3f} | {b:.3f} | {mark} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
