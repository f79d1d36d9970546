"""Outside-in tracer for the pqaka layers.

The tracer never edits the package. On entry it replaces each traced
function at every ``pqaka`` module global bound to it (so copies made by
``from .wire import ...`` are traced too) and each traced method on its
class; on exit it puts every original back. Each call becomes a span
(name, start, end, parent, op id). Spans are kept in memory, up to
``SPAN_CAP`` of them, and written out when the run ends. Self time, call
counts and failure counters are accumulated for every call, kept or not.
"""

from __future__ import annotations

import gc
import os
import sys
from array import array
from time import perf_counter_ns

from pqaka import attacks, crypto, hn, rng, sim, sn, ue, wire

LAYERS = (
    "backends", "crypto.prf", "crypto.kdf", "crypto.xor", "crypto.aead",
    "wire", "rng", "ue", "sn", "hn", "hn.persist", "sn.persist", "sim",
    "attacks",
)

# (module, function, layer). The crypto.kem_* calls stand for the backends
# layer, because they are where every suite's KEM is dispatched.
FUNCTIONS = (
    (crypto, "kem_keygen", "backends"),
    (crypto, "kem_encaps", "backends"),
    (crypto, "kem_decaps", "backends"),
    (crypto, "prf_f", "crypto.prf"),
    (crypto, "hmac_tag", "crypto.prf"),
    (crypto, "kdf", "crypto.kdf"),
    (crypto, "hash_h", "crypto.kdf"),
    (crypto, "as_shared_key", "crypto.kdf"),
    (crypto, "xor_bytes", "crypto.xor"),
    (crypto, "aead_seal", "crypto.aead"),
    (crypto, "aead_open", "crypto.aead"),
    (wire, "encode", "wire"),
    (wire, "decode", "wire"),
    (wire, "pack_suci_payload", "wire"),
    (wire, "unpack_suci_payload", "wire"),
    (wire, "pack_m_payload", "wire"),
    (wire, "unpack_m_payload", "wire"),
    (ue, "ue_identification_response", "ue"),
    (ue, "ue_guti_identification", "ue"),
    (ue, "ue_process_challenge", "ue"),
    (ue, "ue_handle_guti_assignment", "ue"),
    (sn, "sn_forward_identification", "sn"),
    (sn, "sn_resolve_guti", "sn"),
    (sn, "sn_forward_challenge", "sn"),
    (sn, "sn_verify_response", "sn"),
    (hn, "hn_identify", "hn"),
    (hn, "hn_auth_vector", "hn"),
    (hn, "hn_guti_auth_vector", "hn"),
    (hn, "hn_finalize", "hn"),
    (hn, "save_registry", "hn.persist"),
    (sn, "save_guti_table", "sn.persist"),
    (sim, "run_session", "sim"),
    (sim, "seal_assignment", "sim"),
    (sim, "open_assignment", "sim"),
    (attacks, "run_scenarios", "attacks"),
)

# (class, method, layer)
METHODS = (
    (rng.SeededRandom, "bytes", "rng"),
    (attacks.DerivationGraph, "closure", "attacks"),
)

# span name -> (exception that marks a protocol failure there, counter)
FAILURES = {
    "hn.hn_identify": (hn.IdentificationAbort, "hn.identify_aborts"),
    "hn.hn_guti_auth_vector": (hn.IdentificationAbort, "hn.identify_aborts"),
    "wire.decode": (wire.ParseError, "wire.parse_errors"),
    "wire.unpack_suci_payload": (wire.ParseError, "wire.parse_errors"),
    "wire.unpack_m_payload": (wire.ParseError, "wire.parse_errors"),
    "crypto.aead_open": (crypto.AeadFailure, "crypto.aead_failures"),
}

COUNTERS = (
    "ue.silent_aborts", "hn.identify_aborts", "wire.parse_errors",
    "crypto.aead_failures", "sn.guti_ids", "sn.guti_hits",
    "hn.persist.bytes", "sn.persist.bytes",
    "hn.pending_max", "sn.pending_max", "sn.guti_table_size",
)

SPAN_CAP = 200_000
_SPAN_FIELDS = 5     # name id, start ns, end ns, parent span index, op id


def import_sites(obj) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded pqaka package bound to obj."""
    sites = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "pqaka" and not name.startswith("pqaka."):
            continue
        sites += [(mod, attr) for attr, val in vars(mod).items() if val is obj]
    return sites


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        self.undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def wrap_everywhere(self, module, name: str, make) -> None:
        """Replace module.name at each of its import sites by make(original)."""
        original = getattr(module, name)
        wrapper = make(original)
        for owner, attr in import_sites(original):
            self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self.undo:
            owner, name, original = self.undo.pop()
            setattr(owner, name, original)


class Tracer:
    """Context manager: spans, per-layer self time and runtime counters.

    The caller sets ``op`` to the current operation's id before each op.
    """

    def __init__(self):
        self.op = 0
        self.names: list[str] = []
        self.spans = array("q")
        self.n_spans = 0
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_start = 0
        self._stack: list[list[int]] = []
        self._patches = Patches()
        self._hooks = {
            "ue.ue_process_challenge": self._after_challenge,
            "sn.sn_resolve_guti": self._after_resolve,
            "hn.save_registry": self._after_save("hn.persist.bytes"),
            "sn.save_guti_table": self._after_save("sn.persist.bytes"),
            "sim.run_session": self._after_session,
        }

    # --- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, name, layer in FUNCTIONS:
                span = f"{module.__name__.removeprefix('pqaka.')}.{name}"
                self._patches.wrap_everywhere(
                    module, name, lambda fn, s=span, l=layer: self._wrap(fn, s, l))
            for cls, name, layer in METHODS:
                span = f"{cls.__module__.removeprefix('pqaka.')}.{cls.__name__}.{name}"
                self._patches.replace(
                    cls, name, self._wrap(vars(cls)[name], span, layer))
        except BaseException:
            self._patches.restore()
            raise
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    # --- spans -----------------------------------------------------------------

    def _wrap(self, fn, span: str, layer: str):
        tracer = self
        name_id = len(self.names)
        self.names.append(span)
        layer_id = LAYERS.index(layer)
        self_ns, calls, stack, spans = self.self_ns, self.calls, self._stack, self.spans
        failure, counter = FAILURES.get(span, ((), None))
        hook = self._hooks.get(span)
        cap = SPAN_CAP

        def traced(*args, **kwargs):
            idx = tracer.n_spans
            tracer.n_spans = idx + 1
            keep = idx < cap
            if keep:
                spans.extend((name_id, 0, 0, stack[-1][0] if stack else -1, tracer.op))
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except failure:
                tracer.counts[counter] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[layer_id] += duration - frame[1]
                calls[layer_id] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    base = idx * _SPAN_FIELDS
                    spans[base + 1] = start
                    spans[base + 2] = end
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: str) -> int:
        """Write the kept spans as CSV; returns how many were written."""
        kept = len(self.spans) // _SPAN_FIELDS
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            s = self.spans
            for i in range(kept):
                b = i * _SPAN_FIELDS
                fh.write(f"{i},{self.names[s[b]]},{s[b + 1]},{s[b + 2]},"
                         f"{s[b + 3]},{s[b + 4]}\n")
        return kept

    # --- counters ----------------------------------------------------------------

    def _after_challenge(self, args, kwargs, result) -> None:
        if result is None:
            self.counts["ue.silent_aborts"] += 1

    def _after_resolve(self, args, kwargs, result) -> None:
        self.counts["sn.guti_ids"] += 1
        if isinstance(result, tuple):
            self.counts["sn.guti_hits"] += 1

    def _after_save(self, counter: str):
        def hook(args, kwargs, result) -> None:
            path = args[0] if args else kwargs["path"]
            self.counts[counter] += os.path.getsize(path)
        return hook

    def _after_session(self, args, kwargs, result) -> None:
        world = args[0] if args else kwargs["world"]
        c = self.counts
        c["hn.pending_max"] = max(c["hn.pending_max"], len(world.hn.pending))
        c["sn.pending_max"] = max(c["sn.pending_max"], len(world.sn.pending))
        c["sn.guti_table_size"] = max(c["sn.guti_table_size"], len(world.sn.guti_table))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
            return
        self.gc_pause_ns += perf_counter_ns() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # --- per-layer metrics -------------------------------------------------------

    def metrics(self, ops: int, op_ns_total: int) -> dict[str, float]:
        """Per-op layer self time, call counts, shares and counters."""
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_us"] = self.self_ns[i] / 1e3 / ops
            out[f"{layer}.calls"] = self.calls[i] / ops
            out[f"{layer}.share"] = self.self_ns[i] / op_ns_total
        c = self.counts
        out["python.gc.pause_us"] = self.gc_pause_ns / 1e3 / ops
        out["python.gc.gen2"] = self.gc_gen2 * 1000 / ops
        # 0 when the workload makes no GUTI identification
        out["sn.guti_hit_ratio"] = (
            c["sn.guti_hits"] / c["sn.guti_ids"] if c["sn.guti_ids"] else 0.0)
        for name in ("hn.pending_max", "sn.pending_max", "sn.guti_table_size"):
            out[name] = float(c[name])
        for name in ("ue.silent_aborts", "hn.identify_aborts",
                     "wire.parse_errors", "crypto.aead_failures"):
            out[name] = c[name] / ops
        out["hn.persist.bytes_per_op"] = c["hn.persist.bytes"] / ops
        out["sn.persist.bytes_per_op"] = c["sn.persist.bytes"] / ops
        return out
