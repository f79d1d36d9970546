"""Tests of the benchmark itself: tracer hygiene, op checks, digests, and the
per-workload call counts that pin each workload to the traffic it is named for.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The two 10k-subscriber cases set up the full population and take about
half a minute each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pqaka  # noqa: E402
from pqaka import attacks, sim  # noqa: E402
from pqaka.rng import SeededRandom  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Identity snapshot of every pqaka module global and traced class attribute."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "pqaka" or name.startswith("pqaka."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls, _, _ in tracer.METHODS:
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str]) -> tuple[dict, dict]:
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    return meta, json.loads(lines[-1])


def test_tracer_wraps_every_import_site_and_restores_them():
    before = _bindings()
    with tracer.Tracer() as tr:
        from pqaka import backends, hn, sn, ue, wire
        wrapped = [hn.pack_m_payload, hn.unpack_suci_payload, sn.unpack_m_payload,
                   ue.pack_suci_payload, wire.encode, backends.hash_h,
                   pqaka.run_session, sim.run_session, hn.save_registry,
                   sn.save_guti_table, SeededRandom.bytes,
                   attacks.DerivationGraph.closure]
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
        world = sim.make_world("test", seed=1)
        assert sim.run_session(world, "supi", rng=SeededRandom(2)).completed
    _assert_same(before, _bindings())
    assert tr.calls[tracer.LAYERS.index("sim")] == 3   # run_session, seal, open


def test_tracer_restores_on_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("op failed")
    _assert_same(before, _bindings())


def test_tracer_counts_failure_paths():
    from pqaka import crypto, wire

    def flip_last(data, ctx):
        return data[:-1] + bytes([data[-1] ^ 1])

    with tracer.Tracer() as tr:
        world = sim.make_world("test", seed=6)
        world.ue.id_sn_expected = "other-sn.example"
        out = sim.run_session(world, "supi", rng=SeededRandom(7))
        assert out.abort_step == "hn-identify"

        world = sim.make_world("test", seed=8)
        attacker = sim.ScriptedAttacker({"challenge": flip_last})
        out = sim.run_session(world, "supi", attacker, SeededRandom(9))
        assert out.abort_step == "ue-challenge"

        with pytest.raises(wire.ParseError):
            wire.decode(b"\xff")
        with pytest.raises(crypto.AeadFailure):
            crypto.aead_open(bytes(32), bytes(20))
    c = tr.counts
    assert (c["hn.identify_aborts"], c["ue.silent_aborts"],
            c["wire.parse_errors"], c["crypto.aead_failures"]) == (1, 1, 1, 1)
    assert c["hn.pending_max"] == 1 and c["sn.pending_max"] == 1


def test_session_check_rejects_silent_guti_fallback():
    world = sim.make_world("test", seed=3)
    rng = SeededRandom(4)
    first = sim.run_session(world, "supi", rng=rng)
    assert workloads.session_ok(first, "supi")
    assert not workloads.session_ok(first, "guti")
    world.ue.guti = None          # the UE lost its GUTI: it falls back to SUPI
    out = sim.run_session(world, "guti", rng=rng)
    assert out.completed and out.key_source == "supi"
    assert not workloads.session_ok(out, "guti")


def test_pass_check_rejects_failed_verdict_and_missing_scenario():
    weak = attacks.run_scenarios(list(attacks.SCENARIOS), "test", 5,
                                 weaken=frozenset({"ue-mac"}))
    assert not workloads.pass_ok(weak)
    honest = attacks.run_scenarios(list(attacks.SCENARIOS), "test", 5)
    assert workloads.pass_ok(honest)
    assert not workloads.pass_ok(honest[1:])


def test_same_seed_same_digest():
    digests = []
    for seed in (7, 7, 8):
        rc, lines = _run("--workload", "supi-x25519", "--seed", str(seed),
                         "--trace", "0", "--ops", "25")
        assert rc == 0
        meta, result = _result(lines)
        assert result["correct"] and result["attempted"] == 25
        digests.append(meta["digest"])
    assert digests[0] == digests[1] != digests[2]


# workload -> (backends calls/op, hn.persist calls/op, sn.persist calls/op,
#              sn.guti_hit_ratio, ops)
PREDICTED = {
    "supi-x25519": (5.0, 0.0, 0.0, 0.0, 30),
    "guti-10k": (0.0, 0.0, 0.0, 1.0, 30),
    "guti-10k-persist": (0.0, 1.0, 1.0, 1.0, 10),
    "attack-all": (None, 0.0, 0.0, None, 2),
}


@pytest.mark.parametrize("workload", list(PREDICTED))
def test_predicted_counts_in_traced_run(workload):
    backends_calls, hn_persist, sn_persist, hit_ratio, ops = PREDICTED[workload]
    rc, lines = _run("--workload", workload, "--seed", "11", "--trace", "1",
                     "--ops", str(ops))
    meta, result = _result(lines)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert meta["digests_equal"] and meta["digest"] == meta["traced_digest"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if backends_calls is not None:
        assert m["backends.calls"] == backends_calls
    else:
        assert m["backends.calls"] > 0
    assert m["hn.persist.calls"] == hn_persist
    assert m["sn.persist.calls"] == sn_persist
    if hit_ratio is not None:
        assert m["sn.guti_hit_ratio"] == hit_ratio
    assert (m["attacks.calls"] > 0) == (workload == "attack-all")
    if workload == "guti-10k-persist":
        assert m["hn.persist.bytes_per_op"] > 0 and m["sn.persist.bytes_per_op"] > 0
        assert not list((ROOT / "perfbench" / "out").glob("persist-*"))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, lines = _run("--workload", "supi-x25519", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(l.startswith("{") for l in lines)
