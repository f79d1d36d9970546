"""Acceptance gate: the nine end-to-end criteria, each as one test."""

import copy
import time

import pytest

from golden import SESSION_WIRE
from pqaka import attacks, bench, crypto, sim, ue as ue_mod, wire
from pqaka.crypto import get_suite
from pqaka.rng import SeededRandom

PQ_SIZES = {
    "kyber": (1632, 800, 768, 32),
    "mceliece": (6452, 261120, 128, 32),
    "bike": (5223, 1541, 1573, 32),
    "hqc": (2289, 2249, 4481, 64),
}


def test_criterion_1_protocol_correctness_1000_sessions():
    rng = SeededRandom(42)
    world = sim.make_world("test", seed=rng)
    started = time.monotonic()
    for _ in range(1000):
        outcome = sim.run_session(world, "supi", rng=rng)
        assert outcome.completed
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn
        assert outcome.k_seaf_ue is not None
        assert outcome.supi_at_sn == world.ue.supi
    assert time.monotonic() - started < 10.0


def test_criterion_2_guti_ratchet_chain_with_lost_confirmation():
    rng = SeededRandom(7)
    world = sim.make_world("test", seed=rng)
    record = world.hn.registry[world.ue.supi]

    completed = 0
    outcome = sim.run_session(world, "supi", rng=rng)
    assert outcome.completed and world.ue.k_s == record.k_s is not None
    completed += 1

    for i in range(5):
        if i == 2:
            # lost confirmation: the response never reaches the SN, so no
            # confirm is sent; both sides keep the previous ratchet key and
            # the next session still authenticates with it
            dropper = sim.ScriptedAttacker({"response": lambda d, c: None})
            before = set(world.hn.pending)
            lost = sim.run_session(world, "guti", dropper, rng)
            assert not lost.completed and lost.abort_step == "response"
            assert world.ue.k_s == record.k_s        # old key on both sides
            (lost_sid,) = set(world.hn.pending) - before
            assert world.hn.pending[lost_sid].k_s_new is not None  # for retry
        outcome = sim.run_session(world, "guti", rng=rng)
        assert outcome.completed and outcome.key_source == "guti"
        assert world.ue.k_s == record.k_s is not None
        completed += 1
    assert completed == 6


def test_criterion_3_exhaustive_bit_flip_and_replay():
    rng = SeededRandom(3)
    world = sim.make_world("test", seed=rng)
    # drive an honest run up to a fixed challenge, then fuzz every bit
    from pqaka import hn as hn_mod, sn as sn_mod
    msg = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng, sid)
    challenge = sn_mod.sn_forward_challenge(world.sn, sid, vector)
    assert ue_mod.ue_process_challenge(copy.deepcopy(world.ue), challenge)

    raw = challenge.autn.raw + challenge.c2
    aborts = 0
    total = len(raw) * 8
    assert total == (64 + 32) * 8
    for bit in range(total):
        mutated = bytearray(raw)
        mutated[bit // 8] ^= 1 << (bit % 8)
        ch = wire.ChallengeMsg(
            autn=wire.Autn.from_raw(bytes(mutated[:64])), c2=bytes(mutated[64:]))
        if ue_mod.ue_process_challenge(copy.deepcopy(world.ue), ch) is None:
            aborts += 1
    assert aborts == total                      # 100% silent abort

    verdict = attacks.scenario_replay_challenge()
    assert verdict.holds
    assert sum("replay-" in e for e in verdict.evidence) >= 3


def test_criterion_4_compromised_sn_binding():
    verdict = attacks.scenario_compromised_sn_binding()
    assert verdict.holds
    assert all(ok for _n, ok in verdict.controls)


def test_criterion_5_forward_secrecy_with_flipping_controls():
    verdict = attacks.scenario_forward_secrecy_game()
    assert verdict.holds
    controls = dict(verdict.controls)
    assert controls["supi-sk_u-reveals-k_seaf"]
    assert controls["guti-pre-ratchet-state-reveals-k_seaf"]


def test_criterion_6_linkability_with_broken_ue_control():
    for mode in ("supi", "guti"):
        verdict = attacks.scenario_linkability_probe(mode=mode)
        assert verdict.holds, mode
        assert dict(verdict.controls)["broken-ue-reuse-detected"], mode
    assert not attacks.scenario_linkability_probe(ue_mod=attacks._broken_ue()).holds


def test_criterion_7_communication_cost_table_exact():
    rows = {r.name: r for r in bench.run_sizes(list(PQ_SIZES))}
    for name, (sk, pk, ct, key) in PQ_SIZES.items():
        row = rows[name]
        assert (row.sk_len, row.pk_len, row.ct_len, row.key_len) == \
            (sk, pk, ct, key), name
    # any compiled-in backend must also honor its metadata operationally
    for name in PQ_SIZES:
        suite = get_suite(name)
        if not suite.available:
            continue
        pair = crypto.kem_keygen(suite, SeededRandom(0))
        ct_bytes, k = crypto.kem_encaps(suite, pair.pk, SeededRandom(1))
        assert (len(pair.sk), len(pair.pk), len(ct_bytes), len(k)) == \
            PQ_SIZES[name]


def test_criterion_8_runtime_ordering_of_real_backends():
    available = [n for n in PQ_SIZES if get_suite(n).available]
    if len(available) < len(PQ_SIZES):
        pytest.skip("post-quantum KEM backends not compiled in: "
                    f"missing {sorted(set(PQ_SIZES) - set(available))}")
    rows = {r.name: r for r in bench.run_bench(list(PQ_SIZES), iters=50)}
    ue = {n: rows[n].ue_cost_ms for n in rows}
    hn = {n: rows[n].hn_cost_ms for n in rows}
    assert ue["kyber"] < ue["hqc"] < ue["bike"] < ue["mceliece"]
    assert hn["kyber"] < hn["mceliece"] < hn["hqc"] < hn["bike"]


def test_criterion_9_wire_golden_vectors():
    # frozen vectors decode, and re-encode bit-identically
    decoded_types = set()
    for name, blob in SESSION_WIRE.items():
        msg = wire.decode(blob)
        assert wire.encode(msg) == blob, name
        decoded_types.add(type(msg))
    assert len(decoded_types) == 12             # every message type covered
    # a live seeded session reproduces the honest-session vectors exactly
    world = sim.make_world("test", seed=0)
    outcome = sim.run_session(world, "supi", rng=SeededRandom(1))
    assert outcome.completed
    produced = {e.annotation: e.data for e in outcome.transcript.entries}
    for name in ("id-request", "id-response", "sn-hn-ident", "auth-vector",
                 "challenge", "response", "confirm"):
        assert produced[name] == SESSION_WIRE[name], name
    assert produced["guti-assign"] == SESSION_WIRE["secure-envelope"]
