"""Adversary-game scenarios and the derivation-closure oracle."""

import dataclasses
import os
import subprocess
import sys
from collections import Counter

import pytest

from pqaka import attacks, crypto, sim, sn, ue as ue_mod, wire
from pqaka.crypto import TEST_KEM
from pqaka.rng import SeededRandom


def _all_controls_ok(verdict):
    return all(ok for _name, ok in verdict.controls)


def test_replay_scenario_holds():
    v = attacks.scenario_replay_challenge()
    assert v.holds and _all_controls_ok(v)
    assert any("replay-suci" in e for e in v.evidence)


def test_replay_scenario_fails_without_ue_mac_check():
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    v = attacks.scenario_replay_challenge(**make_roles())
    assert not v.holds
    # the UE lets every splice through, and each dies at the SN, whose M
    # does not open under their RES*: the two that replay c2 answer with
    # another K*, and a replayed AUTN unmasks another R_SN, which RES* binds
    assert v.evidence[1:4] == [
        "replay-c2-and-autn: abort_step=sn-verify",
        "replay-c2-fresh-autn: abort_step=sn-verify",
        "replay-autn-fresh-c2: abort_step=sn-verify"]


def test_linkability_scenario_holds_both_modes():
    for mode in ("supi", "guti"):
        v = attacks.scenario_linkability_probe(mode=mode)
        assert v.holds, mode
        assert _all_controls_ok(v), mode


@pytest.mark.parametrize("mode", ["supi", "guti"])
def test_linkability_broken_ue_detected(mode):
    v = attacks.scenario_linkability_probe(mode=mode, ue_mod=attacks._broken_ue())
    assert not v.holds


# (weakening, game, linkability mode) for every game a weakening lists
WEAKENED_GAMES = [
    (weakening, game, mode)
    for weakening, (_make, games) in attacks.WEAKENINGS.items()
    for game in sorted(games)
    for mode in (["supi", "guti"] if game == "linkability" else [None])]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("suite", ["test", "ecies-x25519", "ecies-p256"])
@pytest.mark.parametrize("weakening, game, mode", WEAKENED_GAMES)
def test_each_weakening_fails_every_game_it_lists(weakening, game, mode, suite, seed):
    make_roles, _games = attacks.WEAKENINGS[weakening]
    kwargs = {"mode": mode} if mode else {}
    v = attacks.SCENARIOS[game](suite, seed, **make_roles(), **kwargs)
    assert not v.holds


def test_weakened_sn_binding_game_fails_at_the_sn():
    """With ue-mac, UE B answers UE A's forwarded challenge; the SN, whose
    M does not open under B's RES*, not the UE, then ends the session."""
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    v = attacks.scenario_compromised_sn_binding(**make_roles())
    assert "cross-ue-challenge: abort_step=sn-verify" in v.evidence


def test_ue_without_mac_check_aborts_a_guti_challenge(world, rng):
    """The weakening only skips the MAC check where it can splice in the
    MAC it expects (a SUPI challenge); a GUTI challenge has no c2."""
    assert sim.run_session(world, "supi", rng=rng).completed
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    out = sim.run_session(world, "guti", rng=rng, **make_roles())
    assert out.completed and out.key_source == "guti"


def test_ue_without_mac_check_aborts_a_challenge_with_no_pending_sk_u(world, rng):
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    challenge = {}

    def keep(data, ctx):
        challenge["data"] = data
        return data

    first = sim.run_session(world, "supi", sim.ScriptedAttacker({"challenge": keep}), rng)
    assert first.completed
    ch = wire.decode(challenge["data"])    # in a session that drew no sk_U
    assert make_roles()["ue_mod"].ue_process_challenge(world.ue, ch, None) is None


def test_ue_without_mac_check_aborts_a_c2_it_cannot_decapsulate(world, rng):
    def short_c2(data, ctx):
        ch = wire.decode(data)
        return wire.encode(dataclasses.replace(ch, c2=ch.c2[:-1]))

    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    out = sim.run_session(world, "supi", sim.ScriptedAttacker({"challenge": short_c2}),
                          rng, **make_roles())
    assert out.abort_step == "ue-challenge"


def test_run_scenarios_refuses_a_weakening_that_lists_none_of_the_games(monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a game ran before the weakenings were checked")

    monkeypatch.setattr(sim, "run_session", no_session)
    for weakening, (_make, games) in attacks.WEAKENINGS.items():
        others = [n for n in attacks.SCENARIOS if n not in games]
        with pytest.raises(attacks.UnusedWeakening, match=others[0]):
            attacks.run_scenarios(others, weaken=frozenset({weakening}))


def test_broken_ue_reaches_only_the_sessions_it_is_passed_to(world, rng):
    broken = attacks._broken_ue()
    c1s = []
    for roles in (broken, broken, ue_mod):
        out = sim.run_session(world, "supi", rng=rng, ue_mod=roles)
        assert out.completed
        c1s.append(wire.decode(attacks._radio(out)["id-response"]).c1)
    assert c1s[0] == c1s[1] != c1s[2]


def test_sn_binding_scenario_holds():
    v = attacks.scenario_compromised_sn_binding()
    assert v.holds and _all_controls_ok(v)
    assert "pre-response-secrets=[]" in v.evidence


def test_sn_binding_control_fails_when_the_sn_never_accepts_a_response(monkeypatch):
    """Part (a) drops its response before the SN's check, B aborts at its
    UE and (c) at sn-verify, so the game holds; A cannot complete."""
    monkeypatch.setattr(sn, "sn_verify_response", lambda *args: None)
    v = attacks.scenario_compromised_sn_binding()
    assert v.holds
    assert v.evidence[3:] == ["cross-ue-challenge: abort_step=ue-challenge",
                              "wrong-sn-vector: abort_step=sn-verify"]
    assert v.controls == [("honest-sn-recovers-after-response", False)]


def test_forward_secrecy_scenario_holds():
    v = attacks.scenario_forward_secrecy_game()
    assert v.holds and _all_controls_ok(v)


def test_run_scenarios_all():
    verdicts = attacks.run_scenarios(list(attacks.SCENARIOS))
    assert len(verdicts) == len(attacks.SCENARIOS)
    assert all(v.holds for v in verdicts)
    for v in verdicts:
        line = v.to_line()
        assert v.scenario in line and "holds=True" in line


@pytest.mark.parametrize("suite", ["test", "ecies-x25519"])
def test_every_game_session_draws_fresh_values(monkeypatch, suite):
    """Over one pass of every game, no UE state draws one sk_U twice and no
    SN opens one sid twice: each session draws from its game's one seeded
    source. The replayed id-response of replay-suci is the attack itself;
    the UE draws a fresh sk_U for that session all the same."""
    draws: dict[int, tuple[object, Counter]] = {}    # id(state) -> (state, values)

    def count(state, value):
        draws.setdefault(id(state), (state, Counter()))[1][value] += 1

    honest_response = ue_mod.ue_identification_response

    def identification_response(state, rng):
        msg, pair = honest_response(state, rng)
        count(state, pair.sk)
        return msg, pair

    def opening(forward):
        def opened(state, msg, rng):
            forwarded = forward(state, msg, rng)
            if isinstance(forwarded, tuple):
                count(state, forwarded[1])
            return forwarded
        return opened

    monkeypatch.setattr(ue_mod, "ue_identification_response", identification_response)
    for name in ("sn_forward_identification", "sn_resolve_guti"):
        monkeypatch.setattr(sn, name, opening(getattr(sn, name)))
    assert all(v.holds for v in attacks.run_scenarios(list(attacks.SCENARIOS), suite))
    assert {type(state).__name__ for state, _ in draws.values()} == {"UeState", "SnState"}
    repeated = {type(state).__name__: [v.hex() for v, n in values.items() if n > 1]
                for state, values in draws.values() if max(values.values()) > 1}
    assert repeated == {}


def test_guti_linkability_verdict_is_the_same_under_python_O():
    """The game's provisioning sessions run, and its preconditions are
    checked, with assertions stripped too."""
    src = os.path.dirname(os.path.dirname(attacks.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from pqaka import attacks; "
            "print(attacks.scenario_linkability_probe(mode='guti').to_line())")
    lines = [subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
             for flags in ([], ["-O"])]
    assert lines[0] == lines[1]
    assert "holds=True" in lines[0]


@pytest.mark.parametrize("game, kwargs", [
    ("replay", {}), ("linkability", {"mode": "guti"}), ("forward-secrecy", {})],
    ids=["replay", "linkability-guti", "forward-secrecy"])
def test_game_whose_first_session_aborts_raises(monkeypatch, game, kwargs):
    """A game checks that the sessions it builds on completed with an
    explicit raise, which python -O keeps."""
    monkeypatch.setattr(ue_mod, "ue_process_challenge", lambda state, ch, ephemeral: None)
    with pytest.raises(RuntimeError, match="ended at ue-challenge"):
        attacks.SCENARIOS[game](**kwargs)


def test_verdicts_carry_witness_evidence():
    for name in attacks.SCENARIOS:
        v = attacks.SCENARIOS[name]()
        assert v.holds and v.evidence, name


# --- recorded derivation graph -----------------------------------------------

def _graph(*calls, secrets=()):
    """The graph of a hand-made log of (name, args, result) calls."""
    recorder = attacks.Recorder()
    recorder.log.extend(calls)
    return attacks.DerivationGraph(recorder, secrets)


def _kdf(*inputs):
    return ("kdf", ([*inputs],), crypto.kdf([*inputs]))


def _xor(a, b):
    return ("xor_bytes", (a, b), crypto.xor_bytes(a, b))


def test_closure_solves_an_xor_for_either_operand():
    a, b = b"\x01" * 32, b"\x02" * 32
    g = _graph(_xor(a, b))
    c = crypto.xor_bytes(a, b)
    assert g.closure({a, b})[c] == 1
    assert g.closure({a, c})[b] == 1 and g.closure({b, c})[a] == 1
    assert g.closure({a}) == {a: 0}


def test_closure_reaches_the_end_of_a_long_chain():
    """No depth cap: a six-kdf chain is deduced to its end, v6 at round 6,
    and each kdf output gives its last CHECK_LEN bytes one round later."""
    chain = [b"\x03" * 32]
    for _ in range(6):
        chain.append(crypto.kdf([chain[-1]]))
    closure = _graph(*(_kdf(v) for v in chain[:-1])).closure({chain[0]})
    assert [closure[v] for v in chain] == list(range(7))
    assert closure[chain[6][-crypto.CHECK_LEN:]] == 7


def test_closure_admits_each_value_at_its_fewest_rounds():
    """y is xor(x3, b), x3 the end of a three-kdf chain from a, and also
    xor(a, t): from {a, t} it takes one round, and b, solved from x3 and
    y, takes four."""
    a, b = b"\x07" * 32, b"\x08" * 32
    x1 = crypto.kdf([a])
    x2 = crypto.kdf([x1])
    x3 = crypto.kdf([x2])
    y = crypto.xor_bytes(x3, b)
    t = crypto.xor_bytes(a, y)
    closure = _graph(_kdf(a), _kdf(x1), _kdf(x2), _xor(x3, b), _xor(a, t)).closure({a, t})
    assert {v: closure[v] for v in (a, t, x1, y, x2, x3, b)} == {
        a: 0, t: 0, x1: 1, y: 1, x2: 2, x3: 3, b: 4}


def test_closure_runs_no_crypto(monkeypatch):
    """The closure reads the recorded values only: it calls no crypto."""
    world, _runs, g = _history()
    base = g.constants | {world.ue.k}
    expected = g.closure(base)

    def called(*args):
        raise AssertionError("the closure called crypto")

    for name in ("prf_f", "kdf", "hash_h", "xor_bytes", "aead_open", "kem_decaps"):
        monkeypatch.setattr(crypto, name, called)
    assert g.closure(base) == expected


def _history(suite="test", seed=0, **roles):
    """make_world and a SUPI then a GUTI session, recorded as one history as
    forward-secrecy records it; the world, both (outcome, capture) pairs
    and the graph."""
    rng = SeededRandom(seed)
    with attacks.Recorder() as recorder:
        world = sim.make_world(suite, seed=rng)
        runs = [attacks.run_captured(world, mode, rng, **roles) for mode in ("supi", "guti")]
    assert [out.key_source for out, _capture in runs] == ["supi", "guti"]
    return world, runs, attacks.DerivationGraph(recorder, [world.ue.supi])


def _recorded_bindings():
    return [getattr(owner, name) for owner, name in attacks._RECORDED]


def test_recorder_restores_every_patched_attribute():
    before = _recorded_bindings()
    with attacks.Recorder() as recorder:
        assert all(a is not b for a, b in zip(_recorded_bindings(), before))
        sim.run_session(sim.make_world("test", seed=0), "supi", rng=SeededRandom(1))
    assert _recorded_bindings() == before
    assert {name for name, _args, _result in recorder.log} == {
        name for _owner, name in attacks._RECORDED}


def test_recorder_restores_every_patched_attribute_when_a_game_raises(monkeypatch):
    before = _recorded_bindings()
    monkeypatch.setattr(ue_mod, "ue_process_challenge", lambda state, ch, ephemeral: None)
    with pytest.raises(RuntimeError, match="ended at ue-challenge"):
        attacks.scenario_forward_secrecy_game()
    assert _recorded_bindings() == before


def test_recorder_logs_no_call_made_inside_a_kem():
    """Each KEM call is one entry: the test KEM's own hash_h and draws,
    and as_shared_key's kdf, stay out of the log."""
    with attacks.Recorder() as recorder:
        pair = crypto.kem_keygen(TEST_KEM, SeededRandom(0))
        ct, key = crypto.kem_encaps(TEST_KEM, pair.pk, SeededRandom(1))
        assert crypto.kem_decaps(TEST_KEM, pair.sk, ct) == key
    assert [name for name, _args, _result in recorder.log] == [
        "kem_keygen", "kem_encaps", "kem_decaps"]


@pytest.mark.parametrize("suite", ["test", "ecies-x25519", "ecies-p256"])
def test_the_constants_are_the_identities_and_the_two_labels(suite):
    _world, _runs, g = _history(suite)
    assert g.constants == {b"sn.example", b"hn.example", b"r-sn-prime", b"guti-transport"}


def test_the_kem_stays_opaque_on_the_test_kem():
    """The test KEM's key is hash_h(pk, ct), but no KEM call is opened up:
    radio + pk_H does not give the SUPI, and radio + K + sk_H does not give
    K_seaf, which the UE's sk_U does."""
    world, ((supi_run, capture), _guti), g = _history()
    radio = g.constants | attacks._heard(supi_run)
    supi = world.ue.supi.encode()
    assert supi not in g.closure(radio | {world.hn.kem_pair.pk})
    assert supi in g.closure(radio | {world.hn.kem_pair.sk})
    base = radio | {world.ue.k, world.hn.kem_pair.sk}
    assert supi_run.k_seaf_ue not in g.closure(base)
    assert supi_run.k_seaf_ue in g.closure(base | {capture.sk_u})


def test_the_guti_sessions_k_star_with_k_gives_its_k_seaf():
    """A role store holding K* = K_S xor R_SN' itself would fail the stolen
    store check: K* with {K, sk_H} and the radio reaches the GUTI session's
    K_seaf, which neither share alone does."""
    world, ((supi_run, _), (guti_run, capture)), g = _history()
    base = g.constants | attacks._heard(supi_run, guti_run) | {world.ue.k, world.hn.kem_pair.sk}
    k_star = crypto.xor_bytes(capture.k_s_prev, capture.r_sn_prime)
    assert guti_run.k_seaf_ue in g.closure(base | {k_star})
    assert all(guti_run.k_seaf_ue not in g.closure(base | {share})
               for share in (capture.k_s_prev, capture.r_sn_prime))


def test_backward_the_previous_k_seaf_gives_r_sn_prime_but_not_the_next_k_seaf():
    """The K_seaf of the session that assigned the GUTI yields its R_SN'
    by the recorded kdf, and nothing behind the K_S that R_SN' masks."""
    world, ((supi_run, _), (guti_run, capture)), g = _history()
    radio = g.constants | attacks._heard(supi_run, guti_run)
    backward = g.closure(radio | {supi_run.k_seaf_ue})
    assert backward[capture.r_sn_prime] == 1
    assert {capture.k_s_prev, guti_run.k_seaf_ue}.isdisjoint(backward)
    # a wrong previous K_seaf was never an input of the recorded kdf
    assert capture.r_sn_prime not in g.closure(radio | {bytes(32)})


@pytest.mark.parametrize("suite", [s for s in ("test", "ecies-x25519", "ml-kem-768")
                                   if s in crypto.available_suites()])
def test_no_pfs_gives_both_sessions_keys_to_k_and_the_radio(suite):
    """Under no-pfs, K* = KDF(K, c2): the radio and K reach both sessions'
    K_seaf, the radio alone neither."""
    make_roles, _games = attacks.WEAKENINGS["no-pfs"]
    world, ((supi_run, _), (guti_run, _)), g = _history(suite, **make_roles())
    radio = g.constants | attacks._heard(supi_run, guti_run)
    keys = {supi_run.k_seaf_ue, guti_run.k_seaf_ue}
    assert keys <= g.closure(radio | {world.ue.k}).keys()
    assert keys.isdisjoint(g.closure(radio))


# --- the SN's knowledge before RES* arrives ----------------------------------

def _sn_pre_response(suite="test", seed=0, **roles):
    """A recorded SUPI run whose response was dropped: the world, the
    graph, the SN's base (the radio, its pending R_SN, CONC and M, the
    constants), the UE's RES* and the K_seaf and SUPI the HN sealed in M."""
    rng = SeededRandom(seed)
    responses = []
    drop = sim.ScriptedAttacker({"response": lambda data, ctx: responses.append(data)})
    with attacks.Recorder() as recorder:
        world = sim.make_world(suite, seed=rng)
        out = sim.run_session(world, "supi", drop, rng, **roles)
    assert out.abort_step == "response" and out.k_seaf_ue is None
    g = attacks.DerivationGraph(recorder, [world.ue.supi])
    (pending,) = world.sn.pending.values()
    (sealed,) = world.hn.pending.values()
    base = g.constants | attacks._heard(out) | {pending.r_sn, pending.conc, pending.m}
    res_star = wire.decode(responses[0]).res_star
    return world, g, base, res_star, {sealed.k_seaf, sealed.supi.encode()}


@pytest.mark.parametrize("suite", ["test", "ecies-x25519", "ecies-p256"])
def test_sn_base_alone_derives_no_session_secret(suite):
    world, g, base, res_star, secrets = _sn_pre_response(suite)
    closure = g.closure(base)
    assert res_star not in closure and secrets.isdisjoint(closure)
    (pending,) = world.sn.pending.values()
    assert crypto.xor_bytes(pending.conc, pending.r_sn) in closure     # AK


def test_res_star_gives_the_sn_k3_then_k_seaf_and_supi():
    """The honest-SN control as a closure: K3 = KDF(RES*, CONC xor R_SN)
    is two rounds from the SN's base and RES*, and opens M."""
    world, g, base, res_star, secrets = _sn_pre_response()
    (pending,) = world.sn.pending.values()
    k3 = crypto.kdf([res_star, crypto.xor_bytes(pending.conc, pending.r_sn)])
    closure = g.closure(base | {res_star})
    assert closure[k3] == 2
    assert secrets <= closure.keys()
    assert g.named(secrets) == ["k_seaf", "supi"]


def test_hn_sealing_m_under_ak_fails_at_the_honest_sn(world, rng):
    """M does not open under K3 even for the right RES*: the SN aborts with
    no SUPI, and its sn-abort frees the HN's entry."""
    make_roles, _games = attacks.WEAKENINGS["hn-seal-ak"]
    out = sim.run_session(world, "supi", rng=rng, **make_roles())
    assert out.abort_step == "sn-verify"
    assert out.supi_at_sn is None
    assert world.hn.pending == {} and world.sn.pending == {}


def test_hn_sealing_m_under_ak_is_caught_by_the_closure():
    """The recorded kdf([AK]) and the seal edge open M: the SN's base alone
    reaches the K_seaf and SUPI in it, and the game names both."""
    make_roles, _games = attacks.WEAKENINGS["hn-seal-ak"]
    _world, g, base, _res_star, secrets = _sn_pre_response(**make_roles())
    assert secrets <= g.closure(base).keys()
    (v,) = attacks.run_scenarios(["sn-binding"], weaken=frozenset({"hn-seal-ak"}))
    assert not v.holds
    assert "pre-response-secrets=['k_seaf', 'supi']" in v.evidence


def test_linkability_multiset_splits_autn_into_halves():
    """A challenge that repeats only the AUTN mac half is reported as such."""
    def outcome(conc: bytes, mac: bytes, c2: bytes) -> sim.SessionOutcome:
        t = sim.SessionTranscript()
        ch = wire.ChallengeMsg(conc=conc, mac=mac, c2=c2)
        t.append(sim.RADIO, "SN->UE", wire.encode(ch), "challenge")
        return sim.SessionOutcome(abort_step=None, transcript=t)

    mac = b"\x07" * crypto.CHECK_LEN
    f1 = attacks._field_multiset(outcome(b"\x01" * crypto.RAND_LEN, mac, b"\x02" * 8))
    f2 = attacks._field_multiset(outcome(b"\x03" * crypto.RAND_LEN, mac, b"\x04" * 8))
    assert f1 & f2 == Counter({b"\x05": 1, mac: 1})
