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
    assert any("opened=0" in e for e in v.evidence)


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


# --- derivation graph --------------------------------------------------------

def test_closure_re_executes_recipes():
    g = attacks.DerivationGraph(TEST_KEM)
    g.atom("a", b"\x01" * 32)
    g.atom("b", b"\x02" * 32)
    g.derived("x", "xor", "a", "b")
    g.derived("y", "kdf", "x")
    closure = g.closure({"a", "b"})
    assert closure["x"] == 1 and closure["y"] == 2


def test_closure_reaches_the_end_of_a_long_chain():
    """No depth cap: a six-kdf chain is deduced to its end, v6 at round 6."""
    g = attacks.DerivationGraph(TEST_KEM)
    g.atom("v0", b"\x03" * 32)
    for i in range(1, 7):
        g.derived(f"v{i}", "kdf", f"v{i-1}")
    assert g.closure({"v0"}) == {f"v{i}": i for i in range(7)}


def test_closure_admits_each_node_at_its_fewest_rounds():
    """y is reached by xor(x3, a) at the end of a three-kdf chain, and by
    xor(a, t) in one round; z = kdf(y) is then two rounds from the base."""
    g = attacks.DerivationGraph(TEST_KEM)
    g.atom("a", b"\x07" * 32)
    g.derived("x1", "kdf", "a")
    g.derived("x2", "kdf", "x1")
    g.derived("x3", "kdf", "x2")
    g.atom("t", g.nodes["x3"].value)
    g.derived("y", "xor", "x3", "a")
    g.derived("y", "xor", "a", "t")
    g.derived("z", "kdf", "y")
    assert g.closure({"a", "t"}) == {"a": 0, "t": 0, "x1": 1, "y": 1,
                                     "x2": 2, "z": 2, "x3": 3}


def test_closure_runs_each_recipe_once_when_it_is_added(monkeypatch):
    """derived runs the op and stores whether it reproduces the node's
    bytes; closure reads that and runs no op."""
    g = attacks.DerivationGraph(TEST_KEM)
    g.atom("a", b"\x05" * 32)
    g.atom("b", b"\x06" * 32)
    g.derived("x", "xor", "a", "b")
    g.derived("x", "kdf", "a")             # does not reproduce x
    g.derived("x", "open-m-k_seaf", "a", "b")   # raises: does not either
    assert g.nodes["x"].recipes == [("xor", ("a", "b"), True), ("kdf", ("a",), False),
                                    ("open-m-k_seaf", ("a", "b"), False)]
    monkeypatch.setattr(attacks, "_OPS", {})
    assert g.closure({"a"}) == {"a": 0}
    assert g.closure({"a", "b"}) == {"a": 0, "b": 0, "x": 1}


def test_closure_rejects_wrong_recipe_bytes():
    g = attacks.DerivationGraph(TEST_KEM)
    g.atom("a", b"\x04" * 32)
    # a node that holds bytes keeps them; its recipe does not reproduce them
    g.atom("bogus", b"\xff" * 32)
    g.derived("bogus", "kdf", "a")
    assert "bogus" not in g.closure({"a"})


def test_session_graph_reconstructs_anchor_key(world, rng):
    outcome, capture = attacks.run_captured(world, "supi", rng)
    g = attacks.build_session_graph(world, outcome, capture)
    # full knowledge (including sk_U) reaches the anchor key
    base = g.public | {"k", "sk_h", "sk_u"}
    closure = g.closure(base)
    assert "k_seaf" in closure


def test_session_graph_refuses_an_outcome_with_another_k_seaf(world, rng):
    """The rebuilt k_seaf is the UE's K_seaf, or the graph is refused."""
    outcome, capture = attacks.run_captured(world, "supi", rng)
    assert capture.k_seaf == outcome.k_seaf_ue
    attacks.build_session_graph(world, outcome, capture)
    forged = dataclasses.replace(capture, k_seaf=bytes(32))
    with pytest.raises(ValueError, match="k_seaf"):
        attacks.build_session_graph(world, outcome, forged)


def test_backward_closure_derives_r_sn_prime_but_not_the_next_k_seaf(world, rng):
    """The K_seaf of the session that assigned the GUTI yields its R_SN',
    by the graph's recipe, and nothing behind the K_S that R_SN' masks."""
    first, _ = attacks.run_captured(world, "supi", rng)
    out, capture = attacks.run_captured(world, "guti", rng)
    g = attacks.build_session_graph(world, out, capture)
    backward = attacks._backward_closure(g, first.k_seaf_ue)
    assert backward["r_sn_prime"] == 1
    assert {"k_s_prev", "k_star", "k_seaf"}.isdisjoint(backward)
    # a wrong previous K_seaf does not reproduce the session's R_SN'
    g = attacks.build_session_graph(world, out, capture)
    assert "r_sn_prime" not in attacks._backward_closure(g, bytes(32))


def test_stolen_store_check_fires_when_the_hn_row_holds_k_star(world, rng):
    """With R_SN' folded into the K_S the HN stores, the row alone is the
    next GUTI session's K*: the R_SN' left to mask it is the all-zero
    string, which every party knows."""
    attacks.run_captured(world, "supi", rng)
    out, capture = attacks.run_captured(world, "guti", rng)
    folded = dataclasses.replace(
        capture, k_s_prev=crypto.xor_bytes(capture.k_s_prev, capture.r_sn_prime),
        r_sn_prime=bytes(32))
    g = attacks.build_session_graph(world, out, folded)
    g.public.add("r_sn_prime")
    base = g.public | {"k", "sk_h"}
    assert "k_seaf" not in g.closure(base)
    assert attacks._stolen_stores(g, base)[0] == ("stolen-hn-row", True)


def test_session_graph_public_set_distinguishes_paths(world, rng):
    supi = attacks.build_session_graph(world, *attacks.run_captured(world, "supi", rng))
    guti = attacks.build_session_graph(world, *attacks.run_captured(world, "guti", rng))
    assert supi.public == {"id_sn", "id_hn", "c1", "suci_conc", "mac_u", "c2",
                           "conc", "mac", "res_star"}
    assert guti.public == {"id_sn", "id_hn", "conc", "mac", "res_star"}


# --- the SN's knowledge before RES* arrives ----------------------------------

SN_SECRETS = {"k3", "k_seaf", "supi", "k_star"}


def _sn_pre_response(suite="test", seed=0, **roles):
    """A SUPI run whose response was dropped, its SN graph and SN base."""
    rng = SeededRandom(seed)
    world = sim.make_world(suite, seed=rng)
    out, capture = attacks.run_captured(world, "supi", rng, drop_response=True, **roles)
    assert out.abort_step == "response" and out.k_seaf_ue is None
    g, base = attacks.sn_pre_response_graph(world, out, capture)
    return world, g, base


def test_opening_count_matches_per_key_open_count():
    key = SeededRandom(11).bytes(32)
    ct = crypto.aead_seal(key, b"secret")
    keys = {key} | {SeededRandom(i).bytes(32) for i in range(20)}

    def opens(k: bytes) -> bool:
        try:
            crypto.aead_open(k, ct)
        except crypto.AeadFailure:
            return False
        return True

    assert attacks.opening_count(keys, ct) == sum(map(opens, keys)) == 1
    assert attacks.opening_count(keys - {key}, ct) == 0
    with pytest.raises(crypto.CryptoError):
        attacks.opening_count([key, bytes(31)], ct)


def _openings(g, names):
    """How many distinct 32-byte values of the named nodes open M."""
    keys = {g.nodes[n].value for n in names if len(g.nodes[n].value) == 32}
    return attacks.opening_count(keys, g.nodes["m"].value)


@pytest.mark.parametrize("suite", ["test", "ecies-x25519", "ecies-p256"])
def test_sn_base_alone_derives_no_session_secret(suite):
    _world, g, base = _sn_pre_response(suite)
    assert "res_star" not in base and {"r_sn", "conc", "m"} <= base
    closure = g.closure(base)
    assert SN_SECRETS.isdisjoint(closure)
    assert {"ak", "k_ak"} <= closure.keys() and _openings(g, closure) == 0


def test_hn_xres_star_gives_the_sn_k3_which_opens_m_once():
    """K3 = KDF(XRES*, CONC xor R_SN) is two operations deep from the XRES*
    the HN computes."""
    world, g, base = _sn_pre_response()
    xres_star, _, _ = crypto.session_keys(
        world.hn.registry[world.ue.supi].k,
        *(g.nodes[n].value for n in ("k_star", "r_sn", "conc")), world.sn.id_sn)
    g.atom("xres_star", xres_star)
    g.derived("k3", "kdf", "xres_star", "ak")
    closure = g.closure(base | {"xres_star"})
    assert closure["k3"] == 2
    assert _openings(g, closure) == 1


def test_res_star_gives_the_sn_k_seaf_and_supi():
    """The honest-SN control as a closure: RES* opens M."""
    world, g, base = _sn_pre_response()
    closure = g.closure(base | {"res_star"})
    assert {"k3", "k_seaf", "supi"} <= closure.keys()
    (sn_pending,) = world.sn.pending.values()
    k_seaf, supi = wire.unpack_m_payload(crypto.aead_open(g.nodes["k3"].value, sn_pending.m))
    assert (g.nodes["k_seaf"].value, g.nodes["supi"].value) == (k_seaf, supi.encode())
    assert supi == world.ue.supi


def test_hn_sealing_m_under_ak_fails_at_the_honest_sn(world, rng):
    """M does not open under K3 even for the right RES*: the SN aborts with
    no SUPI, and its sn-abort frees the HN's entry."""
    make_roles, _games = attacks.WEAKENINGS["hn-seal-ak"]
    out = sim.run_session(world, "supi", rng=rng, **make_roles())
    assert out.abort_step == "sn-verify"
    assert out.supi_at_sn is None
    assert world.hn.pending == {} and world.sn.pending == {}


def test_hn_sealing_m_under_ak_is_caught_by_the_opening_test_only():
    """The open-M recipes raise inside closure, so the graph admits no
    secret; the key KDF(AK), which the SN derives, opens M."""
    make_roles, _games = attacks.WEAKENINGS["hn-seal-ak"]
    _world, g, base = _sn_pre_response(**make_roles())
    with pytest.raises(crypto.AeadFailure):
        attacks._OPS["open-m-k_seaf"](g.suite, g.nodes["k3"].value, g.nodes["m"].value)
    closure = g.closure(base | {"res_star"})
    assert "k3" in closure and "k_seaf" not in closure
    closure = g.closure(base)
    assert SN_SECRETS.isdisjoint(closure)
    assert _openings(g, closure) == 1
    assert attacks.opening_count([g.nodes["k_ak"].value], g.nodes["m"].value) == 1
    (v,) = attacks.run_scenarios(["sn-binding"], weaken=frozenset({"hn-seal-ak"}))
    assert not v.holds
    # c1, c2 and KDF(AK): CONC, R_SN and AK are 16 bytes, too short to be a key
    assert v.evidence[:2] == ["pre-response-keys-tried=3 opened=1", "pre-response-secrets=[]"]


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
