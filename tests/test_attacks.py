"""Adversary-game scenarios and the derivation-closure oracle."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqaka import attacks, crypto, sim, ue as ue_mod, wire
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
    v = attacks.scenario_replay_challenge(ue_mod=make_roles())
    assert not v.holds
    # the UE lets every splice through: the two that replay c2 die at the
    # SN's HXRES* check, and a replayed AUTN with a fresh c2 completes
    assert v.evidence[1:4] == [
        "replay-c2-and-autn: abort_step=sn-verify",
        "replay-c2-fresh-autn: abort_step=sn-verify",
        "replay-autn-fresh-c2: abort_step=None"]


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
    v = attacks.SCENARIOS[game](suite, seed, ue_mod=make_roles(), **kwargs)
    assert not v.holds


def test_weakened_sn_binding_game_fails_at_the_sn():
    """With ue-mac, UE B answers UE A's forwarded challenge; the SN's
    HXRES* check, not the UE, then ends the session."""
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    v = attacks.scenario_compromised_sn_binding(ue_mod=make_roles())
    assert "cross-ue-challenge: abort_step=sn-verify" in v.evidence


def test_ue_without_mac_check_aborts_a_guti_challenge(world, rng):
    """The weakening only skips the MAC check where it can splice in the
    MAC it expects (a SUPI challenge); a GUTI challenge has no c2."""
    assert sim.run_session(world, "supi", rng=rng).completed
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    out = sim.run_session(world, "guti", rng=rng, ue_mod=make_roles())
    assert out.completed and out.key_source == "guti"


def test_ue_without_mac_check_aborts_a_challenge_with_no_pending_sk_u(world, rng):
    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    challenge = {}

    def keep(data, ctx):
        challenge["data"] = data
        return data

    first = sim.run_session(world, "supi", sim.ScriptedAttacker({"challenge": keep}), rng)
    assert first.completed and world.ue.ephemeral is None
    ch = wire.decode(challenge["data"])
    assert make_roles().ue_process_challenge(world.ue, ch) is None


def test_ue_without_mac_check_aborts_a_c2_it_cannot_decapsulate(world, rng):
    def short_c2(data, ctx):
        ch = wire.decode(data)
        return wire.encode(wire.ChallengeMsg(autn=ch.autn, c2=ch.c2[:-1]))

    make_roles, _games = attacks.WEAKENINGS["ue-mac"]
    out = sim.run_session(world, "supi", sim.ScriptedAttacker({"challenge": short_c2}),
                          rng, ue_mod=make_roles())
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
        c1s.append(attacks._radio_messages(out)["id-response"].c1)
    assert c1s[0] == c1s[1] != c1s[2]


def test_sn_binding_scenario_holds():
    v = attacks.scenario_compromised_sn_binding()
    assert v.holds and _all_controls_ok(v)
    assert any("opened=0" in e for e in v.evidence)


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


def test_closure_depth_bound():
    g = attacks.DerivationGraph(TEST_KEM)
    g.atom("v0", b"\x03" * 32)
    for i in range(1, 7):
        g.derived(f"v{i}", "kdf", f"v{i-1}")
    closure = g.closure({"v0"}, depth=4)
    assert "v4" in closure and "v5" not in closure


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
    # full knowledge (including sk_U) reaches the anchor key within depth 4
    base = g.public | {"k", "sk_h", "sk_u"}
    closure = g.closure(base)
    assert "k_seaf" in closure


def test_session_graph_refuses_an_outcome_with_another_k_seaf(world, rng):
    """The rebuilt k_seaf is the session's K_seaf, or the graph is refused."""
    outcome, capture = attacks.run_captured(world, "supi", rng)
    attacks.build_session_graph(world, outcome, capture)
    forged = dataclasses.replace(outcome, k_seaf_ue=bytes(32))
    with pytest.raises(ValueError, match="k_seaf"):
        attacks.build_session_graph(world, forged, capture)


def test_session_graph_public_set_distinguishes_paths(world, rng):
    supi = attacks.build_session_graph(world, *attacks.run_captured(world, "supi", rng))
    guti = attacks.build_session_graph(world, *attacks.run_captured(world, "guti", rng))
    assert supi.public == {"id_sn", "id_hn", "c1", "suci_conc", "mac_u", "c2",
                           "conc", "mac", "res_star"}
    assert guti.public == {"id_sn", "id_hn", "conc", "mac", "res_star"}


def test_key_candidate_generation_is_bounded():
    values = [bytes([i]) * 32 for i in range(12)]
    candidates = attacks._key_candidates(values)
    assert 12 <= len(candidates) <= 100_000


def _key_candidates_ordered_pairs(values, depth=2, budget=100_000):
    """Reference search: xor and hash_h over every ordered pair."""
    known = set(values)
    for _ in range(depth):
        new = set()
        thirty_two = sorted(v for v in known if len(v) == 32)
        if len(thirty_two) ** 2 > budget:
            break
        for v in known:
            new.add(crypto.hash_h([v]))
            new.add(crypto.kdf([v]))
        for a in thirty_two:
            for b in thirty_two:
                if a != b:
                    new.add(crypto.xor_bytes(a, b))
                new.add(crypto.hash_h([a, b]))
        if new <= known:
            break
        known |= new
    return {v for v in known if len(v) == 32}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32), max_size=4))
def test_key_candidates_match_ordered_pair_reference(values):
    assert attacks._key_candidates(values) == _key_candidates_ordered_pairs(values)


def _sn_search_inputs():
    """SN-held values and the pending M after a SUPI run whose response
    was dropped, plus XRES* and K3 = XRES* xor AK from the HN's state."""
    rng = SeededRandom(0)
    world = sim.make_world("test", seed=rng)
    dropper = sim.ScriptedAttacker({"response": lambda data, ctx: None})
    out = sim.run_session(world, "supi", dropper, rng)
    (sn_pending,) = world.sn.pending.values()
    (hn_pending,) = world.hn.pending.values()
    ak = crypto.xor_bytes(sn_pending.autn.conc, sn_pending.r_sn)
    k3 = crypto.xor_bytes(hn_pending.xres_star, ak)
    values = attacks._sn_pre_response_values(world, out)
    return values, sn_pending.m, hn_pending.xres_star, k3


def test_sn_key_search_opens_m_once_given_k3():
    values, m, _xres_star, k3 = _sn_search_inputs()
    assert crypto.count_openings(attacks._key_candidates(values), m) == 0
    assert crypto.count_openings(attacks._key_candidates(values + [k3]), m) == 1


def test_sn_key_search_reaches_k3_from_xres_star():
    """K3 = XRES* xor CONC xor R_SN is two xors deep: the search finds it."""
    values, m, xres_star, k3 = _sn_search_inputs()
    candidates = attacks._key_candidates(values + [xres_star])
    assert k3 in candidates
    assert crypto.count_openings(candidates, m) == 1


def test_linkability_multiset_splits_autn_into_halves():
    """A challenge that repeats only the AUTN mac half is reported as such."""
    def outcome(conc: bytes, mac: bytes, c2: bytes) -> sim.SessionOutcome:
        t = sim.SessionTranscript()
        ch = wire.ChallengeMsg(autn=wire.Autn(conc=conc, mac=mac), c2=c2)
        t.append(sim.RADIO, "SN->UE", wire.encode(ch), "challenge")
        return sim.SessionOutcome(abort_step=None, transcript=t)

    mac = b"\x07" * 32
    f1 = attacks._field_multiset(outcome(b"\x01" * 32, mac, b"\x02" * 8))
    f2 = attacks._field_multiset(outcome(b"\x03" * 32, mac, b"\x04" * 8))
    assert f1 & f2 == Counter({b"\x05": 1, mac: 1})
