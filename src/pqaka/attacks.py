"""Executable adversary games, each returning a machine-checkable verdict.

Forward secrecy is decided by a knowledge-closure oracle: the session's
value-derivation graph is rebuilt independently from raw secrets and
transcript bytes, and a value counts as derivable only if a chain of at
most four real operation applications (re-executed, not assumed) reaches
it from the attacker's knowledge set. Every scenario also runs controls
that must flip, and WEAKENINGS names the weakened UEs each game must fail
with, proving the games can discriminate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

from . import crypto, hn as hn_mod, sim, ue, wire
from .rng import RandomSource, SeededRandom

CLOSURE_DEPTH = 4


@dataclass
class Verdict:
    scenario: str
    holds: bool
    evidence: list[str] = field(default_factory=list)
    # (control name, control flipped/behaved as expected)
    controls: list[tuple[str, bool]] = field(default_factory=list)

    def to_line(self) -> str:
        ctrl = ";".join(f"{n}={'ok' if ok else 'FAIL'}" for n, ok in self.controls)
        ev = ";".join(self.evidence)
        return f"{self.scenario} holds={self.holds} controls=[{ctrl}] evidence=[{ev}]"


# --- derivation-graph knowledge closure -------------------------------------

def _open_suci(key: bytes, suci_conc: bytes) -> tuple[str, bytes, bytes]:
    return wire.unpack_suci_payload(crypto.aead_open(key, suci_conc))


# recipe op -> its executable form, called as _OPS[op](suite, *input_values)
_OPS = {
    "decaps": lambda suite, sk, ct: crypto.as_shared_key(crypto.kem_decaps(suite, sk, ct)),
    **{f"f{i}": lambda suite, key, *values, i=i: crypto.prf_f(i, key, list(values))
       for i in "12345"},
    "kdf": lambda suite, *values: crypto.kdf(list(values)),
    "hash": lambda suite, *values: crypto.hash_h(list(values)),
    "xor": lambda suite, a, b: crypto.xor_bytes(a, b),
    "open-suci-supi": lambda suite, key, ct: _open_suci(key, ct)[0].encode(),
    "open-suci-pk": lambda suite, key, ct: _open_suci(key, ct)[1],
}


@dataclass
class _Node:
    value: bytes
    recipes: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)


class DerivationGraph:
    """Protocol values with executable recipes; closure = deducibility."""

    def __init__(self, suite: crypto.KemSuite):
        self.suite = suite
        self.nodes: dict[str, _Node] = {}
        self.public: set[str] = set()      # atoms a radio attacker knows

    def atom(self, name: str, value: bytes, public: bool = False) -> None:
        self.nodes.setdefault(name, _Node(value=bytes(value)))
        if public:
            self.public.add(name)

    def derived(self, name: str, op: str, *inputs: str) -> None:
        """Add a recipe; a new node takes the bytes it computes, a node that
        already holds bytes keeps them."""
        if name not in self.nodes:
            self.nodes[name] = _Node(_OPS[op](self.suite, *(self.nodes[i].value for i in inputs)))
        self.nodes[name].recipes.append((op, inputs))

    def closure(self, base: set[str], depth: int = CLOSURE_DEPTH) -> dict[str, int]:
        """Names deducible from base within `depth` operation applications.

        Each step re-executes the recipe on the already-deduced values and
        admits the node only if the recomputed bytes match the session's.
        """
        depths = {n: 0 for n in base if n in self.nodes}
        for _ in range(depth):
            for name, node in self.nodes.items():
                if name in depths:
                    continue
                for op, inputs in node.recipes:
                    if not all(i in depths for i in inputs):
                        continue
                    d = 1 + max(depths[i] for i in inputs)
                    if d > depth:
                        continue
                    try:
                        got = _OPS[op](self.suite, *(self.nodes[i].value for i in inputs))
                    except (crypto.CryptoError, crypto.AeadFailure, wire.ParseError):
                        continue
                    if got == node.value:
                        depths[name] = d
                        break
        return depths


def _radio_messages(outcome: sim.SessionOutcome) -> dict[str, wire.Message]:
    """Last decoded radio message per annotation label."""
    out: dict[str, wire.Message] = {}
    for e in outcome.transcript.radio_entries():
        if not e.data:
            continue
        try:
            out[e.annotation] = wire.decode(e.data)
        except wire.ParseError:
            pass
    return out


@dataclass
class OracleCapture:
    """Test-only UE secrets of one session that the game oracles are given:
    the ratchet state before the run, and the ephemeral sk_U as the challenge
    crosses the radio. The simulator never returns them."""

    k_s_prev: Optional[bytes]
    r_sn_prime: Optional[bytes]
    sk_u: Optional[bytes] = None


def run_captured(world: sim.World, mode: str, rng: RandomSource
                 ) -> tuple[sim.SessionOutcome, OracleCapture]:
    """One honest session, with a pass-through challenge tap filling the capture."""
    capture = OracleCapture(k_s_prev=world.ue.k_s, r_sn_prime=world.ue.r_sn_prime)

    def on_challenge(data: bytes, ctx) -> bytes:
        if world.ue.ephemeral is not None:
            capture.sk_u = world.ue.ephemeral.sk
        return data

    tap = sim.ScriptedAttacker({"challenge": on_challenge})
    return sim.run_session(world, mode, tap, rng), capture


def build_session_graph(world: sim.World, outcome: sim.SessionOutcome,
                        capture: OracleCapture) -> DerivationGraph:
    """Independent reconstruction of one session's derivation chains; the
    atoms taken from radio bytes, and the public identities, form g.public.
    Raises ValueError unless the rebuilt k_seaf is the UE's K_seaf."""
    g = DerivationGraph(world.suite)
    radio = _radio_messages(outcome)
    g.atom("k", world.ue.k)
    g.atom("sk_h", world.hn.kem_pair.sk)
    g.atom("id_sn", world.sn.id_sn.encode(), public=True)
    g.atom("id_hn", world.hn.id_hn.encode(), public=True)

    ch = radio["challenge"]
    g.atom("conc", ch.autn.conc, public=True)
    g.atom("mac", ch.autn.mac, public=True)
    g.atom("res_star", radio["response"].res_star, public=True)

    if outcome.key_source == "supi":
        ident = radio["id-response"]
        g.atom("c1", ident.c1, public=True)
        g.atom("suci_conc", ident.suci_conc, public=True)
        g.atom("mac_u", ident.mac_u, public=True)
        g.atom("sk_u", capture.sk_u)
        g.atom("c2", ch.c2, public=True)
        g.atom("supi", world.ue.supi.encode())     # the SUCI must open to it
        g.derived("k_s1", "decaps", "sk_h", "c1")
        g.derived("supi", "open-suci-supi", "k_s1", "suci_conc")
        g.derived("pk_u", "open-suci-pk", "k_s1", "suci_conc")
        g.derived("k_star", "decaps", "sk_u", "c2")
    else:
        g.atom("k_s_prev", capture.k_s_prev)
        g.atom("r_sn_prime", capture.r_sn_prime)
        g.derived("k_star", "xor", "k_s_prev", "r_sn_prime")

    g.derived("ak", "f5", "k", "k_star")
    g.derived("r_sn", "xor", "conc", "ak")
    g.derived("mac", "f1", "k", "k_star", "r_sn")
    g.derived("res", "f2", "k", "k_star")
    g.derived("ck", "f3", "k", "k_star")
    g.derived("ik", "f4", "k", "k_star")
    g.derived("res_star", "kdf", "ck", "ik", "k_star", "res", "id_sn")
    g.derived("k_ausf", "kdf", "ck", "ik", "k_star", "conc", "id_sn")
    g.derived("k_seaf", "kdf", "k_ausf", "id_sn")
    g.derived("k_s_new", "hash", "k_star", "r_sn")
    if g.nodes["k_seaf"].value != outcome.k_seaf_ue:
        raise ValueError("the rebuilt k_seaf is not the session's K_seaf")
    return g


# --- weakened roles ----------------------------------------------------------

class Weakened:
    """A role module with some functions replaced, passed to run_session for
    a negative control; every other name is looked up on the module."""

    def __init__(self, module, **replaced):
        vars(self).update(replaced, _module=module)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _ue_without_mac_check(state: ue.UeState, ch: wire.ChallengeMsg) -> Optional[wire.ResponseMsg]:
    """UE that accepts any AUTN MAC on the SUPI path: it puts the MAC it
    expects, from K, sk_U and CONC, into the challenge before the real check.
    A challenge it cannot splice (no c2, no pending sk_U, or a c2 that does
    not decapsulate) goes to the honest UE as it came."""
    if ch.c2 is not None and state.ephemeral is not None:
        try:
            k_star = crypto.as_shared_key(
                crypto.kem_decaps(state.kem, state.ephemeral, ch.c2))
        except crypto.CryptoError:
            pass
        else:
            r_sn = crypto.xor_bytes(ch.autn.conc, crypto.prf_f("5", state.k, [k_star]))
            ch = wire.ChallengeMsg(c2=ch.c2, autn=wire.Autn(
                conc=ch.autn.conc, mac=crypto.prf_f("1", state.k, [k_star, r_sn])))
    return ue.ue_process_challenge(state, ch)


def _broken_ue() -> Weakened:
    """UE whose every session repeats its first SUCI, together with that
    session's key pair, and its first GUTI."""
    first: dict[str, object] = {}

    def identification_response(state: ue.UeState, rng: RandomSource):
        if "suci" not in first:
            first["suci"] = ue.ue_identification_response(state, rng), state.ephemeral
        msg, state.ephemeral = first["suci"]
        return msg

    def guti_identification(state: ue.UeState):
        msg = ue.ue_guti_identification(state)
        return msg and first.setdefault("guti", msg)

    return Weakened(ue, ue_identification_response=identification_response,
                    ue_guti_identification=guti_identification)


# --- scenarios ---------------------------------------------------------------

def scenario_replay_challenge(suite_name: str = "test", seed: int = 0,
                              *, ue_mod=ue) -> Verdict:
    """Replayed or spliced (c2, AUTN) must be rejected by the UE."""
    rng = SeededRandom(seed)
    world = sim.make_world(suite_name, seed=rng)

    def run(attacker: Optional[sim.Attacker], rng: RandomSource) -> sim.SessionOutcome:
        return sim.run_session(world, "supi", attacker, rng, ue_mod=ue_mod)

    a = run(None, rng)
    assert a.completed
    ch_a = _radio_messages(a)["challenge"]
    id_a_bytes = next(e.data for e in a.transcript.radio_entries()
                      if e.annotation == "id-response")

    evidence: list[str] = [f"session-A completed steps={len(a.transcript.entries)}"]
    holds = True

    def splice(name: str, make):
        nonlocal holds
        attacker = sim.ScriptedAttacker({
            "challenge": lambda data, ctx: wire.encode(make(wire.decode(data)))})
        out = run(attacker, SeededRandom(seed + 1))
        holds = holds and out.abort_step == "ue-challenge"
        evidence.append(f"{name}: abort_step={out.abort_step}")

    splice("replay-c2-and-autn", lambda ch_b: ch_a)
    splice("replay-c2-fresh-autn",
           lambda ch_b: wire.ChallengeMsg(autn=ch_b.autn, c2=ch_a.c2))
    splice("replay-autn-fresh-c2",
           lambda ch_b: wire.ChallengeMsg(autn=ch_a.autn, c2=ch_b.c2))

    # replayed concealed identifier: HN accepts, but the session cannot
    # complete and UE key state stays intact
    guti_before, ks_before = world.ue.guti, world.ue.k_s
    attacker = sim.ScriptedAttacker({"id-response": lambda data, ctx: id_a_bytes})
    out = run(attacker, SeededRandom(seed + 2))
    hn_accepted = any(e.annotation == "auth-vector" for e in out.transcript.entries)
    suci_ok = (hn_accepted and out.abort_step == "ue-challenge"
               and world.ue.guti == guti_before and world.ue.k_s == ks_before)
    holds = holds and suci_ok
    evidence.append(f"replay-suci: hn_accepted={hn_accepted} abort_step={out.abort_step}")

    honest = run(sim.Attacker(), SeededRandom(seed + 3))
    return Verdict(
        scenario="replay", holds=holds, evidence=evidence,
        controls=[("honest-passthrough-completes", honest.completed)])


_WIRE_CONSTANT_FIELDS = {b"\x00", b"\x01"}


def _field_multiset(outcome: sim.SessionOutcome) -> Counter:
    """Multiset of radio field values (message tag bytes included)."""
    fields: Counter = Counter()
    for e in outcome.transcript.radio_entries():
        if e.data:
            fields[e.data[:1]] += 1
            fields.update(wire.field_values(wire.decode(e.data)))
    return fields


def _linkability_constants(world: sim.World) -> set[bytes]:
    tags = {bytes([tag]) for tag, _ in wire.SCHEMA.values()}
    return tags | _WIRE_CONSTANT_FIELDS | {world.hn.id_hn.encode()}


def scenario_linkability_probe(suite_name: str = "test", seed: int = 0,
                               mode: str = "supi", *, ue_mod=ue) -> Verdict:
    """No UE-specific radio field value may repeat across the UE's sessions."""
    rng = SeededRandom(seed)
    world = sim.make_world(suite_name, seed=rng)
    ue1 = world.ue
    ue2 = sim.add_subscriber(world, "imsi-001010000000002", rng)

    def run(state: ue.UeState, session_mode: str, roles=ue) -> sim.SessionOutcome:
        w = sim.World(ue=state, sn=world.sn, hn=world.hn, suite=world.suite)
        return sim.run_session(w, session_mode, rng=rng, ue_mod=roles)

    if mode == "guti":
        assert run(ue1, "supi").completed and run(ue2, "supi").completed

    s1 = run(ue1, mode, ue_mod)
    s2 = run(ue1, mode, ue_mod)
    s3 = run(ue2, mode)

    f1, f2, f3 = _field_multiset(s1), _field_multiset(s2), _field_multiset(s3)
    same_ue = f1 & f2
    cross_ue = f1 & f3
    constants = _linkability_constants(world)
    holds = (same_ue == cross_ue and set(same_ue) <= constants)
    evidence = [
        f"mode={mode}",
        f"same-ue-repeats={sorted(v.hex() for v in same_ue)}",
        f"cross-ue-repeats={sorted(v.hex() for v in cross_ue)}",
    ]
    controls: list[tuple[str, bool]] = []
    if ue_mod is ue:
        flipped = not scenario_linkability_probe(
            suite_name, seed + 17, ue_mod=_broken_ue(), mode=mode).holds
        controls.append(("broken-ue-reuse-detected", flipped))
    return Verdict(scenario="linkability", holds=holds,
                   evidence=evidence, controls=controls)


def _sn_pre_response_values(world: sim.World, outcome: sim.SessionOutcome) -> list[bytes]:
    values: list[bytes] = [world.sn.id_sn.encode()]
    for p in world.sn.pending.values():
        values.append(p.r_sn)
        if p.hxres_star:
            values.append(p.hxres_star)
        if p.autn:
            values += [p.autn.conc, p.autn.mac]
        if p.m:
            values.append(p.m)
    ident = _radio_messages(outcome)["id-response"]
    return values + [ident.c1, ident.suci_conc, ident.mac_u]


def _key_candidates(values: list[bytes], depth: int = 2,
                    budget: int = 100_000) -> set[bytes]:
    """32-byte values reachable by xor/hash/kdf combinations, budget-capped.

    Depth 2 covers every key shape the protocol ever forms from SN-held
    material (K3 itself is a single xor of two 32-byte values).
    """
    known = set(values)
    for _ in range(depth):
        thirty_two = sorted(v for v in known if len(v) == 32)
        if len(thirty_two) ** 2 > budget:
            break
        # kdf and hash_h are one construction, so one call covers both
        new = {crypto.hash_h([v]) for v in known}
        # xor is symmetric, so each unordered pair is xored once;
        # hash_h is order-sensitive and takes every ordered pair
        ints = [int.from_bytes(v, "big") for v in thirty_two]
        new.update((a ^ b).to_bytes(32, "big") for a, b in combinations(ints, 2))
        new.update(crypto.hash_h_pairs(thirty_two))
        if new <= known:
            break
        known |= new
    return {v for v in known if len(v) == 32}


def scenario_compromised_sn_binding(suite_name: str = "test", seed: int = 0,
                                    *, ue_mod=ue) -> Verdict:
    """The SN cannot separate or pre-learn (SUPI, K_seaf), and cannot bind
    a vector issued for one session to another UE (run with ue_mod)."""
    evidence: list[str] = []

    # (a) pre-response decryption closure over SN-held material
    rng = SeededRandom(seed)
    world = sim.make_world(suite_name, seed=rng)
    attacker = sim.ScriptedAttacker({"response": lambda data, ctx: None})
    out = sim.run_session(world, "supi", attacker, rng)
    assert not out.completed
    pending_m = next(p.m for p in world.sn.pending.values())
    values = _sn_pre_response_values(world, out)
    candidates = _key_candidates(values)
    opened = crypto.count_openings(candidates, pending_m)
    part_a = opened == 0
    evidence.append(f"pre-response-keys-tried={len(candidates)} opened={opened}")

    supi_bytes = world.ue.supi.encode()
    no_early_supi = all(supi_bytes not in v for v in values)
    part_a = part_a and no_early_supi
    evidence.append(f"supi-absent-from-sn-state={no_early_supi}")

    # (b) malicious SN forwards UE-A's challenge into UE-B's session
    rng2 = SeededRandom(seed + 1)
    world2 = sim.make_world(suite_name, seed=rng2)
    ue_b = sim.add_subscriber(world2, "imsi-001010000000002", rng2)
    out_a = sim.run_session(world2, "supi", rng=rng2)
    ch_a_bytes = next(e.data for e in out_a.transcript.radio_entries()
                      if e.annotation == "challenge")
    attacker_b = sim.ScriptedAttacker({"challenge": lambda data, ctx: ch_a_bytes})
    world_b = sim.World(ue=ue_b, sn=world2.sn, hn=world2.hn, suite=world2.suite)
    out_b = sim.run_session(world_b, "supi", attacker_b, rng2, ue_mod=ue_mod)
    part_b = out_b.abort_step == "ue-challenge"
    evidence.append(f"cross-ue-challenge: abort_step={out_b.abort_step}")

    # (c) vector issued under a different SN identity: the HN is misled into
    # identifying the UE for the (allowlisted) SN the UE named, which lets
    # the vector for this SN out; the run must still die with no key
    # material at the SN (the mismatch surfaces at the HXRES* comparison)
    rng3 = SeededRandom(seed + 2)
    world3 = sim.make_world(suite_name, seed=rng3)
    world3.ue.id_sn_expected = "other-sn.example"
    world3.hn.sn_allowlist.add("other-sn.example")
    misled_hn = Weakened(hn_mod, hn_identify=lambda state, msg, _claimed:
                         hn_mod.hn_identify(state, msg, "other-sn.example"))
    out_c = sim.run_session(world3, "supi", rng=rng3, hn_mod=misled_hn)
    part_c = (not out_c.completed) and out_c.supi_at_sn is None
    evidence.append(f"wrong-sn-vector: abort_step={out_c.abort_step}")

    # control: an honest SN recovers (SUPI, K_seaf) only after RES*
    rng4 = SeededRandom(seed + 3)
    world4 = sim.make_world(suite_name, seed=rng4)
    honest = sim.run_session(world4, "supi", rng=rng4)
    control_ok = honest.completed and honest.supi_at_sn == world4.ue.supi

    return Verdict(
        scenario="sn-binding", holds=part_a and part_b and part_c,
        evidence=evidence,
        controls=[("honest-sn-recovers-after-response", control_ok)])


def scenario_forward_secrecy_game(suite_name: str = "test", seed: int = 0) -> Verdict:
    """Long-term compromise after the fact must not reveal session keys."""
    evidence: list[str] = []
    controls: list[tuple[str, bool]] = []
    holds = True
    k_seaf: dict[str, bytes] = {}
    rng = SeededRandom(seed)
    world = sim.make_world(suite_name, seed=rng)
    # (path, control, the UE secrets that must reveal k_seaf); the GUTI
    # session runs with the ratchet already advanced once
    for mode, control, secrets in (
            ("supi", "supi-sk_u-reveals-k_seaf", {"sk_u"}),
            ("guti", "guti-pre-ratchet-state-reveals-k_seaf", {"k_s_prev", "r_sn_prime"})):
        out, capture = run_captured(world, mode, rng)
        assert out.completed and out.key_source == mode
        k_seaf[mode] = out.k_seaf_ue
        g = build_session_graph(world, out, capture)
        base = g.public | {"k", "sk_h"}
        closure = g.closure(base)
        holds = holds and "k_seaf" not in closure and "k_star" not in closure
        evidence.append(f"{mode}: closure={sorted(closure)}")
        controls.append((control, "k_seaf" in g.closure(base | secrets)))

    # backward direction: session i's anchor key does not yield session i+1's
    g.atom("k_seaf_prev", k_seaf["supi"])
    backward = g.closure(g.public | {"k_seaf_prev"})
    holds = holds and "k_seaf" not in backward
    evidence.append(f"backward: k_seaf_next_derivable={'k_seaf' in backward}")
    return Verdict(scenario="forward-secrecy", holds=holds,
                   evidence=evidence, controls=controls)


SCENARIOS = {
    "replay": scenario_replay_challenge,
    "linkability": scenario_linkability_probe,
    "sn-binding": scenario_compromised_sn_binding,
    "forward-secrecy": scenario_forward_secrecy_game,
}


class UnusedWeakening(ValueError):
    """run_scenarios, before any game runs: the weakening lists none of the games named."""


# weakening -> (factory of weakened UE roles, games given them as ue_mod, each must fail)
WEAKENINGS = {
    "ue-mac": (lambda: Weakened(ue, ue_process_challenge=_ue_without_mac_check),
               {"replay", "sn-binding"}),
    "ue-reuse": (_broken_ue, {"linkability"}),
}


def weakened_roles(names: list[str], weaken: frozenset) -> dict[str, Callable[[], Weakened]]:
    """The factory of weakened roles for each of the named games that a
    weakening in weaken lists; UnusedWeakening if one lists none of them."""
    roles = {}
    for weakening in sorted(weaken):
        make, games = WEAKENINGS[weakening]
        if games.isdisjoint(names):
            raise UnusedWeakening(f"weakening {weakening} flips none of: {', '.join(names)}")
        roles.update((game, make) for game in games)
    return roles


def run_scenarios(names: list[str], suite_name: str = "test", seed: int = 0,
                  weaken: frozenset = frozenset()) -> list[Verdict]:
    roles = weakened_roles(names, weaken)
    return [SCENARIOS[name](suite_name, seed, **(
        {"ue_mod": roles[name]()} if name in roles else {})) for name in names]
