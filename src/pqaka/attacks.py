"""Executable adversary games, each returning a machine-checkable verdict.

Forward secrecy, and what a compromised SN knows before RES*, are decided
by a knowledge-closure oracle: the session's value-derivation graph is
rebuilt independently from raw secrets and transcript bytes, and a value
counts as derivable only if a chain of real operation applications (each
executed once, when its recipe is added, not assumed) reaches it from the
attacker's knowledge set. Every scenario also runs
controls that must flip, and WEAKENINGS names the weakened roles each game
must fail with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Optional

from . import crypto, hn, sim, ue, wire
from .rng import RandomSource, SeededRandom


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

def _opened(key: bytes, ct: bytes, unpack: Callable[[bytes], tuple]) -> tuple:
    return unpack(crypto.aead_open(key, ct))


# recipe op -> its executable form, called as _OPS[op](suite, *input_values)
_OPS = {
    "decaps": lambda suite, sk, ct: crypto.kem_decaps(suite, sk, ct),
    **{f"f{i}": lambda suite, key, *values, i=i: crypto.prf_f(i, key, list(values))
       for i in "12345"},
    "kdf": lambda suite, *values: crypto.kdf(list(values)),
    # RES*: the CHECK_LEN least significant bytes of the kdf (TS 33.501 A.4)
    "kdf-res": lambda suite, *values: crypto.kdf(list(values))[-crypto.CHECK_LEN:],
    "hash": lambda suite, *values: crypto.hash_h(list(values)),
    "xor": lambda suite, a, b: crypto.xor_bytes(a, b),
    # SUCI_conc opens with MAC_U, its AEAD tag, appended
    "open-suci-supi": lambda suite, key, ct, tag: _opened(
        key, ct + tag, wire.unpack_suci_payload)[0].encode(),
    "open-suci-pk": lambda suite, key, ct, tag: _opened(
        key, ct + tag, wire.unpack_suci_payload)[1],
    "open-m-k_seaf": lambda suite, key, m: _opened(key, m, wire.unpack_m_payload)[0],
    "open-m-supi": lambda suite, key, m: _opened(key, m, wire.unpack_m_payload)[1].encode(),
}


@dataclass
class _Node:
    value: bytes
    # (op, inputs, whether op on the inputs' bytes reproduces value)
    recipes: list[tuple[str, tuple[str, ...], bool]] = field(default_factory=list)


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
        """Add a recipe and run its op once, on the inputs' bytes. A new node
        takes the bytes it computes; a node that already holds bytes keeps
        them, and the recipe records whether the op reproduces them (an op
        that raises does not)."""
        values = [self.nodes[i].value for i in inputs]
        node = self.nodes.get(name)
        if node is None:
            self.nodes[name] = _Node(_OPS[op](self.suite, *values), [(op, inputs, True)])
            return
        try:
            reproduces = _OPS[op](self.suite, *values) == node.value
        except (crypto.CryptoError, crypto.AeadFailure, wire.ParseError):
            reproduces = False
        node.recipes.append((op, inputs, reproduces))

    def closure(self, base: set[str]) -> dict[str, int]:
        """Names deducible from base, each with the fewest rounds that reach it.

        Round r admits every node with a recipe whose inputs were all deduced
        before the round and whose op, run when the recipe was added,
        reproduced the session's bytes; a round that admits nothing ends it.
        """
        depths = {n: 0 for n in base if n in self.nodes}
        rounds = 0
        while True:
            rounds += 1
            admitted = [name for name, node in self.nodes.items() if name not in depths
                        and any(reproduces and all(i in depths for i in inputs)
                                for _op, inputs, reproduces in node.recipes)]
            if not admitted:
                return depths
            depths.update(dict.fromkeys(admitted, rounds))


def opening_count(keys: Iterable[bytes], ct: bytes) -> int:
    """How many of the keys open ct, each tried with crypto.aead_open."""
    opened = 0
    for key in keys:
        try:
            crypto.aead_open(key, ct)
        except crypto.AeadFailure:
            continue
        opened += 1
    return opened


def _radio(outcome: sim.SessionOutcome) -> dict[str, bytes]:
    """The last bytes the radio delivered per label; a dropped message is
    logged as "<label> [dropped]"."""
    return {e.annotation: e.data for e in outcome.transcript.radio_entries()}


@dataclass
class OracleCapture:
    """Test-only UE secrets of one session that the game oracles are given:
    the ratchet state before the run, the sk_U the session drew and the
    K_seaf its UE accepted the challenge with. The simulator never returns
    them."""

    k_s_prev: Optional[bytes]
    r_sn_prime: Optional[bytes]
    sk_u: Optional[bytes] = None
    k_seaf: Optional[bytes] = None


def run_captured(world: sim.World, mode: str, rng: RandomSource, drop_response: bool = False,
                 **roles) -> tuple[sim.SessionOutcome, OracleCapture]:
    """One session run with roles (ue_mod=, hn_mod=), a wrapper around its UE
    role filling the capture; drop_response has the radio drop the response."""
    capture = OracleCapture(k_s_prev=world.ue.k_s, r_sn_prime=world.ue.r_sn_prime)
    role = roles.get("ue_mod", ue)

    def identification_response(state: ue.UeState, rng: RandomSource):
        msg, pair = role.ue_identification_response(state, rng)
        capture.sk_u = pair.sk
        return msg, pair

    def process_challenge(state: ue.UeState, ch: wire.ChallengeMsg, ephemeral):
        accepted = role.ue_process_challenge(state, ch, ephemeral)
        if accepted is not None:
            capture.k_seaf = accepted[1]
        return accepted

    roles["ue_mod"] = Weakened(role, ue_identification_response=identification_response,
                               ue_process_challenge=process_challenge)
    tap = sim.ScriptedAttacker({"response": lambda data, ctx: None}) if drop_response else None
    return sim.run_session(world, mode, tap, rng, **roles), capture


def build_session_graph(world: sim.World, outcome: sim.SessionOutcome,
                        capture: OracleCapture) -> DerivationGraph:
    """Independent reconstruction of one session's derivation chains; the
    atoms taken from radio bytes, and the public identities, form g.public.
    RES* is an atom only if the response crossed the radio. Raises
    ValueError unless the rebuilt k_seaf is the UE's captured K_seaf."""
    g = DerivationGraph(world.suite)
    radio = _radio(outcome)
    g.atom("k", world.ue.k)
    g.atom("sk_h", world.hn.kem_pair.sk)
    g.atom("id_sn", world.sn.id_sn.encode(), public=True)
    g.atom("id_hn", world.hn.id_hn.encode(), public=True)

    ch = wire.decode(radio["challenge"])
    g.atom("conc", ch.conc, public=True)
    g.atom("mac", ch.mac, public=True)
    if "response" in radio:
        g.atom("res_star", wire.decode(radio["response"]).res_star, public=True)

    if ch.c2 is not None:                          # the SUPI path
        ident = wire.decode(radio["id-response"])
        g.atom("c1", ident.c1, public=True)
        g.atom("suci_conc", ident.suci_conc, public=True)
        g.atom("mac_u", ident.mac_u, public=True)
        g.atom("sk_u", capture.sk_u)
        g.atom("c2", ch.c2, public=True)
        g.atom("supi", world.ue.supi.encode())     # the SUCI must open to it
        g.derived("k_s1", "decaps", "sk_h", "c1")
        g.derived("supi", "open-suci-supi", "k_s1", "suci_conc", "mac_u")
        g.derived("pk_u", "open-suci-pk", "k_s1", "suci_conc", "mac_u")
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
    g.derived("res_star", "kdf-res", "ck", "ik", "k_star", "res", "r_sn", "id_sn")
    g.derived("k_ausf", "kdf", "ck", "ik", "k_star", "conc", "id_sn")
    g.derived("k_seaf", "kdf", "k_ausf", "id_sn")
    g.derived("k_s_new", "hash", "k_star", "r_sn")
    if g.nodes["k_seaf"].value != capture.k_seaf:
        raise ValueError("the rebuilt k_seaf is not the session's K_seaf")
    return g


def sn_pre_response_graph(world: sim.World, outcome: sim.SessionOutcome,
                          capture: OracleCapture) -> tuple[DerivationGraph, set[str]]:
    """The session graph of a run whose response was dropped, with every
    field of the SN's pending entry (R_SN, CONC, M) and the recipes by which
    RES* opens M, and the SN's knowledge before RES* arrives: the radio atoms
    and what it holds."""
    g = build_session_graph(world, outcome, capture)
    (pending,) = world.sn.pending.values()
    held = [f.name for f in fields(pending)]
    for name in held:
        g.atom(name, getattr(pending, name))
    g.derived("ak", "xor", "conc", "r_sn")
    g.derived("k_ak", "kdf", "ak")          # a 32-byte key from AK alone
    g.derived("k3", "kdf", "res_star", "ak")
    g.derived("k_seaf", "open-m-k_seaf", "k3", "m")
    g.derived("supi", "open-m-supi", "k3", "m")
    return g, (g.public - {"res_star"}) | set(held)


# --- weakened roles ----------------------------------------------------------

class Weakened:
    """A role module with some functions replaced, passed to run_session for
    a negative control; every other name is looked up on the module."""

    def __init__(self, module, **replaced):
        vars(self).update(replaced, _module=module)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _ue_without_mac_check(
    state: ue.UeState, ch: wire.ChallengeMsg, ephemeral: Optional[crypto.KemKeyPair],
) -> Optional[tuple[wire.ResponseMsg, bytes, bytes]]:
    """UE that accepts any AUTN MAC on the SUPI path: it puts the MAC it
    expects, from K, sk_U and CONC, into the challenge before the real check.
    A challenge it cannot splice (no c2, a session that drew no sk_U, or a c2
    that does not decapsulate) goes to the honest UE as it came."""
    if ch.c2 is not None and ephemeral is not None:
        try:
            k_star = crypto.kem_decaps(state.kem, ephemeral, ch.c2)
        except crypto.CryptoError:
            pass
        else:
            r_sn = crypto.xor_bytes(ch.conc, crypto.prf_f("5", state.k, [k_star]))
            ch = replace(ch, mac=crypto.prf_f("1", state.k, [k_star, r_sn]))
    return ue.ue_process_challenge(state, ch, ephemeral)


def _broken_ue() -> Weakened:
    """UE whose every session repeats its first SUCI, together with that
    session's key pair, and its first GUTI."""
    first: dict[str, object] = {}

    def identification_response(state: ue.UeState, rng: RandomSource):
        if "suci" not in first:
            first["suci"] = ue.ue_identification_response(state, rng)
        return first["suci"]

    def guti_identification(state: ue.UeState):
        msg = ue.ue_guti_identification(state)
        return msg and first.setdefault("guti", msg)

    return Weakened(ue, ue_identification_response=identification_response,
                    ue_guti_identification=guti_identification)


def _hn_sealing_m_under_ak(state: hn.HnState, record, pk_u: bytes, r_sn: bytes,
                           id_sn: str, rng: RandomSource, sid: bytes) -> wire.HnToSnAuthMsg:
    """SUPI-path HN that seals M under KDF(AK), AK = CONC xor R_SN, a key
    the SN can form before RES* arrives, instead of under K3."""
    vector = hn.hn_auth_vector(state, record, pk_u, r_sn, id_sn, rng, sid)
    pending = state.pending[sid]
    ak = crypto.xor_bytes(vector.conc, r_sn)
    return replace(vector, m=crypto.aead_seal(
        crypto.kdf([ak]), wire.pack_m_payload(pending.k_seaf, pending.supi)))


# --- scenarios ---------------------------------------------------------------

def scenario_replay_challenge(suite_name: str = "test", seed: int = 0,
                              *, ue_mod=ue) -> Verdict:
    """Replayed or spliced (c2, AUTN) must be rejected by the UE."""
    rng = SeededRandom(seed)
    world = sim.make_world(suite_name, seed=rng)

    def run(attacker: Optional[sim.Attacker]) -> sim.SessionOutcome:
        return sim.run_session(world, "supi", attacker, rng, ue_mod=ue_mod)

    a = run(None)
    if not a.completed:
        raise RuntimeError(f"session A ended at {a.abort_step}")
    radio_a = _radio(a)
    ch_a = wire.decode(radio_a["challenge"])

    evidence: list[str] = [f"session-A completed steps={len(a.transcript.entries)}"]
    holds = True

    def splice(name: str, make):
        nonlocal holds
        attacker = sim.ScriptedAttacker({
            "challenge": lambda data, ctx: wire.encode(make(wire.decode(data)))})
        out = run(attacker)
        holds = holds and out.abort_step == "ue-challenge"
        evidence.append(f"{name}: abort_step={out.abort_step}")

    splice("replay-c2-and-autn", lambda ch_b: ch_a)
    splice("replay-c2-fresh-autn", lambda ch_b: replace(ch_b, c2=ch_a.c2))
    splice("replay-autn-fresh-c2", lambda ch_b: replace(ch_a, c2=ch_b.c2))

    # replayed concealed identifier: HN accepts, but the session cannot
    # complete and UE key state stays intact
    guti_before, ks_before = world.ue.guti, world.ue.k_s
    attacker = sim.ScriptedAttacker({"id-response": lambda data, ctx: radio_a["id-response"]})
    out = run(attacker)
    hn_accepted = any(e.annotation == "auth-vector" for e in out.transcript.entries)
    suci_ok = (hn_accepted and out.abort_step == "ue-challenge"
               and world.ue.guti == guti_before and world.ue.k_s == ks_before)
    holds = holds and suci_ok
    evidence.append(f"replay-suci: hn_accepted={hn_accepted} abort_step={out.abort_step}")

    honest = run(sim.Attacker())
    return Verdict(
        scenario="replay", holds=holds, evidence=evidence,
        controls=[("honest-passthrough-completes", honest.completed)])


def _field_multiset(outcome: sim.SessionOutcome) -> Counter:
    """Multiset of radio field values (message tag bytes included)."""
    fields: Counter = Counter()
    for e in outcome.transcript.radio_entries():
        if e.data:
            fields[e.data[:1]] += 1
            fields.update(wire.field_values(wire.decode(e.data)))
    return fields


def _linkability_constants(world: sim.World) -> set[bytes]:
    """Message tags, the one-byte flag values and the HN identity."""
    tags = {bytes([tag]) for tag, _ in wire.SCHEMA.values()}
    return tags | {b"\x00", b"\x01", world.hn.id_hn.encode()}


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
        for state in (ue1, ue2):
            provision = run(state, "supi")
            if not provision.completed:
                raise RuntimeError(f"a provisioning session ended at {provision.abort_step}")

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
            suite_name, seed, ue_mod=_broken_ue(), mode=mode).holds
        controls.append(("broken-ue-reuse-detected", flipped))
    return Verdict(scenario="linkability", holds=holds,
                   evidence=evidence, controls=controls)


def scenario_compromised_sn_binding(suite_name: str = "test", seed: int = 0,
                                    *, ue_mod=ue, hn_mod=hn) -> Verdict:
    """The SN cannot separate or pre-learn (SUPI, K_seaf), and cannot bind
    a vector issued for one session to another UE (run with ue_mod); part
    (a) runs its session with hn_mod. The three parts share one world."""
    evidence: list[str] = []
    rng = SeededRandom(seed)
    world = sim.make_world(suite_name, seed=rng)

    # (a) pre-response knowledge closure of the SN, and every 32-byte value
    # in it tried on M, which catches M sealed under a known key other than
    # K3; it runs first, as sn_pre_response_graph unpacks the SN's only
    # pending entry
    out, capture = run_captured(world, "supi", rng, drop_response=True, hn_mod=hn_mod)
    g, base = sn_pre_response_graph(world, out, capture)
    known = g.closure(base)
    # what M binds, and the keys that open it or come before it
    learned = [n for n in ("k3", "k_seaf", "supi", "k_star") if n in known]
    keys = {g.nodes[n].value for n in known if len(g.nodes[n].value) == crypto.KEY_LEN}
    opened = opening_count(keys, g.nodes["m"].value)
    no_early_supi = all(g.nodes["supi"].value not in g.nodes[n].value for n in base)
    part_a = opened == 0 and not learned and no_early_supi
    evidence += [f"pre-response-keys-tried={len(keys)} opened={opened}",
                 f"pre-response-secrets={learned}", f"supi-absent-from-sn-state={no_early_supi}"]

    # (b) malicious SN forwards UE-A's challenge into UE-B's session; A's
    # honest session is also the control: an honest SN recovers (SUPI,
    # K_seaf) once RES* arrives
    ue_b = sim.add_subscriber(world, "imsi-001010000000002", rng)
    out_a = sim.run_session(world, "supi", rng=rng)
    control_ok = out_a.completed and out_a.supi_at_sn == world.ue.supi
    attacker_b = sim.ScriptedAttacker({"challenge": lambda data, ctx: _radio(out_a)["challenge"]})
    out_b = sim.run_session(replace(world, ue=ue_b), "supi", attacker_b, rng, ue_mod=ue_mod)
    part_b = out_b.abort_step == "ue-challenge"
    evidence.append(f"cross-ue-challenge: abort_step={out_b.abort_step}")

    # (c) vector issued under a different SN identity: the HN is misled into
    # identifying the UE for the (allowlisted) SN the UE named, which lets
    # the vector for this SN out; the run must still die with no key
    # material at the SN (the UE's RES*, bound to the other SN, does not
    # open M)
    world.ue.id_sn_expected = "other-sn.example"
    world.hn.sn_allowlist.add("other-sn.example")
    misled_hn = Weakened(hn, hn_identify=lambda state, msg, _claimed:
                         hn.hn_identify(state, msg, "other-sn.example"))
    out_c = sim.run_session(world, "supi", rng=rng, hn_mod=misled_hn)
    part_c = (not out_c.completed) and out_c.supi_at_sn is None
    evidence.append(f"wrong-sn-vector: abort_step={out_c.abort_step}")

    return Verdict(
        scenario="sn-binding", holds=part_a and part_b and part_c,
        evidence=evidence,
        controls=[("honest-sn-recovers-after-response", control_ok)])


def _backward_closure(g: DerivationGraph, k_seaf_prev: bytes) -> dict[str, int]:
    """What a radio attacker deduces in a GUTI session's graph g once it
    holds k_seaf_prev, the K_seaf of the session that assigned the GUTI.
    The graph learns how that K_seaf makes R_SN', which it then yields;
    the K_S that R_SN' masks must stay out of reach."""
    g.atom("k_seaf_prev", k_seaf_prev)
    g.atom("r_sn_prime_label", b"r-sn-prime", public=True)
    g.derived("r_sn_prime", "kdf", "k_seaf_prev", "r_sn_prime_label")
    return g.closure(g.public | {"k_seaf_prev"})


# a GUTI session's ratchet shares as the roles store them, by graph atom:
# the HN's row (SUPI, K, K_S) and the SN's GUTI table entry (SUPI, GUTI, R_SN')
STORES = {"stolen-hn-row": "k_s_prev", "stolen-sn-store": "r_sn_prime"}


def _stolen_stores(g: DerivationGraph, base: set[str]) -> list[tuple[str, bool]]:
    """Per role store, whether base plus that store's share reaches the
    k_seaf of g, a GUTI session's graph."""
    return [(name, "k_seaf" in g.closure(base | {share})) for name, share in STORES.items()]


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
        if out.key_source != mode:          # None if it aborted
            raise RuntimeError(f"the {mode} session ended at {out.abort_step}")
        k_seaf[mode] = out.k_seaf_ue
        g = build_session_graph(world, out, capture)
        base = g.public | {"k", "sk_h"}
        closure = g.closure(base)
        holds = holds and "k_seaf" not in closure and "k_star" not in closure
        evidence.append(f"{mode}: closure={sorted(closure)}")
        controls.append((control, "k_seaf" in g.closure(base | secrets)))

    # one stolen role store, with {K, sk_H} and the radio, does not give the
    # GUTI session's key; the control above, holding both stores, does
    for name, reached in _stolen_stores(g, base):
        holds = holds and not reached
        evidence.append(f"{name}: k_seaf_derivable={reached}")

    # backward direction: session i's anchor key does not yield session i+1's
    backward = _backward_closure(g, k_seaf["supi"])
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


# weakening -> (factory of the weakened roles, as run_session keywords,
# given to each game listed; each of those games must fail)
WEAKENINGS = {
    "ue-mac": (lambda: {"ue_mod": Weakened(ue, ue_process_challenge=_ue_without_mac_check)},
               {"replay", "sn-binding"}),
    "ue-reuse": (lambda: {"ue_mod": _broken_ue()}, {"linkability"}),
    "hn-seal-ak": (lambda: {"hn_mod": Weakened(hn, hn_auth_vector=_hn_sealing_m_under_ak)},
                   {"sn-binding"}),
}


def weakened_roles(names: list[str], weaken: frozenset) -> dict[str, dict[str, Weakened]]:
    """Per named game, the run_session keywords of the roles weakened for it;
    UnusedWeakening if a weakening in weaken lists none of the games."""
    roles: dict[str, dict[str, Weakened]] = {}
    for weakening in sorted(weaken):
        make, games = WEAKENINGS[weakening]
        if games.isdisjoint(names):
            raise UnusedWeakening(f"weakening {weakening} flips none of: {', '.join(names)}")
        for game in games & set(names):
            roles.setdefault(game, {}).update(make())
    return roles


def run_scenarios(names: list[str], suite_name: str = "test", seed: int = 0,
                  weaken: frozenset = frozenset()) -> list[Verdict]:
    roles = weakened_roles(names, weaken)
    return [SCENARIOS[name](suite_name, seed, **roles.get(name, {})) for name in names]
