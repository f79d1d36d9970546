"""Executable adversary games, each returning a machine-checkable verdict.

Forward secrecy, and what a compromised SN knows before RES*, are decided
by a knowledge closure over the calls the roles made: a Recorder logs the
crypto, wire and draw calls of a game's sessions, DerivationGraph reads
Dolev-Yao edges over byte values off that log, and a value counts as
derivable only if a chain of edges reaches it from the attacker's
knowledge set. Every scenario also runs controls that must flip, and
WEAKENINGS names the weakened roles each game must fail with.
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


# --- recorded derivation graph ----------------------------------------------

# (owner, name) of every function the Recorder logs: the roles call each
# crypto one through the crypto module, wire's encode, decode and payload
# packers reach the two field walks through wire's globals, and every draw
# goes through SeededRandom.bytes
_RECORDED = [(crypto, name) for name in (
    "prf_key", "prf_f", "kdf", "hash_h", "xor_bytes", "aead_seal", "aead_open",
    "kem_keygen", "kem_encaps", "kem_decaps")] + [
    (wire, "pack_fields"), (wire, "unpack_fields"), (SeededRandom, "bytes")]


class Recorder:
    """Context manager that logs each call of a _RECORDED function as (name,
    args, result) and puts every original back on exit. A call that raises
    is not logged, nor is a call made inside a kem_* call, so that each KEM
    is one opaque edge: the ideal KEM the games assume, not the test double."""

    def __init__(self):
        self.log: list[tuple[str, tuple, object]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._in_kem = False

    def __enter__(self) -> Recorder:
        for owner, name in _RECORDED:
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, self._recording(name, getattr(owner, name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    def _recording(self, name: str, fn: Callable) -> Callable:
        def recorded(*args):
            if self._in_kem:
                return fn(*args)
            self._in_kem = name.startswith("kem_")
            try:
                result = fn(*args)
            finally:
                self._in_kem = False
            self.log.append((name, args, result))
            return result
        return recorded


class DerivationGraph:
    """Edges over the byte values of a recorded history. Each call gives its
    forward edge, and the attacker also gets: a seal opens under its key, a
    packed value unpacks, an XOR solves for either operand, an AEAD output is
    its body plus its tag (SUCI_conc and MAC_U), a kdf output gives its last
    CHECK_LEN bytes (RES*), and a ct decapsulates under the sk of the pk it
    was made for. The constants, the inputs that no call made, no draw gave
    and secrets (SUPIs) does not name, are public; names maps a value to the
    wire fields it crossed as."""

    def __init__(self, recorder: Recorder, secrets: Iterable[str] = ()):
        self.names: dict[bytes, set[str]] = {}
        # per edge its outputs and its input count; per value its edges
        self._outputs: list[tuple[bytes, ...]] = []
        self._arity: list[int] = []
        self._uses: dict[bytes, list[int]] = {}
        made: set[bytes] = set()        # what a call returned, whole or in part
        prf_keys: dict[crypto.PrfKey, bytes] = {}
        sks: dict[bytes, bytes] = {}

        def edge(inputs: Iterable[bytes], *outputs: bytes) -> tuple[bytes, ...]:
            for value in inputs:
                self._uses.setdefault(value, []).append(len(self._arity))
            self._outputs.append(outputs)
            self._arity.append(len(inputs))
            return outputs

        for name, args, result in recorder.log:
            if name == "bytes":
                made.add(result)
            elif name == "prf_key":
                prf_keys[result] = args[0]
            elif name == "prf_f":
                made.update(edge([prf_keys[args[1]], *args[2]], result))
            elif name in ("kdf", "hash_h"):
                made.update(edge(args[0], result))
                if name == "kdf":
                    made.update(edge([result], result[-crypto.CHECK_LEN:]))
            elif name == "xor_bytes":
                a, b = args
                made.update(edge(args, result))
                edge([a, result], b)
                edge([b, result], a)
            elif name == "aead_seal":
                key, plain = args
                body, tag = result[:-crypto.AEAD_TAG_OVERHEAD], result[-crypto.AEAD_TAG_OVERHEAD:]
                made.update(edge(args, result))
                edge([key, result], plain)
                made.update(edge([result], body, tag))
                edge([body, tag], result)
            elif name == "aead_open":
                made.update(edge(args, result))
            elif name in ("pack_fields", "unpack_fields"):
                packed, values = (result, args[1]) if name == "pack_fields" else (args[1], result)
                named = {f: v.encode() if isinstance(v, str) else v     # not flags or None
                         for (f, _kind), v in zip(args[0], values) if isinstance(v, (str, bytes))}
                if named:
                    if name == "pack_fields":
                        made.update(edge(named.values(), packed))
                    edge([packed], *named.values())
                for f, v in named.items():
                    self.names.setdefault(v, set()).add(f)
            elif name == "kem_keygen":
                made.update((result.pk, result.sk))
                sks[result.pk] = result.sk
                edge([result.sk], result.pk)
            elif name == "kem_encaps":
                (ct, key), pk = result, args[1]
                made.update((ct, key))
                if pk in sks:
                    edge([sks[pk], ct], key)
            else:                                   # kem_decaps
                made.update(edge([args[1].sk, args[2]], result))
        self.constants = self._uses.keys() - made - {s.encode() for s in secrets}

    def closure(self, base: Iterable[bytes]) -> dict[bytes, int]:
        """Each value deducible from base, with the fewest rounds that reach
        it: round r admits the outputs of every edge whose inputs were all
        deduced before it, and a round that admits nothing ends it. There is
        no depth cap."""
        depths = dict.fromkeys(base, 0)
        missing = self._arity.copy()
        edges, uses = self._outputs, self._uses
        frontier, rounds = list(depths), 0
        while frontier:
            rounds += 1
            admitted = []
            for value in frontier:
                for i in uses.get(value, ()):
                    missing[i] -= 1
                    if not missing[i]:
                        for output in edges[i]:
                            if output not in depths:
                                depths[output] = rounds
                                admitted.append(output)
            frontier = admitted
        return depths

    def named(self, values: Iterable[bytes]) -> list[str]:
        """The wire fields the values were recorded as, sorted."""
        return sorted(set().union(*(self.names.get(v, ()) for v in values)))


def _radio(outcome: sim.SessionOutcome) -> dict[str, bytes]:
    """The last bytes the radio delivered per label; a dropped message is
    logged as "<label> [dropped]"."""
    return {e.annotation: e.data for e in outcome.transcript.radio_entries()}


def _heard(*outcomes: sim.SessionOutcome) -> set[bytes]:
    """Every message the radio delivered in the outcomes."""
    return {e.data for o in outcomes for e in o.transcript.radio_entries() if e.data}


@dataclass
class OracleCapture:
    """Test-only UE secrets of one session that the game oracles are given,
    which the simulator never returns: the ratchet state before the run and
    the sk_U the session drew."""

    k_s_prev: Optional[bytes]
    r_sn_prime: Optional[bytes]
    sk_u: Optional[bytes] = None


def run_captured(world: sim.World, mode: str, rng: RandomSource,
                 **roles) -> tuple[sim.SessionOutcome, OracleCapture]:
    """One session run with roles (ue_mod=, hn_mod=), a wrapper around its UE
    role filling the capture."""
    capture = OracleCapture(k_s_prev=world.ue.k_s, r_sn_prime=world.ue.r_sn_prime)
    role = roles.get("ue_mod", ue)

    def identification_response(state: ue.UeState, rng: RandomSource):
        msg, pair = role.ue_identification_response(state, rng)
        capture.sk_u = pair.sk
        return msg, pair

    roles["ue_mod"] = Weakened(role, ue_identification_response=identification_response)
    return sim.run_session(world, mode, rng=rng, **roles), capture


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
            k = crypto.prf_key(state.k)
            r_sn = crypto.xor_bytes(ch.conc, crypto.prf_f("5", k, [k_star]))
            ch = replace(ch, mac=crypto.prf_f("1", k, [k_star, r_sn]))
    return ue.ue_process_challenge(state, ch, ephemeral)


def _broken_ue() -> Weakened:
    """UE whose every session repeats its first SUCI, together with that
    session's key pair, and its first GUTI."""
    kept: dict[str, object] = {}

    def identification_response(state: ue.UeState, rng: RandomSource):
        if "suci" not in kept:
            kept["suci"] = ue.ue_identification_response(state, rng)
        return kept["suci"]

    def guti_identification(state: ue.UeState, req: wire.Message, first: bool):
        msg = ue.ue_guti_identification(state, req, first)
        return msg and kept.setdefault("guti", msg)

    return Weakened(ue, ue_identification_response=identification_response,
                    ue_guti_identification=guti_identification)


def _hn_sealing_m_under_ak(state: hn.HnState, record, pk_u: bytes, r_sn: bytes,
                           id_sn: str, rng: RandomSource) -> wire.HnToSnAuthMsg:
    """SUPI-path HN that seals M under KDF(AK), AK = CONC xor R_SN, a key
    the SN can form before RES* arrives, instead of under K3."""
    vector = hn.hn_auth_vector(state, record, pk_u, r_sn, id_sn, rng)
    pending = state.pending[r_sn]
    ak = crypto.xor_bytes(vector.conc, r_sn)
    return replace(vector, m=crypto.aead_seal(
        crypto.kdf([ak]), wire.pack_m_payload(pending.k_seaf, pending.supi)))


def _hn_without_pfs(state: hn.HnState, record, pk_u: bytes, r_sn: bytes,
                    id_sn: str, rng: RandomSource) -> wire.HnToSnAuthMsg:
    """SUPI-path HN with no KEM to the UE: c2 is a random string and
    K* = KDF(K, c2), so K and the radio give K*."""
    c2 = rng.stream("kem_encaps").bytes(state.kem.ct_len)
    return hn._derive_vector(state, record, crypto.kdf([record.k, c2]), c2, r_sn, id_sn)


def _ue_without_pfs(
    state: ue.UeState, ch: wire.ChallengeMsg, ephemeral: Optional[crypto.KemKeyPair],
) -> Optional[tuple[wire.ResponseMsg, bytes, bytes]]:
    """The UE of _hn_without_pfs: on the SUPI path it answers under K* = KDF(K, c2)."""
    if ch.c2 is None:
        return ue.ue_process_challenge(state, ch, ephemeral)
    return ue._answer(state, ch, crypto.kdf([state.k, ch.c2]))


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
    return tags | {b"\x00", b"\x01", wire.PLMN.to_raw(world.hn.id_hn, "id_hn")}


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

    # (a) the SN's knowledge before RES* arrives, the radio of a session
    # whose response was dropped, its pending entry's key (R_SN) and the
    # fields that entry set (CONC, M; the SUPI is set on the GUTI path
    # only), must not reach the K_seaf and SUPI the HN sealed into M
    drop_response = sim.ScriptedAttacker({"response": lambda data, ctx: None})
    with Recorder() as recorder:
        world = sim.make_world(suite_name, seed=rng)
        out = sim.run_session(world, "supi", drop_response, rng, hn_mod=hn_mod)
    g = DerivationGraph(recorder, [world.ue.supi])
    ((sid, pending),) = world.sn.pending.items()
    (sealed,) = world.hn.pending.values()
    base = g.constants | _heard(out) | {sid} | (
        {getattr(pending, f.name) for f in fields(pending)} - {None})
    supi = sealed.supi.encode()
    closure = g.closure(base)
    learned = g.named({sealed.k_seaf, supi} & closure.keys())
    no_early_supi = all(supi not in value for value in base)
    part_a = not learned and no_early_supi
    evidence += [f"pre-response-closure={g.named(closure)}",
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


def scenario_forward_secrecy_game(suite_name: str = "test", seed: int = 0,
                                  *, ue_mod=ue, hn_mod=hn) -> Verdict:
    """Long-term compromise after the fact must not reveal session keys.
    make_world and its two sessions, SUPI then GUTI (whose ratchet the
    first advanced), are one recorded history; the attacker holds the radio
    of both, the constants and {K, sk_H}. K* needs no check of its own: with
    K, it gives K_seaf."""
    rng = SeededRandom(seed)
    runs = []
    with Recorder() as recorder:
        world = sim.make_world(suite_name, seed=rng)
        for mode in ("supi", "guti"):
            out, capture = run_captured(world, mode, rng, ue_mod=ue_mod, hn_mod=hn_mod)
            if out.key_source != mode:          # None if it aborted
                raise RuntimeError(f"the {mode} session ended at {out.abort_step}")
            runs.append((out, capture))
    (supi_run, supi_capture), (guti_run, guti_capture) = runs
    g = DerivationGraph(recorder, [world.ue.supi])
    radio = g.constants | _heard(supi_run, guti_run)
    base = radio | {world.ue.k, world.hn.kem_pair.sk}
    k_seaf, k_seaf_next = supi_run.k_seaf_ue, guti_run.k_seaf_ue
    closure = g.closure(base)
    holds = k_seaf not in closure and k_seaf_next not in closure
    evidence = [f"closure={g.named(closure)}"]
    controls = [
        ("supi-sk_u-reveals-k_seaf", k_seaf in g.closure(base | {supi_capture.sk_u})),
        ("guti-pre-ratchet-state-reveals-k_seaf", k_seaf_next in g.closure(
            base | {guti_capture.k_s_prev, guti_capture.r_sn_prime}))]

    # one stolen role store, the HN's row (SUPI, K, K_S) or the SN's GUTI
    # table entry (SUPI, GUTI, R_SN'), with {K, sk_H} and the radio, does not
    # give the GUTI session's key; the control above, holding both, does
    for name, share in (("stolen-hn-row", guti_capture.k_s_prev),
                        ("stolen-sn-store", guti_capture.r_sn_prime)):
        reached = k_seaf_next in g.closure(base | {share})
        holds = holds and not reached
        evidence.append(f"{name}: k_seaf_derivable={reached}")

    # backward direction: session i's anchor key yields the R_SN' it made,
    # but not the K_S that R_SN' masks, so not session i+1's key
    backward = k_seaf_next in g.closure(radio | {k_seaf})
    holds = holds and not backward
    evidence.append(f"backward: k_seaf_next_derivable={backward}")
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
    "no-pfs": (lambda: {"ue_mod": Weakened(ue, ue_process_challenge=_ue_without_pfs),
                        "hn_mod": Weakened(hn, hn_auth_vector=_hn_without_pfs)},
               {"forward-secrecy"}),
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
