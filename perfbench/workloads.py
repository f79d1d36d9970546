"""The benchmark's workloads: set-up, one operation, and its correctness check.

An operation ("op") is one authentication session, or one pass of the
attack games on ``attack-all``. Every input (SUPIs, subscriber order, the
protocol's SeededRandom streams, scenario seeds) is derived from the
workload seed, so one seed always gives the same op stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Optional

from pqaka import attacks, sim
from pqaka.rng import SeededRandom

from tracer import Patches

SUITE = "ecies-x25519"
ATTACK_SUITE = "test"
POPULATION = 10_000
# ops run (and checked) at the end of every set-up, so that lazy
# initialisation and caches are settled before timing starts
WARMUP_OPS = 20

# how many times one run sets the workload up; setup_s is their median.
# The 10k-subscriber set-ups cost tens of seconds each, so they run once.
SETUP_REPEATS = {"supi-x25519": 5, "guti-10k": 1, "guti-10k-persist": 1,
                 "attack-all": 5}


class SetupFailure(Exception):
    """A provisioning or warm-up op failed its correctness check."""


def seeded_stream(seed: int, label: str) -> SeededRandom:
    return SeededRandom(hashlib.sha256(f"perfbench/{label}/{seed}".encode()).digest())


def make_supis(seed: int, n: int) -> list[str]:
    picks = random.Random(f"perfbench/supis/{seed}").sample(range(10 ** 10), n)
    return [f"imsi-00101{p:010d}" for p in picks]


def session_ok(out: sim.SessionOutcome, path: str) -> bool:
    """Completed with one K_seaf at UE, SN and HN, on the expected path,
    with the GUTI assignment delivered. A GUTI->SUPI fallback fails."""
    return (out.completed and out.key_source == path and out.assignment_delivered
            and out.k_seaf_ue is not None
            and out.k_seaf_ue == out.k_seaf_sn == out.k_seaf_hn)


def pass_ok(verdicts: list[attacks.Verdict]) -> bool:
    """Every scenario ran, every verdict holds and every control is ok."""
    return (sorted(v.scenario for v in verdicts) == sorted(attacks.SCENARIOS)
            and all(v.holds and all(ok for _, ok in v.controls) for v in verdicts))


def absorb(digest, transcript: sim.SessionTranscript) -> tuple[int, int]:
    """Feed every transcript byte to digest; returns (radio, core) bytes."""
    radio = core = 0
    for e in transcript.entries:
        digest.update(
            f"{e.step}|{e.channel}|{e.direction}|{e.annotation}|{len(e.data)}|".encode())
        digest.update(e.data)
        if e.channel == sim.RADIO:
            radio += len(e.data)
        else:
            core += len(e.data)
    return radio, core


@dataclass
class Sessions:
    """Provisioned subscribers sharing one SN and one HN."""

    worlds: list[sim.World]
    order: list[int]
    path: str
    rng: SeededRandom
    next_op: int = 0

    def run_op(self) -> sim.SessionOutcome:
        world = self.worlds[self.order[self.next_op % len(self.order)]]
        self.next_op += 1
        return sim.run_session(world, self.path, rng=self.rng)

    def settle(self, out: sim.SessionOutcome, digest) -> tuple[bool, int, int]:
        radio, core = absorb(digest, out.transcript)
        return session_ok(out, self.path), radio, core

    def capturing(self):
        return contextlib.nullcontext()


def setup_sessions(seed: int, population: int, path: str,
                   persist_dir: Optional[str] = None) -> Sessions:
    """Provision each subscriber with one SUPI session, then warm up."""
    provision = seeded_stream(seed, "provision")
    supis = make_supis(seed, population)
    base = sim.make_world(SUITE, seed=provision, supi=supis[0])
    worlds = [base] + [
        sim.World(ue=sim.add_subscriber(base, supi, provision),
                  sn=base.sn, hn=base.hn, suite=base.suite)
        for supi in supis[1:]]
    rng = seeded_stream(seed, "protocol")
    for world in worlds:
        if not session_ok(sim.run_session(world, "supi", rng=rng), "supi"):
            raise SetupFailure(f"provisioning {world.ue.supi} failed")
    order = list(range(population))
    random.Random(f"perfbench/order/{seed}").shuffle(order)
    if persist_dir is not None:
        base.hn.persist_path = os.path.join(persist_dir, "hn-registry.txt")
        base.sn.persist_path = os.path.join(persist_dir, "sn-guti-table.txt")
    state = Sessions(worlds=worlds, order=order, path=path, rng=rng)
    for _ in range(WARMUP_OPS):
        if not session_ok(state.run_op(), path):
            raise SetupFailure("warm-up session failed")
    return state


@dataclass
class AttackPasses:
    """Passes of every attack scenario; pass i runs with scenario seed seed+i."""

    seed: int
    next_op: int = 0
    sessions: list[sim.SessionOutcome] = field(default_factory=list)

    def run_op(self) -> list[attacks.Verdict]:
        seed = self.seed + self.next_op
        self.next_op += 1
        return attacks.run_scenarios(list(attacks.SCENARIOS), ATTACK_SUITE, seed)

    def settle(self, verdicts: list[attacks.Verdict], digest) -> tuple[bool, int, int]:
        radio = core = 0
        for out in self.sessions:
            r, c = absorb(digest, out.transcript)
            radio += r
            core += c
        self.sessions.clear()
        for v in verdicts:
            digest.update(v.to_line().encode() + b"\n")
        return pass_ok(verdicts), radio, core

    @contextlib.contextmanager
    def capturing(self):
        """Collect the outcome of every session the scenarios run."""
        patches = Patches()

        def make(run_session):
            def capture(*args, **kwargs):
                out = run_session(*args, **kwargs)
                self.sessions.append(out)
                return out
            return capture

        patches.wrap_everywhere(sim, "run_session", make)
        try:
            yield
        finally:
            patches.restore()
            self.sessions.clear()


def setup_attacks(seed: int) -> AttackPasses:
    state = AttackPasses(seed=seed)
    with state.capturing():
        if not pass_ok(state.run_op()):
            raise SetupFailure("warm-up attack pass failed")
    return state


def setup(name: str, seed: int, persist_dir: str):
    if name == "supi-x25519":
        return setup_sessions(seed, 1, "supi")
    if name == "guti-10k":
        return setup_sessions(seed, POPULATION, "guti")
    if name == "guti-10k-persist":
        return setup_sessions(seed, POPULATION, "guti", persist_dir)
    if name == "attack-all":
        return setup_attacks(seed)
    raise KeyError(name)
