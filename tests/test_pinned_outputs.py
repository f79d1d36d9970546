"""Attack verdicts and a mixed-run transcript, pinned byte for byte.

A refactor of the simulator or the games must leave these outputs
unchanged; a deliberate change to them updates the values here.
"""

import hashlib

import pytest

from pqaka import attacks, sim
from pqaka.rng import SeededRandom


# run_scenarios(all) output, the same on every suite. The forward-secrecy
# and sn-binding closures are taken over the calls the roles made: their
# evidence names the wire fields the closure reaches, and forward-secrecy's
# two sessions are one history with one closure
SN_CLOSURE = "['c1', 'c2', 'conc', 'id_hn', 'id_sn', 'm', 'mac', 'mac_u', 'r_sn', 'suci_conc']"
FS_CLOSURE = ("['c1', 'c2', 'conc', 'guti', 'id_hn', 'id_sn', 'mac', 'mac_u', 'pk_u', "
              "'res_star', 'sealed_guti', 'suci_conc', 'supi']")
REPEATS = "['00f110', '01', '02', '05', '06', '0a']"
VERDICT_LINES = [
    "replay holds=True controls=[honest-passthrough-completes=ok] "
    "evidence=[session-A completed steps=8;"
    "replay-c2-and-autn: abort_step=ue-challenge;"
    "replay-c2-fresh-autn: abort_step=ue-challenge;"
    "replay-autn-fresh-c2: abort_step=ue-challenge;"
    "replay-suci: hn_accepted=True abort_step=ue-challenge]",
    "linkability holds=True controls=[broken-ue-reuse-detected=ok] "
    f"evidence=[mode=supi;same-ue-repeats={REPEATS};cross-ue-repeats={REPEATS}]",
    "sn-binding holds=True controls=[honest-sn-recovers-after-response=ok] "
    f"evidence=[pre-response-closure={SN_CLOSURE};"
    "pre-response-secrets=[];supi-absent-from-sn-state=True;"
    "cross-ue-challenge: abort_step=ue-challenge;"
    "wrong-sn-vector: abort_step=sn-verify]",
    "forward-secrecy holds=True controls=[supi-sk_u-reveals-k_seaf=ok;"
    "guti-pre-ratchet-state-reveals-k_seaf=ok] "
    f"evidence=[closure={FS_CLOSURE};"
    "stolen-hn-row: k_seaf_derivable=False;stolen-sn-store: k_seaf_derivable=False;"
    "backward: k_seaf_next_derivable=False]",
]
PINNED_SUITES = ["test", "ecies-x25519", "ecies-p256"]


# 2**256 - 1, SeededRandom's largest seed, is a game's seed as any other
@pytest.mark.parametrize("seed", [0, 1, 2**256 - 1])
@pytest.mark.parametrize("suite", PINNED_SUITES)
def test_attack_verdict_lines_pinned(suite, seed):
    verdicts = attacks.run_scenarios(list(attacks.SCENARIOS), suite, seed)
    assert [v.to_line() for v in verdicts] == VERDICT_LINES


# SHA-256 of `pqaka run --kem <suite> --sessions 20 --mode mixed --seed 3 --out F`.
# The ECIES runs are the pins on profile A's and profile B's bytes, so a
# change to a backend's keygen, point encoding or key derivation shows here
MIXED_RUN_SHA256 = {
    "test": "565514d328e4c84bc21a8734a3482c142d198061ba2048e5f34843d12ffae0f1",
    "ecies-x25519": "19105ebfe2e22feaef903240246e7141c9a7e50cca50fac91bdc07fcb7dd4e5e",
    "ecies-p256": "1e19b6fb3a478b15e31009e6fff708a0f4c85fe9a4a19dcd3663229c99ef5bed",
}


@pytest.mark.parametrize("suite", list(MIXED_RUN_SHA256))
def test_mixed_run_transcript_pinned(suite):
    rng = SeededRandom(3)
    world = sim.make_world(suite, seed=rng)
    outcomes = [sim.run_session(world, "supi" if i % 2 == 0 else "guti", rng=rng)
                for i in range(20)]
    text = "".join(line + "\n" for line in sim.export_transcript(outcomes))
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_RUN_SHA256[suite]


# SHA-256 of the same kind of run over 10 sessions, with the SN's GUTI table
# cleared before each GUTI session, so that every one of them falls back to
# SUPI-based identification. Every session here takes the SUPI path, whose
# M seals the SUPI, so M's GUTI-path layout does not move it
FALLBACK_RUN_SHA256 = "e963f3a82ba055686097bd5e18ddfb82278b1ab02ebba3c0a7725b261cd2b52b"


def test_fallback_run_transcript_pinned():
    rng = SeededRandom(3)
    world = sim.make_world("test", seed=rng)
    outcomes = []
    for i in range(10):
        if i % 2:
            world.sn.guti_table.clear()
        outcomes.append(sim.run_session(world, "guti" if i % 2 else "supi", rng=rng))
    assert all(o.completed and o.key_source == "supi" for o in outcomes)
    assert [sum(e.annotation == "id-request" for e in o.transcript.entries)
            for o in outcomes] == [1, 2] * 5
    text = "".join(line + "\n" for line in sim.export_transcript(outcomes))
    assert hashlib.sha256(text.encode()).hexdigest() == FALLBACK_RUN_SHA256
