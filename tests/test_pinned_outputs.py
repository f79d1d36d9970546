"""Attack verdicts and a mixed-run transcript, pinned byte for byte.

A refactor of the simulator or the games must leave these outputs
unchanged; a deliberate change to them updates the values here.
"""

import hashlib

import pytest

from pqaka import attacks, sim
from pqaka.rng import SeededRandom


def _verdict_lines(keys_tried: int) -> list[str]:
    """run_scenarios(all) output; suites differ only in how many 32-byte
    values the SN's pre-response closure holds."""
    supi_closure = ("['c1', 'c2', 'conc', 'id_hn', 'id_sn', 'k', 'k_s1', 'mac', "
                    "'mac_u', 'pk_u', 'res_star', 'sk_h', 'suci_conc', 'supi']")
    repeats = "['01', '02', '05', '06', '0b', '686e2e6578616d706c65']"
    return [
        "replay holds=True controls=[honest-passthrough-completes=ok] "
        "evidence=[session-A completed steps=8;"
        "replay-c2-and-autn: abort_step=ue-challenge;"
        "replay-c2-fresh-autn: abort_step=ue-challenge;"
        "replay-autn-fresh-c2: abort_step=ue-challenge;"
        "replay-suci: hn_accepted=True abort_step=ue-challenge]",
        "linkability holds=True controls=[broken-ue-reuse-detected=ok] "
        f"evidence=[mode=supi;same-ue-repeats={repeats};"
        f"cross-ue-repeats={repeats}]",
        "sn-binding holds=True controls=[honest-sn-recovers-after-response=ok] "
        f"evidence=[pre-response-keys-tried={keys_tried} opened=0;"
        "pre-response-secrets=[];supi-absent-from-sn-state=True;"
        "cross-ue-challenge: abort_step=ue-challenge;"
        "wrong-sn-vector: abort_step=sn-verify]",
        "forward-secrecy holds=True controls=[supi-sk_u-reveals-k_seaf=ok;"
        "guti-pre-ratchet-state-reveals-k_seaf=ok] "
        f"evidence=[supi: closure={supi_closure};"
        "guti: closure=['conc', 'id_hn', 'id_sn', 'k', 'mac', 'res_star', 'sk_h'];"
        "stolen-hn-row: k_seaf_derivable=False;stolen-sn-store: k_seaf_derivable=False;"
        "backward: k_seaf_next_derivable=False]",
    ]


# the keys tried on M are the 32-byte values of the SN's closure: KDF(AK),
# and c1 and c2 where the KEM makes them 32 bytes. Re-pinned from 8 (6 on
# ecies-p256) when MAC, MAC_U and the former HXRES* went to 16 bytes, too
# short to be a key, and from 5 (3) when R_SN, AK and CONC did, and the
# graph gained KDF(AK), the key the hn-seal-ak weakening seals M under.
# The forward-secrecy line was re-pinned when the game gained its two
# stolen-store evidence items
KEYS_TRIED = {"test": 3, "ecies-x25519": 3, "ecies-p256": 1}


# 2**256 - 1, SeededRandom's largest seed, is a game's seed as any other
@pytest.mark.parametrize("seed", [0, 1, 2**256 - 1])
@pytest.mark.parametrize("suite", list(KEYS_TRIED))
def test_attack_verdict_lines_pinned(suite, seed):
    verdicts = attacks.run_scenarios(list(attacks.SCENARIOS), suite, seed)
    assert [v.to_line() for v in verdicts] == _verdict_lines(KEYS_TRIED[suite])


# SHA-256 of `pqaka run --kem <suite> --sessions 20 --mode mixed --seed 3 --out F`;
# re-pinned when the GUTI went to 4 bytes, the 5G-TMSI's width. The GUTI is
# drawn from its own labelled stream, so only the guti-id and guti-assign
# lines move.
# The ECIES runs are the pins on profile A's and profile B's bytes,
# so a change to a backend's keygen, point encoding or key derivation shows here
MIXED_RUN_SHA256 = {
    "test": "64f119f7381960b55d0329caa51542da4c87c846d665743dd41630ba52d6bfec",
    "ecies-x25519": "42ef9ad18d33ee0be99d7800417b937fa39fa1ee855bfa10359f60d0d6674eb9",
    "ecies-p256": "999ba3b9f8d7c1d45d58bad6f2d3d52763a48cc06c99399688f860ed987551d5",
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
# SUPI-based identification; re-pinned with MIXED_RUN_SHA256, for the same
# change
FALLBACK_RUN_SHA256 = "57e5b6674de51875a845bbf839df5b816a553f474bd3bc8a4487f3e8d6835477"


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
