"""Attack verdicts and a mixed-run transcript, pinned byte for byte.

A refactor of the simulator or the games must leave these outputs
unchanged; a deliberate change to them updates the values here.
"""

import hashlib

import pytest

from pqaka import attacks, sim
from pqaka.rng import SeededRandom


def _verdict_lines(keys_tried: int) -> list[str]:
    """run_scenarios(all) output; suites differ only in SN key candidates."""
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
        "supi-absent-from-sn-state=True;"
        "cross-ue-challenge: abort_step=ue-challenge;"
        "wrong-sn-vector: abort_step=sn-verify]",
        "forward-secrecy holds=True controls=[supi-sk_u-reveals-k_seaf=ok;"
        "guti-pre-ratchet-state-reveals-k_seaf=ok] "
        f"evidence=[supi: closure={supi_closure};"
        "guti: closure=['conc', 'id_hn', 'id_sn', 'k', 'mac', 'res_star', 'sk_h'];"
        "backward: k_seaf_next_derivable=False]",
    ]


KEYS_TRIED = {"test": 6416, "ecies-x25519": 6416, "ecies-p256": 3555}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", list(KEYS_TRIED))
def test_attack_verdict_lines_pinned(suite, seed):
    verdicts = attacks.run_scenarios(list(attacks.SCENARIOS), suite, seed)
    assert [v.to_line() for v in verdicts] == _verdict_lines(KEYS_TRIED[suite])


# SHA-256 of `pqaka run --kem test --sessions 20 --mode mixed --seed 3 --out F`
MIXED_RUN_SHA256 = "ede22ef54973effc1cdff383d4388dcdb434ff917bc15e173ad7d61efb498e06"


def test_mixed_run_transcript_pinned():
    rng = SeededRandom(3)
    world = sim.make_world("test", seed=rng)
    outcomes = [sim.run_session(world, "supi" if i % 2 == 0 else "guti", rng=rng)
                for i in range(20)]
    text = "".join(line + "\n" for line in sim.export_transcript(outcomes))
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_RUN_SHA256


# SHA-256 of the same kind of run over 10 sessions, with the SN's GUTI table
# cleared before each GUTI session, so that every one of them falls back to
# SUPI-based identification
FALLBACK_RUN_SHA256 = "ed392925fc318806c26d080cce6457ec42dbdb46b2f1f8e7dbc1062f578c7e77"


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
