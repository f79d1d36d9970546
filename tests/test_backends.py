"""Operational KEM backends built on classical ECDH, and the liboqs hook."""

import copy
import dataclasses
import hashlib
import os
import pickle
import sys
import types

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from drive import to_challenge
from pqaka import attacks, backends, bench, crypto, sim, ue as ue_mod, wire
from pqaka.crypto import available_suites, get_suite
from pqaka.rng import SeededRandom

ECIES = ["ecies-x25519", "ecies-p256"]


@pytest.mark.parametrize("name", ECIES)
def test_ecies_correctness(name):
    if name not in available_suites():
        pytest.skip(f"{name} not compiled in")
    suite = get_suite(name)
    for seed in range(20):
        pair = crypto.kem_keygen(suite, SeededRandom(seed))
        ct, k = crypto.kem_encaps(suite, pair.pk, SeededRandom(seed + 100))
        assert crypto.kem_decaps(suite, pair, ct) == k
        assert len(k) == suite.key_len


@pytest.mark.parametrize("name", ECIES)
def test_ecies_metadata_conformance(name):
    if name not in available_suites():
        pytest.skip(f"{name} not compiled in")
    suite = get_suite(name)
    pair = crypto.kem_keygen(suite, SeededRandom(0))
    ct, k = crypto.kem_encaps(suite, pair.pk, SeededRandom(1))
    assert len(pair.sk) == suite.sk_len
    assert len(pair.pk) == suite.pk_len
    assert len(ct) == suite.ct_len
    assert len(k) == suite.key_len


@pytest.mark.parametrize("name", ECIES)
def test_full_session_on_ecies(name):
    if name not in available_suites():
        pytest.skip(f"{name} not compiled in")
    rng = SeededRandom(5)
    world = sim.make_world(name, seed=rng)
    supi_run = sim.run_session(world, "supi", rng=rng)
    assert supi_run.completed
    assert supi_run.k_seaf_ue == supi_run.k_seaf_sn == supi_run.k_seaf_hn
    guti_run = sim.run_session(world, "guti", rng=rng)
    assert guti_run.completed and guti_run.key_source == "guti"


# --- an independent reference: TS 33.501 Annex C's ECIES KEM ----------------
# pk is the curve point (raw X25519, compressed P-256), ct the ephemeral pk
# and the key SHA-256 over ct, pk and the shared secret, each field behind a
# 4-byte big-endian length; built here from the curve library alone

_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def _x25519_reference(rng):
    """(sk, private key, pk) drawn as the suite draws them: sk is 32 bytes."""
    sk = rng.bytes(32)
    priv = X25519PrivateKey.from_private_bytes(sk)
    return sk, priv, priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def _p256_reference(rng):
    """d = the 32 drawn bytes mod (n - 1) + 1, and sk is d's 32 bytes."""
    d = int.from_bytes(rng.bytes(32), "big") % (_P256_ORDER - 1) + 1
    priv = ec.derive_private_key(d, ec.SECP256R1())
    pk = priv.public_key().public_bytes(Encoding.X962, PublicFormat.CompressedPoint)
    return d.to_bytes(32, "big"), priv, pk


REFERENCE = {
    "ecies-x25519": (_x25519_reference, lambda priv, peer: priv.exchange(
        X25519PublicKey.from_public_bytes(peer))),
    "ecies-p256": (_p256_reference, lambda priv, peer: priv.exchange(
        ec.ECDH(), ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), peer))),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ECIES)
def test_ecies_matches_an_independent_reference(name, seed):
    keypair, exchange = REFERENCE[name]
    suite = get_suite(name)
    # the wrappers draw keygen's and encaps' bytes under their labels
    sk, priv, pk = keypair(SeededRandom(seed).stream("kem_keygen"))
    pair = crypto.kem_keygen(suite, SeededRandom(seed))
    assert (pair.sk, pair.pk) == (sk, pk)
    _eph_sk, eph, ct = keypair(SeededRandom(seed + 100).stream("kem_encaps"))
    fields = (ct, pk, exchange(eph, pk))
    key = hashlib.sha256(b"".join(len(f).to_bytes(4, "big") + f for f in fields)).digest()
    assert exchange(priv, ct) == fields[2]
    assert crypto.kem_encaps(suite, pk, SeededRandom(seed + 100)) == (ct, key)
    assert crypto.kem_decaps(suite, crypto.KemKeyPair(pk=pk, sk=sk), ct) == key
    assert crypto.kem_decaps(suite, pair, ct) == key


# --- peer points the curve rejects --------------------------------------------

def _zeroed(field: str):
    """A radio handler that delivers the message with field all zero bytes."""
    def handler(data, ctx):
        msg = wire.decode(data)
        zero = bytes(len(getattr(msg, field)))
        return wire.encode(dataclasses.replace(msg, **{field: zero}))
    return handler


@pytest.mark.parametrize("name", ECIES)
def test_rejected_point_in_c1_aborts_at_hn_identify(name):
    rng = SeededRandom(5)
    world = sim.make_world(name, seed=rng)
    attacker = sim.ScriptedAttacker({"id-response": _zeroed("c1")})
    outcome = sim.run_session(world, "supi", attacker, rng)
    assert outcome.abort_step == "hn-identify"
    last = outcome.transcript.entries[-1]
    assert (last.channel, last.annotation) == (sim.CORE, "hn-abort")
    assert world.sn.pending == {} and world.hn.pending == {}


@pytest.mark.parametrize("name", ECIES)
def test_rejected_point_in_c2_aborts_at_ue_challenge(name):
    rng = SeededRandom(5)
    world = sim.make_world(name, seed=rng)
    attacker = sim.ScriptedAttacker({"challenge": _zeroed("c2")})
    outcome = sim.run_session(world, "supi", attacker, rng)
    assert outcome.abort_step == "ue-challenge"
    assert outcome.k_seaf_ue is None and world.ue.k_s is None


@pytest.mark.parametrize("name", ECIES)
def test_every_bit_flip_of_c2_aborts_silently(name):
    """Criterion 3's seed-3 drive on a curve: a flipped c2 is another
    point, a point off the curve or no encoding at all, and the UE aborts
    silently on each (on P-256, 129 of the 264 flips are not points)."""
    rng = SeededRandom(3)
    world = sim.make_world(name, seed=rng)
    _msg, pair, _sid, _vector, challenge = to_challenge(world, rng)
    assert ue_mod.ue_process_challenge(copy.deepcopy(world.ue), challenge, pair)
    assert len(challenge.c2) == world.suite.ct_len
    for bit in range(len(challenge.c2) * 8):
        c2 = bytearray(challenge.c2)
        c2[bit // 8] ^= 1 << (bit % 8)
        ch = dataclasses.replace(challenge, c2=bytes(c2))
        assert ue_mod.ue_process_challenge(copy.deepcopy(world.ue), ch, pair) is None, bit


# --- loaded private keys -----------------------------------------------------

@pytest.mark.parametrize("name", available_suites())
def test_decaps_with_handle_equals_decaps_from_raw_sk(name):
    suite = get_suite(name)
    for seed in range(5):
        pair = crypto.kem_keygen(suite, SeededRandom(seed))
        ct, k = crypto.kem_encaps(suite, pair.pk, SeededRandom(seed + 100))
        unpickled = pickle.loads(pickle.dumps(pair))
        assert unpickled == pair and unpickled.handle is None
        reloaded = crypto.kem_load(suite, unpickled)
        keys = {crypto.kem_decaps(suite, p, ct) for p in (pair, reloaded, unpickled)}
        assert keys == {k}


def _count_x25519_loads(monkeypatch) -> list[bytes]:
    """Every sk that the x25519 backend loads from now on."""
    loads = []
    real = backends.X25519PrivateKey.from_private_bytes

    def counting(sk: bytes):
        loads.append(sk)
        return real(sk)

    monkeypatch.setattr(backends, "X25519PrivateKey",
                        types.SimpleNamespace(from_private_bytes=counting))
    return loads


def test_supi_session_on_x25519_loads_three_private_keys(monkeypatch):
    rng = SeededRandom(5)
    world = sim.make_world("ecies-x25519", seed=rng)
    loads = _count_x25519_loads(monkeypatch)
    assert sim.run_session(world, "supi", rng=rng).completed
    # UE keygen, UE encaps and HN encaps; both decaps use a held key
    assert len(loads) == 3
    assert world.hn.kem_pair.sk not in loads


def test_unpickled_world_replays_session_and_loads_sk_h_once(monkeypatch):
    rng = SeededRandom(6)
    world = sim.make_world("ecies-x25519", seed=rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    blob = pickle.dumps((world, rng))
    loads = _count_x25519_loads(monkeypatch)
    twin, twin_rng = pickle.loads(blob)
    expected = sim.run_session(world, "supi", rng=rng).transcript.to_lines()
    assert sim.run_session(twin, "supi", rng=twin_rng).transcript.to_lines() == expected
    for _ in range(2):
        assert sim.run_session(twin, "supi", rng=twin_rng).completed
    assert loads.count(world.hn.kem_pair.sk) <= 1


@pytest.mark.parametrize("name", available_suites())
def test_pickled_and_copied_suites_are_the_registered_suite(name):
    world = sim.make_world(name, seed=0)
    suite = get_suite(name)
    twin = pickle.loads(pickle.dumps(world))
    assert twin.suite is twin.ue.kem is twin.hn.kem is suite
    assert copy.deepcopy(world.ue).kem is suite


@pytest.mark.parametrize("name", ECIES)
def test_a_copied_stand_in_world_keeps_the_stand_in(name):
    """A suite that is not the registered one copies by value: swapped for
    the real suite, the world's all-zero pk_H would be rejected. Its lambdas
    do not pickle, so pickling it fails rather than swapping suites."""
    world = sim.make_world(bench.stand_in(get_suite(name)), seed=0)
    twin = copy.deepcopy(world)
    assert twin.suite == world.suite and twin.suite is not get_suite(name)
    assert twin.ue.kem is twin.hn.kem is twin.suite
    assert sim.run_session(twin, "supi", rng=SeededRandom(0)).completed
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(world)


# --- the liboqs hook, driven by a fake ``oqs`` module -------------------------

# mechanism -> (sk, pk, ct, shared secret) lengths; deliberately unlike the
# metadata rows, so a registered suite shows which sizes it was built from
FAKE_OQS_SIZES = {
    "Kyber512": (40, 41, 42, 32),
    "Classic-McEliece-348864": (50, 51, 52, 32),
    "BIKE-L1": (60, 61, 62, 32),
}


class _FakeKem:
    """Toy KEM with the liboqs binding's interface; draws its own randomness."""

    def __init__(self, mech: str, secret_key: bytes | None = None):
        self.sk_len, self.pk_len, self.ct_len, self.ss_len = FAKE_OQS_SIZES[mech]
        self.details = {"length_secret_key": self.sk_len,
                        "length_public_key": self.pk_len,
                        "length_ciphertext": self.ct_len,
                        "length_shared_secret": self.ss_len}
        self.sk = secret_key

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def _pk(self) -> bytes:
        return hashlib.shake_256(b"pk" + self.sk).digest(self.pk_len)

    def generate_keypair(self) -> bytes:
        self.sk = os.urandom(self.sk_len)
        return self._pk()

    def export_secret_key(self) -> bytes:
        return self.sk

    def encap_secret(self, pk: bytes) -> tuple[bytes, bytes]:
        ct = os.urandom(self.ct_len)
        return ct, hashlib.shake_256(pk + ct).digest(self.ss_len)

    def decap_secret(self, ct: bytes) -> bytes:
        return hashlib.shake_256(self._pk() + ct).digest(self.ss_len)


def test_liboqs_hook_registers_fake_backends(monkeypatch):
    opened, exited = [], []

    class CountingKem(_FakeKem):
        def __init__(self, *args):
            super().__init__(*args)
            opened.append(self)

        def __exit__(self, *exc):
            exited.append(self)
            return super().__exit__(*exc)

    fake = types.ModuleType("oqs")
    fake.get_enabled_kem_mechanisms = lambda: list(FAKE_OQS_SIZES)  # no HQC-128
    fake.KeyEncapsulation = CountingKem
    monkeypatch.setitem(sys.modules, "oqs", fake)
    for name in ("kyber", "mceliece", "bike", "hqc"):
        monkeypatch.setitem(crypto._REGISTRY, name, crypto._REGISTRY[name])

    backends._try_register_liboqs()

    assert not get_suite("hqc").available
    for name, sizes in zip(("kyber", "mceliece", "bike"), FAKE_OQS_SIZES.values()):
        suite = get_suite(name)
        assert (suite.sk_len, suite.pk_len, suite.ct_len, suite.key_len) == sizes
        pair = crypto.kem_keygen(suite, SeededRandom(0))
        ct, k = crypto.kem_encaps(suite, pair.pk, SeededRandom(1))
        assert crypto.kem_decaps(suite, pair, ct) == k
        # the binding draws its own randomness: the injected RNG is ignored
        assert crypto.kem_keygen(suite, SeededRandom(0)) != pair
    # every binding object, which may hold a secret key, is exited
    assert opened and exited == opened


# --- ML-KEM from cryptography's mlkem module, where it exists -----------------

# FIPS 203 Table 3: (sk, pk, ct, shared key) lengths, the sk as the 64-byte
# seed d || z (its expanded decapsulation key is 2,400 / 3,168 bytes)
FIPS_203_SIZES = {"ml-kem-768": (64, 1184, 1088, 32), "ml-kem-1024": (64, 1568, 1568, 32)}
MLKEM = [name for name in FIPS_203_SIZES if name in crypto.registered_suites()]
needs_mlkem = pytest.mark.skipif(not MLKEM, reason="cryptography has no mlkem module")


@needs_mlkem
@pytest.mark.parametrize("name", MLKEM)
def test_mlkem_sizes_are_fips_203(name):
    suite = get_suite(name)
    assert (suite.sk_len, suite.pk_len, suite.ct_len, suite.key_len) == FIPS_203_SIZES[name]
    pair = crypto.kem_keygen(suite, SeededRandom(0))
    ct, k = crypto.kem_encaps(suite, pair.pk, SeededRandom(1))
    assert (len(pair.sk), len(pair.pk), len(ct), len(k)) == FIPS_203_SIZES[name]
    assert crypto.kem_decaps(suite, pair, ct) == k


@needs_mlkem
@pytest.mark.parametrize("name", MLKEM)
def test_mlkem_keygen_is_the_drawn_seed_and_encaps_is_not_seeded(name):
    suite = get_suite(name)
    pair = crypto.kem_keygen(suite, SeededRandom(4))
    assert pair.sk == SeededRandom(4).stream("kem_keygen").bytes(64)
    assert crypto.kem_keygen(suite, SeededRandom(4)) == pair
    # encapsulate() draws its own randomness: one RNG state, two ciphertexts
    assert (crypto.kem_encaps(suite, pair.pk, SeededRandom(1))
            != crypto.kem_encaps(suite, pair.pk, SeededRandom(1)))


@needs_mlkem
@pytest.mark.parametrize("name", MLKEM)
def test_mlkem_pk_failing_the_modulus_check_is_a_crypto_error(name):
    """Every 12-bit coefficient of an all-0xFF pk is 4095, not below q."""
    suite = get_suite(name)
    with pytest.raises(crypto.CryptoError):
        crypto.kem_encaps(suite, b"\xff" * suite.pk_len, SeededRandom(1))


@needs_mlkem
@pytest.mark.parametrize("path", ["supi", "guti"])
@pytest.mark.parametrize("name", MLKEM)
def test_mlkem_sessions_agree_on_one_k_seaf(name, path):
    rng = SeededRandom(9)
    world = sim.make_world(name, seed=rng)
    assert sim.run_session(world, "supi", rng=rng).completed
    keys = set()
    for _ in range(100):
        outcome = sim.run_session(world, path, rng=rng)
        assert outcome.completed and outcome.key_source == path
        assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn is not None
        keys.add(outcome.k_seaf_ue)
    assert len(keys) == 100


@needs_mlkem
@pytest.mark.parametrize("field, label, step", [("c1", "id-response", "hn-identify"),
                                                ("c2", "challenge", "ue-challenge")])
@pytest.mark.parametrize("name", MLKEM)
def test_mlkem_flipped_ciphertext_aborts_at_the_same_step_as_ecies(name, field, label, step):
    """A flipped ct decapsulates to another key, which the AEAD (c1) or the
    AUTN MAC (c2) then rejects."""
    def flip(data, ctx):
        msg = wire.decode(data)
        ct = bytearray(getattr(msg, field))
        ct[0] ^= 1
        return wire.encode(dataclasses.replace(msg, **{field: bytes(ct)}))

    rng = SeededRandom(5)
    world = sim.make_world(name, seed=rng)
    outcome = sim.run_session(world, "supi", sim.ScriptedAttacker({label: flip}), rng)
    assert outcome.abort_step == step


@needs_mlkem
@pytest.mark.parametrize("name", MLKEM)
def test_mlkem_games_hold_and_weakenings_flip_them(name):
    verdicts = attacks.run_scenarios(list(attacks.SCENARIOS), name, 0)
    assert all(v.holds and all(ok for _n, ok in v.controls) for v in verdicts)
    for weakening, (_make, games) in attacks.WEAKENINGS.items():
        weakened = attacks.run_scenarios(sorted(games), name, 0, weaken=frozenset({weakening}))
        assert not any(v.holds for v in weakened), weakening
