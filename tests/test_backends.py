"""Operational KEM backends built on classical ECDH, and the liboqs hook."""

import hashlib
import os
import pickle
import sys
import types

import pytest

from pqaka import backends, crypto, sim
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
        assert crypto.kem_decaps(suite, pair.sk, ct) == k
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
        keys = {crypto.kem_decaps(suite, sk, ct)
                for sk in (pair.sk, pair, reloaded, unpickled)}
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
        assert crypto.kem_decaps(suite, pair.sk, ct) == k
        assert crypto.kem_decaps(suite, pair, ct) == k
        # the binding draws its own randomness: the injected RNG is ignored
        assert crypto.kem_keygen(suite, SeededRandom(0)) != pair
    # every binding object, which may hold a secret key, is exited
    assert opened and exited == opened
