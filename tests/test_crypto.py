"""Cryptographic core: frozen independent-oracle values and properties."""

import dataclasses
import gc
import hashlib
import hmac as _hmac
import types

import pytest
from cryptography.exceptions import InvalidTag
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import CONSTANTS
from pqaka import crypto, sim, wire
from pqaka.crypto import TEST_KEM
from pqaka.rng import SeededRandom

KEY32 = st.binary(min_size=32, max_size=32)


# --- test KEM against frozen oracle values ----------------------------------

def test_test_kem_keygen_seed0_frozen():
    pair = crypto.kem_keygen(TEST_KEM, SeededRandom(0))
    assert pair.sk == CONSTANTS["kem_seed0_sk"]
    assert pair.pk == CONSTANTS["kem_seed0_pk"]


def test_test_kem_keygen_deterministic():
    assert crypto.kem_keygen(TEST_KEM, SeededRandom(0)) == \
        crypto.kem_keygen(TEST_KEM, SeededRandom(0))


def test_test_kem_encaps_seed1_frozen():
    pk = CONSTANTS["kem_seed0_pk"]
    ct, k = crypto.kem_encaps(TEST_KEM, pk, SeededRandom(1))
    assert ct == CONSTANTS["kem_seed1_ct"]
    assert k == CONSTANTS["kem_seed1_k"]


def test_test_kem_full_determinism():
    runs = []
    for _ in range(2):
        pair = crypto.kem_keygen(TEST_KEM, SeededRandom(7))
        ct, k = crypto.kem_encaps(TEST_KEM, pair.pk, SeededRandom(8))
        runs.append((pair.pk, pair.sk, ct, k))
    assert runs[0] == runs[1]


def test_test_kem_correctness_many_seeds():
    for seed in range(1000):
        pair = crypto.kem_keygen(TEST_KEM, SeededRandom(seed))
        ct, k = crypto.kem_encaps(TEST_KEM, pair.pk, SeededRandom(seed + 10_000))
        assert crypto.kem_decaps(TEST_KEM, pair, ct) == k


def test_test_kem_decaps_flipped_ct_changes_key():
    pair = crypto.kem_keygen(TEST_KEM, SeededRandom(0))
    ct, k = crypto.kem_encaps(TEST_KEM, pair.pk, SeededRandom(1))
    flipped = bytes([ct[0] ^ 1]) + ct[1:]
    assert crypto.kem_decaps(TEST_KEM, pair, flipped) != k


def test_kem_length_validation():
    pair = crypto.kem_keygen(TEST_KEM, SeededRandom(0))
    with pytest.raises(crypto.CryptoError):
        crypto.kem_decaps(TEST_KEM, pair, b"\x00" * 31)
    with pytest.raises(crypto.CryptoError):
        crypto.kem_encaps(TEST_KEM, b"\x00" * 33, SeededRandom(0))
    with pytest.raises(crypto.CryptoError):
        crypto.kem_decaps(TEST_KEM, crypto.KemKeyPair(pk=pair.pk, sk=b"\x00" * 5),
                          b"\x00" * 32)


@pytest.mark.parametrize("field", ["ct_len", "key_len"])
def test_encaps_output_off_its_metadata_raises(field):
    """A backend whose ct or shared secret differs from its suite's sizes."""
    suite = dataclasses.replace(TEST_KEM, **{field: 31})
    pair = crypto.kem_keygen(suite, SeededRandom(0))
    with pytest.raises(crypto.CryptoError, match="encaps output lengths"):
        crypto.kem_encaps(suite, pair.pk, SeededRandom(1))


@pytest.mark.parametrize("field", ["sk_len", "pk_len"])
def test_keygen_output_off_its_metadata_raises(field):
    suite = dataclasses.replace(TEST_KEM, **{field: 31})
    with pytest.raises(crypto.CryptoError, match="keypair lengths"):
        crypto.kem_keygen(suite, SeededRandom(0))


def test_seed_not_32_bytes_is_hashed_to_one():
    assert (SeededRandom(b"short").bytes(64)
            == SeededRandom(hashlib.sha256(b"short").digest()).bytes(64))


def test_metadata_only_suite_unavailable():
    suite = crypto.get_suite("kyber")
    assert not suite.available
    with pytest.raises(crypto.SuiteUnavailableError):
        crypto.kem_keygen(suite, SeededRandom(0))
    with pytest.raises(crypto.SuiteUnavailableError):
        crypto.kem_encaps(suite, bytes(suite.pk_len), SeededRandom(0))
    with pytest.raises(crypto.SuiteUnavailableError):
        crypto.kem_decaps(suite, crypto.KemKeyPair(pk=bytes(suite.pk_len),
                                                   sk=bytes(suite.sk_len)),
                          bytes(suite.ct_len))


def test_registry_lists_test_suite():
    assert "test" in crypto.registered_suites()
    assert "test" in crypto.available_suites()
    with pytest.raises(KeyError):
        crypto.get_suite("nosuch")


# --- f-family ----------------------------------------------------------------

def test_f5_zero_frozen():
    # f5 (AK) keeps the leftmost RAND_LEN bytes of the frozen HMAC output
    assert crypto.prf_f("5", crypto.prf_key(bytes(32)), [bytes(32)]) == \
        CONSTANTS["f5_zero"][:crypto.RAND_LEN]


def test_f_family_domain_separation():
    indices = ["1", "2", "3", "4", "5"]
    rng = SeededRandom(99)
    for _ in range(100):
        key, data = crypto.prf_key(rng.bytes(32)), rng.bytes(32)
        outputs = [crypto.prf_f(i, key, [data]) for i in indices]
        assert len(set(outputs)) == len(indices)


def test_f_deterministic():
    key, data = crypto.prf_key(bytes(32)), b"x" * 32
    assert crypto.prf_f("5", key, [data]) == crypto.prf_f("5", key, [data])


def test_f_rejects_bad_inputs():
    key = crypto.prf_key(bytes(32))
    with pytest.raises(crypto.CryptoError):
        crypto.prf_f("9", key, [b"x"])
    with pytest.raises(crypto.CryptoError):
        crypto.prf_f("1", key, [])


def test_f_output_is_32_bytes():
    assert len(crypto.prf_f("2", crypto.prf_key(bytes(32)), [b"payload"])) == 32


@settings(max_examples=200)
@given(KEY32, st.sampled_from("12345"),
       st.lists(st.binary(max_size=80), min_size=1, max_size=3))
def test_f_under_a_loaded_key_is_hmac_sha256(key, index, inputs):
    # f1, the AUTN MAC, and f5, AK, keep the leftmost 16 bytes of the HMAC
    expected = _hmac.new(key, bytes([int(index)]) + crypto._lp(inputs),
                         hashlib.sha256).digest()[:16 if index in "15" else 32]
    loaded = crypto.prf_key(key)
    assert crypto.prf_f(index, loaded, inputs) == expected
    assert crypto.prf_f(index, loaded, inputs) == expected     # reusable


@pytest.mark.parametrize("length", [0, 31, 33, 64])
def test_prf_key_rejects_wrong_key_length(length):
    with pytest.raises(crypto.CryptoError):
        crypto.prf_key(bytes(length))


def _hash_objects_reachable_from(roots):
    """Every hashlib hash object reachable from roots, not following
    classes, modules or functions (the KEM suite's callables)."""
    hash_type = type(hashlib.sha256())
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, hash_type):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_no_loaded_key_outlives_its_session():
    """K loaded for the f-family lives in locals only: after a completed and
    an aborted session no hash object is left in role state or outcomes."""
    world = sim.make_world("test", seed=0)
    rng = SeededRandom(1)
    done = sim.run_session(world, "supi", rng=rng)

    def bad_mac(data, ctx):
        ch = wire.decode(data)
        return wire.encode(dataclasses.replace(ch, mac=bytes(crypto.CHECK_LEN)))

    aborted = sim.run_session(world, "guti", sim.ScriptedAttacker({"challenge": bad_mac}), rng)
    assert done.completed and aborted.abort_step == "ue-challenge"
    roots = [world.ue, world.sn, world.hn, done, aborted]
    assert _hash_objects_reachable_from(roots) == []
    # the walk would find a loaded key kept in a slotted role state or outcome
    loaded = crypto.prf_key(world.ue.k)
    for kept in (dataclasses.replace(world.ue, guti=loaded),
                 dataclasses.replace(done, key_source={"k": [loaded]})):
        assert len(_hash_objects_reachable_from([kept])) == 2


# --- kdf / hash_h ------------------------------------------------------------

def test_kdf_empty_field_frozen():
    assert crypto.kdf([b""]) == CONSTANTS["kdf_empty"]
    assert crypto.kdf([b""]) == hashlib.sha256(b"\x00\x00\x00\x00").digest()


def test_hash_h_zero_zero_frozen():
    assert crypto.hash_h([bytes(32), bytes(32)]) == CONSTANTS["hash_h_zero_zero"]


def test_kdf_deterministic_and_rejects_empty_list():
    assert crypto.kdf([b"a", b"b"]) == crypto.kdf([b"a", b"b"])
    with pytest.raises(crypto.CryptoError):
        crypto.kdf([])
    with pytest.raises(crypto.CryptoError):
        crypto.hash_h([])


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_length_prefix_resists_field_splicing(a, b):
    # moving a byte across the field boundary must change the digest
    if a or b:
        assert crypto.hash_h([a, b]) != crypto.hash_h([a + b, b""]) or a == a + b


def test_length_prefix_frozen():
    assert crypto._lp([b"ab", b"xyz"]) == \
        b"\x00\x00\x00\x02ab\x00\x00\x00\x03xyz"


def test_field_boundary_matters():
    assert crypto.hash_h([b"ab", b"c"]) != crypto.hash_h([b"a", b"bc"])


# --- hmac --------------------------------------------------------------------

def test_hmac_honest_pair_verifies():
    key, data = SeededRandom(3).bytes(32), b"payload"
    tag = crypto.hmac_tag(key, data)
    assert _hmac.compare_digest(crypto.hmac_tag(key, data), tag)
    assert tag == _hmac.new(key, data, hashlib.sha256).digest()[:16]


def test_hmac_flipped_data_changes_tag():
    key = SeededRandom(4).bytes(32)
    data = SeededRandom(5).bytes(64)
    tag = crypto.hmac_tag(key, data)
    for bit in (0, 100, 511):
        mutated = bytearray(data)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert crypto.hmac_tag(key, bytes(mutated)) != tag
        assert not _hmac.compare_digest(crypto.hmac_tag(key, bytes(mutated)), tag)


# --- AEAD --------------------------------------------------------------------

def test_aead_roundtrip():
    key = SeededRandom(6).bytes(32)
    pt = b"the plaintext"
    ct = crypto.aead_seal(key, pt)
    assert len(ct) == len(pt) + crypto.AEAD_TAG_OVERHEAD
    assert crypto.aead_open(key, ct) == pt


def test_aead_every_bit_flip_rejected():
    key = SeededRandom(7).bytes(32)
    ct = crypto.aead_seal(key, SeededRandom(8).bytes(64 - crypto.AEAD_TAG_OVERHEAD))
    assert len(ct) == 64
    for bit in range(len(ct) * 8):
        mutated = bytearray(ct)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(crypto.AeadFailure):
            crypto.aead_open(key, bytes(mutated))


def test_aead_wrong_key_rejected():
    key = SeededRandom(9).bytes(32)
    ct = crypto.aead_seal(key, b"secret")
    with pytest.raises(crypto.AeadFailure) as failure:
        crypto.aead_open(SeededRandom(10).bytes(32), ct)
    assert isinstance(failure.value, crypto.CryptoError)   # one except catches every failure
    assert isinstance(failure.value.__cause__, InvalidTag)


@settings(max_examples=50)
@given(KEY32, st.binary(max_size=256))
def test_aead_roundtrip_property(key, pt):
    assert crypto.aead_open(key, crypto.aead_seal(key, pt)) == pt


# --- helpers -----------------------------------------------------------------

def test_as_shared_key():
    k32 = bytes(32)
    assert crypto.as_shared_key(k32) is k32
    k64 = bytes(64)
    normalized = crypto.as_shared_key(k64)
    assert len(normalized) == 32
    assert normalized == crypto.kdf([k64])


@given(KEY32, KEY32)
def test_xor_involution(a, b):
    assert crypto.xor_bytes(crypto.xor_bytes(a, b), b) == a


def test_xor_length_mismatch():
    with pytest.raises(crypto.CryptoError):
        crypto.xor_bytes(b"ab", b"a")


EQUAL_LENGTH_PAIRS = st.integers(0, 64).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                        st.binary(min_size=n, max_size=n)))


@given(EQUAL_LENGTH_PAIRS)
@example((b"", b""))
@example((b"\x00\x00\x01", b"\x00\x00\x02"))   # leading zero bytes kept
@example((b"\x00\x07", b"\x00\x07"))             # all-zero result
@example((b"\xff" * 64, b"\xff" * 64))
def test_xor_matches_per_byte_reference(pair):
    a, b = pair
    assert crypto.xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
    assert crypto.xor_bytes(a, a) == bytes(len(a))
