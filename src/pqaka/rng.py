"""Randomness sources injected into every protocol operation.

Two implementations: a deterministic SHA-256 counter generator for tests
and simulations, and an OS-entropy source for benchmarks.

Each draw is made under a label naming its use (``k``, ``kem_keygen``,
``kem_encaps``, ``r_sn``, ``guti``): ``rng.stream(label).bytes(n)``. A
seeded source serves each label from its own child stream, so a new or
resized draw moves only its own label's later values, never another
label's. OS entropy needs no such split and serves every label itself.
"""

from __future__ import annotations

import hashlib
import os

SEED_LEN = 32       # bytes an int seed is packed into
SEED_RANGE = f"0 to 2**{8 * SEED_LEN}-1"     # SeededRandom refuses other int seeds


class RandomSource:
    """Interface: anything with a bytes(n) method yielding n random bytes."""

    def bytes(self, n: int) -> bytes:
        raise NotImplementedError

    def stream(self, label: str) -> RandomSource:
        """The source of the draws made under label: this one by default."""
        return self


class SeededRandom(RandomSource):
    """Deterministic generator: block i = SHA-256(seed32 || counter).

    Identical seeds yield identical byte streams across runs and platforms.
    The stream under a label is a child SeededRandom seeded with
    SHA-256(seed32 || label), made once per label and kept.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            seed = seed.to_bytes(SEED_LEN, "big", signed=False)
        if len(seed) != SEED_LEN:
            seed = hashlib.sha256(seed).digest()
        self._seed = seed
        self._counter = 0
        self._buf = b""
        self._streams: dict[str, SeededRandom] = {}

    def bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def stream(self, label: str) -> SeededRandom:
        child = self._streams.get(label)
        if child is None:
            child = self._streams[label] = SeededRandom(
                hashlib.sha256(self._seed + label.encode()).digest())
        return child


class OsRandom(RandomSource):
    """OS entropy; used by benchmarks and any non-reproducible run."""

    def bytes(self, n: int) -> bytes:
        return os.urandom(n)
