"""Portable deterministic random number generation.

Model training and evaluation sampling use a fixed, documented generator so
that a given seed produces the same stream on any platform or implementation:

* state seeding: splitmix64 expands a 64-bit seed into the 256-bit state,
* stream: xoshiro256** (Blackman & Vigna),
* floats: the top 53 bits of each output mapped to [0, 1),
* integers below n: ``next_u64() % n``,
* shuffling: Fisher-Yates from the last element down.

``XoshiroLanes`` runs the same generator on many seeds at once: the four
state words are numpy ``uint64`` arrays with one lane per seed, and lane
``i`` yields exactly the stream of ``Xoshiro256(seeds[i])``, floats included
(the same ``>> 11`` and ``2**-53`` mapping).  ``lane(i)`` hands a lane's
current state to a scalar ``Xoshiro256``, which continues that lane's
sequence; training draws many networks' initial weights on the lanes this
way and then shuffles each network's inputs on its own scalar stream.

The synthetic data generator is the one place that uses numpy's Generator
instead; it never has to interoperate with anything outside this package.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64_stream(seed: int, count: int) -> list[int]:
    out = []
    state = seed & _MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256:
    """xoshiro256** seeded via splitmix64."""

    def __init__(self, seed: int):
        state = _splitmix64_stream(seed, 4)
        if not any(state):  # all-zero state is invalid for xoshiro
            state[0] = 1
        self._s = state

    @classmethod
    def from_state(cls, state: Sequence[int]) -> "Xoshiro256":
        """A generator that continues from the four 64-bit words ``state``."""
        if len(state) != 4 or not any(state):
            raise ValueError("xoshiro256 state is four words, not all zero")
        rng = cls.__new__(cls)
        rng._s = [int(word) & _MASK64 for word in state]
        return rng

    @property
    def state(self) -> tuple[int, int, int, int]:
        return tuple(self._s)

    def next_u64(self) -> int:
        (result,) = self._outputs(1)
        return result

    def _outputs(self, count: int) -> Iterator[int]:
        """The next ``count`` outputs from one loop on local state words:
        the state is loaded once and stored back once, when the generator
        ends or is closed."""
        s0, s1, s2, s3 = self._s
        try:
            for _ in range(count):
                r = (s1 * 5) & _MASK64
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
                yield ((((r << 7) | (r >> 57)) & _MASK64) * 9) & _MASK64
        finally:
            self._s = [s0, s1, s2, s3]

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def uniforms(self, low: float, high: float, count: int) -> list[float]:
        """``count`` draws of ``uniform(low, high)``."""
        span = high - low
        return [low + span * ((u >> 11) * (2.0 ** -53)) for u in self._outputs(count)]

    def below(self, n: int) -> int:
        """Integer in [0, n). Modulo mapping, documented for portability."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: ``j = below(i + 1)`` from the last
        index down."""
        n = len(items)
        for u, i in zip(self._outputs(n - 1), range(n - 1, 0, -1)):
            j = u % (i + 1)
            items[i], items[j] = items[j], items[i]


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << k) | (x >> (64 - k))


class XoshiroLanes:
    """xoshiro256** on numpy ``uint64`` lanes, one independent stream per seed."""

    def __init__(self, seeds: Sequence[int]):
        words = np.array([Xoshiro256(seed).state for seed in seeds], dtype=np.uint64)
        self._s = [words[:, k].copy() for k in range(4)]

    def __len__(self) -> int:
        return len(self._s[0])

    def next_u64(self) -> np.ndarray:
        """One output per lane (uint64 arithmetic wraps modulo 2**64)."""
        s0, s1, s2, s3 = self._s
        result = _rotl_lanes(s1 * 5, 7) * 9
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s[3] = _rotl_lanes(s3, 45)
        return result

    def uniform(self, low: float, high: float, count: int) -> np.ndarray:
        """``(lanes, count)`` floats; row i is ``count`` draws of lane i's
        ``Xoshiro256.uniform(low, high)``."""
        raw = np.empty((len(self), count), dtype=np.uint64)
        for k in range(count):
            raw[:, k] = self.next_u64()
        raw >>= 11
        # in place, in the scalar order: (u >> 11) * 2**-53 * (high - low) + low
        out = raw.astype(np.float64)
        out *= 2.0 ** -53
        out *= high - low
        out += low
        return out

    def lane(self, i: int) -> Xoshiro256:
        """A scalar generator continuing lane ``i`` from its current state."""
        return Xoshiro256.from_state([int(words[i]) for words in self._s])


def derive_seed(master_seed: int, *parts) -> int:
    """Derive an independent 64-bit seed from a master seed and labels.

    The labels are hashed with blake2b (stable across processes, unlike
    builtin ``hash``) and XORed into the master seed, so per-user or
    per-role streams never depend on iteration order.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    label = int.from_bytes(digest.digest(), "little")
    return (master_seed ^ label) & _MASK64
