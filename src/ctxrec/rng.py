"""Portable deterministic random number generation.

Model training and evaluation sampling use a fixed, documented generator so
that a given seed produces the same stream on any platform or implementation:

* state seeding: splitmix64 expands a 64-bit seed into the 256-bit state,
* stream: xoshiro256** (Blackman & Vigna),
* floats: the top 53 bits of each output mapped to [0, 1),
* integers below n: ``next_u64() % n``,
* shuffling: Fisher-Yates from the last element down.

SOM training uses no stateful generator.  Its randomness is counter-based
(Salmon et al., SC 2011): output ``i`` (from 1) of the SplitMix64 stream of
seed ``s`` (Steele, Lea & Flood, OOPSLA 2014) is ``mix(s + i * GAMMA)``
mod 2**64, so any output of any number of seeds is one ``uint64`` numpy
expression, ``splitmix64_at(seeds, counters)``.  It is integer arithmetic
only, and wraps the same way on every CPU.

The synthetic data generator is the one place that uses numpy's Generator
instead; it never has to interoperate with anything outside this package.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment


def _splitmix64_stream(seed: int, count: int) -> list[int]:
    out = []
    state = seed & _MASK64
    for _ in range(count):
        state = (state + GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_at(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output ``counters`` of the SplitMix64 streams of ``seeds``: the
    ``uint64`` array ``mix(seed + counter * GAMMA)`` of the two arrays
    broadcast together, where output ``i`` of seed ``s`` is
    ``_splitmix64_stream(s, i)[i - 1]``.  Array arithmetic wraps mod 2**64
    without a warning (numpy warns on ``uint64`` scalars only)."""
    z = np.multiply(counters, GAMMA, dtype=np.uint64)
    z = z + seeds
    t = z >> 30
    z ^= t
    z *= 0xBF58476D1CE4E5B9
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= 0x94D049BB133111EB
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


class Xoshiro256:
    """xoshiro256** seeded via splitmix64."""

    def __init__(self, seed: int):
        state = _splitmix64_stream(seed, 4)
        if not any(state):  # all-zero state is invalid for xoshiro
            state[0] = 1
        self._s = state

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
