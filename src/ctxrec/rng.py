"""Portable deterministic randomness: one SplitMix64 counter rule.

Every seeded draw of model training and evaluation is counter-based (Salmon
et al., SC 2011): output ``i`` (from 1) of the SplitMix64 stream of seed
``s`` (Steele, Lea & Flood, OOPSLA 2014) is ``mix(s + i * GAMMA)`` mod
2**64, so any output of any number of seeds is one ``uint64`` numpy
expression, ``splitmix64_at(seeds, counters)``.  It is integer arithmetic
only, and wraps the same way on every CPU.  The outputs are read two ways:

* floats: the SOM's initial weights map an output's top 53 bits to
  uniform(0.01, 1.0);
* orders: ``permutation(seed, n)`` sorts positions 0..n-1 by outputs 1..n,
  ties to the lower position.  The SOM's epoch orders, the train/test split
  and the evaluation samples are such orders.

``derive_seed`` gives each role, user or neuron its own seed.  The synthetic
data generator is the one place that uses numpy's Generator instead; it
never has to interoperate with anything outside this package.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment


def splitmix64_at(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output ``counters`` of the SplitMix64 streams of ``seeds``: the
    ``uint64`` array ``mix(seed + counter * GAMMA)`` of the two arrays
    broadcast together.  Array arithmetic wraps mod 2**64 without a warning
    (numpy warns on ``uint64`` scalars only)."""
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


def permutation(seed: int, n: int) -> np.ndarray:
    """Positions 0..n-1 sorted by SplitMix64 outputs 1..n of the 64-bit
    ``seed`` (position r by output r + 1), ties to the lower position."""
    keys = splitmix64_at(np.uint64(seed), np.arange(1, n + 1, dtype=np.uint64))
    return keys.argsort(kind="stable")


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
