"""Portable RNG: fixed streams, counter outputs, shuffle behavior, seed derivation."""

import numpy as np
import pytest

from ctxrec.rng import Xoshiro256, derive_seed, splitmix64_at, _splitmix64_stream

LANE_SEEDS = [0, 1, 7, 123456789, 1 << 63, (1 << 64) - 1]


class TestSplitmix64:
    def test_reference_stream(self):
        # published reference outputs for seed 0
        assert _splitmix64_stream(0, 4) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_each_lane_is_the_scalar_stream(self):
        counters = np.arange(1, 10_001, dtype=np.uint64)
        outputs = splitmix64_at(np.array(LANE_SEEDS, dtype=np.uint64)[:, None], counters)
        assert outputs.dtype == np.uint64
        assert outputs.shape == (len(LANE_SEEDS), 10_000)
        for i, seed in enumerate(LANE_SEEDS):
            assert outputs[i].tolist() == _splitmix64_stream(seed, 10_000)

    def test_one_lane(self):
        # any counters in any order, against one seed broadcast over them
        counters = np.array([[7, 1], [1000, 3]], dtype=np.uint64)
        outputs = splitmix64_at(np.array([5], dtype=np.uint64), counters)
        stream = _splitmix64_stream(5, 1000)
        assert outputs.tolist() == [[stream[6], stream[0]], [stream[999], stream[2]]]


class TestXoshiro256:
    def test_stream_is_stable(self):
        # frozen portability vector: state seeded by splitmix64(0)
        rng = Xoshiro256(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0x99EC5F36CB75F2B4,
            0xBF6E1F784956452A,
            0x1A5F849D4933E6E0,
        ]

    def test_same_seed_same_stream(self):
        a, b = Xoshiro256(123), Xoshiro256(123)
        assert [a.next_u64() for _ in range(10)] == [
            b.next_u64() for _ in range(10)
        ]

    def test_random_in_unit_interval(self):
        rng = Xoshiro256(7)
        values = [rng.random() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_uniform_bounds(self):
        rng = Xoshiro256(7)
        values = [rng.uniform(0.01, 1.0) for _ in range(2000)]
        assert all(0.01 <= v < 1.0 for v in values)

    def test_below_range_and_error(self):
        rng = Xoshiro256(7)
        assert all(0 <= rng.below(13) < 13 for _ in range(500))
        with pytest.raises(ValueError):
            rng.below(0)

    def test_shuffle_is_a_permutation(self):
        rng = Xoshiro256(9)
        items = list(range(40))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # 1/40! chance, effectively impossible

    def test_shuffle_deterministic(self):
        a, b = list(range(20)), list(range(20))
        Xoshiro256(3).shuffle(a)
        Xoshiro256(3).shuffle(b)
        assert a == b

    @pytest.mark.parametrize("length", [0, 1, 2, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 42, (1 << 64) - 1])
    def test_shuffle_is_fisher_yates_on_below(self, length, seed):
        rng, reference = Xoshiro256(seed), Xoshiro256(seed)
        items, expected = list(range(length)), list(range(length))
        rng.shuffle(items)
        for i in range(length - 1, 0, -1):
            j = reference.below(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        assert items == expected
        assert rng.next_u64() == reference.next_u64()  # n - 1 draws, no more


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "phase1", "u001") == derive_seed(5, "phase1", "u001")

    def test_sensitive_to_each_part(self):
        base = derive_seed(5, "phase1", "u001")
        assert derive_seed(5, "phase1", "u002") != base
        assert derive_seed(5, "phase2", "u001") != base
        assert derive_seed(6, "phase1", "u001") != base

    def test_part_boundaries_matter(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_result_is_64_bit(self):
        for parts in (("x",), ("x", 3), (1, 2, 3)):
            value = derive_seed((1 << 64) - 1, *parts)
            assert 0 <= value < (1 << 64)
