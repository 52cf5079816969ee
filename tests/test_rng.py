"""Portable RNG: fixed streams, shuffle behavior, seed derivation."""

import numpy as np
import pytest

from ctxrec.rng import Xoshiro256, XoshiroLanes, derive_seed, _splitmix64_stream

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
        assert rng.state == reference.state

    def test_from_state_continues_the_stream(self):
        rng = Xoshiro256(11)
        rng.next_u64()
        copy = Xoshiro256.from_state(rng.state)
        assert [copy.next_u64() for _ in range(50)] == [rng.next_u64() for _ in range(50)]

    @pytest.mark.parametrize("state", [(0, 0, 0, 0), (1, 2, 3)])
    def test_from_state_rejects_invalid_states(self, state):
        with pytest.raises(ValueError):
            Xoshiro256.from_state(state)


class TestXoshiroLanes:
    def test_each_lane_is_the_scalar_stream(self):
        lanes = XoshiroLanes(LANE_SEEDS)
        outputs = np.array([lanes.next_u64() for _ in range(10_000)])
        assert outputs.dtype == np.uint64
        for i, seed in enumerate(LANE_SEEDS):
            rng = Xoshiro256(seed)
            assert outputs[:, i].tolist() == [rng.next_u64() for _ in range(10_000)]

    def test_handed_off_lane_continues_its_sequence(self):
        lanes = XoshiroLanes(LANE_SEEDS)
        for _ in range(257):
            lanes.next_u64()
        for i, seed in enumerate(LANE_SEEDS):
            rng = Xoshiro256(seed)
            expected = [rng.next_u64() for _ in range(257 + 1000)][257:]
            handed = lanes.lane(i)
            assert [handed.next_u64() for _ in range(1000)] == expected
        # handing off copies the state: the lanes themselves run on unchanged
        after = lanes.next_u64()
        for i, seed in enumerate(LANE_SEEDS):
            rng = Xoshiro256(seed)
            assert int(after[i]) == [rng.next_u64() for _ in range(258)][-1]

    def test_uniform_rows_are_scalar_floats_bit_for_bit(self):
        lanes = XoshiroLanes(LANE_SEEDS)
        values = lanes.uniform(0.01, 1.0, 2000)
        assert values.shape == (len(LANE_SEEDS), 2000)
        assert values.flags.c_contiguous
        for i, seed in enumerate(LANE_SEEDS):
            rng = Xoshiro256(seed)
            expected = np.array([rng.uniform(0.01, 1.0) for _ in range(2000)])
            assert values[i].tobytes() == expected.tobytes()
            assert lanes.lane(i).state == rng.state

    def test_one_lane(self):
        lanes = XoshiroLanes([5])
        assert len(lanes) == 1
        rng = Xoshiro256(5)
        assert [int(lanes.next_u64()[0]) for _ in range(100)] == [
            rng.next_u64() for _ in range(100)
        ]


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
