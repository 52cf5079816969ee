"""Self-organizing map: similarities, BMU selection, training, persistence."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxrec.errors import EmptyInput, InvalidConfig, LengthMismatch
from ctxrec.rng import Xoshiro256, XoshiroLanes
from ctxrec import jsonio, som
from ctxrec.som import (
    SomConfig,
    SomNetwork,
    assign,
    cosine_similarity,
    initial_weights,
    mean_similarity,
    som_from_json_dict,
    som_to_json_dict,
    train,
    train_many,
)


def net_from_rows(rows, cfg=None) -> SomNetwork:
    weights = np.asarray(rows, dtype=np.float64)
    if cfg is None:
        cfg = SomConfig(neuron_count=weights.shape[0])
    return SomNetwork(weights, cfg)


class TestSomConfig:
    def test_defaults(self):
        cfg = SomConfig(neuron_count=8)
        assert cfg.epochs == 50
        assert cfg.alpha0 == 0.5
        assert cfg.radius0 is None
        assert cfg.effective_radius0 == 2  # neuron_count // 4

    def test_explicit_radius_wins(self):
        assert SomConfig(neuron_count=8, radius0=5).effective_radius0 == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"neuron_count": 0},
            {"neuron_count": 3, "epochs": 0},
            {"neuron_count": 3, "alpha0": 0.0},
            {"neuron_count": 3, "alpha0": 1.5},
            {"neuron_count": 3, "radius0": -1},
            {"neuron_count": 5, "radius0": float("nan")},
            {"neuron_count": 5, "radius0": float("inf")},
            {"neuron_count": 3, "seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            SomConfig(**kwargs)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        x = [1.0, 2.0, 3.0]
        assert cosine_similarity(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_computed_value(self):
        # (1,2,0).(2,1,0) = 4; norms sqrt(5) each -> 4/5
        got = cosine_similarity([1.0, 2.0, 0.0], [2.0, 1.0, 0.0])
        assert got == pytest.approx(4.0 / 5.0, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 1.0]) == 0.0
        assert cosine_similarity([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cosine_similarity([1.0], [1.0, 2.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0, 6)
            w = rng.uniform(0.01, 1.0, 6)
            base = cosine_similarity(x, w)
            for a in (0.5, 3.0, 1e-6, 1e6):
                assert cosine_similarity(a * x, w) == pytest.approx(
                    base, abs=1e-12
                )


class TestFindBmu:
    def test_matching_row_wins(self):
        net = net_from_rows([[0.2, 0.9], [3.0, 1.0], [0.9, 0.2]])
        assert assign(net, [np.array([3.0, 1.0])])[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        # sims (0, 1, 0, 1): neurons 1 and 3 tie exactly
        net = net_from_rows([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        assert assign(net, [np.array([1.0, 0.0])])[0] == 1

    def test_hand_computed_bmu(self):
        # sims: 0 vs 0.6
        net = net_from_rows([[0.0, 1.0], [0.6, 0.8]])
        assert assign(net, [np.array([1.0, 0.0])])[0] == 1

    def test_scaling_input_never_changes_bmu(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.01, 1.0, (5, 4))
        net = net_from_rows(weights)
        for _ in range(30):
            x = rng.uniform(0.0, 5.0, 4)
            b = assign(net, [x])[0]
            assert assign(net, [7.5 * x])[0] == b
            assert assign(net, [0.001 * x])[0] == b


class TestTrain:
    def test_single_step_reaches_midpoint(self):
        # 1 neuron, 1 input, alpha0=0.5, radius0=0, 1 epoch:
        # W1 = W0 + 0.5*(X - W0) = (W0 + X) / 2, with W0 drawn
        # uniform(0.01, 1.0) from the seeded stream.
        x = np.array([4.0, 0.0, 2.0])
        cfg = SomConfig(
            neuron_count=1, epochs=1, alpha0=0.5, radius0=0, seed=17
        )
        rng = Xoshiro256(17)
        w0 = np.array([rng.uniform(0.01, 1.0) for _ in range(3)])
        net = train([x], cfg)
        np.testing.assert_array_equal(net.weights, (w0 + x)[None, :] / 2.0)

    def test_vanishing_alpha_keeps_initialization(self):
        inputs = [np.array([5.0, 0.0]), np.array([0.0, 5.0])]
        cfg = SomConfig(neuron_count=2, epochs=10, alpha0=1e-13, seed=4)
        net = train(inputs, cfg)
        np.testing.assert_allclose(
            net.weights, initial_weights(cfg, 2), atol=1e-9
        )

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        inputs = [rng.uniform(0, 5, 8) for _ in range(12)]
        cfg = SomConfig(neuron_count=4, seed=99)
        a = train(inputs, cfg)
        b = train(inputs, cfg)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_different_seeds_differ(self):
        inputs = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])]
        a = train(inputs, SomConfig(neuron_count=2, seed=1))
        b = train(inputs, SomConfig(neuron_count=2, seed=2))
        assert a.weights.tobytes() != b.weights.tobytes()

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            train([], SomConfig(neuron_count=2))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            train(
                [np.array([1.0, 2.0]), np.array([1.0])],
                SomConfig(neuron_count=2),
            )

    def test_wrong_ndim_rejected(self):
        with pytest.raises(LengthMismatch):
            train(np.ones(3), SomConfig(neuron_count=2))
        with pytest.raises(LengthMismatch):
            train(np.ones((2, 3, 1)), SomConfig(neuron_count=2))

    def test_array_input_is_used_without_a_copy(self):
        matrix = np.random.default_rng(4).uniform(0.0, 5.0, (9, 6))
        matrix.setflags(write=False)
        assert som._as_input_matrix(matrix) is matrix
        cfg = SomConfig(neuron_count=3, seed=2)
        from_list = train([row.copy() for row in matrix], cfg)
        assert train(matrix, cfg).weights.tobytes() == from_list.weights.tobytes()

    def test_weights_stay_finite_and_nonnegative(self):
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(0, 5, 10) for _ in range(20)]
        net = train(inputs, SomConfig(neuron_count=6, seed=3))
        assert np.all(np.isfinite(net.weights))
        assert np.all(net.weights >= 0.0)

    def test_initial_weights_never_zero(self):
        w = initial_weights(SomConfig(neuron_count=9, seed=0), 13)
        assert np.all(w >= 0.01)
        assert np.all(w <= 1.0)


def reference_train(inputs, cfg: SomConfig) -> np.ndarray:
    """The per-network training algorithm, written out step by step on the
    scalar generator: the bytes ``train`` and ``train_many`` must reproduce."""
    matrix = np.asarray(inputs, dtype=np.float64)
    rng = Xoshiro256(cfg.seed)
    weights = np.empty((cfg.neuron_count, matrix.shape[1]))
    for i in range(cfg.neuron_count):
        for j in range(matrix.shape[1]):
            weights[i, j] = rng.uniform(0.01, 1.0)
    for epoch in range(cfg.epochs):
        decay = 1.0 - epoch / cfg.epochs
        alpha = cfg.alpha0 * decay
        radius = int(math.floor(cfg.effective_radius0 * decay + 0.5))
        order = list(range(len(matrix)))
        rng.shuffle(order)
        for i in order:
            x = matrix[i]
            denom = np.linalg.norm(weights, axis=1) * np.linalg.norm(x)
            sims = np.zeros(cfg.neuron_count)
            nonzero = denom > 0.0
            sims[nonzero] = (weights @ x)[nonzero] / denom[nonzero]
            bmu = int(np.argmax(sims))
            lo, hi = max(0, bmu - radius), min(cfg.neuron_count - 1, bmu + radius)
            weights[lo : hi + 1] += alpha * (x - weights[lo : hi + 1])
    return weights


def random_inputs(rng, count: int, p: int, density: float) -> list[np.ndarray]:
    """Rows with about ``density * p`` nonzero values in [1, 5); never all-zero.

    Dense rows make every summation order show in the last bits."""
    rows = (rng.random((count, p)) < density) * rng.uniform(1.0, 5.0, (count, p))
    rows[:, rng.integers(p)] = 3.0
    return list(rows)


def input_sets(p: int) -> list[list[np.ndarray]]:
    """Networks with 1 to 8 inputs (some counts twice), sparse and dense, one
    with an all-zero input row among others and one with only an all-zero
    row (zero norm, so similarity 0 to every neuron)."""
    rng = np.random.default_rng(p)
    counts = (1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 8)
    sets = [random_inputs(rng, n, p, 0.05 if k % 2 else 1.0) for k, n in enumerate(counts)]
    sets[4][2] = np.zeros(p)
    sets.append([np.zeros(p)])
    return sets


LANE_SEEDS = [0, (1 << 64) - 1, 5, 1 << 40, 99, 3, 12, 77, 1 << 63, 8, 2, 41]


class TestTrainMany:
    @pytest.mark.parametrize("p", [7, 384])
    @pytest.mark.parametrize("neurons,radius0", [(6, None), (6, 0.0), (9, 3.0), (1, 2.0)])
    def test_each_network_equals_training_it_alone(self, p, neurons, radius0):
        cfg = SomConfig(neuron_count=neurons, epochs=12, radius0=radius0)
        sets = input_sets(p)
        nets = train_many(sets, cfg, LANE_SEEDS)
        for inputs, seed, net in zip(sets, LANE_SEEDS, nets):
            alone = replace(cfg, seed=seed)
            expected = reference_train(inputs, alone)
            assert net.config == alone
            assert net.weights.tobytes() == expected.tobytes()
            assert net.weights.tobytes() == train(inputs, alone).weights.tobytes()

    @pytest.mark.parametrize("radius0", [0.0, 5.0])
    def test_one_lane_equals_reference(self, radius0):
        rng = np.random.default_rng(1)
        inputs = random_inputs(rng, 40, 60, 0.5)
        cfg = SomConfig(neuron_count=11, epochs=6, radius0=radius0, seed=2024)
        net = train(inputs, cfg)
        assert net.weights.tobytes() == reference_train(inputs, cfg).tobytes()
        assert not net.weights.flags.writeable

    def test_lane_order_and_blocks_do_not_matter(self):
        cfg = SomConfig(neuron_count=6, epochs=10)
        sets = input_sets(40)
        whole = [net.weights.tobytes() for net in train_many(sets, cfg, LANE_SEEDS)]
        order = list(np.random.default_rng(3).permutation(len(sets)))
        shuffled = train_many([sets[k] for k in order], cfg, [LANE_SEEDS[k] for k in order])
        assert [net.weights.tobytes() for net in shuffled] == [whole[k] for k in order]
        for cut in (1, 5, 11):
            split = train_many(sets[:cut], cfg, LANE_SEEDS[:cut]) + train_many(
                sets[cut:], cfg, LANE_SEEDS[cut:]
            )
            assert [net.weights.tobytes() for net in split] == whole

    def test_no_networks(self):
        assert train_many([], SomConfig(neuron_count=2), []) == []

    def test_seed_count_must_match(self):
        with pytest.raises(LengthMismatch):
            train_many([[np.ones(3)]], SomConfig(neuron_count=2), [1, 2])

    def test_networks_need_equal_input_lengths(self):
        with pytest.raises(LengthMismatch):
            train_many([[np.ones(3)], [np.ones(4)]], SomConfig(neuron_count=2), [1, 2])

    def test_empty_input_set_rejected(self):
        with pytest.raises(EmptyInput):
            train_many([[np.ones(3)], []], SomConfig(neuron_count=2), [1, 2])

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_unallocatable_weights_are_invalid_config(self, lanes):
        cfg = SomConfig(neuron_count=10**18)
        message = "cannot allocate SOM weights for 1000000000000000000 neurons of input length 3"
        with pytest.raises(InvalidConfig, match=message):
            train_many([np.ones((2, 3))] * lanes, cfg, list(range(lanes)))
        if lanes == 1:
            with pytest.raises(InvalidConfig, match=message):
                train(np.ones((2, 3)), cfg)

    def test_out_of_memory_is_invalid_config(self, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(som, "initial_weights", no_memory)
        monkeypatch.setattr(XoshiroLanes, "uniform", no_memory)
        cfg = SomConfig(neuron_count=7)
        for lanes in (1, 2):
            with pytest.raises(InvalidConfig, match="7 neurons of input length 3"):
                train_many([np.ones((2, 3))] * lanes, cfg, list(range(lanes)))


def rating_rows(draw, n: int, p: int) -> np.ndarray:
    """(n, p) ratings, sparse or dense, with some rows all zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 1.0))
    rows = np.where(rng.random((n, p)) < density, rng.integers(1, 6, (n, p)), 0).astype(float)
    rows[sorted(draw(st.sets(st.integers(0, n - 1))))] = 0.0
    return rows


@st.composite
def lean_step_cases(draw):
    """A config of up to 8 neurons and 5 epochs, and up to 12 rows of up to 30
    ratings.  At alpha0 = 1 an all-zero row moves a weight row to exactly
    zero, so later steps meet a zero weight norm."""
    neurons = draw(st.integers(1, 8))
    cfg = SomConfig(
        neuron_count=neurons,
        epochs=draw(st.integers(1, 5)),
        alpha0=draw(st.sampled_from((0.5, 0.9, 1.0))),
        radius0=float(draw(st.integers(0, neurons))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    p = draw(st.integers(1, 30))
    return cfg, p, rating_rows(draw, draw(st.integers(1, 12)), p)


class TestLeanStep:
    """Each step at which one network alone presents an input (all of a
    one-network ``train``, the tail of a ``train_many`` block) has the bytes
    of ``reference_train``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=lean_step_cases())
    def test_train_equals_reference(self, case):
        cfg, _, rows = case
        assert train(rows, cfg).weights.tobytes() == reference_train(rows, cfg).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=lean_step_cases(), data=st.data())
    def test_long_lane_tail_equals_reference(self, case, data):
        cfg, p, _ = case
        short = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        counts = short + [data.draw(st.integers(8, 12))]
        sets = [rating_rows(data.draw, n, p) for n in counts]
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(sets), max_size=len(sets)))
        for rows, seed, net in zip(sets, seeds, train_many(sets, cfg, seeds)):
            expected = reference_train(rows, replace(cfg, seed=seed))
            assert net.weights.tobytes() == expected.tobytes()


# Fixed before any comparison: at p <= 6 the rounding of a cosine is below
# 1e-15 in any summation order, so a BMU whose cosine leads the runner-up by
# more than this is the BMU however the products are computed.  Weights reached
# through the same BMUs differ by at most that kind of rounding.
SEPARATION = 1e-9


def py_bmu(weights, x) -> tuple[int, float]:
    """The best-matching unit in plain Python floats (cosine, 0 for a zero
    norm, ties to the lowest index) and its lead over the runner-up.  An
    all-zero input ties every neuron at exactly 0, so its lead is infinite."""
    x_norm = math.sqrt(sum(v * v for v in x))
    sims = []
    for row in weights:
        denom = math.sqrt(sum(w * w for w in row)) * x_norm
        sims.append(sum(w * v for w, v in zip(row, x)) / denom if denom > 0.0 else 0.0)
    best = sims.index(max(sims))
    if x_norm == 0.0:
        return best, math.inf
    return best, sims[best] - max((s for k, s in enumerate(sims) if k != best), default=-1.0)


def py_train(rows, cfg: SomConfig) -> tuple[list[list[float]], float]:
    """``train`` step by step in plain Python: xoshiro weights row by row,
    then per epoch a Fisher-Yates shuffle on the same stream, linear alpha
    decay, a half-up rounded radius and the clipped rectangular
    neighbourhood.  Returns the weights and the smallest BMU lead met."""
    rng = Xoshiro256(cfg.seed)
    weights = [[rng.uniform(0.01, 1.0) for _ in rows[0]] for _ in range(cfg.neuron_count)]
    lead = math.inf
    for epoch in range(cfg.epochs):
        alpha = cfg.alpha0 * (1.0 - epoch / cfg.epochs)
        radius = math.floor(cfg.effective_radius0 * (1.0 - epoch / cfg.epochs) + 0.5)
        order = list(range(len(rows)))
        for j in range(len(order) - 1, 0, -1):
            k = rng.below(j + 1)
            order[j], order[k] = order[k], order[j]
        for i in order:
            bmu, gap = py_bmu(weights, rows[i])
            lead = min(lead, gap)
            for k in range(max(0, bmu - radius), min(cfg.neuron_count - 1, bmu + radius) + 1):
                weights[k] = [w + alpha * (v - w) for w, v in zip(weights[k], rows[i])]
    return weights, lead


def small_cases(count: int, seed: int, width=None) -> list[tuple[list[list[float]], SomConfig]]:
    """Up to 8 rows of ``width`` (default up to 6) ratings, some sparse and
    now and then an all-zero row, and up to 7 neurons, with random epochs,
    alpha0 and radius."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n, p = int(rng.integers(1, 9)), width or int(rng.integers(1, 7))
        rows = np.where(rng.random((n, p)) < rng.uniform(0.3, 1.0), rng.integers(1, 6, (n, p)), 0)
        if rng.random() < 0.2:
            rows[rng.integers(n)] = 0
        cfg = SomConfig(
            neuron_count=int(rng.integers(1, 8)),
            epochs=int(rng.integers(1, 7)),
            alpha0=float(rng.uniform(0.05, 1.0)),
            radius0=None if rng.random() < 0.5 else float(rng.uniform(0.0, 4.0)),
            seed=int(rng.integers(0, 2**63)),
        )
        cases.append((rows.astype(float).tolist(), cfg))
    return cases


def assert_matches_reference(net: SomNetwork, rows, expected) -> None:
    assert np.allclose(net.weights, expected, rtol=0.0, atol=SEPARATION)
    labels = [py_bmu(expected, x) for x in rows]
    if min(gap for _, gap in labels) > SEPARATION:
        assert assign(net, np.asarray(rows)) == [bmu for bmu, _ in labels]


class TestPlainPythonReference:
    """``train``, ``train_many`` and ``assign`` against a plain-Python trainer
    that shares no arithmetic with them, on inputs whose every BMU is clear
    by more than ``SEPARATION``."""

    def test_train_and_assign(self):
        checked = 0
        for rows, cfg in small_cases(60, seed=11):
            expected, lead = py_train(rows, cfg)
            if lead > SEPARATION:
                assert_matches_reference(train(np.asarray(rows), cfg), rows, expected)
                checked += 1
        assert checked >= 40

    def test_each_lane_of_one_block(self):
        cases = small_cases(12, seed=12, width=4)
        cfg = SomConfig(neuron_count=5, epochs=4, alpha0=0.7)
        seeds = [case_cfg.seed for _, case_cfg in cases]
        nets = train_many([np.asarray(rows) for rows, _ in cases], cfg, seeds)
        assert len({len(rows) for rows, _ in cases}) > 2
        checked = 0
        for (rows, _), seed, net in zip(cases, seeds, nets):
            expected, lead = py_train(rows, replace(cfg, seed=seed))
            if lead > SEPARATION:
                assert_matches_reference(net, rows, expected)
                checked += 1
        assert checked >= 9


def one_step(cfg: SomConfig, bmu: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(initial weights, input, trained weights) of one training step whose
    input is twice the initial weight row ``bmu``, so that row is its BMU."""
    start = initial_weights(cfg, 6)
    x = 2.0 * start[bmu]
    assert assign(SomNetwork(start, cfg), [x]) == [bmu]
    return start, x, train([x], cfg).weights


class TestUpdateNeighborhood:
    """The update rule through ``train``: one epoch keeps alpha and the
    radius at ``alpha0`` and ``radius0`` for every step."""

    def test_contraction_per_step(self):
        # constant alpha, single neuron: each presentation scales the
        # distance to the input by exactly (1 - alpha)
        cfg = SomConfig(neuron_count=1, epochs=1, alpha0=0.3, radius0=0, seed=4)
        x = np.array([5.0, 1.0, 2.0])
        dist = float(np.linalg.norm(initial_weights(cfg, len(x))[0] - x))
        for steps in range(1, 26):
            weights = train(np.tile(x, (steps, 1)), cfg).weights
            new_dist = float(np.linalg.norm(weights[0] - x))
            assert new_dist == pytest.approx((1 - 0.3) * dist, abs=1e-12)
            dist = new_dist

    def test_radius_limits_updated_rows(self):
        cfg = SomConfig(neuron_count=5, epochs=1, alpha0=0.5, radius0=1, seed=4)
        start, x, weights = one_step(cfg, 2)
        touched = [bool(np.any(weights[i] != start[i])) for i in range(5)]
        assert touched == [False, True, True, True, False]
        assert np.array_equal(weights[1:4], start[1:4] + 0.5 * (x - start[1:4]))

    def test_radius_clips_at_line_ends(self):
        cfg = SomConfig(neuron_count=3, epochs=1, alpha0=0.5, radius0=5, seed=4)
        for bmu in (0, 2):
            start, x, weights = one_step(cfg, bmu)
            assert np.array_equal(weights, start + 0.5 * (x - start))


def reference_similarities(weights, x) -> np.ndarray:
    """One input's similarities to every weight row, one input at a time."""
    denom = np.linalg.norm(weights, axis=1) * np.linalg.norm(x)
    return np.divide(weights @ x, denom, out=np.zeros_like(denom), where=denom > 0.0)


@st.composite
def assign_cases(draw):
    """(N, p) weights and (n, p) inputs of random shape; some rows of either
    are all zero, and the last weight row may tie the first exactly.  Inputs
    hold ratings or, as virtual users do, non-integer means of ratings."""
    n, neurons, p = draw(st.integers(1, 30)), draw(st.integers(1, 35)), draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.0, 1.0, (neurons, p))
    density = draw(st.floats(0.01, 1.0))
    values = rng.uniform(1.0, 5.0, (n, p)) if draw(st.booleans()) else rng.integers(1, 6, (n, p))
    inputs = np.where(rng.random((n, p)) < density, values, 0.0)
    weights[sorted(draw(st.sets(st.integers(0, neurons - 1))))] = 0.0
    inputs[sorted(draw(st.sets(st.integers(0, n - 1))))] = 0.0
    if draw(st.booleans()):
        weights[-1] = weights[0]
    return weights, inputs


@st.composite
def divide_cases(draw):
    """(dots, denom) of one shape, 1-D or 2-D and possibly empty; the
    denominators are all positive or hold some zeros or NaNs."""
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dots = rng.uniform(0.0, 5.0, shape)
    denom = rng.uniform(0.01, 5.0, shape)
    hole = draw(st.sampled_from([None, 0.0, -0.0, float("nan")]))
    if hole is not None and denom.size:
        flat = denom.reshape(-1)
        flat[sorted(draw(st.sets(st.integers(0, flat.size - 1), min_size=1)))] = hole
    return dots, denom


class TestDivide:
    @settings(max_examples=300, deadline=None)
    @given(case=divide_cases())
    def test_bits_of_the_where_divide(self, case):
        dots, denom = case
        expected = np.divide(dots, denom, out=np.zeros_like(denom), where=denom > 0.0)
        got = som._divide(dots.copy(), denom)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestAssign:
    @settings(max_examples=200, deadline=None)
    @given(case=assign_cases())
    def test_one_call_has_the_bits_of_the_per_row_loop(self, case):
        weights, inputs = case
        stacked = weights[None]
        norms = som._row_norms(inputs)
        assert norms.tolist() == [np.linalg.norm(x) for x in inputs]
        sims = som._cosines(stacked, som._weight_norms(stacked), inputs, norms)
        expected = [reference_similarities(weights, x) for x in inputs]
        assert np.array_equal(sims, expected)
        labels = [int(np.argmax(row)) for row in expected]
        net = net_from_rows(weights)
        assert assign(net, inputs) == labels
        assert [assign(net, [x])[0] for x in inputs] == labels
        # the scorer's peer similarities: one (1, p) @ (p, 1) product each
        own = inputs[0]
        peers = som._cosines(own[None, None], norms[:1], inputs, norms)[:, 0]
        assert peers.tolist() == [cosine_similarity(own, y) for y in inputs]

    def test_duplicate_inputs_share_labels(self):
        x = np.array([2.0, 3.0, 1.0])
        y = np.array([0.5, 0.1, 4.0])
        net = train([x, y], SomConfig(neuron_count=3, seed=8))
        labels = assign(net, [x, y, x.copy(), y.copy()])
        assert labels[0] == labels[2]
        assert labels[1] == labels[3]

    def test_single_neuron_maps_everything_to_zero(self):
        net = train(
            [np.array([1.0, 2.0]), np.array([2.0, 1.0])],
            SomConfig(neuron_count=1, seed=0),
        )
        assert assign(net, [np.array([9.0, 1.0]), np.array([1.0, 9.0])]) == [
            0,
            0,
        ]

    def test_two_separated_groups_get_two_labels(self):
        group_a = [
            np.array([5.0, 4.0, 0.0, 0.0]),
            np.array([4.0, 5.0, 0.0, 0.0]),
            np.array([5.0, 5.0, 0.0, 0.0]),
        ]
        group_b = [
            np.array([0.0, 0.0, 5.0, 4.0]),
            np.array([0.0, 0.0, 4.0, 5.0]),
            np.array([0.0, 0.0, 5.0, 5.0]),
        ]
        net = train(group_a + group_b, SomConfig(neuron_count=2, seed=0))
        labels = assign(net, group_a + group_b)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_matches_the_per_input_similarity_argmax(self):
        # reference: one input at a time, the weight-row norms recomputed
        # for each input, an all-zero row or input scoring 0 everywhere
        rng = np.random.default_rng(12)
        weights = rng.uniform(0.0, 1.0, (7, 30))
        weights[3] = 0.0
        inputs = np.where(rng.random((40, 30)) < 0.2, rng.integers(1, 6, (40, 30)), 0.0)
        inputs[5] = 0.0
        net = net_from_rows(weights)
        expected = []
        for x in inputs:
            denom = np.linalg.norm(weights, axis=1) * np.linalg.norm(x)
            sims = np.divide(weights @ x, denom, out=np.zeros_like(denom), where=denom > 0.0)
            expected.append(int(np.argmax(sims)))
        assert assign(net, inputs) == expected
        assert assign(net, list(inputs)) == expected
        assert [assign(net, [x])[0] for x in inputs] == expected

    def test_bad_input_shapes_rejected(self):
        net = net_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(EmptyInput):
            assign(net, np.zeros((0, 2)))
        with pytest.raises(LengthMismatch):
            assign(net, [np.ones(2), np.ones(3)])
        with pytest.raises(LengthMismatch):
            assign(net, np.ones((2, 3)))
        with pytest.raises(LengthMismatch):
            assign(net, np.ones(2))
        with pytest.raises(LengthMismatch):
            assign(net, [np.ones(3)])


class TestMeanSimilarity:
    def test_inputs_equal_to_rows(self):
        rows = [[0.5, 0.2, 0.1], [0.1, 0.9, 0.3]]
        net = net_from_rows(rows)
        inputs = [np.array(r) for r in rows]
        assert mean_similarity(net, inputs) == pytest.approx(1.0, abs=1e-12)

    def test_single_neuron_single_input(self):
        net = net_from_rows([[0.4, 0.8]], SomConfig(neuron_count=1))
        assert mean_similarity(net, [np.array([0.4, 0.8])]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_empty_inputs_rejected(self):
        net = net_from_rows([[1.0, 0.0]])
        with pytest.raises(EmptyInput):
            mean_similarity(net, [])

    def test_best_of_sweep_never_decreases_with_more_neurons(self):
        distinct = [
            np.array([5.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 5.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 5.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 5.0]),
        ]
        best = []
        for k in range(1, len(distinct) + 1):
            scores = [
                mean_similarity(
                    train(distinct, SomConfig(neuron_count=k, seed=s)),
                    distinct,
                )
                for s in range(8)
            ]
            best.append(max(scores))
        for smaller, larger in zip(best, best[1:]):
            assert larger >= smaller - 1e-9


def save_som(net, path):
    """Write a SOM the way a model bundle writes user_som.json."""
    jsonio.write_json(path, som_to_json_dict(net))


def load_som(path):
    return som_from_json_dict(jsonio.read_json(path))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inputs = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])]
        net = train(inputs, SomConfig(neuron_count=3, seed=21))
        path = tmp_path / "som.json"
        save_som(net, path)
        loaded = load_som(path)
        assert loaded.config == net.config
        assert loaded.weights.tobytes() == net.weights.tobytes()

    def test_file_shape_and_stability(self, tmp_path):
        net = train([np.array([1.0, 3.0])], SomConfig(neuron_count=2, seed=5))
        data = som_to_json_dict(net)
        assert set(data) == {"config", "weights"}
        assert len(data["weights"]) == 2
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_som(net, a)
        save_som(load_som(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        # 1/3 has no short decimal form; persistence must not lose bits
        weights = np.array([[1.0 / 3.0, math.pi / 4.0]])
        net = SomNetwork(weights, SomConfig(neuron_count=1))
        path = tmp_path / "som.json"
        save_som(net, path)
        assert load_som(path).weights.tobytes() == weights.tobytes()
