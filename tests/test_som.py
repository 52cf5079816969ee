"""Self-organizing map: similarities, BMU selection, training, persistence."""

import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxrec.core import ContextDimension, ContextSchema, RatingCube
from ctxrec.datagen import GenConfig, generate
from ctxrec.errors import EmptyInput, InvalidConfig, LengthMismatch
from ctxrec.rng import derive_seed
from ctxrec import jsonio, som
from ctxrec.som import (
    SomConfig,
    SomNetwork,
    assign,
    mean_similarity,
    som_from_json_dict,
    som_to_json_dict,
    train,
)

from conftest import py_permutation, py_weights, usage_matrix

TINY = np.finfo(np.float64).tiny  # 2**-1022, the smallest normal float64


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


def kernel_cosine(x, w) -> float:
    """Cosine of x and w through ``som._cosines``, the kernel that training
    and ``assign`` run."""
    x = np.asarray([x], dtype=np.float64)
    w = np.asarray([[w]], dtype=np.float64)
    return float(som._cosines(w, som._weight_norms(w), x, som._row_norms(x))[0, 0])


class TestCosinesKernel:
    """The ``_cosines`` kernel on one input and one weight row."""

    def test_identical_vectors(self):
        x = [1.0, 2.0, 3.0]
        assert kernel_cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert kernel_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_computed_value(self):
        # (1,2,0).(2,1,0) = 4; norms sqrt(5) each -> 4/5
        got = kernel_cosine([1.0, 2.0, 0.0], [2.0, 1.0, 0.0])
        assert got == pytest.approx(4.0 / 5.0, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        assert kernel_cosine([0.0, 0.0], [1.0, 1.0]) == 0.0
        assert kernel_cosine([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0, 6)
            w = rng.uniform(0.01, 1.0, 6)
            base = kernel_cosine(x, w)
            for a in (0.5, 3.0, 1e-6, 1e6):
                assert kernel_cosine(a * x, w) == pytest.approx(
                    base, abs=1e-12
                )


class TestFindBmu:
    """``assign``'s best-matching unit: highest cosine, ties to the lowest
    index."""

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
        # uniform(0.01, 1.0) from the seeded counter stream.
        x = np.array([4.0, 0.0, 2.0])
        cfg = SomConfig(
            neuron_count=1, epochs=1, alpha0=0.5, radius0=0, seed=17
        )
        w0 = np.array(py_weights(17, 1, 3)[0])
        net = train([x], cfg)
        np.testing.assert_array_equal(net.weights, (w0 + x)[None, :] / 2.0)

    def test_vanishing_alpha_keeps_initialization(self):
        inputs = [np.array([5.0, 0.0]), np.array([0.0, 5.0])]
        cfg = SomConfig(neuron_count=2, epochs=10, alpha0=1e-13, seed=4)
        net = train(inputs, cfg)
        np.testing.assert_allclose(net.weights, py_weights(4, 2, 2), atol=1e-9)

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

    def test_memory_layout_of_the_inputs_does_not_matter(self):
        """C-ordered, Fortran-ordered and strided-view inputs of the same
        200 x 100 rating rows train the same weight bytes and get the same
        labels: the step reads each row through the view it is given."""
        rng = np.random.default_rng(6)
        rows = np.where(rng.random((200, 100)) < 0.1, rng.integers(1, 6, (200, 100)), 0.0)
        wide = np.full((400, 300), np.nan)
        wide[::2, 1::3] = rows
        layouts = [rows, np.asfortranarray(rows), wide[::2, 1::3]]
        assert [m.flags.c_contiguous for m in layouts] == [True, False, False]
        assert [m.flags.f_contiguous for m in layouts] == [False, True, False]
        cfg = SomConfig(neuron_count=9, epochs=10, seed=8)
        nets = [train(m, cfg) for m in layouts]
        for net, m in zip(nets, layouts):
            assert net.weights.tobytes() == nets[0].weights.tobytes()
            assert assign(net, m) == assign(nets[0], rows)
        assert len(set(assign(nets[0], rows))) > 1

    def test_weights_stay_finite_and_nonnegative(self):
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(0, 5, 10) for _ in range(20)]
        net = train(inputs, SomConfig(neuron_count=6, seed=3))
        assert np.all(np.isfinite(net.weights))
        assert np.all(net.weights >= 0.0)

    def test_initial_weights_never_zero(self):
        w = som._draw_weights([0, 1, (1 << 64) - 1], 9, 13)
        assert np.all(w >= 0.01)
        assert np.all(w <= 1.0)


def reference_train(
    inputs,
    cfg: SomConfig,
    steps: list | None = None,
    flush: bool = True,
    initial: np.ndarray | None = None,
    skip: int | None = None,
    bmus: list | None = None,
) -> np.ndarray:
    """The per-network training algorithm, written out step by step on the
    plain-Python counter stream: the bytes ``train`` and each lane of
    ``lockstep`` must reproduce.  At the end of every epoch each weight
    below the smallest normal float in magnitude is set to 0;
    ``flush=False`` leaves that out.
    ``initial`` replaces the drawn weights and ``skip`` the order offset
    ``N*p``, as ``som._train_on_support`` does; ``bmus``, if given, gets
    each step's BMU.

    ``steps``, if given, gets one entry per step for the raw divide that the
    one-network step tries first: "fallback" when its winner is not in (0,
    inf), "-inf" when it is but some cosine is -inf, else "plain"."""
    matrix = np.asarray(inputs, dtype=np.float64)
    n, p = matrix.shape
    if initial is None:
        weights = np.array(py_weights(cfg.seed, cfg.neuron_count, p))
    else:
        weights = np.array(initial, dtype=np.float64)
    if skip is None:
        skip = cfg.neuron_count * p
    for epoch in range(cfg.epochs):
        decay = 1.0 - epoch / cfg.epochs
        alpha = cfg.alpha0 * decay
        radius = int(math.floor(cfg.effective_radius0 * decay + 0.5))
        for i in py_permutation(cfg.seed, n, skip + epoch * n):
            x = matrix[i]
            denom = np.linalg.norm(weights, axis=1) * np.linalg.norm(x)
            sims = np.zeros(cfg.neuron_count)
            nonzero = denom > 0.0
            sims[nonzero] = (weights @ x)[nonzero] / denom[nonzero]
            bmu = int(np.argmax(sims))
            if bmus is not None:
                bmus.append(bmu)
            if steps is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    raw = (weights @ x) / denom
                if not 0.0 < raw[np.argmax(raw)] < math.inf:
                    steps.append("fallback")
                else:
                    steps.append("-inf" if np.isneginf(raw).any() else "plain")
            lo, hi = max(0, bmu - radius), min(cfg.neuron_count - 1, bmu + radius)
            weights[lo : hi + 1] += alpha * (x - weights[lo : hi + 1])
        if flush:
            weights[np.abs(weights) < TINY] = 0.0
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


def lockstep(sets, cfg: SomConfig, seeds) -> list[SomNetwork]:
    """One network per input set, lane k drawn and ordered from ``seeds[k]``,
    trained together by ``som._train_lanes``: ``train`` with many lanes."""
    matrices = [np.asarray(rows, dtype=np.float64) for rows in sets]
    p = matrices[0].shape[1]
    weights = som._initial_weights(seeds, cfg.neuron_count, p)
    return som._train_lanes(matrices, cfg, seeds, weights, cfg.neuron_count * p)


def train_ones(lanes: int, cfg: SomConfig) -> None:
    """``train`` of two 3-wide rows for one lane, else phase 1's trainer on
    ``lanes`` networks whose supports span the 3 columns."""
    if lanes == 1:
        train(np.ones((2, 3)), cfg)
    else:
        supports = [np.arange(3)] * lanes
        som._train_on_support([np.ones((2, 3))] * lanes, supports, 3, cfg, list(range(lanes)))


class TestTrainMany:
    """Networks trained together in lockstep lanes (``_train_lanes``): each
    lane has the bits of training it alone."""

    @pytest.mark.parametrize("p", [7, 384])
    @pytest.mark.parametrize("neurons,radius0", [(6, None), (6, 0.0), (9, 3.0), (1, 2.0)])
    def test_each_network_equals_training_it_alone(self, p, neurons, radius0):
        cfg = SomConfig(neuron_count=neurons, epochs=12, radius0=radius0)
        sets = input_sets(p)
        nets = lockstep(sets, cfg, LANE_SEEDS)
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
        whole = [net.weights.tobytes() for net in lockstep(sets, cfg, LANE_SEEDS)]
        order = list(np.random.default_rng(3).permutation(len(sets)))
        shuffled = lockstep([sets[k] for k in order], cfg, [LANE_SEEDS[k] for k in order])
        assert [net.weights.tobytes() for net in shuffled] == [whole[k] for k in order]
        for cut in (1, 5, 11):
            split = lockstep(sets[:cut], cfg, LANE_SEEDS[:cut]) + lockstep(
                sets[cut:], cfg, LANE_SEEDS[cut:]
            )
            assert [net.weights.tobytes() for net in split] == whole

    def test_no_networks(self):
        """Phase 1 calls its trainer for a block in which no user trains."""
        assert som._train_on_support([], [], 3, SomConfig(neuron_count=2), []) == ([], [])

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_unallocatable_weights_are_invalid_config(self, lanes):
        cfg = SomConfig(neuron_count=10**18)
        message = "cannot allocate SOM weights for 1000000000000000000 neurons of input length 3"
        with pytest.raises(InvalidConfig, match=message):
            train_ones(lanes, cfg)

    def test_out_of_memory_is_invalid_config(self, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(som, "_draw_weights", no_memory)
        cfg = SomConfig(neuron_count=7)
        for lanes in (1, 2):
            with pytest.raises(InvalidConfig, match="7 neurons of input length 3"):
                train_ones(lanes, cfg)


SPEC_SEEDS = [0, 1, 1 << 63, (1 << 64) - 1]


class TestCounterSpec:
    """The initial weights and every epoch's order that lockstep training
    uses are the plain-Python SplitMix64 spec exactly, with no uint64 overflow
    warning, for ragged blocks and for one network of 1, 2 or 7 rows."""

    def test_weights_and_orders_follow_the_spec(self, monkeypatch):
        drawn, orders = [], []
        draw, presentation = som._draw_weights, som._orders

        def spy_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(som, "_draw_weights", spy_draw)
        # copies, as training moves the orders in place
        monkeypatch.setattr(
            som, "_orders", lambda *args: (orders.append(o.copy()) or o for o in presentation(*args))
        )
        cfg, p = SomConfig(neuron_count=3, epochs=5), 4
        blocks = [((3, 1, 6, 2), SPEC_SEEDS), ((1, 2, 1, 2), SPEC_SEEDS[::-1])]
        blocks += [((n,), [seed]) for n in (1, 2, 7) for seed in SPEC_SEEDS]
        rng = np.random.default_rng(8)
        for counts, seeds in blocks:
            drawn.clear()
            orders.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lockstep([rng.uniform(0.0, 5.0, (n, p)) for n in counts], cfg, seeds)
            assert len(drawn) == 1 and len(orders) == cfg.epochs
            # weights are drawn in input order; lanes run in descending row
            # count, ties in input order
            lanes = sorted(range(len(counts)), key=lambda k: -counts[k])
            for i, k in enumerate(lanes):
                expected = np.array(py_weights(seeds[k], cfg.neuron_count, p))
                assert drawn[0][k].tobytes() == expected.tobytes()
                for epoch, order in enumerate(orders):
                    n = counts[k]
                    skip = cfg.neuron_count * p + epoch * n
                    assert order[i, :n].tolist() == py_permutation(seeds[k], n, skip)
                    assert sorted(order[i, n:].tolist()) == list(range(n, max(counts)))


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


def underflow_case(seed: int) -> tuple[np.ndarray, SomConfig]:
    """Up to 9 rows of up to 7 signed values, each row scaled by 1, 1e-160 or
    1e-170 and now and then all zero, for 2 to 6 neurons.  Squares of the
    small values underflow, so a norm or a norm product can be 0 while a dot
    is not; with negative entries such a cosine is -inf.  At alpha0 = 1 an
    all-zero or tiny row moves a weight row to exactly zero."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 10)), int(rng.integers(1, 8))
    rows = np.where(rng.random((n, p)) < 0.7, rng.uniform(-5.0, 5.0, (n, p)), 0.0)
    rows *= rng.choice([1.0, 1e-160, 1e-170], size=(n, 1))
    rows[rng.random(n) < 0.2] = 0.0
    cfg = SomConfig(
        neuron_count=int(rng.integers(2, 7)),
        epochs=int(rng.integers(2, 6)),
        alpha0=float(rng.choice([0.5, 1.0])),
        radius0=float(rng.integers(0, 2)),
        seed=int(rng.integers(0, 2**63)),
    )
    return rows, cfg


class TestLeanStep:
    """Each step at which one network alone presents an input (all of a
    one-network ``train``, the tail of a ``lockstep`` block) has the bytes
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
        for rows, seed, net in zip(sets, seeds, lockstep(sets, cfg, seeds)):
            expected = reference_train(rows, replace(cfg, seed=seed))
            assert net.weights.tobytes() == expected.tobytes()

    def test_fallback_runs_exactly_where_the_raw_winner_is_not_in_range(self, monkeypatch):
        """The raw divide's -inf cosines are kept, and every step whose winner
        is 0 or less, +inf or NaN is redone by ``_divide``: the same bytes as
        the reference, with one ``_divide`` call per such step."""
        calls = []
        divide = som._divide
        monkeypatch.setattr(som, "_divide", lambda *args: calls.append(1) or divide(*args))
        kinds = Counter()
        for seed in range(80):
            rows, cfg = underflow_case(seed)
            steps = []
            expected = reference_train(rows, cfg, steps)
            calls.clear()
            assert train(rows, cfg).weights.tobytes() == expected.tobytes()
            assert len(calls) == steps.count("fallback")
            kinds.update(steps)
        assert kinds["fallback"] > 0 and kinds["-inf"] > 0 and kinds["plain"] > 0


# alpha0 near 1 and a radius that moves both neurons in the early epochs
UNDERFLOW = SomConfig(neuron_count=2, epochs=20, alpha0=0.99, radius0=1.0)


def zero_column_rows(seed: int, n: int = 35, p: int = 4) -> np.ndarray:
    """``n`` rows of ratings 1-5 whose column 0 is 0 in every row.  Under
    ``UNDERFLOW`` that column's weights only shrink, by 1 - alpha a step,
    and pass through the subnormals on their way to 0."""
    rows = np.random.default_rng(seed).integers(1, 6, (n, p)).astype(float)
    rows[:, 0] = 0.0
    return rows


def subnormals(weights: np.ndarray) -> int:
    return int(np.count_nonzero((weights != 0.0) & (np.abs(weights) < TINY)))


def flushed_reference(rows, cfg: SomConfig) -> np.ndarray:
    """``reference_train`` of (rows, cfg), once the same run without the
    flush is seen to end holding a subnormal, so the flush changed it."""
    unflushed = reference_train(rows, cfg, flush=False)
    assert subnormals(unflushed) > 0
    expected = reference_train(rows, cfg)
    assert expected.tobytes() != unflushed.tobytes()
    return expected


class TestSubnormalFlush:
    """Training sets every weight below 2**-1022 in magnitude to 0 at the
    end of every epoch, on inputs that really underflow."""

    @pytest.mark.parametrize("seed", range(4))
    def test_train_has_the_reference_bytes_and_no_subnormal(self, seed):
        rows, cfg = zero_column_rows(seed), replace(UNDERFLOW, seed=seed)
        weights = train(rows, cfg).weights
        assert weights.tobytes() == flushed_reference(rows, cfg).tobytes()
        assert subnormals(weights) == 0 and np.count_nonzero(weights == 0.0) > 0

    @pytest.mark.parametrize("part", ["lockstep", "lone tail"])
    def test_one_underflowing_lane_keeps_every_lane_equal_to_training_it_alone(self, part):
        """The underflowing lane has 35 rows; in the lone tail it is the
        longest, in the lockstep part a 40-row lane outlasts it."""
        rng = np.random.default_rng(3)
        counts = (40, 3, 12) if part == "lockstep" else (3, 12, 20)
        sets = [zero_column_rows(2)] + [np.stack(random_inputs(rng, n, 4, 1.0)) for n in counts]
        seeds = [2, 5, 6, 7]
        nets = lockstep(sets, UNDERFLOW, seeds)
        for k, (rows, seed, net) in enumerate(zip(sets, seeds, nets)):
            alone = replace(UNDERFLOW, seed=seed)
            if k == 0:
                expected = flushed_reference(rows, alone)
            else:
                expected = reference_train(rows, alone, flush=False)
                assert subnormals(expected) == 0
            assert net.weights.tobytes() == expected.tobytes()
            assert net.weights.tobytes() == train(rows, alone).weights.tobytes()
            assert subnormals(net.weights) == 0

    def test_tiny_negative_weights_flush_and_normal_ones_stay(self):
        """Column 1's inputs are a negative subnormal and column 2's a
        negative normal just above 2**-1022; one neuron's weights converge
        to them."""
        rows = zero_column_rows(1)
        rows[:, 1], rows[:, 2], rows[:, 3] = -(2.0**-1040), -4 * TINY, -rows[:, 3]
        cfg = replace(UNDERFLOW, neuron_count=1, seed=1)
        unflushed = reference_train(rows, cfg, flush=False)
        weights = train(rows, cfg).weights
        assert weights.tobytes() == flushed_reference(rows, cfg).tobytes()
        assert np.all((unflushed[:, 1] < 0.0) & (unflushed[:, 1] > -TINY))
        assert np.all(weights[:, 1] == 0.0)
        assert np.all(weights[:, 2:] <= -TINY)
        assert weights[:, 2:].tobytes() == np.ascontiguousarray(unflushed[:, 2:]).tobytes()

    def test_weight_norms_after_each_flush_are_those_of_the_flushed_weights(self, monkeypatch):
        """The norms lockstep training keeps equal ``_weight_norms`` of the
        weights it trains at every epoch start and at the end: a subnormal
        squares to exactly 0, so a flush moves no norm bit."""
        held, checks = {}, []
        norms_of, presentation = som._weight_norms, som._orders

        def spy_norms(w, squares=None):
            norms = norms_of(w, squares)
            # the first call: the tensor training moves and the norms it keeps
            held.setdefault("weights", w)
            held.setdefault("norms", norms)
            return norms

        def check():
            expected = norms_of(held["weights"])
            checks.append(held["norms"].tobytes() == expected.tobytes())

        def spy_orders(*args):
            for order in presentation(*args):
                check()
                yield order
            check()

        monkeypatch.setattr(som, "_weight_norms", spy_norms)
        monkeypatch.setattr(som, "_orders", spy_orders)
        rows = zero_column_rows(0)
        sets, seeds = [rows, rows[:9]], [0, 9]
        flushed_reference(rows, replace(UNDERFLOW, seed=0))
        lockstep(sets, UNDERFLOW, seeds)
        assert checks == [True] * (UNDERFLOW.epochs + 1)
        unflushed = reference_train(rows, replace(UNDERFLOW, seed=0), flush=False)
        cleared = np.where(np.abs(unflushed) < TINY, 0.0, unflushed)
        assert norms_of(cleared).tobytes() == norms_of(unflushed).tobytes()


# One input set trained alone and as lane 0 of a two-lane block of equal row
# counts, where every step is a lockstep step.
KERNEL_PROBE = """
import numpy as np
from ctxrec.som import SomConfig, train
from test_som import lockstep
a, b = np.random.default_rng(5).uniform(0.0, 5.0, (2, 600, 387))
cfg = SomConfig(neuron_count=21, epochs=10, seed=17)
alone = train(a, cfg).weights
print(alone.tobytes() == lockstep([a, b], cfg, [17, 18])[0].weights.tobytes())
"""


class TestCrossKernel:
    """The one-network step's bound ``lone.dot`` has the bits of the
    lockstep ``_cosines`` gemv on kernels without AVX-512 too: the step
    makes the same operations on the same operands in the same order, and
    only the way numpy is called differs.  ``OPENBLAS_CORETYPE`` is set on
    the child process only."""

    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_lone_step_equals_its_lockstep_lane(self, kernel):
        here = Path(__file__).resolve().parent  # the probe imports lockstep from here
        parts = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        path = os.pathsep.join(filter(None, parts))
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["True"]


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
    """``train`` step by step in plain Python: SplitMix64 counter weights,
    then per epoch the rows in counter order, linear alpha decay, a half-up
    rounded radius and the clipped rectangular neighbourhood, and at the end
    of the epoch every weight below ``sys.float_info.min`` in magnitude set
    to 0.  Returns the weights and the smallest BMU lead met."""
    p = len(rows[0])
    weights = py_weights(cfg.seed, cfg.neuron_count, p)
    lead = math.inf
    for epoch in range(cfg.epochs):
        alpha = cfg.alpha0 * (1.0 - epoch / cfg.epochs)
        radius = math.floor(cfg.effective_radius0 * (1.0 - epoch / cfg.epochs) + 0.5)
        for i in py_permutation(cfg.seed, len(rows), cfg.neuron_count * p + epoch * len(rows)):
            bmu, gap = py_bmu(weights, rows[i])
            lead = min(lead, gap)
            for k in range(max(0, bmu - radius), min(cfg.neuron_count - 1, bmu + radius) + 1):
                weights[k] = [w + alpha * (v - w) for w, v in zip(weights[k], rows[i])]
        weights = [[0.0 if abs(w) < sys.float_info.min else w for w in row] for row in weights]
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
    """``train``, ``lockstep`` and ``assign`` against a plain-Python trainer
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
        nets = lockstep([np.asarray(rows) for rows, _ in cases], cfg, seeds)
        assert len({len(rows) for rows, _ in cases}) > 2
        checked = 0
        for (rows, _), seed, net in zip(cases, seeds, nets):
            expected, lead = py_train(rows, replace(cfg, seed=seed))
            if lead > SEPARATION:
                assert_matches_reference(net, rows, expected)
                checked += 1
        assert checked >= 9


PHASE1_SCHEMA = ContextSchema(
    (ContextDimension("d1", ("a", "b")), ContextDimension("d2", ("x", "y", "z"))), 1, 5
)

# The rest column against the root of the squares of the trained p-wide
# weights outside the support.  Both shrink by 1 - alpha in each hood update
# (two roundings, at alpha0 <= 0.5 a relative error of at most 3 ulp an
# update), over at most 5 epochs x 6 rows, and the p-wide norm adds up to 24
# more roundings: about 2e-14 in all.
REST_RTOL = 1e-12


@st.composite
def phase1_cubes(draw):
    """1-4 users, each rating 1-3 of 20-24 items in each of 2-6 of the six
    situations (so every support is narrower than p - 1), and a config of
    up to 8 neurons, 5 epochs and alpha0 <= 0.5."""
    p = draw(st.integers(20, 24))
    items = [f"i{j:02d}" for j in range(p)]
    users = [f"u{k}" for k in range(draw(st.integers(1, 4)))]
    cells = {}
    for user in users:
        for flat in draw(st.lists(st.integers(0, 5), min_size=2, max_size=6, unique=True)):
            for j in draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3, unique=True)):
                cells[(user, flat, items[j])] = draw(st.integers(1, 5))
    neurons = draw(st.integers(1, 8))
    cfg = SomConfig(
        neuron_count=neurons,
        epochs=draw(st.integers(1, 5)),
        alpha0=draw(st.sampled_from((0.2, 0.5))),
        radius0=float(draw(st.integers(0, neurons))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return RatingCube(PHASE1_SCHEMA, users, items, cells), cfg


def trained_users(cube: RatingCube) -> list[str]:
    """The users who rated in two or more situations: the lanes of one
    phase-1 block."""
    return [user for user in cube.users if len(cube.user_ratings(user)) > 1]


def support_lanes(cube: RatingCube, cfg: SomConfig) -> list[dict]:
    """Phase 1's compact training of the cube's ``trained_users``, as
    ``cluster_users`` runs it (each lane at the power of two above its
    support), with each lane's config, p-wide usage rows, support, compact
    rows and weights, and the weights of the p-wide ``train``."""
    users = trained_users(cube)
    usages = [cube.usage_rows(user) for user in users]
    seeds = [derive_seed(cfg.seed, "phase1", user) for user in users]
    values, supports = [usage[2] for usage in usages], [usage[1] for usage in usages]
    rows, nets = som._train_on_support(values, supports, cube.p, cfg, seeds)
    lanes = []
    for user, support, seed, compact, net in zip(users, supports, seeds, rows, nets):
        alone = replace(cfg, seed=seed)
        assert net.config == alone
        assert len(support) < cube.p
        assert compact.shape[1] == net.p == 1 << len(support).bit_length()
        dense = usage_matrix(cube, user)[1]
        full = train(dense, alone).weights
        lanes.append(
            dict(cfg=alone, dense=dense, support=support, rows=compact, weights=net.weights, full=full)
        )
    return lanes


def compact_initial(cfg: SomConfig, p: int, support: np.ndarray, width: int) -> np.ndarray:
    """The p-wide counter draw's support columns, zero padding, and the
    ``_weight_norms`` of its other columns last."""
    drawn = np.array(py_weights(cfg.seed, cfg.neuron_count, p))
    initial = np.zeros((cfg.neuron_count, width))
    initial[:, : len(support)] = drawn[:, support]
    drawn[:, support] = 0.0
    initial[:, -1] = som._weight_norms(drawn)
    return initial


class TestTrainOnSupport:
    """Phase 1's compact networks (support columns, zero padding, one rest
    column) against the p-wide ``train`` of the same usage rows, on random
    cubes whose p-wide training meets no BMU within ``SEPARATION`` of a
    runner-up: the two forms agree in real arithmetic only."""

    @staticmethod
    def clear_lanes(case) -> list[dict]:
        lanes = support_lanes(*case)
        for lane in lanes:
            assume(py_train(lane["dense"].tolist(), lane["cfg"])[1] > SEPARATION)
        return lanes

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=phase1_cubes())
    def test_same_bmus_at_every_step(self, case):
        for lane in self.clear_lanes(case):
            cfg, p = lane["cfg"], lane["dense"].shape[1]
            full_bmus, compact_bmus = [], []
            reference_train(lane["dense"], cfg, bmus=full_bmus)
            initial = compact_initial(cfg, p, lane["support"], lane["rows"].shape[1])
            skip = cfg.neuron_count * p
            expected = reference_train(
                lane["rows"], cfg, initial=initial, skip=skip, bmus=compact_bmus
            )
            assert lane["weights"].tobytes() == expected.tobytes()
            assert compact_bmus == full_bmus
            net = SomNetwork(lane["weights"], cfg)
            full = SomNetwork(lane["full"], cfg)
            assert assign(net, lane["rows"]) == assign(full, lane["dense"])

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=phase1_cubes())
    def test_support_weights_are_the_full_width_bits(self, case):
        """Through the same BMUs each support weight takes the same updates
        in the same order, so no tolerance is needed."""
        for lane in self.clear_lanes(case):
            compact = lane["weights"][:, : len(lane["support"])]
            full = np.ascontiguousarray(lane["full"][:, lane["support"]])
            assert compact.tobytes() == full.tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=phase1_cubes())
    def test_rest_column_is_the_norm_of_the_unrated_weights(self, case):
        for lane in self.clear_lanes(case):
            unrated = lane["full"].copy()
            unrated[:, lane["support"]] = 0.0
            expected = som._weight_norms(unrated)
            assert np.all(expected > 0.0)
            np.testing.assert_allclose(lane["weights"][:, -1], expected, rtol=REST_RTOL, atol=0.0)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=phase1_cubes())
    def test_padding_is_exactly_zero(self, case):
        lanes = support_lanes(*case)
        for lane in lanes:
            padding = lane["weights"][:, len(lane["support"]) : -1]
            assert padding.tobytes() == bytes(padding.nbytes)  # +0.0, not -0.0
            assert not lane["rows"][:, len(lane["support"]) :].any()

    def test_lane_presents_its_rows_in_the_full_width_order(self, monkeypatch):
        """The compact lanes' epoch orders, one call per width, are those of
        ``lockstep`` on the p-wide rows of the lanes of that width, from the
        same counter offset ``N*p``."""
        calls = []
        presentation = som._orders

        def spy_orders(seeds, counts, skip, epochs):  # training moves the orders in place
            orders = list(presentation(seeds, counts, skip, epochs))
            calls.append((list(seeds), list(counts), skip, [order.copy() for order in orders]))
            return iter(orders)

        monkeypatch.setattr(som, "_orders", spy_orders)
        cube = generate(GenConfig(n_users=30, n_items=60, density=0.02, seed=2))
        cfg = SomConfig(neuron_count=5, epochs=6, seed=9)
        lanes = support_lanes(cube, cfg)
        assert len(lanes) > 2 and len({len(lane["rows"]) for lane in lanes}) > 1
        widths = sorted({lane["rows"].shape[1] for lane in lanes})
        assert len(widths) > 1
        compact_calls = calls[: len(widths)]  # then one call per lane's p-wide train
        for width, compact_call in zip(widths, compact_calls):
            group = [lane for lane in lanes if lane["rows"].shape[1] == width]
            calls.clear()
            lockstep([lane["dense"] for lane in group], cfg, [lane["cfg"].seed for lane in group])
            (full_call,) = calls
            by_count = sorted(group, key=lambda lane: -len(lane["rows"]))
            assert compact_call[0] == full_call[0] == [lane["cfg"].seed for lane in by_count]
            assert compact_call[1] == full_call[1] == [len(lane["rows"]) for lane in by_count]
            assert compact_call[2] == full_call[2] == cfg.neuron_count * cube.p
            assert all(a.tobytes() == b.tobytes() for a, b in zip(compact_call[3], full_call[3]))
            for i, (seed, n) in enumerate(zip(compact_call[0], compact_call[1])):
                for epoch, order in enumerate(compact_call[3]):
                    skip = cfg.neuron_count * cube.p + epoch * n
                    assert order[i, :n].tolist() == py_permutation(seed, n, skip)

    def test_any_grouping_or_order_of_lanes_gives_the_same_bits(self):
        cube = generate(GenConfig(n_users=30, n_items=60, density=0.02, seed=2))
        cfg = SomConfig(neuron_count=6, epochs=8, seed=3)
        users = trained_users(cube)
        usages = [cube.usage_rows(user) for user in users]
        seeds = [derive_seed(cfg.seed, "phase1", user) for user in users]

        def lanes(ks):
            values, supports = [usages[k][2] for k in ks], [usages[k][1] for k in ks]
            lane_seeds = [seeds[k] for k in ks]
            return som._train_on_support(values, supports, cube.p, cfg, lane_seeds)

        rows, block = lanes(range(len(users)))
        counts = [len(usage[0]) for usage in usages]
        assert len(users) > 10 and counts != sorted(counts, reverse=True)
        assert not any(net.weights.flags.writeable for net in block)
        backwards_rows, backwards = lanes(range(len(users))[::-1])
        for k in range(len(users)):
            alone_rows, alone = lanes([k])
            for got, got_rows in ((alone[0], alone_rows[0]), (backwards[-1 - k], backwards_rows[-1 - k])):
                assert got.config == block[k].config
                assert got.weights.tobytes() == block[k].weights.tobytes()
                assert got_rows.tobytes() == rows[k].tobytes()

    def test_the_full_width_draw_keeps_the_allocation_guard(self):
        cfg = SomConfig(neuron_count=10**18)
        message = "cannot allocate SOM weights for 1000000000000000000 neurons of input length 40"
        with pytest.raises(InvalidConfig, match=message):
            som._train_on_support([np.ones((2, 3))], [np.arange(3)], 40, cfg, [1])


def one_step(cfg: SomConfig, bmu: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(initial weights, input, trained weights) of one training step whose
    input is twice the initial weight row ``bmu``, so that row is its BMU."""
    start = np.array(py_weights(cfg.seed, cfg.neuron_count, 6))
    x = 2.0 * start[bmu]
    assert assign(SomNetwork(start, cfg), [x]) == [bmu]
    return start, x, train([x], cfg).weights


class TestUpdateRule:
    """The update rule through ``train``: one epoch keeps alpha and the
    radius at ``alpha0`` and ``radius0`` for every step."""

    def test_contraction_per_step(self):
        # constant alpha, single neuron: each presentation scales the
        # distance to the input by exactly (1 - alpha)
        cfg = SomConfig(neuron_count=1, epochs=1, alpha0=0.3, radius0=0, seed=4)
        x = np.array([5.0, 1.0, 2.0])
        dist = float(np.linalg.norm(py_weights(cfg.seed, 1, len(x))[0] - x))
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

    def test_sums_left_to_right(self):
        """Cosines 1.0 and ten of 1e-16: each 1e-16 is lost against 1.0, as
        in a plain loop; a compensated sum (the built-in ``sum`` from
        Python 3.12 on) keeps them."""
        net = net_from_rows([[1.0, 0.0]], SomConfig(neuron_count=1))
        inputs = [np.array([1.0, 0.0])] + [np.array([1e-16, 1.0])] * 10
        assert mean_similarity(net, inputs) == 1.0 / 11

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
