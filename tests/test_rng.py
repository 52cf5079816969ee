"""Portable RNG: SplitMix64 counter outputs, seeded permutations, seed derivation."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctxrec.rng import derive_seed, permutation, splitmix64_at

from conftest import py_permutation, py_splitmix64

LANE_SEEDS = [0, 1, 7, 123456789, 1 << 63, (1 << 64) - 1]
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctxrec"


class TestSplitmix64:
    def test_reference_stream(self):
        # published reference outputs for seed 0, from the spec and the kernel
        expected = [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]
        assert [py_splitmix64(0, i) for i in range(1, 5)] == expected
        assert splitmix64_at(np.uint64(0), np.arange(1, 5, dtype=np.uint64)).tolist() == expected

    def test_each_lane_is_the_scalar_stream(self):
        counters = np.arange(1, 10_001, dtype=np.uint64)
        outputs = splitmix64_at(np.array(LANE_SEEDS, dtype=np.uint64)[:, None], counters)
        assert outputs.dtype == np.uint64
        assert outputs.shape == (len(LANE_SEEDS), 10_000)
        for i, seed in enumerate(LANE_SEEDS):
            assert outputs[i].tolist() == [py_splitmix64(seed, c) for c in range(1, 10_001)]

    def test_one_lane(self):
        # any counters in any order, against one seed broadcast over them
        counters = np.array([[7, 1], [1000, 3]], dtype=np.uint64)
        outputs = splitmix64_at(np.array([5], dtype=np.uint64), counters)
        expected = [[py_splitmix64(5, c) for c in row] for row in counters.tolist()]
        assert outputs.tolist() == expected


class TestPermutation:
    @pytest.mark.parametrize("length", [0, 1, 2, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 42, (1 << 64) - 1])
    def test_sorts_positions_by_counter_outputs(self, length, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            order = permutation(seed, length)
        assert order.tolist() == py_permutation(seed, length)


def random_uses(path: Path) -> list[int]:
    """Lines of ``path`` that import ``random`` (also ``numpy.random``) or
    read an attribute named ``random``, such as ``np.random``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any("random" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


class TestOneCounterRule:
    def test_only_datagen_uses_another_generator(self):
        """Every seeded draw outside the data generator stays on
        ``splitmix64_at``: no other module imports ``random`` or uses
        ``np.random``."""
        modules = sorted(PACKAGE.glob("*.py"))
        assert "datagen.py" in {path.name for path in modules}
        assert random_uses(PACKAGE / "datagen.py")  # the check sees a real use
        offenders = {
            path.name: random_uses(path) for path in modules if path.name != "datagen.py"
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}


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
