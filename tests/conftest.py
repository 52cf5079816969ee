"""Shared fixtures: tiny schemas, hand-built rating cubes, and the plain-Python
SplitMix64 spec of every seeded draw."""

import numpy as np
import pytest

from ctxrec.core import (
    ContextDimension,
    ContextSchema,
    RatingCube,
    default_schema,
)


def tiny_schema() -> ContextSchema:
    """2x2 schema {a,b} x {x,y}: four situations, flat order ax,ay,bx,by."""
    return ContextSchema(
        (
            ContextDimension("d1", ("a", "b")),
            ContextDimension("d2", ("x", "y")),
        )
    )


def make_cube(schema, rows, users=None, items=None) -> RatingCube:
    """Build a cube from (user, item, value-names, rating) tuples.

    The id universes default to the sorted ids the rows use.
    """
    cells = {
        (user, schema.situation_from_names(names).flat_index, item): rating
        for user, item, names, rating in rows
    }
    if users is None:
        users = sorted({user for user, _, _ in cells})
    if items is None:
        items = sorted({item for _, _, item in cells})
    return RatingCube(schema, users, items, cells)


def usage_matrix(cube: RatingCube, user: str) -> tuple[list[int], np.ndarray]:
    """The dense reference of ``cube.usage_rows(user)``, built from
    ``user_ratings``: the ascending flat indices of the situations in which
    the user rated anything, and one length-p row per such situation whose
    column ``i`` is the rating of item ``i`` there (0 when unrated)."""
    by_flat = cube.user_ratings(user)
    column = {item: i for i, item in enumerate(cube.items)}
    matrix = np.zeros((len(by_flat), cube.p))
    for row, ratings in enumerate(by_flat.values()):
        for item, rating in ratings.items():
            matrix[row, column[item]] = rating
    return list(by_flat), matrix


MASK64 = (1 << 64) - 1


def py_splitmix64(seed: int, i: int) -> int:
    """Output ``i`` (from 1) of the SplitMix64 stream of ``seed``, in Python
    ints: mix(seed + i * gamma) mod 2**64."""
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def py_weights(seed: int, neurons: int, p: int) -> list[list[float]]:
    """SOM initial weights: weight (k, j) is output k*p + j + 1, mapped to
    uniform(0.01, 1.0) through its top 53 bits."""
    return [
        [0.01 + 0.99 * ((py_splitmix64(seed, k * p + j + 1) >> 11) * 2.0**-53) for j in range(p)]
        for k in range(neurons)
    ]


def py_permutation(seed: int, n: int, skip: int = 0) -> list[int]:
    """Positions 0..n-1 sorted by outputs skip + r + 1 (position r), ties to
    the lower position.  SOM epoch ``e`` uses ``skip = N*p + e*n``; the split
    and the evaluation samples use ``skip = 0``."""
    keys = [py_splitmix64(seed, skip + r + 1) for r in range(n)]
    return sorted(range(n), key=keys.__getitem__)


@pytest.fixture
def schema2x2():
    return tiny_schema()


@pytest.fixture
def restaurant_schema():
    return default_schema()
