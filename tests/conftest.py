"""Shared fixtures: tiny schemas and hand-built rating cubes."""

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


@pytest.fixture
def schema2x2():
    return tiny_schema()


@pytest.fixture
def restaurant_schema():
    return default_schema()
