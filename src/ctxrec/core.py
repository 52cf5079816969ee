"""Context schema and sparse rating-cube data model.

A :class:`ContextSchema` fixes the contextual dimensions and their value
lists; one concrete value tuple is a :class:`ContextSituation`, addressed by
a mixed-radix ``flat_index`` (last dimension varies fastest).  Ratings live
in a :class:`RatingCube`, a sparse map from ``(user, situation, item)`` to an
integer rating.  Both structures are immutable after construction and safe
for concurrent reads.

Inside vectors, 0 always means "unrated"; legal ratings start at 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import InvalidConfig, MalformedRow, UnknownContextValue, UnknownUser
from . import jsonio


@dataclass(frozen=True)
class ContextDimension:
    """One contextual dimension: a name plus its ordered value list."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.values, (list, tuple)):
            raise InvalidConfig(f"dimension {self.name!r} values must be a list")
        object.__setattr__(self, "values", tuple(self.values))
        if not isinstance(self.name, str) or not all(isinstance(v, str) for v in self.values):
            raise InvalidConfig("dimension names and values must be strings")
        if not self.name:
            raise InvalidConfig("dimension name must be non-empty")
        if not self.values:
            raise InvalidConfig(f"dimension {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise InvalidConfig(f"dimension {self.name!r} has duplicate values")

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ContextSituation:
    """One concrete context: a value index per dimension plus its flat index."""

    values: tuple[int, ...]
    flat_index: int


@dataclass(frozen=True)
class ContextSchema:
    """Ordered contextual dimensions plus the legal rating range."""

    dimensions: tuple[ContextDimension, ...]
    rating_min: int = 1
    rating_max: int = 5
    cardinalities: tuple[int, ...] = field(init=False, repr=False, compare=False)
    situation_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if not self.dimensions:
            raise InvalidConfig("schema needs at least one dimension")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise InvalidConfig("dimension names must be unique")
        if self.rating_min < 1:
            raise InvalidConfig("rating_min must be >= 1 (0 encodes 'unrated')")
        if self.rating_max < self.rating_min:
            raise InvalidConfig("rating_max must be >= rating_min")
        object.__setattr__(
            self,
            "_value_index",
            tuple({v: i for i, v in enumerate(d.values)} for d in self.dimensions),
        )
        cardinalities = tuple(d.cardinality for d in self.dimensions)
        object.__setattr__(self, "cardinalities", cardinalities)
        object.__setattr__(self, "situation_count", math.prod(cardinalities))

    def encode(self, indices: Sequence[int]) -> int:
        """Mixed-radix encoding of value indices; last dimension fastest."""
        if len(indices) != len(self.cardinalities):
            raise InvalidConfig(
                f"expected {len(self.cardinalities)} indices, got {len(indices)}"
            )
        flat = 0
        for pos, (idx, k) in enumerate(zip(indices, self.cardinalities)):
            if not 0 <= idx < k:
                raise UnknownContextValue(
                    f"index {idx} out of range for dimension {self.dimensions[pos].name!r}"
                )
            flat = flat * k + idx
        return flat

    def decode(self, flat_index: int) -> tuple[int, ...]:
        if not 0 <= flat_index < self.situation_count:
            raise InvalidConfig(f"flat index {flat_index} out of range")
        indices = []
        rest = flat_index
        for k in reversed(self.cardinalities):
            rest, idx = divmod(rest, k)
            indices.append(idx)
        return tuple(reversed(indices))

    def situation_from_flat(self, flat_index: int) -> ContextSituation:
        return ContextSituation(self.decode(flat_index), flat_index)

    def situation_from_names(self, names: Sequence[str]) -> ContextSituation:
        """Build a situation from one value name per dimension."""
        if len(names) != len(self.dimensions):
            raise InvalidConfig(
                f"expected {len(self.dimensions)} values, got {len(names)}"
            )
        indices = []
        for name, dim, lookup in zip(names, self.dimensions, self._value_index):
            if name not in lookup:
                raise UnknownContextValue(
                    f"value {name!r} not in dimension {dim.name!r} "
                    f"(expected one of {', '.join(dim.values)})"
                )
            indices.append(lookup[name])
        return ContextSituation(tuple(indices), self.encode(indices))

    def value_names(self, situation: ContextSituation) -> tuple[str, ...]:
        return tuple(
            d.values[i] for d, i in zip(self.dimensions, situation.values)
        )

    def to_json_dict(self) -> dict:
        return {
            "dimensions": [
                {"name": d.name, "values": list(d.values)} for d in self.dimensions
            ],
            "rating_min": self.rating_min,
            "rating_max": self.rating_max,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ContextSchema":
        dims = tuple(ContextDimension(d["name"], d["values"]) for d in data["dimensions"])
        return cls(dims, int(data["rating_min"]), int(data["rating_max"]))


def default_schema() -> ContextSchema:
    """The built-in restaurant schema: 2 x 4 x 6 x 7 = 336 situations."""
    return ContextSchema(
        (
            ContextDimension("day", ("Weekday", "Weekend")),
            ContextDimension("time", ("Morning", "Noon", "Afternoon", "Night")),
            ContextDimension(
                "companion",
                ("Spouse", "Family", "Friends", "Co-workers", "Alone", "Others"),
            ),
            ContextDimension(
                "weather",
                (
                    "Cold/Sunny",
                    "Cold/Rainy",
                    "Moderate/Sunny",
                    "Moderate/Rainy",
                    "Hot/Sunny",
                    "Hot/Rainy",
                    "Others",
                ),
            ),
        )
    )


def load_schema(path: str | Path) -> ContextSchema:
    return jsonio.read_parsed(path, ContextSchema.from_json_dict)


class RatingCube:
    """Sparse multidimensional ratings: (user, situation, item) -> rating.

    ``users`` and ``items`` fix the id universes (and the vector length
    ``p = len(items)``); cells may cover any subset of them.  Instances are
    immutable; all iteration is in canonical sorted order so downstream
    computations are reproducible.
    """

    def __init__(
        self,
        schema: ContextSchema,
        users: Sequence[str],
        items: Sequence[str],
        cells: Mapping[tuple[str, int, str], int],
    ):
        self.schema = schema
        self.users = tuple(users)
        self.items = tuple(items)
        self._user_set = set(self.users)
        self._item_index = {item: i for i, item in enumerate(self.items)}
        if len(self._user_set) != len(self.users):
            raise InvalidConfig("duplicate user ids")
        if len(self._item_index) != len(self.items):
            raise InvalidConfig("duplicate item ids")
        by_user: dict[str, dict[int, dict[str, int]]] = {}
        for (user, flat, item) in sorted(cells):
            rating = cells[(user, flat, item)]
            if user not in self._user_set:
                raise UnknownUser(f"cell user {user!r} not in user list")
            if item not in self._item_index:
                raise InvalidConfig(f"cell item {item!r} not in item list")
            if not 0 <= flat < schema.situation_count:
                raise InvalidConfig(f"cell situation {flat} out of range")
            if not schema.rating_min <= rating <= schema.rating_max:
                raise MalformedRow(
                    f"rating {rating} outside "
                    f"[{schema.rating_min}, {schema.rating_max}]"
                )
            by_user.setdefault(user, {}).setdefault(flat, {})[item] = rating
        self._by_user = by_user
        self._n_ratings = sum(
            len(items_) for flats in by_user.values() for items_ in flats.values()
        )

    @property
    def p(self) -> int:
        """Number of items (pattern-vector length)."""
        return len(self.items)

    @property
    def n_ratings(self) -> int:
        return self._n_ratings

    def cells(self) -> dict[tuple[str, int, str], int]:
        """All ratings keyed (user, flat index, item), in sorted key order."""
        # _by_user was filled from the sorted cells, so it iterates in order
        return {
            (user, flat, item): rating
            for user, flats in self._by_user.items()
            for flat, ratings in flats.items()
            for item, rating in ratings.items()
        }

    def user_ratings(self, user: str) -> dict[int, dict[str, int]]:
        """Ratings of one user grouped by situation flat index ({} if none),
        both levels in sorted order."""
        return self._by_user.get(user, {})

    def usage_matrix(self, user: str) -> tuple[list[int], np.ndarray]:
        """The ascending flat indices of the situations in which the user
        rated anything, and one length-p row per such situation.

        Column ``i`` of a row is the rating of item ``i`` in that situation,
        0 when unrated.  Situations without ratings are skipped (an all-zero
        row has no usable cosine direction).
        """
        if user not in self._user_set:
            raise UnknownUser(f"unknown user {user!r}")
        by_flat = self._by_user.get(user, {})
        matrix = np.zeros((len(by_flat), self.p))
        for row, ratings in enumerate(by_flat.values()):
            for item, rating in ratings.items():
                matrix[row, self._item_index[item]] = rating
        return list(by_flat), matrix

    def with_cells(
        self, cells: Mapping[tuple[str, int, str], int]
    ) -> "RatingCube":
        """New cube over the same schema and id universes (used by splits)."""
        return RatingCube(self.schema, self.users, self.items, cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatingCube):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.users == other.users
            and self.items == other.items
            and self._by_user == other._by_user
        )

    def __repr__(self) -> str:
        return (
            f"RatingCube(users={len(self.users)}, items={len(self.items)}, "
            f"ratings={self.n_ratings})"
        )


def _expected_header(schema: ContextSchema) -> list[str]:
    return ["user_id", "item_id"] + [d.name for d in schema.dimensions] + ["rating"]


def load_ratings(source: str | Path | IO[str], schema: ContextSchema) -> RatingCube:
    """Parse a ratings CSV into a cube.

    The header must be exactly ``user_id,item_id,<dimension names...>,rating``
    (``user_id,item_id,day,time,companion,weather,rating`` for the default
    schema).  User and item id lists are the sorted ids seen in the file.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            try:
                return load_ratings(handle, schema)
            except UnicodeDecodeError as exc:
                raise MalformedRow(f"{source} is not UTF-8 text: {exc}") from None
    reader = csv.reader(source)
    expected = _expected_header(schema)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow("empty ratings file: missing header") from None
    if header != expected:
        raise MalformedRow(
            f"bad header {','.join(header)!r}; expected {','.join(expected)!r}"
        )
    n_dims = len(schema.dimensions)
    cells: dict[tuple[str, int, str], int] = {}
    ids: dict[str, str] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise MalformedRow(
                f"line {line_no}: expected {len(expected)} fields, got {len(row)}"
            )
        # one str per distinct id, not one per row: the cube keeps the ids
        user_id, item_id = ids.setdefault(row[0], row[0]), ids.setdefault(row[1], row[1])
        if not user_id or not item_id:
            raise MalformedRow(f"line {line_no}: empty user or item id")
        try:
            situation = schema.situation_from_names(row[2 : 2 + n_dims])
        except UnknownContextValue as exc:
            raise UnknownContextValue(f"line {line_no}: {exc}") from None
        try:
            rating = int(row[2 + n_dims])
        except ValueError:
            raise MalformedRow(
                f"line {line_no}: rating {row[2 + n_dims]!r} is not an integer"
            ) from None
        if not schema.rating_min <= rating <= schema.rating_max:
            raise MalformedRow(
                f"line {line_no}: rating {rating} outside "
                f"[{schema.rating_min}, {schema.rating_max}]"
            )
        key = (user_id, situation.flat_index, item_id)
        if key in cells:
            raise MalformedRow(
                f"line {line_no}: duplicate rating for user {user_id!r}, "
                f"item {item_id!r}, situation {situation.flat_index}"
            )
        cells[key] = rating
    users = sorted({user for user, _, _ in cells})
    items = sorted({item for _, _, item in cells})
    return RatingCube(schema, users, items, cells)


def write_ratings(cube: RatingCube, target: str | Path | IO[str]) -> None:
    """Write a cube as CSV in canonical order (byte-stable for equal cubes)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_ratings(cube, handle)
        return
    schema = cube.schema
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(_expected_header(schema))
    names: dict[int, tuple[str, ...]] = {}  # flat index -> value names
    for (user, flat, item), rating in cube.cells().items():
        if flat not in names:
            names[flat] = schema.value_names(schema.situation_from_flat(flat))
        writer.writerow([user, item, *names[flat], rating])
