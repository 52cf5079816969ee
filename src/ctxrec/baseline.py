"""Context-free baseline: flatten the cube and cluster plain users.

Collapsing the situation axis (averaging duplicate user/item ratings across
situations) yields an ordinary user x item matrix.  The baseline then runs
the exact same SOM clustering and weighted-mean scoring as phase 3 of the
pipeline, so any quality gap is attributable to context modelling alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import ContextSchema, RatingCube
from .errors import EmptyInput
from .pipeline import (
    RowSpace,
    UserClusterModel,
    _average_rows,
    _load_bundle,
    _ranked,
    _save_bundle,
    cluster_virtual_users,
)
from .som import SomConfig

DEFAULT_BASELINE_NEURONS = 19


def flatten_cube(cube: RatingCube) -> RowSpace:
    """Average away the situation axis, keeping users with >= 1 rating."""
    if not cube.n_ratings:
        raise EmptyInput("cube has no ratings to flatten")
    return _average_rows(cube, lambda user, flat: user)


@dataclass
class BaselineModel:
    """Flat user-clustering recommender sharing the pipeline's scorer."""

    schema: ContextSchema
    space: RowSpace
    user_model: UserClusterModel

    def recommend(self, user: str, n: int) -> list[tuple[str, float]]:
        return _ranked(self.user_model, self.space, user, n)

    def recommend_key(self, key: str, n: int) -> list[str]:
        return [item for item, _ in self.recommend(key, n)]

    def eval_user_pool(self) -> list[str]:
        return list(self.space.keys)

    def eval_units(
        self, user: str, test: RatingCube, threshold: int
    ) -> list[tuple[str, set[str]]]:
        """One unit per user: relevant items pooled over all situations."""
        relevant = {
            item
            for item_ratings in test.user_ratings(user).values()
            for item, rating in item_ratings.items()
            if rating >= threshold
        }
        return [(user, relevant)] if relevant else []


def fit_baseline(
    cube: RatingCube, cfg: SomConfig = SomConfig(DEFAULT_BASELINE_NEURONS)
) -> BaselineModel:
    space = flatten_cube(cube)
    user_model = cluster_virtual_users(space, cfg)
    return BaselineModel(cube.schema, space, user_model)


def save_baseline(model: BaselineModel, directory: str | Path) -> None:
    _save_bundle(model, directory, "flat_space.json")


def load_baseline(directory: str | Path) -> BaselineModel:
    schema, space, user_model = _load_bundle(directory, "flat_space.json")
    return BaselineModel(schema, space, user_model)
