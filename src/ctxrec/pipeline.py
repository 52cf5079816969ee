"""The three-phase context-aware recommendation pipeline.

Phase 1 clusters each user's context situations by usage pattern with a
per-user SOM (labels compacted to 1..m).  Phase 2 collapses the rating cube
into a 2-D virtual-user space: each (user, label) pair becomes one virtual
user whose item ratings are the averages of the originals inside that
cluster.  Phase 3 clusters the virtual users with one more SOM and predicts
scores with a similarity-weighted within-cluster mean, falling back to the
neuron prototype when no clustered peer has rated an item.

The same phase-3 machinery is reused verbatim by the flat baseline, so the
two systems differ only in how the 2-D space is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .core import ContextSchema, ContextSituation, RatingCube
from .errors import CorruptFile, EmptyInput, InvalidConfig, UnknownUser
from .rng import derive_seed
from .som import SomConfig, SomNetwork, _divide, _mean, _train_on_support, assign, train
from .som import som_from_json_dict, som_to_json_dict
from . import jsonio

DEFAULT_PHASE1_NEURONS = 6
DEFAULT_PHASE3_NEURONS = 21

VirtualUserId = tuple[str, int]


@dataclass(frozen=True)
class ContextClustering:
    """Phase-1 result for one user: situation flat index -> label in 1..m."""

    user_id: str
    labels: Mapping[int, int]
    m: int

    def __post_init__(self):
        if self.m < 0 or set(self.labels.values()) != set(range(1, self.m + 1)):
            raise InvalidConfig(
                f"labels for user {self.user_id!r} are not compacted to 1..{self.m}"
            )


def cluster_user_contexts(
    user: str, flats: Sequence[int], usage: np.ndarray | None, net: SomNetwork | None
) -> ContextClustering:
    """Phase-1 labels of one user's rated situations ``flats``: the BMUs of
    their usage rows ``usage`` (the rows ``net`` trained on) on the user's
    SOM ``net``, compacted to 1..m.

    ``cluster_users`` trains ``net``.  A user who rated in one situation
    gets label 1 without a SOM (``usage`` and ``net`` are None), the label
    any SOM gives one input.
    """
    if len(flats) == 1:
        return ContextClustering(user, {flats[0]: 1}, 1)
    raw = assign(net, usage)
    occupied = sorted(set(raw))
    label_of = {neuron: i + 1 for i, neuron in enumerate(occupied)}
    labels = {flat: label_of[neuron] for flat, neuron in zip(flats, raw)}
    return ContextClustering(user, labels, len(occupied))


def cluster_users(
    cube: RatingCube,
    users: Sequence[str],
    cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS),
) -> dict[str, ContextClustering]:
    """Phase 1 for any set of users: each user's rated situations clustered
    by usage pattern, the SOMs of those who rated in two or more situations
    trained in lockstep, one ``_train_lanes`` call per width.

    A network trains on its user's support, the items the user rated in any
    situation, plus one rest column that stands for all other items, padded
    to a width set by the support's size alone (``som._train_on_support``),
    and labels the same compact rows.  A user's SOM seed derives from
    ``cfg.seed`` and the user id, and the networks of one call do not
    interact, so a user's clustering is a function of its own ratings and
    the cube's items: ``cluster_users(cube, [user], cfg)[user]``, whatever
    the other users of the cube or of the call.
    """
    usages = [_usage_rows(cube, user) for user in users]
    trained = [k for k, (flats, _, _) in enumerate(usages) if len(flats) > 1]
    seeds = [derive_seed(cfg.seed, "phase1", users[k]) for k in trained]
    supports, values = [usages[k][1] for k in trained], [usages[k][2] for k in trained]
    rows, nets = _train_on_support(values, supports, cube.p, cfg, seeds)
    lanes = dict(zip(trained, zip(rows, nets)))
    return {
        user: cluster_user_contexts(user, usages[k][0], *lanes.get(k, (None, None)))
        for k, user in enumerate(users)
    }


def _usage_rows(cube: RatingCube, user: str) -> tuple[list[int], np.ndarray, np.ndarray]:
    usage = cube.usage_rows(user)  # raises UnknownUser
    if not usage[0]:
        raise EmptyInput(f"user {user!r} has no ratings")
    return usage


class RowSpace:
    """A 2-D recommendation space: one row per key, one column per item.

    Keys are (user, label) virtual users for the pipeline and plain user ids
    for the flat baseline, and 0 means unrated.  Only the rated entries are
    kept, row by row in column order: row ``i`` holds ``values[starts[i]:
    starts[i + 1]]`` in columns ``columns[starts[i]:starts[i + 1]]``, and
    ``norms[i]`` is the root of their squares summed in that order (an
    ``np.bincount`` adds in input order), once at build or load.  The
    spaces are a few per cent dense, so this is a small part of the dense
    float64 matrix, which ``matrix`` rebuilds on demand with the same values.
    """

    def __init__(self, items: Sequence[str], ratings: Mapping[Hashable, Mapping[str, float]]):
        """Rows in the mapping's key order from ``{key: {item: value}}``."""
        self.keys = tuple(ratings)
        self.items = tuple(items)
        column = {item: j for j, item in enumerate(self.items)}
        if len(column) != len(self.items):
            raise InvalidConfig("item ids must be unique")
        rows = list(ratings.values())
        columns = np.array([column[item] for row in rows for item in row], dtype=np.intp)
        values = np.array([float(v) for row in rows for v in row.values()], dtype=np.float64)
        if (values == 0.0).any():
            raise InvalidConfig("a stored rating is 0, which encodes 'unrated'")
        counts = [len(row) for row in rows]
        row_of = np.repeat(np.arange(len(rows)), counts)
        # each row's entries in column order
        order = np.lexsort((columns, row_of))
        self.starts = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
        self.columns, self.values = columns[order], values[order]
        self.norms = np.sqrt(np.bincount(row_of, self.values * self.values, minlength=len(rows)))
        for array in (self.starts, self.columns, self.values, self.norms):
            array.setflags(write=False)
        self.index = {key: i for i, key in enumerate(self.keys)}
        # each column's place in ascending item-id order, the ranking tie-break
        by_id = sorted(range(len(self.items)), key=self.items.__getitem__)
        self.item_rank = np.empty(len(by_id), dtype=np.intp)
        self.item_rank[by_id] = np.arange(len(by_id))

    @property
    def matrix(self) -> np.ndarray:
        """The whole space as one read-only dense matrix, built on each access."""
        matrix = np.zeros((len(self.keys), len(self.items)))
        rows = np.repeat(np.arange(len(self.keys)), np.diff(self.starts))
        matrix[rows, self.columns] = self.values
        matrix.setflags(write=False)
        return matrix

    def row(self, key: Hashable) -> int:
        if key in self.index:
            return self.index[key]
        kind = "virtual user" if isinstance(key, tuple) else "user"
        raise UnknownUser(f"unknown {kind} {key!r}")

    def ratings_of(self, key: Hashable) -> dict[str, float]:
        """The row's rated items, in item order."""
        row = self.row(key)
        span = slice(self.starts[row], self.starts[row + 1])
        columns, values = self.columns[span].tolist(), self.values[span].tolist()
        return {self.items[j]: value for j, value in zip(columns, values)}

    def to_json_dict(self) -> dict:
        rows = []
        for key in self.keys:
            pair = isinstance(key, tuple)
            row = {"user": key[0], "label": key[1]} if pair else {"user": key}
            row["ratings"] = self.ratings_of(key)
            rows.append(row)
        return {"items": list(self.items), "rows": rows}

    @classmethod
    def from_json_dict(cls, data) -> "RowSpace":
        rows = data["rows"]
        if not all(isinstance(id_, str) for id_ in [*data["items"], *(r["user"] for r in rows)]):
            raise InvalidConfig("item and user ids must be strings")
        keys = [
            (r["user"], jsonio.integer(r["label"], "label")) if "label" in r else r["user"]
            for r in rows
        ]
        if len(set(keys)) != len(keys):
            raise InvalidConfig("row keys must be unique")
        jsonio.numbers((v for r in rows for v in r["ratings"].values()), "stored ratings")
        ratings = {key: r["ratings"] for key, r in zip(keys, rows)}
        return cls(data["items"], ratings)


def _average_rows(cube: RatingCube, row_key: Callable[[str, int], Hashable]) -> RowSpace:
    """The 2-D space whose row ``row_key(user, flat)`` holds, per item, the
    mean of the cube's ratings mapped to it; rows in sorted key order.

    Each mean adds its ratings in ascending flat order.
    """
    values: dict[Hashable, dict[str, list[int]]] = {}
    for user in cube.users:
        for flat, ratings in cube.user_ratings(user).items():
            row = values.setdefault(row_key(user, flat), {})
            for item, rating in ratings.items():
                row.setdefault(item, []).append(rating)
    rows = {
        key: {item: _mean([float(v) for v in ratings]) for item, ratings in values[key].items()}
        for key in sorted(values)
    }
    return RowSpace(cube.items, rows)


def build_virtual_space(
    cube: RatingCube, clusterings: Mapping[str, ContextClustering]
) -> RowSpace:
    """Phase 2: average each user's ratings per (item, cluster label).

    Every user with ratings must appear in ``clusterings``; every rating
    contributes to exactly one virtual-user cell.
    """
    for user in cube.users:
        if user not in clusterings and cube.user_ratings(user):
            raise UnknownUser(f"no clustering for user {user!r}")
    return _average_rows(cube, lambda user, flat: (user, clusterings[user].labels[flat]))


@dataclass
class UserClusterModel:
    """Phase-3 SOM over a 2-D space, each row's neuron, and each neuron's block.

    The blocks are built once, at fit and at load, from ``neurons`` and the
    space: a permuted copy of the space's entries, grouped by neuron.
    Neuron ``k``'s members are its rows in ascending row order, and their
    norms (the space's ``norms``) are ``norms[bounds[k]:bounds[k + 1]]``.
    Its entries are ``columns`` and ``values`` over ``entry_bounds[k]:
    entry_bounds[k + 1]``, member after member, each member's entries in
    column order, and ``member_of`` holds each entry's member position
    within its neuron.  With V rows, N neurons and E entries that is
    ``8 * (3 * E + 2 * V + 2 * (N + 1))`` bytes.  Every array is read-only.
    That and the space's own row are all the scorer reads.
    """

    som: SomNetwork
    neurons: np.ndarray = field(repr=False, compare=False)
    bounds: np.ndarray = field(repr=False, compare=False)
    entry_bounds: np.ndarray = field(repr=False, compare=False)
    columns: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)
    member_of: np.ndarray = field(repr=False, compare=False)
    norms: np.ndarray = field(repr=False, compare=False)


def _rows(space: RowSpace) -> np.ndarray:
    """The space's dense matrix; a space with no rows has nothing to cluster."""
    if not space.keys:
        raise EmptyInput("no rows to cluster")
    return space.matrix


def _cluster_model(net: SomNetwork, space: RowSpace, neurons) -> UserClusterModel:
    """The model whose rows sit on ``neurons``, with each neuron's block."""
    neurons = np.array(neurons, int)
    members = np.argsort(neurons, kind="stable")
    sizes = np.bincount(neurons, minlength=net.neuron_count)
    bounds = np.concatenate(([0], sizes.cumsum()))
    counts = np.diff(space.starts)[members]
    firsts = np.concatenate(([0], counts.cumsum()))  # each member's first entry in the blocks
    # block entry k of member i is space entry k + starts[members[i]] - firsts[i]
    take = np.arange(len(space.columns)) + (space.starts[members] - firsts[:-1]).repeat(counts)
    position = np.arange(len(members)) - bounds[neurons[members]]
    blocks = (firsts[bounds], space.columns[take], space.values[take], position.repeat(counts))
    arrays = (neurons, bounds, *blocks, space.norms[members])
    for array in arrays:
        array.setflags(write=False)
    return UserClusterModel(net, *arrays)


def cluster_virtual_users(
    space: RowSpace, cfg: SomConfig = SomConfig(DEFAULT_PHASE3_NEURONS)
) -> UserClusterModel:
    """Phase 3: cluster the rows of a 2-D space (virtual users or plain users)."""
    matrix = _rows(space)
    net = train(matrix, cfg)
    return _cluster_model(net, space, assign(net, matrix))


def _score(model: UserClusterModel, space: RowSpace, key) -> tuple[np.ndarray, np.ndarray]:
    """The row's unrated columns, ascending, and their predicted scores.

    Peers are the other rows on the same neuron, in row order; each item's
    score is the cosine-similarity-weighted mean of the peers that rated it.
    When no peer rated the item (or total similarity is zero), the neuron's
    weight component stands in.  A query slices its neuron's block from the
    model (the members' entries, member positions and norms) and reads its
    own row from the space.  Every sum is an ``np.bincount`` over the block,
    member after member in row order and each member's entries in column
    order, and norms are the space's ``norms``, so each score has the bits
    of a plain left-to-right loop over the peers and their entries.  The own
    row is a member too; its entries lie in its own rated columns, which are
    not returned.
    """
    row = space.row(key)  # raises for unknown keys
    neuron = model.neurons[row]
    block = slice(model.entry_bounds[neuron], model.entry_bounds[neuron + 1])
    columns, values, member_of = model.columns[block], model.values[block], model.member_of[block]
    norms = model.norms[model.bounds[neuron] : model.bounds[neuron + 1]]
    p = len(space.items)
    span = slice(space.starts[row], space.starts[row + 1])
    own_vec = np.zeros(p)
    own_vec[space.columns[span]] = space.values[span]
    dots = np.bincount(member_of, own_vec[columns] * values, minlength=len(norms))
    weights = _divide(dots, norms * space.norms[row])[member_of]
    num = np.bincount(columns, weights * values, minlength=p)
    den = np.bincount(columns, weights, minlength=p)
    prototype = model.som.weights[neuron]
    scored = np.divide(num, den, out=prototype.copy(), where=den > 0.0)
    unrated = (own_vec == 0.0).nonzero()[0]
    return unrated, scored[unrated]


def _ranked(model: UserClusterModel, space: RowSpace, key, n: int) -> list[tuple[str, float]]:
    """The n best (item, score) of the row's unrated items: descending score,
    ties to ascending item id.  Both systems rank through here.  Below the
    candidate count only the scores at or above the n-th best (ties at the
    cut too) are sorted: the prefix of the full order, with its bits."""
    columns, scores = _score(model, space, key)
    if n <= 0:
        return []
    if n < len(scores):
        keep = scores >= np.partition(scores, -n)[-n]
        columns, scores = columns[keep], scores[keep]
    top = np.lexsort((space.item_rank[columns], -scores))[:n]
    return [(space.items[j], s) for j, s in zip(columns[top].tolist(), scores[top].tolist())]


def recommend(
    model: UserClusterModel,
    space: RowSpace,
    clusterings: Mapping[str, ContextClustering],
    user: str,
    online_context: ContextSituation,
    n: int,
) -> list[tuple[str, float]]:
    """Top-n items for ``user`` in a live context.

    The online situation is routed to the cluster label it received in
    phase 1.  A situation the user never rated in (hence unlabeled) falls
    back to the one of the user's virtual users (user, 1..m) with the most
    rated items (ties to the smallest label).  Items the chosen virtual user
    rated in training are never returned.
    """
    clustering = clusterings.get(user)
    if clustering is None:
        raise UnknownUser(f"no clustering for user {user!r}")
    label = clustering.labels.get(online_context.flat_index)
    if label is None:
        if clustering.m == 0:
            raise EmptyInput(f"user {user!r} has no virtual users")

        def size(k: int) -> tuple:  # rated items, ties to the smallest label
            row = space.row((user, k))
            return space.starts[row + 1] - space.starts[row], -k

        label = max(range(1, clustering.m + 1), key=size)
    return _ranked(model, space, (user, label), n)


@dataclass
class PipelineModel:
    """A fully trained three-phase recommender."""

    schema: ContextSchema
    phase1_cfg: SomConfig
    clusterings: dict[str, ContextClustering]
    space: RowSpace
    user_model: UserClusterModel

    def recommend(
        self, user: str, online_context: ContextSituation, n: int
    ) -> list[tuple[str, float]]:
        return recommend(
            self.user_model, self.space, self.clusterings, user, online_context, n
        )

    def recommend_key(self, key: VirtualUserId, n: int) -> list[str]:
        """Ranked item ids for one virtual user (evaluation surface)."""
        return [item for item, _ in _ranked(self.user_model, self.space, key, n)]

    def eval_user_pool(self) -> list[str]:
        return sorted(self.clusterings)

    def eval_units(
        self, user: str, test: RatingCube, threshold: int
    ) -> list[tuple[VirtualUserId, set[str]]]:
        """Evaluation units for one user: (virtual user, relevant test items).

        A test rating counts toward the virtual user whose label its
        situation received in phase 1; test ratings in unlabeled situations
        have no virtual user and are left out.  Units with no items at or
        above the threshold are dropped.  Ordered by ascending label.
        """
        clustering = self.clusterings.get(user)
        if clustering is None:
            raise UnknownUser(f"no clustering for user {user!r}")
        relevant: dict[int, set[str]] = {}
        for flat, item_ratings in test.user_ratings(user).items():
            label = clustering.labels.get(flat)
            if label is None:
                continue
            for item, rating in item_ratings.items():
                if rating >= threshold:
                    relevant.setdefault(label, set()).add(item)
        return [((user, label), relevant[label]) for label in sorted(relevant)]


def fit_phase1(
    train_cube: RatingCube, cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS), workers: int = 1
) -> dict[str, ContextClustering]:
    """Phase 1: one ``cluster_users`` call over every user with ratings, or,
    when ``workers`` > 1, the same job mapped over ``workers`` interleaved
    slices of the users in a pool of at most ``os.cpu_count()`` processes.
    Seeds derive from user ids and the networks of one call do not
    interact: any split of the users gives the same result."""
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    users = [u for u in sorted(train_cube.users) if train_cube.user_ratings(u)]
    if not users:
        raise EmptyInput("training cube has no ratings")
    # the pool starts every worker at its first task: ask for no more than can run
    workers = min(workers, os.cpu_count() or 1, len(users))
    job = partial(cluster_users, train_cube, cfg=cfg)
    if workers == 1:
        return job(users)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(job, [users[w::workers] for w in range(workers)]))
    by_user = {user: c for result in results for user, c in result.items()}
    return {user: by_user[user] for user in users}


def fit_pipeline(
    train_cube: RatingCube,
    phase1_cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS),
    phase3_cfg: SomConfig = SomConfig(DEFAULT_PHASE3_NEURONS),
    workers: int = 1,
) -> PipelineModel:
    """Run phases 1-3 on a training cube, phase 1 over ``workers`` processes."""
    clusterings = fit_phase1(train_cube, phase1_cfg, workers)
    space = build_virtual_space(train_cube, clusterings)
    user_model = cluster_virtual_users(space, phase3_cfg)
    return PipelineModel(train_cube.schema, phase1_cfg, clusterings, space, user_model)


def _save_bundle(model, directory: str | Path, space_file: str) -> Path:
    """Write schema.json, the space file and user_som.json of either system."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jsonio.write_json(directory / "schema.json", model.schema.to_json_dict())
    jsonio.write_json(directory / space_file, model.space.to_json_dict())
    jsonio.write_json(directory / "user_som.json", som_to_json_dict(model.user_model.som))
    return directory


def _load_bundle(directory: str | Path, space_file: str):
    """Read schema.json, the space file and user_som.json of either system.

    The SOM must span the space's items with one finite weight row per
    neuron of its config, and every stored rating must lie in the schema's
    range.  Returns (schema, space, user model).
    """
    directory = Path(directory)
    space_path, som_path = directory / space_file, directory / "user_som.json"
    schema = jsonio.read_parsed(directory / "schema.json", ContextSchema.from_json_dict)
    space = jsonio.read_parsed(space_path, RowSpace.from_json_dict)
    net = jsonio.read_parsed(som_path, som_from_json_dict)
    if net.weights.ndim != 2 or net.p != len(space.items):
        raise CorruptFile(f"{som_path} does not span the items of {space_file}")
    if net.config.neuron_count != net.neuron_count:
        raise CorruptFile(f"{som_path} has {net.neuron_count} weight rows for its neuron_count")
    if not np.isfinite(net.weights).all():
        raise CorruptFile(f"{som_path} holds a non-finite weight")
    stored = space.values
    if not np.all((stored >= schema.rating_min) & (stored <= schema.rating_max)):
        raise CorruptFile(f"{space_path} holds a rating outside the schema's range")
    return schema, space, _cluster_model(net, space, assign(net, _rows(space)))


def _clusterings_from_json(
    data, schema: ContextSchema
) -> tuple[SomConfig, dict[str, ContextClustering]]:
    clusterings = {
        user: ContextClustering(
            user,
            {
                jsonio.index_key(flat): jsonio.integer(label, "label")
                for flat, label in entry["labels"].items()
            },
            jsonio.integer(entry["m"], "m"),
        )
        for user, entry in data["users"].items()
    }
    for c in clusterings.values():
        if not all(0 <= flat < schema.situation_count for flat in c.labels):
            raise InvalidConfig(f"user {c.user_id!r} labels a flat index outside the schema")
    return SomConfig.from_json_dict(data["phase1_config"]), clusterings


def save_pipeline(model: PipelineModel, directory: str | Path) -> None:
    """Persist a pipeline bundle: schema, clusterings, space, user SOM."""
    directory = _save_bundle(model, directory, "virtual_space.json")
    users = {
        user: {
            "m": c.m,
            "labels": {str(flat): label for flat, label in sorted(c.labels.items())},
        }
        for user, c in sorted(model.clusterings.items())
    }
    jsonio.write_json(
        directory / "clusterings.json",
        {"phase1_config": jsonio.config_dict(model.phase1_cfg), "users": users},
    )


def load_pipeline(directory: str | Path) -> PipelineModel:
    """Load a pipeline bundle; each row's neuron is recomputed from the stored SOM.

    Every labelled flat index must lie in the schema, and the space's rows
    must be exactly the virtual users (user, 1..m) of the clusterings, which
    the unlabeled-context fallback of ``recommend`` uses.
    """
    schema, space, user_model = _load_bundle(directory, "virtual_space.json")
    path = Path(directory) / "clusterings.json"
    phase1_cfg, clusterings = jsonio.read_parsed(path, lambda d: _clusterings_from_json(d, schema))
    labels = {(user, k) for user, c in clusterings.items() for k in range(1, c.m + 1)}
    if set(space.keys) != labels:
        raise CorruptFile(f"virtual_space.json rows are not the virtual users of {path}")
    return PipelineModel(schema, phase1_cfg, clusterings, space, user_model)
