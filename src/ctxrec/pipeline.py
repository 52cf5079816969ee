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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .core import ContextSchema, ContextSituation, RatingCube
from .errors import CorruptFile, EmptyInput, InvalidConfig, UnknownUser
from .rng import derive_seed
from .som import SomConfig, SomNetwork, _cosines, _row_norms, assign, train, train_many
from .som import som_from_json_dict, som_to_json_dict
from . import jsonio

DEFAULT_PHASE1_NEURONS = 6
DEFAULT_PHASE3_NEURONS = 21

VirtualUserId = tuple[str, int]


def aggregate(values: Sequence[float]) -> float:
    """Arithmetic mean of rating values (the built-in aggregator)."""
    if len(values) == 0:
        raise EmptyInput("cannot aggregate zero ratings")
    return sum(float(v) for v in values) / len(values)


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
    cube: RatingCube,
    user: str,
    cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS),
    net: SomNetwork | None = None,
) -> ContextClustering:
    """Cluster one user's rated situations by usage pattern.

    The SOM seed is derived from ``cfg.seed`` and the user id, so per-user
    networks are independent of the order users are processed in.  ``net``
    is the user's SOM when it was already trained with a block of users
    (``cluster_users``); otherwise it is trained here.
    """
    flats, matrix = _usage_matrix(cube, user)
    if net is None:
        net = train(matrix, replace(cfg, seed=_phase1_seed(cfg, user)))
    raw = assign(net, matrix)
    occupied = sorted(set(raw))
    label_of = {neuron: i + 1 for i, neuron in enumerate(occupied)}
    labels = {flat: label_of[neuron] for flat, neuron in zip(flats, raw)}
    return ContextClustering(user, labels, len(occupied))


def cluster_users(
    cube: RatingCube, users: Sequence[str], cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS)
) -> dict[str, ContextClustering]:
    """Phase 1 for a block of users, their SOMs trained in lockstep.

    Each user's clustering is exactly ``cluster_user_contexts(cube, user,
    cfg)``: the networks of one ``train_many`` call do not interact.
    """
    inputs = [_usage_matrix(cube, user)[1] for user in users]
    nets = train_many(inputs, cfg, [_phase1_seed(cfg, user) for user in users])
    return {
        user: cluster_user_contexts(cube, user, cfg, net) for user, net in zip(users, nets)
    }


def _phase1_seed(cfg: SomConfig, user: str) -> int:
    return derive_seed(cfg.seed, "phase1", user)


def _usage_matrix(cube: RatingCube, user: str) -> tuple[list[int], np.ndarray]:
    flats, matrix = cube.usage_matrix(user)  # raises UnknownUser
    if not flats:
        raise EmptyInput(f"user {user!r} has no ratings")
    return flats, matrix


class RowSpace:
    """A 2-D recommendation space: one row per key, one column per item.

    Keys are (user, label) virtual users for the pipeline and plain user ids
    for the flat baseline, and 0 means unrated.  Only the rated entries are
    kept, row by row in column order: row ``i`` holds ``values[starts[i]:
    starts[i + 1]]`` in columns ``columns[starts[i]:starts[i + 1]]``.  The
    spaces are a few per cent dense, so this is a small part of the dense
    float64 matrix, which ``dense`` and ``matrix`` rebuild on demand with the
    same values.
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
        # each row's entries in column order
        order = np.lexsort((columns, np.repeat(np.arange(len(rows)), counts)))
        self.starts = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
        self.columns, self.values = columns[order], values[order]
        for array in (self.starts, self.columns, self.values):
            array.setflags(write=False)
        self.index = {key: i for i, key in enumerate(self.keys)}
        # each column's place in ascending item-id order, the ranking tie-break
        by_id = sorted(range(len(self.items)), key=self.items.__getitem__)
        self.item_rank = np.empty(len(by_id), dtype=np.intp)
        self.item_rank[by_id] = np.arange(len(by_id))

    def dense(self, rows: Sequence[int]) -> np.ndarray:
        """Dense float64 copies of the given rows, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        first = self.starts[rows]
        counts = self.starts[rows + 1] - first
        ends = np.cumsum(counts)
        # positions of the rows' entries in columns/values, row after row
        take = np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - ends + counts, counts)
        out = np.zeros((len(rows), len(self.items)))
        out[np.repeat(np.arange(len(rows)), counts), self.columns[take]] = self.values[take]
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The whole space as one read-only dense matrix, built on each access."""
        matrix = self.dense(np.arange(len(self.keys)))
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
        keys = [(r["user"], int(r["label"])) if "label" in r else r["user"] for r in rows]
        if len(set(keys)) != len(keys):
            raise InvalidConfig("row keys must be unique")
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
        key: {item: aggregate(ratings) for item, ratings in values[key].items()}
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
    """Phase-3 SOM over a 2-D space plus each row's neuron, by row.

    ``norms`` holds each row's Euclidean norm and ``members[k]`` the rows on
    neuron ``k`` in ascending order: the scorer's O(rows) state.
    """

    som: SomNetwork
    neurons: np.ndarray = field(repr=False, compare=False)
    norms: np.ndarray = field(repr=False, compare=False)
    members: tuple[np.ndarray, ...] = field(repr=False, compare=False)


def _cluster_model(net: SomNetwork, matrix: np.ndarray) -> UserClusterModel:
    if not len(matrix):
        raise EmptyInput("no rows to cluster")
    neurons = np.asarray(assign(net, matrix), int)
    norms = _row_norms(matrix)
    by_neuron = np.argsort(neurons, kind="stable")
    bounds = np.searchsorted(neurons[by_neuron], np.arange(1, net.neuron_count))
    return UserClusterModel(net, neurons, norms, tuple(np.split(by_neuron, bounds)))


def cluster_virtual_users(
    space: RowSpace, cfg: SomConfig = SomConfig(DEFAULT_PHASE3_NEURONS)
) -> UserClusterModel:
    """Cluster the rows of a 2-D space (virtual users or plain users)."""
    if not space.keys:
        raise EmptyInput("no rows to cluster")
    matrix = space.matrix
    return _cluster_model(train(matrix, cfg), matrix)


def _score(model: UserClusterModel, space: RowSpace, key) -> tuple[np.ndarray, np.ndarray]:
    """The row's unrated columns, ascending, and their predicted scores.

    Peers are the other rows on the same neuron, in row order; each item's
    score is the cosine-similarity-weighted mean of the peers that rated it.
    When no peer rated the item (or total similarity is zero), the neuron's
    weight component stands in.  Each peer's similarity is
    ``cosine_similarity`` of the two rows, bit for bit: one (1, p) @ (p, 1)
    product per peer over the cached norms.  0 means unrated, so the peers'
    rows are already the masked ratings of the weighted mean.
    """
    row = space.row(key)  # raises for unknown keys
    neuron = model.neurons[row]
    own_vec = space.dense([row])[0]
    peers = model.members[neuron]
    peers = peers[peers != row]
    peer_rows = space.dense(peers)
    sims = _cosines(own_vec[None, None], model.norms[[row]], peer_rows, model.norms[peers])[:, 0]
    den = sims @ (peer_rows > 0.0)
    prototype = model.som.weights[neuron]
    scored = np.divide(sims @ peer_rows, den, out=prototype.copy(), where=den > 0.0)
    columns = np.flatnonzero(own_vec == 0.0)
    return columns, scored[columns]


def _ranked(model: UserClusterModel, space: RowSpace, key, n: int) -> list[tuple[str, float]]:
    """The n best (item, score) of the row's unrated items: descending score,
    ties to ascending item id.  Both systems rank through here."""
    columns, scores = _score(model, space, key)
    if n <= 0:
        return []
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
        label = max(
            range(1, clustering.m + 1),
            key=lambda k: (len(space.ratings_of((user, k))), -k),
        )
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


# users whose phase-1 SOMs train together in one train_many call.  It bounds
# the block's (users x neurons x p) arrays: at 630 users x 384 items a block
# of 64 adds about 5 MB of RSS in phase 1, well under the 12 MB phase 3
# adds, while 128 added 10 MB and raised the run's peak.
PHASE1_BLOCK = 64

_worker_cube: RatingCube | None = None
_worker_cfg: SomConfig | None = None


def _phase1_init(cube: RatingCube, cfg: SomConfig) -> None:
    global _worker_cube, _worker_cfg
    _worker_cube = cube
    _worker_cfg = cfg


def _phase1_job(block: list[str]) -> dict[str, ContextClustering]:
    return cluster_users(_worker_cube, block, _worker_cfg)


def _phase1_blocks(cube: RatingCube, users: list[str], workers: int) -> list[list[str]]:
    """Users sorted by input count, cut into blocks of at most PHASE1_BLOCK
    (smaller when that gives every worker a block)."""
    by_count = sorted(users, key=lambda user: len(cube.user_ratings(user)))
    size = min(PHASE1_BLOCK, -(-len(users) // workers))
    return [by_count[i : i + size] for i in range(0, len(by_count), size)]


def fit_pipeline(
    train_cube: RatingCube,
    phase1_cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS),
    phase3_cfg: SomConfig = SomConfig(DEFAULT_PHASE3_NEURONS),
    workers: int = 1,
) -> PipelineModel:
    """Run phases 1-3 on a training cube.

    Phase 1 trains the users' SOMs in lockstep blocks; ``workers`` > 1
    spreads the blocks over at most ``os.cpu_count()`` processes, one per
    block at most.  Every user's SOM seed is derived from the user id and
    networks in a block do not interact, so the result is identical for any
    block grouping, worker count or scheduling.
    """
    # the pool starts every worker at its first task: ask for no more than can run
    workers = max(1, min(workers, os.cpu_count() or 1))
    users = [u for u in sorted(train_cube.users) if train_cube.user_ratings(u)]
    if not users:
        raise EmptyInput("training cube has no ratings")
    blocks = _phase1_blocks(train_cube, users, workers)
    workers = min(workers, len(blocks))
    by_user: dict[str, ContextClustering] = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_phase1_init,
            initargs=(train_cube, phase1_cfg),
        ) as pool:
            for result in pool.map(_phase1_job, blocks):
                by_user.update(result)
    else:
        for block in blocks:
            by_user.update(cluster_users(train_cube, block, phase1_cfg))
    clusterings = {user: by_user[user] for user in users}
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
    return schema, space, _cluster_model(net, space.matrix)


def _clusterings_from_json(
    data, schema: ContextSchema
) -> tuple[SomConfig, dict[str, ContextClustering]]:
    clusterings = {
        user: ContextClustering(
            user,
            {int(flat): int(label) for flat, label in entry["labels"].items()},
            int(entry["m"]),
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
