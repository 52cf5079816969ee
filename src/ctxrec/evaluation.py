"""Train/test splitting and top-N evaluation.

The protocol mirrors classic top-N recommender evaluation: hold out 20% of
ratings, recommend N items per evaluation unit, and score the overlap with
the held-out items rated at or above a relevance threshold.

An *evaluation unit* is whatever a model recommends for: a (user, cluster
label) virtual user for the context pipeline, the plain user for the flat
baseline.  Per-user F1 is the mean over that user's units, the reported
figure the mean over sampled users.  All metric arithmetic is plain Python
float arithmetic in a documented order (units by ascending label, users in
sorted id order), so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

from .baseline import BaselineModel, flatten_cube
from .core import RatingCube
from .errors import EmptyInput, InvalidConfig
from .pipeline import DEFAULT_PHASE1_NEURONS, DEFAULT_PHASE3_NEURONS, PipelineModel
from .pipeline import build_virtual_space, cluster_virtual_users, fit_phase1, fit_pipeline
from .rng import derive_seed, permutation
from .som import SomConfig, _mean
from . import jsonio

DEFAULT_TOP_NS = (5, 10, 15, 20, 25, 30)


@dataclass(frozen=True)
class SplitConfig:
    """Ratio split of a cube's ratings into train and test."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise InvalidConfig(
                f"train_fraction must be in (0, 1], got {self.train_fraction}"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol parameters."""

    top_ns: tuple[int, ...] = DEFAULT_TOP_NS
    threshold: int = 4
    sample_users: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.top_ns or any(n <= 0 for n in self.top_ns):
            raise InvalidConfig("top_ns must be positive")
        if tuple(sorted(set(self.top_ns))) != tuple(self.top_ns):
            raise InvalidConfig("top_ns must be strictly increasing")
        if self.sample_users <= 0:
            raise InvalidConfig("sample_users must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


def _cut(items: Sequence, seed: int, k: int) -> tuple[list, list]:
    """The items at the first ``k`` positions of ``permutation(seed, n)``,
    and the rest, both in the items' order."""
    order = permutation(seed, len(items)).tolist()
    return [items[i] for i in sorted(order[:k])], [items[i] for i in sorted(order[k:])]


def split(cube: RatingCube, cfg: SplitConfig) -> tuple[RatingCube, RatingCube]:
    """Train on the ratings (in canonical order) at the first ceil(f*N)
    positions of a seeded permutation; test on the rest.

    Both halves keep the full user and item universes of the source cube,
    so vector layouts stay aligned between training and testing.
    """
    cells = list(cube.cells().items())
    n_train = math.ceil(cfg.train_fraction * len(cells))
    train, test = _cut(cells, derive_seed(cfg.seed, "split"), n_train)
    return cube.with_cells(dict(train)), cube.with_cells(dict(test))


def precision_recall(
    recommended: Sequence[str], relevant: set[str]
) -> tuple[float, float]:
    """Fraction of recommendations that hit, fraction of relevant found.

    An empty relevant set has no defined recall and signals "skip this
    user"; an empty recommendation list simply scores (0, 0).
    """
    if not relevant:
        raise EmptyInput("relevant set is empty")
    if not recommended:
        return 0.0, 0.0
    hits = len(set(recommended) & relevant)
    return hits / len(recommended), hits / len(relevant)


def f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class EvalReport:
    """Aggregate metrics of one evaluation run."""

    top_ns: tuple[int, ...]
    mean_f1: dict[int, float]
    mean_precision: dict[int, float]
    mean_recall: dict[int, float]
    n_users_evaluated: int
    n_units_evaluated: int
    skipped_no_relevant: int
    skipped_no_candidates: int
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # metrics are absent (not zero) when no user could be evaluated
        per_n = (
            {
                str(n): {
                    "mean_f1": self.mean_f1[n],
                    "mean_precision": self.mean_precision[n],
                    "mean_recall": self.mean_recall[n],
                }
                for n in self.top_ns
            }
            if self.n_users_evaluated
            else {}
        )
        return {
            "config": self.config,
            "per_n": per_n,
            "n_users_evaluated": self.n_users_evaluated,
            "n_units_evaluated": self.n_units_evaluated,
            "skipped_no_relevant": self.skipped_no_relevant,
            "skipped_no_candidates": self.skipped_no_candidates,
        }

    def csv_text(self) -> str:
        return jsonio.csv_text(
            ("n", "mean_f1", "mean_precision", "mean_recall"),
            (
                (n, self.mean_f1[n], self.mean_precision[n], self.mean_recall[n])
                for n in self.top_ns
            ),
        )


def sample_eval_users(pool: Sequence[str], cfg: EvalConfig) -> list[str]:
    """Seeded sample of up to ``sample_users`` ids, returned sorted: the ids
    of the sorted pool at the first positions of its permutation."""
    return _cut(sorted(pool), derive_seed(cfg.seed, "sample"), cfg.sample_users)[0]


def evaluate(model, test: RatingCube, cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Score a trained model against held-out ratings.

    For every sampled user, each of the model's evaluation units gets one
    ranked list of ``max(top_ns)`` candidates; the shorter cutoffs are
    prefixes of it.  Users with no relevant held-out items are skipped and
    counted, as are units for which the model can produce no candidates.
    """
    pool = model.eval_user_pool()
    if not pool:
        raise EmptyInput("model has no users to evaluate")
    users = sample_eval_users(pool, cfg)
    n_max = max(cfg.top_ns)

    # per evaluated user, per scored unit: (precision, recall) at each cutoff
    user_scores: list[list[list[tuple[float, float]]]] = []
    skipped_no_relevant = 0
    skipped_no_candidates = 0
    for user in users:
        units = model.eval_units(user, test, cfg.threshold)
        if not units:
            skipped_no_relevant += 1
            continue
        unit_scores = []
        for key, relevant in units:
            ranking = model.recommend_key(key, n_max)
            if not ranking:
                skipped_no_candidates += 1
                continue
            unit_scores.append([precision_recall(ranking[:n], relevant) for n in cfg.top_ns])
        if unit_scores:
            user_scores.append(unit_scores)

    def user_mean(k: int, metric) -> float:
        """Mean over users of each user's mean over units, at cutoff k."""
        return _mean([_mean([metric(*unit[k]) for unit in units]) for units in user_scores])

    return EvalReport(
        top_ns=cfg.top_ns,
        mean_f1={n: user_mean(k, f1) for k, n in enumerate(cfg.top_ns)},
        mean_precision={n: user_mean(k, lambda p, r: p) for k, n in enumerate(cfg.top_ns)},
        mean_recall={n: user_mean(k, lambda p, r: r) for k, n in enumerate(cfg.top_ns)},
        n_users_evaluated=len(user_scores),
        n_units_evaluated=sum(map(len, user_scores)),
        skipped_no_relevant=skipped_no_relevant,
        skipped_no_candidates=skipped_no_candidates,
        config=jsonio.config_dict(cfg),
    )


@dataclass
class PerClusterReport:
    """Mean F1 per user-cluster neuron at a single cutoff."""

    n: int
    rows: dict[int, tuple[int, float]]  # neuron -> (members evaluated, mean F1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "clusters": {
                str(neuron): {"members_evaluated": count, "mean_f1": score}
                for neuron, (count, score) in sorted(self.rows.items())
            },
        }

    def csv_text(self) -> str:
        return jsonio.csv_text(
            ("cluster", "mean_f1"),
            ((neuron, score) for neuron, (_, score) in sorted(self.rows.items())),
        )


# members of each user cluster that per_cluster_f1 samples
MEMBERS_PER_CLUSTER = 10


def per_cluster_f1(
    model, test: RatingCube, cfg: EvalConfig = EvalConfig(), n: int = 5
) -> PerClusterReport:
    """Mean F1@n over a seeded sample of members of each user cluster.

    Neurons whose members have no relevant held-out items are left out.
    """
    relevant_of: dict = {}
    for user in model.eval_user_pool():
        for key, relevant in model.eval_units(user, test, cfg.threshold):
            relevant_of[key] = relevant
    members_by_neuron: dict[int, list] = {}
    for key, neuron in zip(model.space.keys, model.user_model.neurons.tolist()):
        if key in relevant_of:
            members_by_neuron.setdefault(neuron, []).append(key)
    rows: dict[int, tuple[int, float]] = {}
    for neuron in sorted(members_by_neuron):
        seed = derive_seed(cfg.seed, "cluster", neuron)
        scores = []
        for key in _cut(sorted(members_by_neuron[neuron]), seed, MEMBERS_PER_CLUSTER)[0]:
            ranking = model.recommend_key(key, n)
            if not ranking:
                continue
            p, r = precision_recall(ranking, relevant_of[key])
            scores.append(f1(p, r))
        if scores:
            rows[neuron] = (len(scores), _mean(scores))
    return PerClusterReport(n, rows)


@dataclass
class SweepResult:
    """Mean F1@metric_n per tried neuron count, plus the winner."""

    role: str
    metric_n: int
    neuron_counts: tuple[int, ...]
    scores: tuple[float, ...]
    best: int

    def to_json_dict(self) -> dict:
        return {
            "role": self.role,
            "metric_n": self.metric_n,
            "results": [
                {"neuron_count": c, "mean_f1": s}
                for c, s in zip(self.neuron_counts, self.scores)
            ],
            "best_neuron_count": self.best,
        }

    def csv_text(self) -> str:
        return jsonio.csv_text(("neuron_count", "mean_f1"), zip(self.neuron_counts, self.scores))


def neuron_sweep(
    train_cube: RatingCube,
    test: RatingCube,
    role: str,
    neuron_counts: Sequence[int],
    phase1_cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS),
    phase3_cfg: SomConfig = SomConfig(DEFAULT_PHASE3_NEURONS),
    eval_cfg: EvalConfig = EvalConfig(),
    metric_n: int = 10,
) -> SweepResult:
    """Try neuron counts for one SOM role; best = highest mean F1@metric_n.

    ``role`` is "phase1" or "phase3" (pipeline SOMs) or "baseline" (flat
    user SOM).  Ties go to the smaller count.  Scores are those of whole
    per-count fits; "phase3" fits phases 1-2 once, "baseline" flattens once.
    """
    if role not in ("phase1", "phase3", "baseline"):
        raise InvalidConfig(f"unknown sweep role {role!r}")
    counts = tuple(neuron_counts)
    if not counts or any(c < 1 for c in counts) or sorted(set(counts)) != list(counts):
        raise InvalidConfig("neuron_counts must be distinct, positive, ascending")
    if metric_n not in eval_cfg.top_ns:
        raise InvalidConfig(f"metric_n {metric_n} is not in top_ns {eval_cfg.top_ns}")

    if role == "phase1":
        cfgs = [replace(phase1_cfg, neuron_count=count) for count in counts]
        models = (fit_pipeline(train_cube, cfg, phase3_cfg) for cfg in cfgs)
    else:
        if role == "phase3":
            clusterings = fit_phase1(train_cube, phase1_cfg)
            space = build_virtual_space(train_cube, clusterings)
            system = partial(PipelineModel, train_cube.schema, phase1_cfg, clusterings, space)
        else:
            space = flatten_cube(train_cube)
            system = partial(BaselineModel, train_cube.schema, space)
        cfgs = [replace(phase3_cfg, neuron_count=count) for count in counts]
        models = (system(cluster_virtual_users(space, cfg)) for cfg in cfgs)
    scores = [evaluate(model, test, eval_cfg).mean_f1[metric_n] for model in models]
    best = counts[scores.index(max(scores))]  # the first maximum: ties to the smaller count
    return SweepResult(role, metric_n, counts, tuple(scores), best)
