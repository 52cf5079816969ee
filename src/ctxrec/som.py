"""Self-organizing map with cosine-similarity matching.

The network is a 1-D line of neurons.  For each presented input the best
matching unit (highest cosine similarity, ties to the lowest index) and every
neuron within the current neighborhood radius move toward the input:

    W <- W + alpha * (X - W)

with a learning rate and a rectangular neighborhood radius that both decay
linearly over epochs.  Inputs are one (n, p) float64 array, one row per
input vector; a list of equal-length vectors is converted with
``np.asarray``.  Training is a pure function of (inputs, config): the
weight initialization and the per-epoch presentation order come from the
package's portable xoshiro256** generator seeded by ``config.seed``.
``train_many`` trains many same-shaped networks in lockstep; each one is
bit-identical to training it alone, and ``train`` is its one-network case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyInput, InvalidConfig, LengthMismatch
from .rng import Xoshiro256, XoshiroLanes
from . import jsonio


@dataclass(frozen=True)
class SomConfig:
    """Training hyperparameters for one network.

    ``radius0=None`` means the default initial radius ``neuron_count // 4``.
    """

    neuron_count: int
    epochs: int = 50
    alpha0: float = 0.5
    radius0: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.neuron_count < 1:
            raise InvalidConfig("neuron_count must be >= 1")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if not 0.0 < self.alpha0 <= 1.0:
            raise InvalidConfig("alpha0 must be in (0, 1]")
        if self.radius0 is not None and not 0 <= self.radius0 < math.inf:
            raise InvalidConfig("radius0 must be finite and >= 0")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")

    @property
    def effective_radius0(self) -> float:
        return float(self.neuron_count // 4) if self.radius0 is None else float(self.radius0)

    @classmethod
    def from_json_dict(cls, data) -> "SomConfig":
        return cls(
            neuron_count=int(data["neuron_count"]),
            epochs=int(data["epochs"]),
            alpha0=float(data["alpha0"]),
            radius0=None if data["radius0"] is None else float(data["radius0"]),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class SomNetwork:
    """A trained Kohonen layer: one weight row per neuron."""

    weights: np.ndarray
    config: SomConfig

    @property
    def neuron_count(self) -> int:
        return self.weights.shape[0]

    @property
    def p(self) -> int:
        return self.weights.shape[1]


def cosine_similarity(x: Sequence[float], w: Sequence[float]) -> float:
    """Cosine of the angle between two nonnegative vectors, in [0, 1].

    Defined as 0 when either vector is all-zero (such a vector has no
    direction, so it never wins a best-match comparison).
    """
    xa = np.asarray(x, dtype=np.float64)
    wa = np.asarray(w, dtype=np.float64)
    if xa.shape != wa.shape:
        raise LengthMismatch(f"vector lengths differ: {xa.shape} vs {wa.shape}")
    denom = float(np.linalg.norm(xa)) * float(np.linalg.norm(wa))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xa, wa)) / denom


def _cosines(weights, weight_norms, x, x_norms) -> np.ndarray:
    """(k, N) cosine similarities of each input ``x[i]`` (k, p) to the rows of
    ``weights[i]`` (k, N, p), or of every input to the rows of ``weights[0]``
    when it is (1, N, p); 0 where the product of the norms is 0.  numpy sends
    each stacked (N, p) @ (p, 1) product to gemv and each (1, p) @ (p, 1) to
    dot, as ``W @ x`` and ``np.dot`` of one vector do, so every cosine keeps
    their bits; ``X @ W.T`` (gemm) and ``einsum`` round differently."""
    dots = np.matmul(weights, x[:, :, None])[:, :, 0]
    return _divide(dots, weight_norms * x_norms[:, None])


def _divide(dots: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``dots / denom``, 0 where ``denom`` is not positive (or NaN): the
    zero-norm rule of every cosine.  In place when every ``denom`` is
    positive; ``initial`` lets an empty ``denom`` (a query with no peers)
    take that path, where ``denom.min()`` would raise."""
    if np.minimum.reduce(denom, axis=None, initial=np.inf) > 0.0:
        dots /= denom
        return dots
    return np.divide(dots, denom, out=np.zeros_like(denom), where=denom > 0.0)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Each row's norm, with the bits of ``np.linalg.norm`` of that row alone."""
    return np.sqrt(np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0])


def _weight_norms(w: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """Norms along the last axis, the bits of ``np.linalg.norm(w, axis=-1)``;
    the squares go to ``squares``, a dead array of w's shape, if given."""
    return np.sqrt(np.add.reduce(np.multiply(w, w, out=squares), axis=-1))


def initial_weights(cfg: SomConfig, p: int, rng: Xoshiro256 | None = None) -> np.ndarray:
    """Seeded uniform(0.01, 1.0) weights, drawn row-major; never all-zero."""
    if rng is None:
        rng = Xoshiro256(cfg.seed)
    weights = np.empty((cfg.neuron_count, p), dtype=np.float64)
    for i in range(cfg.neuron_count):
        for j in range(p):
            weights[i, j] = rng.uniform(0.01, 1.0)
    return weights


def _as_input_matrix(inputs: np.ndarray) -> np.ndarray:
    """The inputs as one (n, p) float64 array; an array that already is one
    is returned as it is, not copied."""
    if len(inputs) == 0:
        raise EmptyInput("at least one input vector is needed")
    try:
        matrix = np.asarray(inputs, dtype=np.float64)
    except ValueError:
        raise LengthMismatch("input vectors have differing lengths") from None
    if matrix.ndim != 2:
        raise LengthMismatch(f"inputs must be (n, p) vectors, got shape {matrix.shape}")
    return matrix


def train(inputs: np.ndarray, cfg: SomConfig) -> SomNetwork:
    """Train a network; the result is fully determined by (inputs, cfg).

    Epoch ``e`` (0-based) uses ``alpha = alpha0 * (1 - e / epochs)`` and a
    rectangular radius ``round(radius0 * (1 - e / epochs))`` (half-up), and
    presents the inputs in a freshly shuffled order.
    """
    return train_many([inputs], cfg, [cfg.seed])[0]


def train_many(
    inputs_per_net: Sequence[np.ndarray], cfg: SomConfig, seeds: Sequence[int]
) -> list[SomNetwork]:
    """Train one network per input set, all in lockstep.

    Network ``k`` is bit-identical to ``train(inputs_per_net[k],
    replace(cfg, seed=seeds[k]))``: its initial weights come from lane ``k``
    of the xoshiro256** lanes, its per-epoch shuffles from that lane's
    scalar continuation, and the batched similarity and update arithmetic is
    the per-network arithmetic, element for element.  The networks are kept
    as one ``(lanes, neurons, p)`` tensor, ordered by descending input
    count, so the lanes that still present an input at step ``k`` of an
    epoch are a prefix.  One lane draws its weights from the scalar
    generator, which is far cheaper than a one-lane vector.  Raises
    ``InvalidConfig`` when numpy cannot create the weight array.
    """
    if len(inputs_per_net) != len(seeds):
        raise LengthMismatch(f"{len(inputs_per_net)} input sets but {len(seeds)} seeds")
    if not seeds:
        return []
    matrices = [_as_input_matrix(inputs) for inputs in inputs_per_net]
    p = matrices[0].shape[1]
    if any(matrix.shape[1] != p for matrix in matrices):
        raise LengthMismatch("networks trained together need equal input lengths")
    configs = [replace(cfg, seed=seed) for seed in seeds]
    by_count = sorted(range(len(seeds)), key=lambda k: -matrices[k].shape[0])
    counts = [matrices[k].shape[0] for k in by_count]
    lanes = len(by_count)

    try:
        if lanes == 1:
            rngs = [Xoshiro256(seeds[0])]
            weights = initial_weights(configs[0], p, rngs[0])[None]
        else:
            lane_rng = XoshiroLanes([seeds[k] for k in by_count])
            weights = lane_rng.uniform(0.01, 1.0, cfg.neuron_count * p)
            weights = weights.reshape(lanes, cfg.neuron_count, p)
            rngs = [lane_rng.lane(i) for i in range(lanes)]
    except (ValueError, MemoryError):  # numpy cannot create the weight array
        raise InvalidConfig(
            f"cannot allocate SOM weights for {cfg.neuron_count} neurons of input length {p}"
        ) from None
    flat = matrices[0] if lanes == 1 else np.concatenate([matrices[k] for k in by_count])
    # input norms once and weight-row norms kept current, as assign takes them
    flat_norms = _row_norms(flat)
    norms = _weight_norms(weights)
    starts = np.cumsum([0] + counts[:-1])
    # positions at which two or more lanes present an input; after them
    # lane 0 (which starts at flat row 0) goes on alone
    shared = counts[1] if lanes > 1 else 0
    active = [sum(1 for n in counts if n > k) for k in range(shared)]
    radius0 = cfg.effective_radius0
    lone, lone_norms = weights[0], norms[0]
    scratch = np.empty_like(lone)

    for epoch in range(cfg.epochs):
        decay = 1.0 - epoch / cfg.epochs
        alpha = cfg.alpha0 * decay
        radius = int(math.floor(radius0 * decay + 0.5))
        offsets = np.arange(-radius, radius + 1)
        rows = np.zeros((lanes, counts[0]), dtype=np.intp)
        for i, n in enumerate(counts):
            order = list(range(n))
            rngs[i].shuffle(order)
            rows[i, :n] = order
        rows += starts[:, None]
        for position, n_active in enumerate(active):
            picked = rows[:n_active, position]
            x = flat[picked]
            sims = _cosines(weights[:n_active], norms[:n_active], x, flat_norms[picked])
            bmus = sims.argmax(axis=1)
            # every lane's neighbourhood rows at once: gather, move, scatter
            neighbours = bmus[:, None] + offsets
            inside = (neighbours >= 0) & (neighbours < cfg.neuron_count)
            lane = np.broadcast_to(np.arange(n_active)[:, None], inside.shape)[inside]
            neuron = neighbours[inside]
            # in place, so a step allocates two (rows, p) arrays, not five
            hood = weights[lane, neuron]
            step = x[lane]
            step -= hood
            step *= alpha
            hood += step
            weights[lane, neuron] = hood
            norms[lane, neuron] = _weight_norms(hood, step)
        # lane 0 alone: the same arithmetic on views, no gathers; W @ x is the
        # gemv _cosines reaches, divided by its _divide, and the neighbourhood
        # moves through scratch
        for i in rows[0, shared:].tolist():
            x = flat[i]
            bmu = int(_divide(lone @ x, lone_norms * flat_norms[i]).argmax())
            lo, hi = max(0, bmu - radius), min(cfg.neuron_count, bmu + radius + 1)
            hood, step = lone[lo:hi], scratch[: hi - lo]
            step[...] = x
            step -= hood
            step *= alpha
            hood += step
            lone_norms[lo:hi] = _weight_norms(hood, step)

    weights.setflags(write=False)
    nets = [None] * lanes
    for i, k in enumerate(by_count):
        nets[k] = SomNetwork(weights[i], configs[k])
    return nets


def assign(net: SomNetwork, inputs: np.ndarray) -> list[int]:
    """BMU index for each input row (highest cosine similarity, ties to the
    lowest index); identical inputs get identical labels."""
    matrix = _as_input_matrix(inputs)
    if matrix.shape[1] != net.p:
        raise LengthMismatch(f"input length {matrix.shape[1]} != {net.p}")
    weights = net.weights[None]
    sims = _cosines(weights, _weight_norms(weights), matrix, _row_norms(matrix))
    return sims.argmax(axis=1).tolist()


def mean_similarity(net: SomNetwork, inputs: np.ndarray) -> float:
    """Mean cosine similarity between inputs and their BMU rows."""
    matrix = _as_input_matrix(inputs)
    bmus = assign(net, matrix)
    return sum(cosine_similarity(x, net.weights[b]) for x, b in zip(matrix, bmus)) / len(bmus)


def som_to_json_dict(net: SomNetwork) -> dict:
    return {
        "config": jsonio.config_dict(net.config),
        "weights": [[float(v) for v in row] for row in net.weights],
    }


def som_from_json_dict(data) -> SomNetwork:
    weights = np.asarray(data["weights"], dtype=np.float64)
    weights.setflags(write=False)
    return SomNetwork(weights, SomConfig.from_json_dict(data["config"]))

