"""Self-organizing map with cosine-similarity matching.

The network is a 1-D line of neurons.  For each presented input the best
matching unit (highest cosine similarity, ties to the lowest index) and every
neuron within the current neighborhood radius move toward the input:

    W <- W + alpha * (X - W)

with a learning rate and a rectangular neighborhood radius that both decay
linearly over epochs.  Inputs are one (n, p) float64 array, one row per
input vector; a list of equal-length vectors is converted with
``np.asarray``.  Training is a pure function of (inputs, config).  Its
randomness is one SplitMix64 counter stream per network (``rng.splitmix64_at``
of ``config.seed``); for N neurons, p inputs and n rows:

* weight (k, j) is output ``k*p + j + 1``, mapped to uniform(0.01, 1.0) by
  ``0.01 + 0.99 * ((u >> 11) * 2**-53)``;
* epoch ``e`` presents the rows sorted by outputs ``N*p + e*n + r + 1``
  (row r), ties to the lower row.

Both are integer arithmetic only, so they are identical on every CPU; what
can differ between BLAS kernels is the products that training computes.
At the end of every epoch each weight below 2**-1022 (the smallest normal
float64) in magnitude is set to 0.0, as subnormal arithmetic is slow.
One trainer, ``_train_lanes``, runs many same-shaped networks in lockstep,
each bit-identical to training it alone; ``train`` is its one-network
case.  Phase 1 trains its networks, whose rows are 0 outside the few items
a user rated, on those items plus one rest column that carries the root of
the squares of all other weights of a neuron (``_train_on_support``): the
same network in real arithmetic, at a fraction of the width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyInput, InvalidConfig, LengthMismatch
from .rng import splitmix64_at
from . import jsonio

_TINY = np.finfo(np.float64).tiny  # 2**-1022, the smallest normal float64


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
        radius0 = data["radius0"]
        return cls(
            neuron_count=jsonio.integer(data["neuron_count"], "neuron_count"),
            epochs=jsonio.integer(data["epochs"], "epochs"),
            alpha0=jsonio.number(data["alpha0"], "alpha0"),
            radius0=None if radius0 is None else jsonio.number(radius0, "radius0"),
            seed=jsonio.integer(data["seed"], "seed"),
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
    positive; ``initial`` lets an empty ``denom`` take that path, where
    ``denom.min()`` would raise.  No caller passes one (a query's members
    include its own row), but the property test does."""
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


def _draw_weights(seeds: Sequence[int], neuron_count: int, p: int) -> np.ndarray:
    """(networks, N, p) initial weights: weight (k, j) of the network seeded
    ``s`` is SplitMix64 output ``k*p + j + 1`` of ``s``, mapped to
    uniform(0.01, 1.0) through its top 53 bits; never zero."""
    counters = np.arange(1, neuron_count * p + 1, dtype=np.uint64)
    raw = splitmix64_at(_seed_column(seeds), counters)
    raw >>= 11
    weights = raw.astype(np.float64)
    # in place, in the scalar order: 0.01 + 0.99 * ((u >> 11) * 2**-53)
    weights *= 2.0 ** -53
    weights *= 0.99  # == 1.0 - 0.01, the span of uniform(0.01, 1.0)
    weights += 0.01
    return weights.reshape(len(seeds), neuron_count, p)


def _orders(seeds: Sequence[int], counts: Sequence[int], skip: int, epochs: int):
    """Each epoch's presentation orders, one (networks, counts[0]) array an
    epoch: the network seeded ``s`` with ``n`` rows presents them sorted by
    SplitMix64 outputs ``skip + e*n + r + 1`` of ``s`` (row r), ties to the
    lower row.  Positions from ``n`` on are padding; their key 2**64 - 1 puts
    them after every row."""
    n = np.array(counts, dtype=np.uint64)[:, None]
    positions = np.arange(counts[0], dtype=np.uint64)
    padding = positions >= n
    first = positions + (skip + 1)
    seeds = _seed_column(seeds)
    for epoch in range(epochs):
        keys = splitmix64_at(seeds, first + n * epoch)
        keys[padding] = np.iinfo(np.uint64).max
        yield keys.argsort(axis=1, kind="stable")


def _seed_column(seeds: Sequence[int]) -> np.ndarray:
    """The seeds as a (networks, 1) ``uint64`` column, reduced mod 2**64."""
    return np.array([seed & 0xFFFFFFFFFFFFFFFF for seed in seeds], dtype=np.uint64)[:, None]


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
    presents the inputs in its own order; the initial weights and the
    orders are the SplitMix64 counter outputs of ``cfg.seed`` that the
    module docstring lists.  Each epoch ends by setting every weight below
    2**-1022 in magnitude to 0.0.  Raises ``InvalidConfig`` when numpy
    cannot create the weight array.
    """
    matrix = _as_input_matrix(inputs)
    p = matrix.shape[1]
    weights = _initial_weights([cfg.seed], cfg.neuron_count, p)
    return _train_lanes([matrix], cfg, [cfg.seed], weights, cfg.neuron_count * p)[0]


def _initial_weights(seeds: Sequence[int], neuron_count: int, p: int) -> np.ndarray:
    """``_draw_weights``, or ``InvalidConfig`` when numpy cannot create the array."""
    try:
        return _draw_weights(seeds, neuron_count, p)
    except (ValueError, MemoryError):  # numpy cannot create the weight array
        raise InvalidConfig(
            f"cannot allocate SOM weights for {neuron_count} neurons of input length {p}"
        ) from None


def _train_on_support(
    inputs: Sequence[np.ndarray],
    supports: Sequence[np.ndarray],
    p: int,
    cfg: SomConfig,
    seeds: Sequence[int],
) -> tuple[list[np.ndarray], list[SomNetwork]]:
    """The networks ``train`` trains on p-wide rows that are 0 outside the
    ascending columns ``supports[k]``, network k seeded ``seeds[k]``, each
    trained on a few columns instead, ``inputs[k]`` holding its rows over
    its support.

    A column that is 0 in every row only shrinks: each update scales its
    hood weights by 1 - alpha.  So the root of the squares of a neuron's
    weights outside the support evolves as one more column whose input is
    always 0, the rest column, and the cosines, hence the BMUs, are those of
    the p-wide network.  Lane k is ``1 << len(supports[k]).bit_length()``
    columns wide, the smallest power of two above its support: its support,
    zero padding and the rest column last.  This is the one place that
    groups phase-1 lanes: all the lanes of one width train in one
    ``_train_lanes`` call, narrowest first.  Each lane's initial weights
    are its own p-wide draw, made one lane at a time: its support columns,
    and the ``_weight_norms`` of the rest, so phase 1 holds one (N, p) draw
    at a time.  Epoch orders keep the p-wide counter offset ``N*p``.
    Padding stays 0 and adds nothing to a dot or a norm, but the width sets
    how the sums are grouped, so a lane's bits depend on its own support
    size, p and its seed, and on nothing else.  The forms agree in real
    arithmetic only: float sums differ in their last bits, so a BMU within
    an ulp of its runner-up can differ, and the epoch-end flush sees the
    rest column as one value.  Returns each network's (n, width) rows and
    the trained networks, in input order.
    """
    neurons = cfg.neuron_count
    widths = [1 << len(support).bit_length() for support in supports]
    rows, nets = [], {}
    for values, width in zip(inputs, widths):
        row = np.zeros((len(values), width))
        row[:, : values.shape[1]] = values
        rows.append(row)
    for width in sorted(set(widths)):
        group = [k for k, lane_width in enumerate(widths) if lane_width == width]
        group_rows, group_seeds = [rows[k] for k in group], [seeds[k] for k in group]
        # stacked in the call, not named here, so _train_lanes' sorted copy frees it
        initial = (_support_weights(seeds[k], supports[k], p, neurons, width) for k in group)
        trained = _train_lanes(group_rows, cfg, group_seeds, np.stack(list(initial)), neurons * p)
        nets.update(zip(group, trained))
    return rows, [nets[k] for k in range(len(seeds))]


def _support_weights(seed: int, support: np.ndarray, p: int, neurons: int, width: int):
    """A lane's (N, width) initial weights: the support columns of its p-wide
    draw, zero padding, and the ``_weight_norms`` of the other columns last."""
    (full,) = _initial_weights([seed], neurons, p)
    weights = np.zeros((neurons, width))
    weights[:, : len(support)] = full[:, support]
    full[:, support] = 0.0
    weights[:, -1] = _weight_norms(full)
    return weights


def _train_lanes(
    matrices: Sequence[np.ndarray],
    cfg: SomConfig,
    seeds: Sequence[int],
    weights: np.ndarray,
    skip: int,
) -> list[SomNetwork]:
    """Network k trained on the (n_k, q) rows ``matrices[k]`` from the (N, q)
    initial weights ``weights[k]``, epoch e presenting the rows sorted by
    SplitMix64 outputs ``skip + e*n_k + r + 1`` of ``seeds[k]``
    (``_orders``).  The networks train as one tensor, a copy of ``weights``
    in descending row count, so the lanes that still present an input at
    step ``k`` of an epoch are a prefix; each lane's arithmetic is that of
    the network alone, element for element, so it keeps that network's
    bits.  The tensor is read-only after training; the networks return in
    input order."""
    by_count = sorted(range(len(seeds)), key=lambda k: -len(matrices[k]))
    weights = weights[by_count]
    matrices = [matrices[k] for k in by_count]
    counts = [len(matrix) for matrix in matrices]
    lanes = len(matrices)
    flat = matrices[0] if lanes == 1 else np.concatenate(matrices)
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
    dots, denom = np.empty(cfg.neuron_count), np.empty(cfg.neuron_count)
    x_norms = flat_norms.tolist()
    dot, add_reduce = lone.dot, np.add.reduce
    add, subtract, multiply, divide, sqrt = np.add, np.subtract, np.multiply, np.divide, np.sqrt

    orders = _orders([seeds[k] for k in by_count], counts, skip, cfg.epochs)
    for epoch, rows in enumerate(orders):
        decay = 1.0 - epoch / cfg.epochs
        alpha = cfg.alpha0 * decay
        radius = int(math.floor(radius0 * decay + 0.5))
        rows += starts[:, None]
        # each BMU's neighbour row and which of them exist, for every position
        neighbours = np.arange(cfg.neuron_count)[:, None] + np.arange(-radius, radius + 1)
        in_range = (neighbours >= 0) & (neighbours < cfg.neuron_count)
        for position, n_active in enumerate(active):
            picked = rows[:n_active, position]
            x = flat[picked]
            sims = _cosines(weights[:n_active], norms[:n_active], x, flat_norms[picked])
            bmus = sims.argmax(axis=1)
            # every lane's neighbourhood rows at once: gather, move, scatter
            lane, offset = in_range[bmus].nonzero()
            neuron = neighbours[bmus[lane], offset]
            # in place, so a step allocates two (rows, p) arrays, not five
            hood = weights[lane, neuron]
            step = x[lane]
            step -= hood
            step *= alpha
            hood += step
            weights[lane, neuron] = hood
            norms[lane, neuron] = _weight_norms(hood, step)
        # lane 0 alone: the same arithmetic on views and fixed buffers.  The
        # divide is raw, so a zero norm product gives -inf, +inf or NaN where
        # _divide gives 0; a winner in (0, inf) rules out NaN and +inf, and a
        # -inf loses as a 0 would, so only other winners go through _divide.
        # lone.dot(x, dots) is _cosines' gemv; views are built once an epoch.
        # Each call makes the IEEE operations of its plain spelling
        # (np.dot(lone, x, out=dots), step *= alpha, ...) on the same
        # operands in the same order; only the way numpy is called changes:
        # the bound method skips np.dot's dispatcher, positional outs skip
        # keyword parsing, and the 0-d rate spares a float conversion a step.
        hoods = [slice(max(0, bmu - radius), bmu + radius + 1) for bmu in range(cfg.neuron_count)]
        views = [(lone[h], scratch[: len(lone[h])], lone_norms[h]) for h in hoods]
        rate = np.array(alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in rows[0, shared:].tolist():
                x = flat[i]
                dot(x, dots)
                divide(dots, multiply(lone_norms, x_norms[i], denom), dots)
                bmu = dots.argmax()
                if not 0.0 < dots.item(bmu) < math.inf:
                    bmu = _divide(lone @ x, denom).argmax()
                hood, step, hood_norms = views[bmu]
                step[...] = x
                subtract(step, hood, step)
                multiply(step, rate, step)
                add(hood, step, hood)
                multiply(hood, hood, step)
                sqrt(add_reduce(step, 1, None, hood_norms), hood_norms)
        # a subnormal squares to exactly 0, so no norm moves; the min skips
        # the scan where no weight is below _TINY (zero padding always runs it)
        if weights.min() < _TINY:
            weights[np.abs(weights) < _TINY] = 0.0

    weights.setflags(write=False)
    nets = [None] * len(seeds)
    for i, k in enumerate(by_count):
        nets[k] = SomNetwork(weights[i], replace(cfg, seed=seeds[k]))
    return nets


def _input_cosines(net: SomNetwork, inputs: np.ndarray) -> np.ndarray:
    """(n, N) cosine similarities of each input row to the weight rows."""
    matrix = _as_input_matrix(inputs)
    if matrix.shape[1] != net.p:
        raise LengthMismatch(f"input length {matrix.shape[1]} != {net.p}")
    weights = net.weights[None]
    return _cosines(weights, _weight_norms(weights), matrix, _row_norms(matrix))


def assign(net: SomNetwork, inputs: np.ndarray) -> list[int]:
    """BMU index for each input row (highest cosine similarity, ties to the
    lowest index); identical inputs get identical labels."""
    return _input_cosines(net, inputs).argmax(axis=1).tolist()


def mean_similarity(net: SomNetwork, inputs: np.ndarray) -> float:
    """Mean cosine similarity between inputs and their BMU rows: the mean
    of each input's largest cosine."""
    return _mean(_input_cosines(net, inputs).max(axis=1).tolist())


def _mean(values: Sequence[float]) -> float:
    """Mean summed left to right from 0.0 (0.0 for none): every float mean
    of the package.  The built-in ``sum`` compensates from Python 3.12 on,
    which would move the bits between interpreters."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def som_to_json_dict(net: SomNetwork) -> dict:
    return {
        "config": jsonio.config_dict(net.config),
        "weights": [[float(v) for v in row] for row in net.weights],
    }


def som_from_json_dict(data) -> SomNetwork:
    jsonio.numbers((v for row in data["weights"] for v in row), "weights")
    weights = np.asarray(data["weights"], dtype=np.float64)
    weights.setflags(write=False)
    return SomNetwork(weights, SomConfig.from_json_dict(data["config"]))

