"""Synthetic rating-cube generator with a controllable context knob.

Every context situation belongs to one of ``n_archetypes`` latent groups
(e.g. "cozy weekend dinner") with a population-shared item profile.  Each
user mixes that shared profile with a private global taste:

    latent(u, i | situation in archetype a)
        = (1 - gamma) * global_u(i) + gamma * profile_a(i) + Normal(0, noise_sd)

rounded half-to-even and clipped to the rating scale.  ``gamma`` is the
context-dependence dial: at 0 ratings ignore context entirely, at 1 they
are pure archetype consensus.

Two further choices shape the data so clustering has something to find:
users are active mostly in situations of a few preferred archetypes
(``archetypes_per_user``), and the items rated in a situation are drawn
with probability proportional to exp(exposure_sharpness * latent), i.e.
people mostly rate things they sought out.  Uniform item exposure would
leave situation vectors with almost no overlap to cluster on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import ContextSchema, RatingCube, default_schema, write_ratings
from .errors import InvalidConfig
from . import jsonio


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the synthetic-cube generator."""

    n_users: int = 630
    n_items: int = 400
    schema: ContextSchema = field(default_factory=default_schema)
    n_archetypes: int = 6
    gamma: float = 0.9
    density: float = 0.00744
    ratings_per_active_situation: int = 12
    noise_sd: float = 0.3
    seed: int = 0
    archetypes_per_user: int = 2
    exposure_sharpness: float = 3.5

    def __post_init__(self):
        if self.n_users < 1 or self.n_items < 1:
            raise InvalidConfig("need at least one user and one item")
        if self.n_archetypes < 1:
            raise InvalidConfig("n_archetypes must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidConfig(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.density <= 1.0:
            raise InvalidConfig(f"density must be in (0, 1], got {self.density}")
        if self.ratings_per_active_situation < 1:
            raise InvalidConfig("ratings_per_active_situation must be positive")
        if not 0.0 <= self.noise_sd < math.inf:
            raise InvalidConfig(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.archetypes_per_user < 1:
            raise InvalidConfig("archetypes_per_user must be positive")
        if not 0.0 <= self.exposure_sharpness < math.inf:
            raise InvalidConfig(
                f"exposure_sharpness must be finite and >= 0, got {self.exposure_sharpness}"
            )
        # exp(sharpness * rating) summed over the items must stay a finite float
        limit = (math.log(sys.float_info.max) - math.log(self.n_items)) / self.schema.rating_max
        if self.exposure_sharpness > limit:
            raise InvalidConfig(
                f"exposure_sharpness {self.exposure_sharpness} overflows the exposure weights "
                f"of {self.n_items} items rated up to {self.schema.rating_max} "
                f"(the limit is about {limit:.6g})"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


def _ids(prefix: str, count: int) -> list[str]:
    width = max(3, len(str(count)))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(count)]


def generate_dataset(cfg: GenConfig) -> tuple[RatingCube, dict[int, int]]:
    """Generate a cube plus the ground-truth situation -> archetype map.

    All randomness comes from one seeded generator consumed in a fixed
    order (archetype map, shared profiles, then per-user draws), so equal
    configs give identical cubes.
    """
    rng = np.random.default_rng(cfg.seed)
    schema = cfg.schema
    n_situations = schema.situation_count
    lo, hi = float(schema.rating_min), float(schema.rating_max)
    n_arch = min(cfg.n_archetypes, n_situations)

    situation_archetypes = rng.integers(0, n_arch, size=n_situations)
    profiles = rng.uniform(lo, hi, size=(n_arch, cfg.n_items))
    by_archetype: dict[int, list[int]] = {}
    for flat, arch in enumerate(situation_archetypes):
        by_archetype.setdefault(int(arch), []).append(flat)

    users = _ids("u", cfg.n_users)
    items = _ids("i", cfg.n_items)
    per_situation = min(cfg.ratings_per_active_situation, cfg.n_items)
    cells: dict[tuple[str, int, str], int] = {}
    for user in users:
        taste = rng.uniform(lo, hi, size=cfg.n_items)
        k_pref = min(cfg.archetypes_per_user, len(by_archetype))
        preferred = sorted(
            int(a) for a in rng.choice(sorted(by_archetype), size=k_pref, replace=False)
        )
        candidates = sorted(
            flat for arch in preferred for flat in by_archetype[arch]
        )
        # expected actives stay density * n_situations despite the
        # preferred-archetype restriction
        p_active = min(1.0, cfg.density * n_situations / len(candidates))
        mask = rng.random(len(candidates)) < p_active
        active = [flat for flat, hit in zip(candidates, mask) if hit]
        if not active:
            active = [candidates[int(rng.integers(len(candidates)))]]
        for flat in active:
            blend = (1.0 - cfg.gamma) * taste + cfg.gamma * profiles[
                situation_archetypes[flat]
            ]
            weights = np.exp(cfg.exposure_sharpness * blend)
            weights /= weights.sum()
            chosen = rng.choice(cfg.n_items, size=per_situation, replace=False, p=weights)
            noise = rng.normal(0.0, cfg.noise_sd, size=per_situation)
            for idx, eps in zip(chosen, noise):
                latent = blend[idx] + eps
                rating = int(min(hi, max(lo, np.rint(latent))))
                cells[(user, flat, items[idx])] = rating
    cube = RatingCube(schema, users, items, cells)
    truth = {flat: int(arch) for flat, arch in enumerate(situation_archetypes)}
    return cube, truth


def generate(cfg: GenConfig) -> RatingCube:
    """Generate just the rating cube (see generate_dataset)."""
    return generate_dataset(cfg)[0]


def write_dataset(cfg: GenConfig, directory: str | Path) -> tuple[Path, Path]:
    """Write ratings.csv plus the diagnostics-only truth sidecar JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cube, truth = generate_dataset(cfg)
    ratings_path = directory / "ratings.csv"
    write_ratings(cube, ratings_path)
    truth_path = directory / "truth.json"
    jsonio.write_json(
        truth_path,
        {
            "situation_archetypes": {str(flat): arch for flat, arch in truth.items()},
            "config": jsonio.config_dict(cfg),
        },
    )
    return ratings_path, truth_path


def scaled_config(cfg: GenConfig, n_users: int, n_items: int) -> GenConfig:
    """Convenience: shrink a config for experiments, keeping other knobs."""
    return replace(cfg, n_users=n_users, n_items=n_items)
