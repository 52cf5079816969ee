"""Synthetic cube generator: determinism, the context knob, sidecar files."""

import json

import pytest

from ctxrec.baseline import flatten_cube
from ctxrec.core import ContextSchema, default_schema, load_ratings
from ctxrec.datagen import (
    GenConfig,
    generate,
    generate_dataset,
    scaled_config,
    write_dataset,
)
from ctxrec.errors import InvalidConfig
from ctxrec import jsonio


def rebuilt(data) -> GenConfig:
    """The GenConfig a written config dict describes."""
    return GenConfig(**{**data, "schema": ContextSchema.from_json_dict(data["schema"])})


class TestGenConfig:
    def test_defaults_match_experiment_scale(self):
        cfg = GenConfig()
        assert cfg.n_users == 630
        assert cfg.n_items == 400
        assert cfg.schema == default_schema()
        assert cfg.n_archetypes == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"n_items": 0},
            {"gamma": -0.1},
            {"gamma": 1.1},
            {"density": 0.0},
            {"density": 1.5},
            {"noise_sd": -1.0},
            {"n_archetypes": 0},
            {"ratings_per_active_situation": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            GenConfig(**kwargs)

    def test_json_round_trip(self):
        cfg = GenConfig(n_users=9, n_items=11, gamma=0.25, seed=4)
        assert rebuilt(json.loads(jsonio.dumps(jsonio.config_dict(cfg)))) == cfg

    def test_scaled_config_keeps_other_knobs(self):
        cfg = GenConfig(gamma=0.33, seed=12)
        small = scaled_config(cfg, 10, 20)
        assert small.n_users == 10
        assert small.n_items == 20
        assert small.gamma == 0.33
        assert small.seed == 12


class TestGenerate:
    def test_deterministic(self):
        cfg = GenConfig(n_users=8, n_items=15, density=0.01, seed=2)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_the_cube(self):
        a = generate(GenConfig(n_users=8, n_items=15, density=0.01, seed=2))
        b = generate(GenConfig(n_users=8, n_items=15, density=0.01, seed=3))
        assert a != b

    def test_ratings_within_scale(self):
        cube = generate(
            GenConfig(n_users=10, n_items=20, noise_sd=2.0, density=0.02, seed=1)
        )
        for rating in cube.cells().values():
            assert 1 <= rating <= 5

    def test_every_user_rates_something(self):
        cube = generate(
            GenConfig(n_users=25, n_items=20, density=0.001, seed=4)
        )
        assert len(cube.users) == 25
        for user in cube.users:
            assert cube.user_ratings(user)

    def test_id_universes_are_full_and_padded(self):
        cube = generate(GenConfig(n_users=5, n_items=7, density=0.01, seed=0))
        assert cube.users == ("u001", "u002", "u003", "u004", "u005")
        assert cube.items[0] == "i001"
        assert len(cube.items) == 7

    def test_context_free_ratings_ignore_situation(self):
        # gamma=0, no noise: a user's rating of an item never varies
        cfg = GenConfig(
            n_users=10, n_items=20, gamma=0.0, noise_sd=0.0, density=0.02, seed=5
        )
        cube = generate(cfg)
        for user in cube.users:
            seen: dict[str, int] = {}
            for item_ratings in cube.user_ratings(user).values():
                for item, rating in item_ratings.items():
                    assert seen.setdefault(item, rating) == rating

    def test_context_free_cube_flattens_losslessly(self):
        cfg = GenConfig(
            n_users=10, n_items=20, gamma=0.0, noise_sd=0.0, density=0.02, seed=5
        )
        cube = generate(cfg)
        flat = flatten_cube(cube)
        for user in cube.users:
            for item_ratings in cube.user_ratings(user).values():
                for item, rating in item_ratings.items():
                    assert flat.ratings_of(user)[item] == float(rating)

    def test_pure_context_ratings_split_by_archetype(self):
        # gamma=1, no noise, 2 archetypes: whoever rates in both groups
        # favors different items in each
        cfg = GenConfig(
            n_users=20,
            n_items=30,
            n_archetypes=2,
            gamma=1.0,
            noise_sd=0.0,
            density=0.02,
            seed=11,
        )
        cube, truth = generate_dataset(cfg)
        users_in_both = 0
        for user in cube.users:
            best: dict[int, tuple[int, str]] = {}
            for flat, item_ratings in cube.user_ratings(user).items():
                arch = truth[flat]
                for item, rating in item_ratings.items():
                    cand = (-rating, item)
                    if arch not in best or cand < best[arch]:
                        best[arch] = cand
            if len(best) == 2:
                users_in_both += 1
                assert best[0][1] != best[1][1]
        assert users_in_both > 0

    def test_truth_covers_every_situation(self):
        cfg = GenConfig(n_users=5, n_items=10, density=0.01, seed=0)
        _, truth = generate_dataset(cfg)
        assert set(truth) == set(range(cfg.schema.situation_count))
        assert all(0 <= arch < cfg.n_archetypes for arch in truth.values())


class TestWriteDataset:
    def test_files_round_trip(self, tmp_path):
        cfg = GenConfig(n_users=6, n_items=12, density=0.01, seed=8)
        ratings_path, truth_path = write_dataset(cfg, tmp_path)
        assert ratings_path.name == "ratings.csv"
        assert truth_path.name == "truth.json"
        cube = load_ratings(ratings_path, cfg.schema)
        assert cube == generate(cfg)

    def test_truth_sidecar_contents(self, tmp_path):
        cfg = GenConfig(n_users=6, n_items=12, density=0.01, seed=8)
        _, truth_path = write_dataset(cfg, tmp_path)
        data = jsonio.read_json(truth_path)
        assert set(data) == {"situation_archetypes", "config"}
        assert len(data["situation_archetypes"]) == cfg.schema.situation_count
        assert rebuilt(data["config"]) == cfg

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = GenConfig(n_users=6, n_items=12, density=0.01, seed=8)
        write_dataset(cfg, tmp_path / "a")
        write_dataset(cfg, tmp_path / "b")
        for name in ("ratings.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
