"""Flat 2-D baseline: cube flattening and shared CF machinery."""

import pytest

from ctxrec.baseline import (
    DEFAULT_BASELINE_NEURONS,
    fit_baseline,
    flatten_cube,
    load_baseline,
    save_baseline,
)
from ctxrec.core import RatingCube
from ctxrec.datagen import GenConfig, generate
from ctxrec.errors import EmptyInput, UnknownUser
from ctxrec.pipeline import RowSpace, _ranked, cluster_virtual_users
from ctxrec.som import SomConfig

from conftest import make_cube


@pytest.fixture(scope="module")
def flat_model():
    cube = generate(GenConfig(n_users=15, n_items=25, density=0.01, seed=3))
    return cube, fit_baseline(cube, SomConfig(5, epochs=20))


class TestFlattenCube:
    def test_single_rating_unchanged(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        flat = flatten_cube(cube)
        assert flat.ratings_of("u1") == {"i1": 4.0}

    def test_cross_context_ratings_average(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 2),
                ("u1", "i1", ("b", "y"), 4),
            ],
        )
        assert flatten_cube(cube).ratings_of("u1")["i1"] == 3.0

    def test_users_without_ratings_dropped(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [("u1", "i1", ("a", "x"), 4)],
            users=("u1", "u2"),
            items=("i1",),
        )
        assert flatten_cube(cube).keys == ("u1",)

    def test_empty_cube_rejected(self, schema2x2):
        with pytest.raises(EmptyInput, match="cube has no ratings to flatten"):
            flatten_cube(RatingCube(schema2x2, ("u1",), ("i1",), {}))

    def test_idempotent_on_single_situation_data(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("a", "x"), 2),
                ("u2", "i1", ("a", "x"), 3),
            ],
        )
        once = flatten_cube(cube)
        flat = schema2x2.situation_from_names(("a", "x")).flat_index
        rebuilt = cube.with_cells(
            {
                (user, flat, item): int(value)
                for user in once.keys
                for item, value in once.ratings_of(user).items()
            }
        )
        twice = flatten_cube(rebuilt)
        assert twice.keys == once.keys
        for user in once.keys:
            assert twice.ratings_of(user) == once.ratings_of(user)

    def test_unknown_user_lookup(self, schema2x2):
        flat = flatten_cube(make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)]))
        with pytest.raises(UnknownUser):
            flat.ratings_of("ghost")


class TestSharedCfPath:
    def test_equal_matrices_give_equal_outputs(self):
        # same numbers under pair keys and under str keys -> the same
        # SOM, the same neurons, and the same rankings
        ratings = {
            "u1": {"i1": 5.0, "i2": 2.0},
            "u2": {"i1": 4.0, "i3": 3.0},
            "u3": {"i2": 1.0, "i3": 5.0},
        }
        items = ("i1", "i2", "i3", "i4")
        flat = RowSpace(items, ratings)
        virtual = RowSpace(items, {(u, 1): ratings[u] for u in ratings})
        cfg = SomConfig(2, epochs=15, seed=9)
        flat_model = cluster_virtual_users(flat, cfg)
        virt_model = cluster_virtual_users(virtual, cfg)
        assert (
            flat_model.som.weights.tobytes() == virt_model.som.weights.tobytes()
        )
        assert flat_model.neurons.tolist() == virt_model.neurons.tolist()
        n = len(items) + 1  # every candidate
        for user in ratings:
            assert _ranked(flat_model, flat, user, n) == _ranked(virt_model, virtual, (user, 1), n)


class TestBaselineRecommend:
    def test_default_neuron_count(self, flat_model):
        cube, _ = flat_model
        model = fit_baseline(cube)
        assert model.user_model.som.config.neuron_count == DEFAULT_BASELINE_NEURONS == 19

    def test_trained_items_excluded(self, flat_model):
        cube, model = flat_model
        for user in model.eval_user_pool()[:8]:
            items = [item for item, _ in model.recommend(user, 10)]
            assert not set(items) & set(model.space.ratings_of(user))

    def test_ties_ordered_by_item_id(self, schema2x2):
        # a lone user gets prototype scores; force a tie via equal weights
        train = make_cube(
            schema2x2, [("u1", "i1", ("a", "x"), 3)], items=("i1", "i2", "i3")
        )
        out = fit_baseline(train, SomConfig(1, seed=4)).recommend("u1", 3)
        items = [item for item, _ in out]
        assert items == sorted(items, key=lambda it: (-dict(out)[it], it))

    def test_singleton_cluster_prototype_fallback(self, schema2x2):
        train = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)], items=("i1", "i2"))
        model = fit_baseline(train, SomConfig(1, seed=0))
        out = model.recommend("u1", 2)
        assert out == [("i2", model.user_model.som.weights[0][1])]

    def test_no_padding(self, flat_model):
        _, model = flat_model
        user = model.eval_user_pool()[0]
        rated = len(model.space.ratings_of(user))
        out = model.recommend(user, 10_000)
        assert len(out) == len(model.space.items) - rated

    def test_unknown_user(self, flat_model):
        _, model = flat_model
        with pytest.raises(UnknownUser):
            model.recommend("ghost", 5)


class TestEvalSurface:
    def test_one_unit_per_user_pooled_over_situations(self, schema2x2):
        train = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 5)])
        model = fit_baseline(train, SomConfig(1, epochs=5))
        test = make_cube(
            schema2x2,
            [
                ("u1", "i2", ("a", "x"), 5),
                ("u1", "i3", ("b", "y"), 4),
                ("u1", "i4", ("b", "y"), 1),
            ],
            users=("u1",),
            items=("i1", "i2", "i3", "i4"),
        )
        units = model.eval_units("u1", test, threshold=4)
        assert units == [("u1", {"i2", "i3"})]

    def test_no_relevant_items_yields_no_units(self, schema2x2):
        train = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 5)])
        model = fit_baseline(train, SomConfig(1, epochs=5))
        test = make_cube(
            schema2x2,
            [("u1", "i2", ("a", "x"), 2)],
            users=("u1",),
            items=("i1", "i2"),
        )
        assert model.eval_units("u1", test, threshold=4) == []


class TestBaselinePersistence:
    def test_round_trip(self, flat_model, tmp_path):
        _, model = flat_model
        save_baseline(model, tmp_path / "bundle")
        loaded = load_baseline(tmp_path / "bundle")
        assert loaded.space.keys == model.space.keys
        assert loaded.space.matrix.tobytes() == model.space.matrix.tobytes()
        assert loaded.user_model.neurons.tolist() == model.user_model.neurons.tolist()
        for user in model.eval_user_pool()[:5]:
            assert loaded.recommend(user, 10) == model.recommend(user, 10)

    def test_bundle_files(self, flat_model, tmp_path):
        _, model = flat_model
        save_baseline(model, tmp_path / "bundle")
        names = sorted(p.name for p in (tmp_path / "bundle").iterdir())
        assert names == ["flat_space.json", "schema.json", "user_som.json"]

    def test_resave_is_byte_identical(self, flat_model, tmp_path):
        _, model = flat_model
        save_baseline(model, tmp_path / "a")
        save_baseline(load_baseline(tmp_path / "a"), tmp_path / "b")
        for name in ("schema.json", "flat_space.json", "user_som.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
