"""Three-phase pipeline: context clustering, virtual users, cluster CF."""

import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxrec.baseline import BaselineModel, fit_baseline, flatten_cube, load_baseline, save_baseline
from ctxrec.core import RatingCube, default_schema
from ctxrec.datagen import GenConfig, generate
from ctxrec import jsonio
from ctxrec.errors import CorruptFile, EmptyInput, InvalidConfig, UnknownUser
from ctxrec import pipeline, som
from ctxrec.pipeline import (
    DEFAULT_PHASE1_NEURONS,
    DEFAULT_PHASE3_NEURONS,
    ContextClustering,
    PipelineModel,
    RowSpace,
    build_virtual_space,
    cluster_user_contexts,
    cluster_users,
    cluster_virtual_users,
    fit_phase1,
    fit_pipeline,
    load_pipeline,
    recommend,
    save_pipeline,
)
from ctxrec.rng import derive_seed
from ctxrec.som import SomConfig, SomNetwork, assign, train

from conftest import make_cube, tiny_schema, usage_matrix

SMALL_GEN = GenConfig(n_users=15, n_items=25, density=0.01, seed=3)


@pytest.fixture(scope="module")
def small_cube():
    return generate(SMALL_GEN)


@pytest.fixture(scope="module")
def small_model(small_cube):
    return fit_pipeline(
        small_cube,
        phase1_cfg=SomConfig(DEFAULT_PHASE1_NEURONS, epochs=20),
        phase3_cfg=SomConfig(8, epochs=20),
    )


def cell_mean(ratings) -> float:
    """Phase 2's cell for one user who rated item i1 once in each of the
    first ``len(ratings)`` situations, all under label 1.  The flat
    baseline's cell of the same cube is taken through the same path and
    must agree."""
    cells = {("u1", flat, "i1"): rating for flat, rating in enumerate(ratings)}
    cube = RatingCube(default_schema(), ["u1"], ["i1"], cells)
    clustering = ContextClustering("u1", {flat: 1 for flat in range(len(ratings))}, 1)
    value = build_virtual_space(cube, {"u1": clustering}).ratings_of(("u1", 1))["i1"]
    assert flatten_cube(cube).ratings_of("u1")["i1"] == value
    return value


class TestAggregate:
    def test_single_value(self):
        assert cell_mean([3]) == 3.0

    def test_pair(self):
        assert cell_mean([2, 4]) == 3.0

    def test_non_integer_mean(self):
        assert cell_mean([1, 2, 2]) == pytest.approx(5.0 / 3.0, abs=1e-15)


class TestContextClustering:
    def test_labels_must_be_compacted(self):
        with pytest.raises(InvalidConfig):
            ContextClustering("u1", {0: 1, 5: 3}, m=3)  # label 2 unused

    def test_valid_labelling(self):
        c = ContextClustering("u1", {0: 1, 5: 2, 9: 1}, m=2)
        assert c.m == 2

    @pytest.mark.parametrize("m", [-1, 2])
    def test_no_labels_means_no_clusters(self, m):
        with pytest.raises(InvalidConfig):
            ContextClustering("u1", {}, m=m)


def cluster_one(cube, user: str, cfg: SomConfig = SomConfig(DEFAULT_PHASE1_NEURONS)):
    """Phase 1 for one user: ``cluster_users`` over a one-user block."""
    return cluster_users(cube, [user], cfg)[user]


class TestClusterUserContexts:
    def test_labelling_step_compacts_bmus(self):
        """The labelling step alone, on a hand-built SOM: situations 7, 2
        and 9 land on neurons 3, 0 and 3, so they get labels 2, 1 and 2."""
        weights = np.array([[1.0, 0.0], [0.6, 0.8], [0.8, 0.6], [0.0, 1.0]])
        net = SomNetwork(weights, SomConfig(4))
        usage = np.array([[0.0, 5.0], [3.0, 0.0], [1.0, 4.0]])
        c = cluster_user_contexts("u1", [7, 2, 9], usage, net)
        assert c == ContextClustering("u1", {7: 2, 2: 1, 9: 2}, 2)
        # one situation: label 1, and no SOM is read
        assert cluster_user_contexts("u1", [5], usage[:1], None) == ContextClustering(
            "u1", {5: 1}, 1
        )

    def test_single_situation_single_cluster(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        c = cluster_one(cube, "u1")
        flat = schema2x2.situation_from_names(("a", "x")).flat_index
        assert c.m == 1
        assert c.labels == {flat: 1}

    def test_identical_vectors_share_a_label(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 4),
                ("u1", "i1", ("a", "y"), 4),
            ],
        )
        c = cluster_one(cube, "u1")
        assert len(set(c.labels.values())) == 1

    def test_default_config_bounds_m_by_six(self, restaurant_schema):
        rows = []
        for k in range(20):  # 20 distinct situations, scattered ratings
            flat = k * 16
            sit = restaurant_schema.situation_from_flat(flat)
            names = restaurant_schema.value_names(sit)
            rows.append(("u1", f"i{k % 7}", names, 1 + (k % 5)))
        cube = make_cube(restaurant_schema, rows)
        c = cluster_one(cube, "u1")
        assert 1 <= c.m <= 6

    def test_m_bounded_by_situations_when_fewer_than_neurons(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("a", "y"), 1),
                ("u1", "i3", ("b", "x"), 3),
            ],
        )
        c = cluster_one(cube, "u1", SomConfig(neuron_count=8))
        assert 1 <= c.m <= 3

    def test_unknown_user(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        with pytest.raises(UnknownUser):
            cluster_one(cube, "nobody")

    def test_user_without_ratings(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [("u1", "i1", ("a", "x"), 4)],
            users=("u1", "u2"),
            items=("i1",),
        )
        with pytest.raises(EmptyInput, match="'u2' has no ratings"):
            cluster_one(cube, "u2")

    def test_result_independent_of_other_users(self, schema2x2):
        rows_u1 = [
            ("u1", "i1", ("a", "x"), 5),
            ("u1", "i2", ("a", "y"), 2),
            ("u1", "i1", ("b", "y"), 4),
        ]
        alone = make_cube(schema2x2, rows_u1, items=("i1", "i2"))
        crowded = make_cube(
            schema2x2,
            rows_u1 + [("u2", "i2", ("b", "x"), 3)],
            items=("i1", "i2"),
        )
        assert cluster_one(alone, "u1").labels == cluster_one(crowded, "u1").labels


def trained_clustering(cube, user: str, cfg: SomConfig) -> ContextClustering:
    """Phase 1 for one user through a SOM trained on its usage matrix and its
    compacted BMUs, whatever the number of situations."""
    flats, matrix = usage_matrix(cube, user)
    net = train(matrix, replace(cfg, seed=derive_seed(cfg.seed, "phase1", user)))
    raw = assign(net, matrix)
    occupied = sorted(set(raw))
    labels = {flat: occupied.index(neuron) + 1 for flat, neuron in zip(flats, raw)}
    return ContextClustering(user, labels, len(occupied))


class TestClusterUsers:
    CFG = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=15, seed=4)

    def test_one_situation_users_train_no_som(self, small_cube, monkeypatch):
        """No one-situation user is ever a lane of phase 1's trainer, alone,
        in a block of its kind or beside users who train; the lanes are
        told apart by their seeds."""
        users = [u for u in small_cube.users if small_cube.user_ratings(u)]
        single = [u for u in users if len(small_cube.user_ratings(u)) == 1]
        assert len(single) > 1 and len(users) > len(single)
        expected = {user: trained_clustering(small_cube, user, self.CFG) for user in single}
        lane_seeds = []
        train_on_support = pipeline._train_on_support

        def spy(*args):
            lane_seeds.extend(args[4])
            return train_on_support(*args)

        def no_training(*args):
            raise AssertionError("a p-wide SOM was trained")

        monkeypatch.setattr(pipeline, "_train_on_support", spy)
        monkeypatch.setattr(pipeline, "train", no_training)
        for user in single:
            (flat,) = small_cube.user_ratings(user)
            clustering = cluster_one(small_cube, user, self.CFG)
            assert clustering == ContextClustering(user, {flat: 1}, 1) == expected[user]
        assert cluster_users(small_cube, single, self.CFG) == expected
        assert lane_seeds == []
        cluster_users(small_cube, users, self.CFG)
        trained = [user for user in users if user not in single]
        assert lane_seeds == [derive_seed(self.CFG.seed, "phase1", user) for user in trained]

    def test_mixed_block_equals_the_trained_path(self, small_cube):
        users = [u for u in small_cube.users if small_cube.user_ratings(u)]
        assert {len(small_cube.user_ratings(u)) > 1 for u in users} == {False, True}
        expected = {user: trained_clustering(small_cube, user, self.CFG) for user in users}
        assert cluster_users(small_cube, users, self.CFG) == expected

    def test_block_equals_one_user_at_a_time(self, small_cube):
        cfg = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=15, seed=4)
        users = [u for u in small_cube.users if small_cube.user_ratings(u)]
        block = cluster_users(small_cube, users, cfg)
        assert list(block) == users
        for user in users:
            assert block[user] == cluster_one(small_cube, user, cfg)

    def test_supports_spanning_p_train_compact_too(self, small_cube, monkeypatch):
        """A user alone with the items it rated has a support of all p items,
        so its network has a rest column that starts and stays 0, at the
        width of its support; its labels are still the p-wide ones."""
        trained = []
        train_on_support = pipeline._train_on_support
        monkeypatch.setattr(
            pipeline,
            "_train_on_support",
            lambda *args: trained.append(train_on_support(*args)) or trained[-1],
        )
        monkeypatch.setattr(pipeline, "train", None)
        for user in [u for u in small_cube.users if len(small_cube.user_ratings(u)) > 1]:
            cells = {key: r for key, r in small_cube.cells().items() if key[0] == user}
            items = sorted({item for _, _, item in cells})
            wide = RatingCube(small_cube.schema, [user], items, cells)
            assert cluster_users(wide, [user], self.CFG) == {
                user: trained_clustering(wide, user, self.CFG)
            }
            ([rows], [net]) = trained.pop()
            assert rows.shape[1] == net.p == 1 << wide.p.bit_length()
            assert not net.weights[:, -1].any()

    def test_lane_bits_ignore_the_other_users_of_the_cube(self, small_cube, monkeypatch):
        """A user's lane trained in a cube where other users have wider
        supports has the weight bytes and labels of the same user trained
        alone in a one-user cube over the same items."""
        weights = {}
        train_on_support = pipeline._train_on_support

        def spy(*args):
            rows, nets = train_on_support(*args)
            weights.update((net.config.seed, net.weights.tobytes()) for net in nets)
            return rows, nets

        monkeypatch.setattr(pipeline, "_train_on_support", spy)
        users = [u for u in small_cube.users if len(small_cube.user_ratings(u)) > 1]
        shared = cluster_users(small_cube, users, self.CFG)
        in_cube = dict(weights)
        supports = {u: len(small_cube.usage_rows(u)[1]) for u in users}
        assert sum(size < max(supports.values()) for size in supports.values()) > len(users) // 2
        for user in users:
            cells = {key: r for key, r in small_cube.cells().items() if key[0] == user}
            alone = RatingCube(small_cube.schema, [user], small_cube.items, cells)
            weights.clear()
            assert cluster_one(alone, user, self.CFG) == shared[user]
            seed = derive_seed(self.CFG.seed, "phase1", user)
            assert weights == {seed: in_cube[seed]}

    def test_each_lane_is_padded_by_its_own_support(self, small_cube, monkeypatch):
        """In any block, lane k is ``1 << len(support).bit_length()`` columns
        wide, its support, zero padding and the rest column, and the lanes of
        one width train in one ``_train_lanes`` call, narrowest first."""
        calls = []
        train_lanes = som._train_lanes

        def spy(matrices, cfg, seeds, weights, skip):
            calls.append((weights.shape[2], {m.shape[1] for m in matrices}, list(seeds)))
            return train_lanes(matrices, cfg, seeds, weights, skip)

        monkeypatch.setattr(som, "_train_lanes", spy)
        users = [u for u in small_cube.users if len(small_cube.user_ratings(u)) > 1]
        expected = {}
        for user in users:
            support = small_cube.usage_rows(user)[1]
            expected[derive_seed(self.CFG.seed, "phase1", user)] = 1 << len(support).bit_length()
        assert len(set(expected.values())) > 1
        # the whole block, one user a block, two interleaved halves, reversed
        for blocks in ([users], [[u] for u in users], [users[::2], users[1::2]], [users[::-1]]):
            width_of = {}
            for block in blocks:
                calls.clear()
                cluster_users(small_cube, block, self.CFG)
                widths = [width for width, _, _ in calls]
                assert widths == sorted(set(widths))
                for width, row_widths, seeds in calls:
                    assert row_widths == {width}
                    width_of.update((seed, width) for seed in seeds)
            assert width_of == expected

    def test_unknown_user_in_block(self, small_cube):
        with pytest.raises(UnknownUser):
            cluster_users(small_cube, ["nobody"])


class TestBuildVirtualSpace:
    def schema_and_flats(self):
        schema = tiny_schema()
        f = {
            names: schema.situation_from_names(names).flat_index
            for names in [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
        }
        return schema, f

    def test_single_rating_passes_through(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        flat = schema2x2.situation_from_names(("a", "x")).flat_index
        clustering = ContextClustering("u1", {flat: 1}, 1)
        space = build_virtual_space(cube, {"u1": clustering})
        assert space.ratings_of(("u1", 1)) == {"i1": 4.0}

    def test_same_cluster_ratings_average(self):
        schema, f = self.schema_and_flats()
        cube = make_cube(
            schema,
            [
                ("u1", "i1", ("a", "x"), 2),
                ("u1", "i1", ("a", "y"), 4),
            ],
        )
        clustering = ContextClustering(
            "u1", {f[("a", "x")]: 1, f[("a", "y")]: 1}, 1
        )
        space = build_virtual_space(cube, {"u1": clustering})
        assert space.ratings_of(("u1", 1))["i1"] == 3.0

    def test_two_clusters_make_two_virtual_users(self):
        schema, f = self.schema_and_flats()
        cube = make_cube(
            schema,
            [
                ("u1", "i1", ("a", "x"), 2),
                ("u1", "i2", ("b", "y"), 4),
            ],
        )
        clustering = ContextClustering(
            "u1", {f[("a", "x")]: 1, f[("b", "y")]: 2}, 2
        )
        space = build_virtual_space(cube, {"u1": clustering})
        assert space.keys == (("u1", 1), ("u1", 2))
        assert space.ratings_of(("u1", 1)) == {"i1": 2.0}
        assert space.ratings_of(("u1", 2)) == {"i2": 4.0}

    def test_missing_clustering_rejected(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        with pytest.raises(UnknownUser, match="no clustering for user 'u1'"):
            build_virtual_space(cube, {})

    def test_unknown_virtual_user_lookup(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        flat = schema2x2.situation_from_names(("a", "x")).flat_index
        space = build_virtual_space(
            cube, {"u1": ContextClustering("u1", {flat: 1}, 1)}
        )
        with pytest.raises(UnknownUser, match=r"unknown virtual user \('u1', 2\)"):
            space.ratings_of(("u1", 2))

    def test_every_rating_lands_in_exactly_one_cell(self, small_cube):
        clusterings = {
            user: cluster_one(small_cube, user)
            for user in small_cube.users
            if small_cube.user_ratings(user)
        }
        space = build_virtual_space(small_cube, clusterings)
        for user, clustering in clusterings.items():
            for flat, item_ratings in small_cube.user_ratings(user).items():
                label = clustering.labels[flat]
                row = space.ratings_of((user, label))
                for item in item_ratings:
                    assert item in row
        # sum of m over users equals the virtual-user count
        assert sum(c.m for c in clusterings.values()) == len(space.keys)

    def test_m_respects_bounds(self, small_cube):
        for user in small_cube.users:
            n_sits = len(small_cube.user_ratings(user))
            if n_sits == 0:
                continue
            c = cluster_one(small_cube, user)
            assert 1 <= c.m <= min(DEFAULT_PHASE1_NEURONS, n_sits)

    def test_values_stay_in_rating_range(self, small_cube, small_model):
        space = small_model.space
        schema = small_cube.schema
        for key in space.keys:
            for value in space.ratings_of(key).values():
                assert schema.rating_min <= value <= schema.rating_max

    def test_single_situation_users_collapse_to_flat_matrix(self, schema2x2):
        # all of each user's ratings in one situation -> virtual space
        # must equal the flattened 2-D matrix cell-for-cell
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("a", "x"), 2),
                ("u2", "i1", ("b", "y"), 3),
            ],
        )
        clusterings = cluster_users(cube, cube.users)
        space = build_virtual_space(cube, clusterings)
        flat = flatten_cube(cube)
        assert [key[0] for key in space.keys] == list(flat.keys)
        for (user, label) in space.keys:
            assert label == 1
            assert space.ratings_of((user, label)) == flat.ratings_of(user)

    def test_json_round_trip(self, small_model):
        space = small_model.space
        again = RowSpace.from_json_dict(space.to_json_dict())
        assert again.keys == space.keys
        assert again.items == space.items
        assert again.matrix.tobytes() == space.matrix.tobytes()


ITEMS = ("i1", "i2", "i3", "i4", "i5")


@st.composite
def ratings_maps(draw):
    """{key: {item: value}} with all-pair or all-str keys; rows may be empty."""
    users = st.text(min_size=1, max_size=4)
    keys = st.tuples(users, st.integers(1, 6)) if draw(st.booleans()) else users
    row = st.dictionaries(
        st.sampled_from(ITEMS), st.floats(min_value=1.0, max_value=5.0), max_size=len(ITEMS)
    )
    return draw(st.dictionaries(keys, row, max_size=8))


class TestRowSpace:
    @settings(max_examples=100, deadline=None)
    @given(ratings=ratings_maps())
    def test_json_round_trip_property(self, ratings):
        space = RowSpace(ITEMS, ratings)
        again = RowSpace.from_json_dict(json.loads(jsonio.dumps(space.to_json_dict())))
        assert again.keys == space.keys == tuple(ratings)
        assert again.items == ITEMS
        assert again.matrix.tobytes() == space.matrix.tobytes()
        for key in space.keys:
            assert again.ratings_of(key) == space.ratings_of(key) == ratings[key]
        # the stored entries are the matrix's nonzero ones, row by row in
        # column order, and each matrix row holds exactly its key's ratings
        matrix = space.matrix
        rows, columns = np.nonzero(matrix)
        assert np.diff(space.starts).tolist() == np.bincount(rows, minlength=len(ratings)).tolist()
        assert space.columns.tolist() == columns.tolist()
        assert space.values.tobytes() == matrix[rows, columns].tobytes()
        for key in reversed(space.keys):
            row = matrix[space.row(key)]
            assert {ITEMS[j]: row[j] for j in np.flatnonzero(row)} == space.ratings_of(key)

    def test_ratings_of_in_item_order(self):
        space = RowSpace(ITEMS, {"u1": {"i3": 2.0, "i1": 5.0}})
        assert list(space.ratings_of("u1").items()) == [("i1", 5.0), ("i3", 2.0)]
        assert space.matrix.tolist() == [[5.0, 0.0, 2.0, 0.0, 0.0]]

    def test_rows_carry_a_label_exactly_for_pair_keys(self):
        pairs = RowSpace(ITEMS, {("u1", 2): {"i1": 1.0}}).to_json_dict()
        users = RowSpace(ITEMS, {"u1": {"i1": 1.0}}).to_json_dict()
        assert pairs["rows"] == [{"user": "u1", "label": 2, "ratings": {"i1": 1.0}}]
        assert users["rows"] == [{"user": "u1", "ratings": {"i1": 1.0}}]

    def test_matrix_is_read_only(self):
        space = RowSpace(ITEMS, {"u1": {"i1": 4.0}})
        with pytest.raises(ValueError):
            space.matrix[0, 1] = 3.0

    def test_stored_zero_rejected(self):
        with pytest.raises(InvalidConfig):
            RowSpace(ITEMS, {"u1": {"i1": 0.0}})

    def test_duplicate_items_rejected(self):
        with pytest.raises(InvalidConfig):
            RowSpace(("i1", "i1"), {"u1": {"i1": 4.0}})

    def test_duplicate_keys_rejected(self):
        rows = [{"user": "u1", "ratings": {"i1": 1.0}}, {"user": "u1", "ratings": {"i1": 2.0}}]
        with pytest.raises(InvalidConfig, match="row keys must be unique"):
            RowSpace.from_json_dict({"items": ["i1"], "rows": rows})

    @pytest.mark.parametrize("field, value", [("user", None), ("user", 3), ("item", 1.5)])
    def test_json_ids_must_be_strings(self, field, value):
        data = RowSpace(ITEMS, {"u1": {"i1": 4.0}}).to_json_dict()
        if field == "user":
            data["rows"][0]["user"] = value
        else:
            data["items"][-1] = value
        with pytest.raises(InvalidConfig, match="must be strings"):
            RowSpace.from_json_dict(data)

    @settings(max_examples=100, deadline=None)
    @given(ratings=ratings_maps())
    def test_norms_are_left_to_right_sums(self, ratings):
        """Each row's norm is ``math.sqrt`` of its squares added left to right
        in column order, bit for bit, and a JSON round trip keeps the bits."""
        space = RowSpace(ITEMS, ratings)
        expected = [
            math.sqrt(left_sum(v * v for v in space.ratings_of(key).values()))
            for key in space.keys
        ]
        assert [norm.hex() for norm in space.norms.tolist()] == [e.hex() for e in expected]
        again = RowSpace.from_json_dict(space.to_json_dict())
        assert again.norms.tobytes() == space.norms.tobytes()

    def test_norms_of_empty_rows_and_read_only(self):
        space = RowSpace(ITEMS, {"u1": {}, "u2": {"i2": 3.0, "i1": 4.0}, "u3": {}})
        assert space.norms.tolist() == [0.0, 5.0, 0.0]
        with pytest.raises(ValueError):
            space.norms[0] = 1.0

    def test_item_rank_is_the_sorted_order(self):
        space = RowSpace(("c", "a10", "B", "a2"), {"u1": {}})
        assert space.item_rank.tolist() == [3, 1, 0, 2]

    def test_unknown_keys(self):
        space = RowSpace(ITEMS, {"u1": {"i1": 4.0}})
        with pytest.raises(UnknownUser, match="unknown user 'ghost'"):
            space.ratings_of("ghost")
        with pytest.raises(UnknownUser, match=r"unknown virtual user \('u1', 1\)"):
            space.ratings_of(("u1", 1))


class TestClusterVirtualUsers:
    def one_row_space(self):
        return RowSpace(("i1", "i2"), {("u1", 1): {"i1": 4.0}})

    def test_default_neuron_count(self):
        model = cluster_virtual_users(self.one_row_space())
        assert model.som.config.neuron_count == DEFAULT_PHASE3_NEURONS

    def test_single_virtual_user_is_singleton_cluster(self):
        model = cluster_virtual_users(self.one_row_space(), SomConfig(3))
        assert model.neurons.tolist() == assign(model.som, [[4.0, 0.0]])

    def test_identical_rows_share_a_neuron(self):
        space = RowSpace(
            ("i1", "i2"),
            {
                ("u1", 1): {"i1": 4.0, "i2": 2.0},
                ("u2", 1): {"i1": 4.0, "i2": 2.0},
            },
        )
        model = cluster_virtual_users(space, SomConfig(4, seed=2))
        assert model.neurons[0] == model.neurons[1]

    def test_empty_space_rejected(self):
        space = RowSpace(("i1",), {})
        with pytest.raises(EmptyInput, match="no rows to cluster"):
            cluster_virtual_users(space, SomConfig(2))

    def test_dense_matrix_built_once(self, small_model, monkeypatch):
        """Training and ``assign`` share one dense matrix of the space."""
        reads = []
        dense = RowSpace.matrix.fget
        monkeypatch.setattr(
            RowSpace, "matrix", property(lambda space: reads.append(1) or dense(space))
        )
        model = cluster_virtual_users(small_model.space, SomConfig(4, epochs=2))
        assert len(reads) == 1
        assert model.neurons.tolist() == assign(model.som, dense(small_model.space))

    def test_membership_matches_som_assignment(self, small_model):
        from ctxrec.som import assign

        space = small_model.space
        labels = assign(small_model.user_model.som, space.matrix)
        assert small_model.user_model.neurons.tolist() == labels

    def test_scorer_state_is_the_som_neurons_and_peer_index(
        self, small_model, small_cube, tmp_path
    ):
        # the scorer reads nothing else from the model
        model = small_model.user_model
        assert [f.name for f in fields(model)] == [
            "som", "neurons", "bounds", "entry_bounds", "columns", "values", "member_of", "norms"
        ]
        assert model.neurons.tolist() == assign(model.som, small_model.space.matrix)
        assert_peer_index(model, small_model.space)
        save_pipeline(small_model, tmp_path / "pipeline")
        loaded = load_pipeline(tmp_path / "pipeline")
        assert loaded.user_model.neurons.tolist() == model.neurons.tolist()
        assert_peer_index(loaded.user_model, loaded.space)
        flat = fit_baseline(small_cube, SomConfig(5, epochs=5))
        assert_peer_index(flat.user_model, flat.space)
        save_baseline(flat, tmp_path / "baseline")
        loaded = load_baseline(tmp_path / "baseline")
        assert loaded.user_model.neurons.tolist() == flat.user_model.neurons.tolist()
        assert_peer_index(loaded.user_model, loaded.space)

    def test_blocks_are_a_permutation_of_the_space_entries(
        self, small_model, small_cube, tmp_path
    ):
        flat = fit_baseline(small_cube, SomConfig(5, epochs=5))
        save_pipeline(small_model, tmp_path / "pipeline")
        save_baseline(flat, tmp_path / "baseline")
        pairs = [
            (small_model, load_pipeline(tmp_path / "pipeline")),
            (flat, load_baseline(tmp_path / "baseline")),
        ]
        for fitted, loaded in pairs:
            for system in (fitted, loaded):
                assert_blocks_permute_entries(system.user_model, system.space)
            for f in fields(fitted.user_model)[1:]:
                got, want = getattr(loaded.user_model, f.name), getattr(fitted.user_model, f.name)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), f.name

    def test_peer_index_of_an_empty_neuron_and_a_row_without_entries(self):
        space = RowSpace(
            ("i1", "i2", "i3"),
            {"a": {"i1": 4.0, "i3": 2.0}, "b": {}, "c": {"i2": 5.0}, "d": {"i1": 1.0}},
        )
        net = SomNetwork(np.ones((4, 3)), SomConfig(4))
        model = pipeline._cluster_model(net, space, [3, 0, 3, 0])
        # neuron 0 holds b (no entries), d; neuron 3 holds a, c; 1 and 2 are empty
        assert model.bounds.tolist() == [0, 2, 2, 2, 4]
        assert model.entry_bounds.tolist() == [0, 1, 1, 1, 4]
        assert model.columns.tolist() == [0, 0, 2, 1]
        assert model.values.tolist() == [1.0, 4.0, 2.0, 5.0]
        assert model.member_of.tolist() == [1, 0, 0, 1]
        assert model.norms.tolist() == [0.0, 1.0, math.sqrt(20.0), 5.0]
        assert_peer_index(model, space)

    def test_blocks_of_rows_without_entries(self):
        # every row empty: no entries at all
        empty = RowSpace(("i1", "i2"), {"a": {}, "b": {}, "c": {}})
        net = SomNetwork(np.array([[1.0, 0.5], [0.25, 0.0], [0.0, 2.0]]), SomConfig(3))
        model = pipeline._cluster_model(net, empty, [1, 0, 1])
        assert model.bounds.tolist() == [0, 1, 3, 3]
        assert model.entry_bounds.tolist() == [0, 0, 0, 0]
        assert model.columns.tolist() == model.values.tolist() == model.member_of.tolist() == []
        assert model.norms.tolist() == [0.0, 0.0, 0.0]
        assert_peer_index(model, empty)
        # neuron 2's members have no entries, neuron 0's do
        space = RowSpace(("i1", "i2"), {"a": {"i2": 3.0}, "b": {}, "c": {}, "d": {"i1": 2.0}})
        mixed = pipeline._cluster_model(net, space, [0, 2, 2, 0])
        assert mixed.bounds.tolist() == [0, 2, 2, 4]
        assert mixed.entry_bounds.tolist() == [0, 2, 2, 2]
        assert mixed.member_of.tolist() == [0, 1]
        assert_peer_index(mixed, space)
        for model, space in ((model, empty), (mixed, space)):
            for key in space.keys:
                columns, scores = pipeline._score(model, space, key)
                got = [(space.items[j], s) for j, s in zip(columns.tolist(), scores.tolist())]
                assert bits(got) == bits(py_score(model, space, key).items())


def assert_peer_index(model, space) -> None:
    """Each neuron's block holds its members in row order, each member's
    entries in column order with its position on the neuron, and the
    members' norms.  Every array is read-only, sized by the rows, neurons
    and entries."""
    starts, neurons = space.starts.tolist(), model.neurons.tolist()
    assert len(model.bounds) == len(model.entry_bounds) == model.som.neuron_count + 1
    assert len(model.norms) == len(space.keys)
    assert len(model.columns) == len(model.values) == len(model.member_of) == len(space.columns)
    for f in fields(model)[1:]:
        assert not getattr(model, f.name).flags.writeable
    for k in range(model.som.neuron_count):
        members = [r for r, n in enumerate(neurons) if n == k]
        assert model.bounds[k + 1] - model.bounds[k] == len(members)
        assert model.norms[model.bounds[k] : model.bounds[k + 1]].tolist() == [
            space.norms[r] for r in members
        ]
        block = slice(model.entry_bounds[k], model.entry_bounds[k + 1])
        spans = [range(starts[r], starts[r + 1]) for r in members]
        assert model.columns[block].tolist() == [space.columns[e] for s in spans for e in s]
        assert model.values[block].tolist() == [space.values[e] for s in spans for e in s]
        assert model.member_of[block].tolist() == [i for i, s in enumerate(spans) for _ in s]


def assert_blocks_permute_entries(model, space) -> None:
    """Every entry of the space appears in the blocks exactly once, on its
    row's neuron (a block entry's row is read from its neuron's members), and
    the model takes ``8 * (3E + 2V + 2(N + 1))`` bytes beside its SOM."""
    rows = np.repeat(np.arange(len(space.keys)), np.diff(space.starts))
    entries = sorted(zip(rows.tolist(), space.columns.tolist(), space.values.tolist()))
    placed = []
    for k in range(model.som.neuron_count):
        members = np.flatnonzero(model.neurons == k)
        block = slice(model.entry_bounds[k], model.entry_bounds[k + 1])
        member_rows = members[model.member_of[block]].tolist()
        placed += zip(member_rows, model.columns[block].tolist(), model.values[block].tolist())
    assert sorted(placed) == entries
    v, n, e = len(space.keys), model.som.neuron_count, len(space.columns)
    nbytes = sum(getattr(model, f.name).nbytes for f in fields(model)[1:])
    assert nbytes == 8 * (3 * e + 2 * v + 2 * (n + 1))


def cosine(x, w) -> float:
    """Cosine of two vectors, 0 when either is all-zero."""
    denom = float(np.linalg.norm(x)) * float(np.linalg.norm(w))
    return float(np.dot(x, w)) / denom if denom else 0.0


def scores_of(model, space, key) -> dict[str, float]:
    """Every candidate's score, through the one ranking path."""
    return dict(pipeline._ranked(model, space, key, len(space.items) + 1))


class TestPredictScores:
    def test_singleton_cluster_uses_prototype(self):
        space = RowSpace(("i1", "i2", "i3"), {("u1", 1): {"i1": 4.0}})
        model = cluster_virtual_users(space, SomConfig(1, seed=0))
        scores = scores_of(model, space, ("u1", 1))
        prototype = model.som.weights[model.neurons[0]]
        assert set(scores) == {"i2", "i3"}  # i1 is own-rated
        assert scores["i2"] == prototype[1]
        assert scores["i3"] == prototype[2]

    def test_unanimous_peers(self):
        # two peers identical to the target but for item i3 rated 5 by both
        space = RowSpace(
            ("i1", "i2", "i3"),
            {
                ("u1", 1): {"i1": 4.0, "i2": 2.0},
                ("u2", 1): {"i1": 4.0, "i2": 2.0, "i3": 5.0},
                ("u3", 1): {"i1": 4.0, "i2": 2.0, "i3": 5.0},
            },
        )
        model = cluster_virtual_users(space, SomConfig(1, seed=0))
        scores = scores_of(model, space, ("u1", 1))
        assert scores["i3"] == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_weighted_mean(self, small_model):
        # brute-force re-derivation of the score of every candidate item
        space = small_model.space
        model = small_model.user_model
        for key in space.keys[:10]:
            neuron = model.neurons[space.row(key)]
            own_vec = space.matrix[space.row(key)]
            peers = [
                k
                for r, k in enumerate(space.keys)
                if k != key and model.neurons[r] == neuron
            ]
            scores = scores_of(model, space, key)
            for item, got in scores.items():
                pairs = [
                    (
                        cosine(own_vec, space.matrix[space.row(k)]),
                        space.ratings_of(k)[item],
                    )
                    for k in peers
                    if item in space.ratings_of(k)
                ]
                den = sum(s for s, _ in pairs)
                if pairs and den > 0.0:
                    expected = sum(s * v for s, v in pairs) / den
                else:
                    expected = model.som.weights[neuron][space.items.index(item)]
                assert got == pytest.approx(expected, abs=1e-12)

    def test_own_items_never_scored(self, small_model):
        space = small_model.space
        for key in space.keys:
            scores = scores_of(small_model.user_model, space, key)
            assert not set(scores) & set(space.ratings_of(key))

    def test_unknown_virtual_user(self, small_model):
        with pytest.raises(UnknownUser, match=r"unknown virtual user \('ghost', 1\)"):
            scores_of(small_model.user_model, small_model.space, ("ghost", 1))


def prototype_ranking(items, weights, n, rated=None) -> list[tuple[str, float]]:
    """The ranking of a lone row, so that its scores are the one neuron's
    ``weights`` on the items it has not ``rated``."""
    space = RowSpace(items, {("u1", 1): rated or {}})
    net = SomNetwork(np.array([weights], dtype=np.float64), SomConfig(1))
    user_model = pipeline._cluster_model(net, space, assign(net, space.matrix))
    return pipeline._ranked(user_model, space, ("u1", 1), n)


class TestRankItems:
    def test_descending_scores(self):
        ranked = prototype_ranking(("a", "b", "c"), [1.0, 3.0, 2.0], 3)
        assert ranked == [("b", 3.0), ("c", 2.0), ("a", 1.0)]

    def test_tie_breaks_by_item_id(self):
        ranked = prototype_ranking(("b", "a", "c"), [2.0, 2.0, 5.0], 3)
        assert ranked == [("c", 5.0), ("a", 2.0), ("b", 2.0)]

    def test_n_exceeding_candidates_returns_all(self):
        assert len(prototype_ranking(("a", "b"), [1.0, 2.0], 10)) == 2

    def test_tie_across_the_cut_keeps_the_smaller_id(self):
        ranked = prototype_ranking(("d", "c", "b", "a"), [5.0, 3.0, 3.0, 1.0], 2)
        assert ranked == [("d", 5.0), ("b", 3.0)]

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_returns_nothing(self, n):
        assert prototype_ranking(("a",), [1.0], n) == []
        assert prototype_ranking(("a",), [1.0], 3, rated={"a": 4.0}) == []


class TestRecommend:
    def two_cluster_setup(self):
        schema = tiny_schema()
        f = lambda names: schema.situation_from_names(names).flat_index
        cube = make_cube(
            schema,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("a", "x"), 4),
                ("u1", "i3", ("a", "y"), 2),
                ("u2", "i1", ("a", "x"), 5),
                ("u2", "i4", ("a", "x"), 4),
            ],
            items=("i1", "i2", "i3", "i4", "i5"),
        )
        clusterings = {
            "u1": ContextClustering(
                "u1", {f(("a", "x")): 1, f(("a", "y")): 2}, 2
            ),
            "u2": ContextClustering("u2", {f(("a", "x")): 1}, 1),
        }
        space = build_virtual_space(cube, clusterings)
        model = cluster_virtual_users(space, SomConfig(1, seed=0))
        return schema, clusterings, space, model

    def test_routes_online_context_to_its_label(self):
        schema, clusterings, space, model = self.two_cluster_setup()
        sit = schema.situation_from_names(("a", "x"))
        out = recommend(model, space, clusterings, "u1", sit, 5)
        # label 1 rated i1, i2 -> they are excluded
        items = [item for item, _ in out]
        assert "i1" not in items and "i2" not in items

    def test_unlabeled_context_falls_back_to_densest_virtual_user(self):
        schema, clusterings, space, model = self.two_cluster_setup()
        unseen = schema.situation_from_names(("b", "y"))
        out = recommend(model, space, clusterings, "u1", unseen, 5)
        # densest virtual user of u1 is label 1 (2 items vs 1)
        sit_of_label1 = schema.situation_from_names(("a", "x"))
        assert out == recommend(
            model, space, clusterings, "u1", sit_of_label1, 5
        )

    def test_no_padding_beyond_candidates(self):
        schema, clusterings, space, model = self.two_cluster_setup()
        sit = schema.situation_from_names(("a", "x"))
        out = recommend(model, space, clusterings, "u1", sit, 50)
        assert len(out) == 3  # 5 items minus 2 rated by (u1, 1)

    def test_fallback_candidates_are_the_users_rows(self, small_model):
        # the unlabeled fallback picks among (user, 1..m)
        for user, clustering in small_model.clusterings.items():
            rows = [key for key in small_model.space.keys if key[0] == user]
            assert rows == [(user, label) for label in range(1, clustering.m + 1)]

    def test_output_sorted_and_duplicate_free(self, small_model):
        schema = small_model.schema
        sit = schema.situation_from_flat(0)
        for user in small_model.eval_user_pool()[:8]:
            out = small_model.recommend(user, sit, 10)
            items = [item for item, _ in out]
            assert len(items) == len(set(items))
            assert out == sorted(out, key=lambda kv: (-kv[1], kv[0]))

    def test_unknown_user(self):
        schema, clusterings, space, model = self.two_cluster_setup()
        sit = schema.situation_from_names(("a", "x"))
        with pytest.raises(UnknownUser):
            recommend(model, space, clusterings, "ghost", sit, 5)

    def test_user_without_virtual_users(self):
        schema, clusterings, space, model = self.two_cluster_setup()
        clusterings = {**clusterings, "u3": ContextClustering("u3", {}, 0)}
        sit = schema.situation_from_names(("a", "x"))
        with pytest.raises(EmptyInput, match="'u3' has no virtual users"):
            recommend(model, space, clusterings, "u3", sit, 5)


class TestEvalUnits:
    """``PipelineModel.eval_units`` on a hand-built model whose test cube
    holds a rating in a situation the user never rated in training, which
    no generated split produces."""

    def model_and_test(self):
        schema = tiny_schema()
        f = lambda names: schema.situation_from_names(names).flat_index
        items = ("i1", "i2", "i3", "i4")
        train_cube = make_cube(
            schema,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("a", "y"), 4),
                ("u1", "i3", ("b", "x"), 3),
                ("u2", "i1", ("a", "x"), 4),
            ],
            items=items,
        )
        # (a, x) and (b, x) share label 2; (a, y) comes after (a, x) in
        # flat order but is label 1, so label order is not situation order
        labels = {f(("a", "x")): 2, f(("a", "y")): 1, f(("b", "x")): 2}
        clusterings = {
            "u1": ContextClustering("u1", labels, 2),
            "u2": ContextClustering("u2", {f(("a", "x")): 1}, 1),
        }
        space = build_virtual_space(train_cube, clusterings)
        user_model = cluster_virtual_users(space, SomConfig(1, seed=0))
        model = PipelineModel(schema, SomConfig(2), clusterings, space, user_model)
        test_cube = make_cube(
            schema,
            [
                ("u1", "i2", ("a", "x"), 5),
                ("u1", "i4", ("a", "x"), 3),  # below the threshold
                ("u1", "i3", ("a", "y"), 4),
                ("u1", "i4", ("b", "x"), 4),
                ("u1", "i1", ("b", "y"), 5),  # (b, y) has no label
                ("u2", "i2", ("a", "x"), 2),
            ],
            users=("u1", "u2"),
            items=items,
        )
        return model, test_cube

    def test_units_group_by_label_in_ascending_order(self):
        model, test_cube = self.model_and_test()
        assert model.eval_units("u1", test_cube, 4) == [
            (("u1", 1), {"i3"}),
            (("u1", 2), {"i2", "i4"}),
        ]

    def test_unlabeled_situation_left_out(self):
        model, test_cube = self.model_and_test()
        units = model.eval_units("u1", test_cube, 4)
        assert all("i1" not in relevant for _, relevant in units)
        # at threshold 5 only (a, x)'s i2 and unlabeled (b, y)'s i1 qualify
        assert model.eval_units("u1", test_cube, 5) == [(("u1", 2), {"i2"})]

    def test_units_with_nothing_relevant_dropped(self):
        model, test_cube = self.model_and_test()
        assert model.eval_units("u2", test_cube, 4) == []

    def test_unknown_user(self):
        model, test_cube = self.model_and_test()
        with pytest.raises(UnknownUser, match="no clustering for user 'ghost'"):
            model.eval_units("ghost", test_cube, 4)


def left_sum(values) -> float:
    """A plain left-to-right float sum (``sum`` compensates from Python 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


def py_score(model, space, key) -> dict[str, float]:
    """The scorer written out in plain Python floats, left to right: the
    peers in row order, each peer's rated entries in column order; a cosine
    of ``math.sqrt`` norms, 0 where their product is 0; the prototype where
    no peer with a positive similarity rated an item.  These are the bits
    the scorer must reproduce."""
    matrix = space.matrix
    row = space.row(key)
    neuron = model.neurons[row]
    own = matrix[row].tolist()
    own_norm = math.sqrt(left_sum(v * v for v in own))
    num, den = [0.0] * len(own), [0.0] * len(own)
    for r in np.flatnonzero(model.neurons == neuron).tolist():
        if r == row:
            continue
        rated = [(j, v) for j, v in enumerate(matrix[r].tolist()) if v]
        norms = math.sqrt(left_sum(v * v for _, v in rated)) * own_norm
        sim = left_sum(own[j] * v for j, v in rated) / norms if norms > 0.0 else 0.0
        for j, v in rated:
            num[j] += sim * v
            den[j] += sim
    prototype = model.som.weights[neuron].tolist()
    return {
        item: num[j] / den[j] if den[j] > 0.0 else prototype[j]
        for j, item in enumerate(space.items)
        if not own[j]
    }


def reference_rank(scores, n) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[: max(n, 0)]


def reference_label(model: PipelineModel, user, situation) -> int:
    clustering = model.clusterings[user]
    label = clustering.labels.get(situation.flat_index)
    if label is None:
        label = max(
            range(1, clustering.m + 1),
            key=lambda k: (len(model.space.ratings_of((user, k))), -k),
        )
    return label


def bits(pairs) -> list[tuple[str, str]]:
    """(item, score) pairs with each score as its exact float bits."""
    return [(item, float.hex(score)) for item, score in pairs]


def assert_matches_reference(model: PipelineModel, flat: BaselineModel) -> None:
    """Every key's scores and rankings of both systems equal the reference's,
    bit for bit, for n in {-1, 0, 1, 2, 10, 30, more than the candidates}
    (10 and 30 are the cutoffs of ``serve`` and ``evaluate``); so do the
    pipeline's ``recommend`` results in labelled and unlabelled situations."""
    ns = (-1, 0, 1, 2, 10, 30, len(model.space.items) + 1)
    for system, space, user_model in (
        ("pipeline", model.space, model.user_model),
        ("baseline", flat.space, flat.user_model),
    ):
        for key in space.keys:
            expected = py_score(user_model, space, key)
            for n in ns:
                # at n = candidates + 1 this holds every candidate's score bits
                ranked = reference_rank(expected, n)
                assert bits(pipeline._ranked(user_model, space, key, n)) == bits(ranked)
                items = [item for item, _ in ranked]
                if system == "pipeline":
                    assert model.recommend_key(key, n) == items
                else:
                    assert bits(flat.recommend(key, n)) == bits(ranked)
                    assert flat.recommend_key(key, n) == items
    for user, clustering in model.clusterings.items():
        # every labelled situation, and unlabelled ones among the first four
        for flat_index in sorted(set(clustering.labels) | set(range(4))):
            situation = model.schema.situation_from_flat(flat_index)
            label = reference_label(model, user, situation)
            expected = py_score(model.user_model, model.space, (user, label))
            for n in ns:
                got = model.recommend(user, situation, n)
                assert bits(got) == bits(reference_rank(expected, n))


def rows_of(keys, items, matrix) -> dict:
    """``{key: {item: value}}`` of a dense matrix's nonzero entries."""
    return {key: {i: v for i, v in zip(items, row) if v} for key, row in zip(keys, matrix)}


def scored_systems(schema, items, users_m, flats, matrix, weights):
    """A pipeline and a baseline model sharing one matrix and one SOM.

    Pipeline rows are the virtual users (user, 1..m) in order; user ``i``
    labels flat ``flats[k - 1]`` with ``k``.  Baseline rows are users
    ``f0, f1, ...``.
    """
    keys = [(f"u{i}", k) for i, m in enumerate(users_m) for k in range(1, m + 1)]
    clusterings = {
        f"u{i}": ContextClustering(f"u{i}", {flats[k - 1]: k for k in range(1, m + 1)}, m)
        for i, m in enumerate(users_m)
    }
    net = SomNetwork(np.asarray(weights, dtype=np.float64), SomConfig(len(weights)))
    space = RowSpace(items, rows_of(keys, items, matrix))
    user_model = pipeline._cluster_model(net, space, assign(net, space.matrix))
    model = PipelineModel(schema, SomConfig(2), clusterings, space, user_model)
    flat_space = RowSpace(items, rows_of([f"f{r}" for r in range(len(keys))], items, matrix))
    flat_model = pipeline._cluster_model(net, flat_space, assign(net, flat_space.matrix))
    return model, BaselineModel(schema, flat_space, flat_model)


# item ids whose column order is not their sorted order
REF_ITEMS = ("c", "a10", "B", "a2", "é", "a")


@st.composite
def scored_cases(draw):
    """Small random spaces and SOMs.  Ratings and weights come from a few
    values, so rows repeat, rows are all-zero and scores tie; with up to four
    neurons over a handful of rows, some neurons hold one row."""
    p = draw(st.integers(1, len(REF_ITEMS)))
    items = tuple(draw(st.permutations(REF_ITEMS))[:p])
    users_m = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rows = sum(users_m)
    value = st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.5, 4.0, 5.0])
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3])
    matrix = draw(st.lists(st.lists(value, min_size=p, max_size=p), min_size=rows, max_size=rows))
    neurons = draw(st.integers(1, 4))
    weights = draw(
        st.lists(st.lists(weight, min_size=p, max_size=p), min_size=neurons, max_size=neurons)
    )
    flats = draw(st.permutations(range(4)))
    return scored_systems(tiny_schema(), items, users_m, flats, matrix, weights)


class TestScorerReference:
    """Scores and rankings equal the plain reference scorer bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=scored_cases())
    def test_random_spaces(self, case):
        assert_matches_reference(*case)

    def test_zero_rows_singletons_ties_and_unsorted_items(self):
        items = ("d", "b", "c", "a")
        matrix = [
            [5.0, 5.0, 0.0, 0.0],  # (u0, 1)
            [0.0, 0.0, 0.0, 0.0],  # (u0, 2): all-zero
            [5.0, 5.0, 2.0, 0.0],  # (u1, 1)
            [5.0, 5.0, 0.0, 2.0],  # (u1, 2): ties (u0, 1)'s scores on c and a
            [0.0, 0.0, 3.0, 3.0],  # (u2, 1): alone on neuron 1
        ]
        weights = [[1.0, 1.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]]
        schema = tiny_schema()
        model, flat = scored_systems(schema, items, [2, 2, 1], [3, 0, 1, 2], matrix, weights)
        assert model.user_model.neurons.tolist() == [0, 0, 0, 0, 1]
        ranked = pipeline._ranked(model.user_model, model.space, ("u0", 1), 5)
        assert ranked == [("a", 2.0), ("c", 2.0)]
        assert_matches_reference(model, flat)

    def test_first_last_and_only_members_and_empty_rows(self):
        items = ("d", "b", "c", "a")
        matrix = [
            [5.0, 4.0, 0.0, 0.0],  # neuron 1, first member
            [0.0, 0.0, 0.0, 0.0],  # neuron 0, no entries, first member
            [0.0, 0.0, 3.0, 0.0],  # neuron 2, only member
            [2.0, 0.0, 0.0, 0.0],  # neuron 1
            [1.0, 3.0, 2.0, 0.0],  # neuron 1, last member
            [0.0, 0.0, 0.0, 4.0],  # neuron 0, last member
        ]
        weights = [[0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        model, flat = scored_systems(tiny_schema(), items, [2, 2, 2], [2, 0, 3, 1], matrix, weights)
        assert model.user_model.neurons.tolist() == [1, 0, 2, 1, 1, 0]
        assert_matches_reference(model, flat)

    def test_a_space_of_empty_rows(self):
        zeros, weights = [[0.0, 0.0]] * 3, [[1.0, 0.5]]
        model, flat = scored_systems(tiny_schema(), ("a", "b"), [2, 1], range(4), zeros, weights)
        assert model.user_model.neurons.tolist() == [0, 0, 0]
        assert_matches_reference(model, flat)

    def test_trained_model(self, small_model, small_cube):
        flat_space = flatten_cube(small_cube)
        flat = BaselineModel(
            small_cube.schema,
            flat_space,
            cluster_virtual_users(flat_space, SomConfig(5, epochs=10)),
        )
        assert_matches_reference(small_model, flat)


SCORER_PROBE = """
from ctxrec.baseline import fit_baseline
from ctxrec.datagen import GenConfig, generate
from ctxrec.pipeline import _score, fit_pipeline
from ctxrec.som import SomConfig
from test_pipeline import py_score

def scored(model, space, key):
    columns, scores = _score(model, space, key)
    return [(space.items[j], s.hex()) for j, s in zip(columns.tolist(), scores.tolist())]

cube = generate(GenConfig(n_users=120, n_items=300, seed=4))
pipeline = fit_pipeline(cube, phase3_cfg=SomConfig(8, epochs=10))
baseline = fit_baseline(cube, SomConfig(6, epochs=10))
print(all(
    scored(m.user_model, m.space, key)
    == [(item, s.hex()) for item, s in py_score(m.user_model, m.space, key).items()]
    for m in (pipeline, baseline)
    for key in m.space.keys
))
"""


class TestScorerCrossKernel:
    """``_score`` equals ``py_score``, the plain left-to-right loop over
    ``space.matrix`` rows, bit for bit, on kernels without AVX-512 too.
    ``OPENBLAS_CORETYPE`` is set on the child process only."""

    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_scores_equal_the_dense_reference(self, kernel):
        here = Path(__file__).resolve().parent
        paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        env = dict(
            os.environ,
            OPENBLAS_CORETYPE=kernel,
            OPENBLAS_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(filter(None, paths)),
        )
        proc = subprocess.run(
            [sys.executable, "-c", SCORER_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["True"]


class TestFitPipeline:
    def test_clusterings_cover_rated_users(self, small_cube, small_model):
        rated = {u for u in small_cube.users if small_cube.user_ratings(u)}
        assert set(small_model.clusterings) == rated

    def test_sum_of_m_equals_virtual_user_count(self, small_model):
        total = sum(c.m for c in small_model.clusterings.values())
        assert total == len(small_model.space.keys)

    def test_deterministic(self, small_cube):
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        cfg3 = SomConfig(6, epochs=10)
        a = fit_pipeline(small_cube, cfg1, cfg3)
        b = fit_pipeline(small_cube, cfg1, cfg3)
        assert a.space.to_json_dict() == b.space.to_json_dict()
        assert (
            a.user_model.som.weights.tobytes()
            == b.user_model.som.weights.tobytes()
        )

    def test_worker_count_does_not_change_result(self, small_cube):
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        cfg3 = SomConfig(6, epochs=10)
        serial = fit_pipeline(small_cube, cfg1, cfg3, workers=1)
        parallel = fit_pipeline(small_cube, cfg1, cfg3, workers=2)
        assert serial.space.to_json_dict() == parallel.space.to_json_dict()
        assert (
            serial.user_model.som.weights.tobytes()
            == parallel.user_model.som.weights.tobytes()
        )
        assert serial.user_model.neurons.tolist() == parallel.user_model.neurons.tolist()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, small_cube, workers):
        with pytest.raises(InvalidConfig, match="workers"):
            fit_phase1(small_cube, workers=workers)
        with pytest.raises(InvalidConfig, match="workers"):
            fit_pipeline(small_cube, workers=workers)

    def test_each_lane_is_drawn_alone(self, small_cube, monkeypatch):
        """Phase 1 draws each lane's p-wide initial weights on its own, so it
        holds one (N, p) draw at a time, whatever the number of users."""
        drawn = []
        draw = som._draw_weights

        def spy(seeds, neuron_count, p):
            drawn.append(list(seeds))
            return draw(seeds, neuron_count, p)

        monkeypatch.setattr(som, "_draw_weights", spy)
        cfg = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=2)
        fit_phase1(small_cube, cfg)
        trained = [u for u in sorted(small_cube.users) if len(small_cube.user_ratings(u)) > 1]
        assert len(trained) > 2
        assert all(len(seeds) == 1 for seeds in drawn)
        assert sorted(drawn) == sorted([derive_seed(cfg.seed, "phase1", user)] for user in trained)

    def test_one_lockstep_call_per_width(self, monkeypatch):
        """A serial phase 1 trains every lane of one width in one
        ``_train_lanes`` call, narrowest first, however many users train."""
        cube = generate(GenConfig(n_users=80, n_items=30, density=0.02, seed=1))
        cfg = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=2)
        calls = []
        train_lanes = som._train_lanes

        def spy(matrices, cfg, seeds, weights, skip):
            calls.append((weights.shape[2], sorted(seeds)))
            return train_lanes(matrices, cfg, seeds, weights, skip)

        monkeypatch.setattr(som, "_train_lanes", spy)
        fit_phase1(cube, cfg)
        trained = [u for u in cube.users if len(cube.user_ratings(u)) > 1]
        assert len(trained) > 64
        width_of = {
            derive_seed(cfg.seed, "phase1", user): 1 << len(cube.usage_rows(user)[1]).bit_length()
            for user in trained
        }
        widths = sorted(set(width_of.values()))
        assert len(widths) > 1
        assert calls == [
            (width, sorted(seed for seed, w in width_of.items() if w == width)) for width in widths
        ]

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_workers_capped_at_cpus_and_blocks(self, small_cube, monkeypatch, cpus):
        """The pool starts all its workers at once, so it is asked for at most
        one per CPU and one per block; a fake pool maps in this process."""
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        cfg3 = SomConfig(6, epochs=10)
        pooled = fit_pipeline(small_cube, cfg1, cfg3, workers=10_000)
        # one-user blocks once the workers outnumber the users
        users = sum(1 for u in small_cube.users if small_cube.user_ratings(u))
        assert 2 < users < 64
        assert asked == ([] if cpus == 1 else [min(cpus, users)])
        serial = fit_pipeline(small_cube, cfg1, cfg3)
        assert pooled.space.to_json_dict() == serial.space.to_json_dict()

    def test_pooled_run_maps_the_serial_job(self, small_cube, monkeypatch):
        """A pooled run maps the serial run's one job, bound to the whole
        training cube, over interleaved slices of the users, one a worker:
        the serial call, split across processes."""
        import concurrent.futures

        sent = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                sent.append((fn, *iterables))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 2)
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        pooled = fit_pipeline(small_cube, cfg1, SomConfig(6, epochs=10), workers=2)
        users = [u for u in sorted(small_cube.users) if small_cube.user_ratings(u)]
        assert len(sent) == 1 and len(sent[0]) == 2
        job, mapped = sent[0]
        assert list(mapped) == [users[0::2], users[1::2]]
        assert job.func is pipeline.cluster_users
        assert len(job.args) == 1 and job.args[0] is small_cube
        assert job.keywords == {"cfg": cfg1}
        serial = fit_pipeline(small_cube, cfg1, SomConfig(6, epochs=1))
        assert pooled.clusterings == serial.clusterings
        # in sorted user order on both paths, not in the slices' order
        assert list(pooled.clusterings) == list(serial.clusterings) == users

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_start_method_does_not_change_result(self, small_cube, monkeypatch, method):
        """Workers that start from a fresh import, not a fork of the parent,
        get everything from the mapped job and give the serial model."""
        import concurrent.futures
        import multiprocessing
        from functools import partial

        context = multiprocessing.get_context(method)
        pool = partial(concurrent.futures.ProcessPoolExecutor, mp_context=context)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 2)
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        cfg3 = SomConfig(6, epochs=10)
        serial = fit_pipeline(small_cube, cfg1, cfg3)
        pooled = fit_pipeline(small_cube, cfg1, cfg3, workers=2)
        assert pooled.clusterings == serial.clusterings
        assert pooled.space.to_json_dict() == serial.space.to_json_dict()
        assert pooled.user_model.som.weights.tobytes() == serial.user_model.som.weights.tobytes()
        assert pooled.user_model.neurons.tolist() == serial.user_model.neurons.tolist()

    def test_empty_cube_rejected(self, schema2x2):
        from ctxrec.core import RatingCube

        cube = RatingCube(schema2x2, ("u1",), ("i1",), {})
        with pytest.raises(EmptyInput, match="training cube has no ratings"):
            fit_pipeline(cube)


class TestPipelinePersistence:
    def test_round_trip_recommendations(self, small_model, tmp_path):
        save_pipeline(small_model, tmp_path / "bundle")
        loaded = load_pipeline(tmp_path / "bundle")
        assert loaded.clusterings == small_model.clusterings
        assert loaded.user_model.neurons.tolist() == small_model.user_model.neurons.tolist()
        sit = small_model.schema.situation_from_flat(7)
        for user in small_model.eval_user_pool()[:5]:
            assert loaded.recommend(user, sit, 10) == small_model.recommend(
                user, sit, 10
            )

    def test_bundle_files(self, small_model, tmp_path):
        save_pipeline(small_model, tmp_path / "bundle")
        names = sorted(p.name for p in (tmp_path / "bundle").iterdir())
        assert names == [
            "clusterings.json",
            "schema.json",
            "user_som.json",
            "virtual_space.json",
        ]

    def test_resave_is_byte_identical(self, small_model, tmp_path):
        save_pipeline(small_model, tmp_path / "a")
        save_pipeline(load_pipeline(tmp_path / "a"), tmp_path / "b")
        for name in (
            "schema.json",
            "clusterings.json",
            "virtual_space.json",
            "user_som.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_space_rejected_at_load(self, small_cube, small_model, tmp_path):
        """A bundle with no rows fails where phase 3 does: no rows to cluster."""
        from ctxrec.baseline import fit_baseline, load_baseline, save_baseline

        save_pipeline(small_model, tmp_path / "pipeline")
        save_baseline(fit_baseline(small_cube, SomConfig(4, epochs=5)), tmp_path / "baseline")
        for name, load, space, users in (
            ("pipeline", load_pipeline, "virtual_space.json", "clusterings.json"),
            ("baseline", load_baseline, "flat_space.json", None),
        ):
            path = tmp_path / name / space
            jsonio.write_json(path, {**jsonio.read_json(path), "rows": []})
            if users:
                path = tmp_path / name / users
                jsonio.write_json(path, {**jsonio.read_json(path), "users": {}})
            with pytest.raises(EmptyInput, match="no rows to cluster"):
                load(tmp_path / name)

    def corrupt(self, small_model, tmp_path, name, edit):
        save_pipeline(small_model, tmp_path / "bundle")
        data = jsonio.read_json(tmp_path / "bundle" / name)
        edit(data)
        jsonio.write_json(tmp_path / "bundle" / name, data)
        with pytest.raises(CorruptFile) as err:
            load_pipeline(tmp_path / "bundle")
        return str(err.value)

    def test_som_must_span_the_items(self, small_model, tmp_path):
        def drop_column(data):
            data["weights"] = [row[1:] for row in data["weights"]]

        assert "user_som.json" in self.corrupt(
            small_model, tmp_path, "user_som.json", drop_column
        )

    def test_rows_must_be_the_virtual_users(self, small_model, tmp_path):
        message = self.corrupt(
            small_model, tmp_path, "virtual_space.json", lambda d: d["rows"].pop()
        )
        assert "virtual_space.json" in message

    @pytest.mark.parametrize("value", [0.0, 0.5, 5.5, -1.0])
    def test_ratings_must_be_in_range(self, small_model, tmp_path, value):
        def set_first(data):
            ratings = data["rows"][0]["ratings"]
            ratings[next(iter(ratings))] = value

        message = self.corrupt(small_model, tmp_path, "virtual_space.json", set_first)
        assert "virtual_space.json" in message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_som_weights_must_be_finite(self, small_model, tmp_path, value):
        save_pipeline(small_model, tmp_path / "bundle")
        path = tmp_path / "bundle" / "user_som.json"
        data = jsonio.read_json(path)
        data["weights"][0][0] = value
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptFile, match="user_som.json holds a non-finite weight"):
            load_pipeline(tmp_path / "bundle")

    def test_labels_must_be_compacted(self, small_model, tmp_path):
        def skip_label(data):
            entry = next(iter(data["users"].values()))
            entry["m"] += 1

        assert "clusterings.json" in self.corrupt(
            small_model, tmp_path, "clusterings.json", skip_label
        )

    @pytest.mark.parametrize("flat", [-1, 336, 9999])
    def test_flat_indices_must_lie_in_the_schema(self, small_model, tmp_path, flat):
        def move_label(data):
            labels = next(iter(data["users"].values()))["labels"]
            labels[str(flat)] = labels.pop(next(iter(labels)))

        assert "clusterings.json" in self.corrupt(
            small_model, tmp_path, "clusterings.json", move_label
        )


def global_statements(source: str) -> list[int]:
    """Lines of ``source`` that hold a ``global`` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


class TestNoModuleState:
    def test_no_module_rebinds_a_global(self):
        """Run-time state travels as arguments (a pool worker gets it with its
        job), so no module of the package keeps it in a rebound global."""
        modules = sorted(Path(pipeline.__file__).resolve().parent.glob("*.py"))
        assert "pipeline.py" in {path.name for path in modules}
        assert global_statements("def f():\n    global x\n") == [2]  # the check sees one
        offenders = {
            path.name: global_statements(path.read_text(encoding="utf-8")) for path in modules
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}
