"""Three-phase pipeline: context clustering, virtual users, cluster CF."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxrec.baseline import BaselineModel, flatten_cube
from ctxrec.core import default_schema
from ctxrec.datagen import GenConfig, generate
from ctxrec import jsonio
from ctxrec.errors import CorruptFile, EmptyInput, InvalidConfig, UnknownUser
from ctxrec import pipeline
from ctxrec.pipeline import (
    DEFAULT_PHASE1_NEURONS,
    DEFAULT_PHASE3_NEURONS,
    ContextClustering,
    PipelineModel,
    RowSpace,
    aggregate,
    build_virtual_space,
    cluster_user_contexts,
    cluster_users,
    cluster_virtual_users,
    fit_pipeline,
    load_pipeline,
    recommend,
    save_pipeline,
)
from ctxrec.som import SomConfig, SomNetwork, cosine_similarity

from conftest import make_cube, tiny_schema

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


class TestAggregate:
    def test_single_value(self):
        assert aggregate([3]) == 3.0

    def test_pair(self):
        assert aggregate([2, 4]) == 3.0

    def test_non_integer_mean(self):
        assert aggregate([1, 2, 2]) == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput, match="cannot aggregate zero ratings"):
            aggregate([])


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


class TestClusterUserContexts:
    def test_single_situation_single_cluster(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        c = cluster_user_contexts(cube, "u1")
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
        c = cluster_user_contexts(cube, "u1")
        assert len(set(c.labels.values())) == 1

    def test_default_config_bounds_m_by_six(self, restaurant_schema):
        rows = []
        for k in range(20):  # 20 distinct situations, scattered ratings
            flat = k * 16
            sit = restaurant_schema.situation_from_flat(flat)
            names = restaurant_schema.value_names(sit)
            rows.append(("u1", f"i{k % 7}", names, 1 + (k % 5)))
        cube = make_cube(restaurant_schema, rows)
        c = cluster_user_contexts(cube, "u1")
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
        c = cluster_user_contexts(cube, "u1", SomConfig(neuron_count=8))
        assert 1 <= c.m <= 3

    def test_unknown_user(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 4)])
        with pytest.raises(UnknownUser):
            cluster_user_contexts(cube, "nobody")

    def test_user_without_ratings(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [("u1", "i1", ("a", "x"), 4)],
            users=("u1", "u2"),
            items=("i1",),
        )
        with pytest.raises(EmptyInput, match="'u2' has no ratings"):
            cluster_user_contexts(cube, "u2")

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
        assert (
            cluster_user_contexts(alone, "u1").labels
            == cluster_user_contexts(crowded, "u1").labels
        )


class TestClusterUsers:
    def test_block_equals_one_user_at_a_time(self, small_cube):
        cfg = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=15, seed=4)
        users = [u for u in small_cube.users if small_cube.user_ratings(u)]
        block = cluster_users(small_cube, users, cfg)
        assert list(block) == users
        for user in users:
            assert block[user] == cluster_user_contexts(small_cube, user, cfg)

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
            user: cluster_user_contexts(small_cube, user)
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
            c = cluster_user_contexts(small_cube, user)
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
        clusterings = {
            user: cluster_user_contexts(cube, user) for user in cube.users
        }
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
        # column order, and dense rows in any order agree with the matrix
        rows, columns = np.nonzero(space.matrix)
        assert np.diff(space.starts).tolist() == np.bincount(rows, minlength=len(ratings)).tolist()
        assert space.columns.tolist() == columns.tolist()
        assert space.values.tobytes() == space.matrix[rows, columns].tobytes()
        backwards = np.arange(len(space.keys))[::-1]
        assert space.dense(backwards).tobytes() == space.matrix[backwards].tobytes()

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
        assert len(model.neurons) == 1
        assert model.members[model.neurons[0]].tolist() == [0]

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

    def test_membership_matches_som_assignment(self, small_model):
        from ctxrec.som import assign

        space = small_model.space
        labels = assign(small_model.user_model.som, space.matrix)
        assert small_model.user_model.neurons.tolist() == labels

    def test_scorer_state_is_norms_and_members(self, small_model):
        # the bits cosine_similarity uses, and each neuron's rows in order
        model, matrix = small_model.user_model, small_model.space.matrix
        norms = [float(np.linalg.norm(row)) for row in matrix]
        assert model.norms.tolist() == norms
        assert len(model.members) == model.som.neuron_count
        for neuron, rows in enumerate(model.members):
            assert rows.tolist() == np.flatnonzero(model.neurons == neuron).tolist()


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
                        cosine_similarity(own_vec, space.matrix[space.row(k)]),
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
    return pipeline._ranked(pipeline._cluster_model(net, space.matrix), space, ("u1", 1), n)


class TestRankItems:
    def test_descending_scores(self):
        ranked = prototype_ranking(("a", "b", "c"), [1.0, 3.0, 2.0], 3)
        assert ranked == [("b", 3.0), ("c", 2.0), ("a", 1.0)]

    def test_tie_breaks_by_item_id(self):
        ranked = prototype_ranking(("b", "a", "c"), [2.0, 2.0, 5.0], 3)
        assert ranked == [("c", 5.0), ("a", 2.0), ("b", 2.0)]

    def test_n_exceeding_candidates_returns_all(self):
        assert len(prototype_ranking(("a", "b"), [1.0, 2.0], 10)) == 2

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


def reference_scores(model, space, key) -> dict[str, float]:
    """The scorer written out plainly: one ``cosine_similarity`` per peer, a
    masked weighted mean, the prototype where no peer rated an item.  These
    are the bits the scorer must reproduce."""
    row = space.row(key)
    neuron = model.neurons[row]
    prototype = model.som.weights[neuron]
    own_vec = space.matrix[row]
    peers = [r for r in range(len(space.keys)) if r != row and model.neurons[r] == neuron]
    if peers:
        peer_rows = space.matrix[peers]
        sims = np.asarray([cosine_similarity(own_vec, peer) for peer in peer_rows])
        rated = peer_rows > 0.0
        num = sims @ np.where(rated, peer_rows, 0.0)
        den = sims @ rated
        with np.errstate(invalid="ignore"):
            scored = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), prototype)
    else:
        scored = np.asarray(prototype, dtype=np.float64)
    return {space.items[j]: float(scored[j]) for j in np.flatnonzero(own_vec == 0.0)}


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
    bit for bit, for n in {-1, 0, 1, 2, more than the candidates}; so do the
    pipeline's ``recommend`` results in labelled and unlabelled situations."""
    ns = (-1, 0, 1, 2, len(model.space.items) + 1)
    for system, space, user_model in (
        ("pipeline", model.space, model.user_model),
        ("baseline", flat.space, flat.user_model),
    ):
        for key in space.keys:
            expected = reference_scores(user_model, space, key)
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
            expected = reference_scores(model.user_model, model.space, (user, label))
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
    user_model = pipeline._cluster_model(net, space.matrix)
    model = PipelineModel(schema, SomConfig(2), clusterings, space, user_model)
    flat_space = RowSpace(items, rows_of([f"f{r}" for r in range(len(keys))], items, matrix))
    flat_model = pipeline._cluster_model(net, flat_space.matrix)
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

    def test_trained_model(self, small_model, small_cube):
        flat_space = flatten_cube(small_cube)
        flat = BaselineModel(
            small_cube.schema,
            flat_space,
            cluster_virtual_users(flat_space, SomConfig(5, epochs=10)),
        )
        assert_matches_reference(small_model, flat)


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

    @pytest.mark.parametrize("block", [1, 4])
    def test_block_size_does_not_change_result(self, small_cube, monkeypatch, block):
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        cfg3 = SomConfig(6, epochs=10)
        whole = fit_pipeline(small_cube, cfg1, cfg3)
        monkeypatch.setattr(pipeline, "PHASE1_BLOCK", block)
        blocked = fit_pipeline(small_cube, cfg1, cfg3, workers=2)
        assert blocked.clusterings == whole.clusterings
        assert list(blocked.clusterings) == sorted(blocked.clusterings)
        assert blocked.space.to_json_dict() == whole.space.to_json_dict()

    def test_blocks_sorted_by_input_count(self, small_cube, monkeypatch):
        monkeypatch.setattr(pipeline, "PHASE1_BLOCK", 4)
        users = [u for u in sorted(small_cube.users) if small_cube.user_ratings(u)]
        blocks = pipeline._phase1_blocks(small_cube, users, workers=1)
        assert [len(b) for b in blocks[:-1]] == [4] * (len(blocks) - 1)
        flat = [u for block in blocks for u in block]
        assert sorted(flat) == users
        counts = [len(small_cube.user_ratings(u)) for u in flat]
        assert counts == sorted(counts)
        # with more workers than full blocks, every worker gets a block
        assert len(pipeline._phase1_blocks(small_cube, users[:6], workers=3)) == 3

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_workers_capped_at_cpus_and_blocks(self, small_cube, monkeypatch, cpus):
        """The pool starts all its workers at once, so it is asked for at most
        one per CPU and one per block; a fake pool maps in this process."""
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                return map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(pipeline, "_worker_cube", None)
        monkeypatch.setattr(pipeline, "_worker_cfg", None)
        cfg1 = SomConfig(DEFAULT_PHASE1_NEURONS, epochs=10)
        cfg3 = SomConfig(6, epochs=10)
        pooled = fit_pipeline(small_cube, cfg1, cfg3, workers=10_000)
        # one-user blocks once the workers outnumber the users
        users = sum(1 for u in small_cube.users if small_cube.user_ratings(u))
        assert 2 < users < 64
        assert asked == ([] if cpus == 1 else [min(cpus, users)])
        serial = fit_pipeline(small_cube, cfg1, cfg3)
        assert pooled.space.to_json_dict() == serial.space.to_json_dict()

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
