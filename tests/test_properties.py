"""Property tests of the data model: CSV round trip, split, encoding, usage
rows, phase 2, and scoring through the peer index."""

import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxrec.core import (
    ContextDimension,
    ContextSchema,
    RatingCube,
    load_ratings,
    write_ratings,
)
from ctxrec.evaluation import SplitConfig, split
from ctxrec.pipeline import (
    ContextClustering,
    RowSpace,
    _cluster_model,
    _score,
    build_virtual_space,
)
from ctxrec.som import SomConfig, SomNetwork

from conftest import usage_matrix
from test_pipeline import py_score

# ids and value names include CSV metacharacters so quoting is exercised
NAMES = st.text(alphabet='ab,"; é', min_size=1, max_size=4)


@st.composite
def schemas(draw):
    """1-3 dimensions of 1-4 distinct values and a rating range inside 1..9."""
    dims = tuple(
        ContextDimension(
            f"d{k}", tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
        )
        for k in range(draw(st.integers(1, 3)))
    )
    low = draw(st.integers(1, 3))
    return ContextSchema(dims, low, draw(st.integers(low, low + 4)))


@st.composite
def cubes(draw):
    """A cube whose id universes are the sorted ids its cells use."""
    schema = draw(schemas())
    keys = st.tuples(NAMES, st.integers(0, schema.situation_count - 1), NAMES)
    rating = st.integers(schema.rating_min, schema.rating_max)
    cells = draw(st.dictionaries(keys, rating, max_size=30))
    users = sorted({user for user, _, _ in cells})
    items = sorted({item for _, _, item in cells})
    return RatingCube(schema, users, items, cells)


def csv_text(cube: RatingCube) -> str:
    buf = io.StringIO()
    write_ratings(cube, buf)
    return buf.getvalue()


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(cube=cubes())
    def test_write_load_write(self, cube):
        text = csv_text(cube)
        again = load_ratings(io.StringIO(text), cube.schema)
        assert again == cube
        assert again.cells() == cube.cells()
        assert csv_text(again) == text


class TestSplitPartition:
    @settings(max_examples=150, deadline=None)
    @given(
        cube=cubes(),
        fraction=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(0, 2**32),
    )
    def test_halves_partition_the_cells(self, cube, fraction, seed):
        train, test = split(cube, SplitConfig(fraction, seed))
        cells, train_cells, test_cells = cube.cells(), train.cells(), test.cells()
        assert not set(train_cells) & set(test_cells)
        assert {**train_cells, **test_cells} == cells
        assert len(train_cells) == math.ceil(fraction * len(cells))
        for half in (train, test):
            assert (half.users, half.items, half.schema) == (
                cube.users,
                cube.items,
                cube.schema,
            )


class TestEncoding:
    @settings(max_examples=150, deadline=None)
    @given(schema=schemas())
    def test_encode_decode_bijection(self, schema):
        decoded = [schema.decode(flat) for flat in range(schema.situation_count)]
        assert len(set(decoded)) == schema.situation_count
        for flat, indices in enumerate(decoded):
            assert all(0 <= i < k for i, k in zip(indices, schema.cardinalities))
            assert schema.encode(indices) == flat


class TestUsageRows:
    @settings(max_examples=150, deadline=None)
    @given(cube=cubes())
    def test_support_rows_are_the_rated_columns_of_the_usage_matrix(self, cube):
        """Every rating lies in 1..9, so the usage matrix is nonzero exactly
        where a rating is."""
        for user in cube.users:
            flats, columns, rows = cube.usage_rows(user)
            dense_flats, matrix = usage_matrix(cube, user)
            assert flats == dense_flats == list(cube.user_ratings(user))
            assert columns.tolist() == sorted(set(matrix.nonzero()[1].tolist()))
            assert rows.tobytes() == np.ascontiguousarray(matrix[:, columns]).tobytes()
            assert not np.delete(matrix, columns, axis=1).any()


class TestPhase2Conservation:
    @settings(max_examples=150, deadline=None)
    @given(cube=cubes(), data=st.data())
    def test_rows_are_means_of_the_mapped_cells(self, cube, data):
        clusterings = {}
        for user in cube.users:
            flats = sorted(cube.user_ratings(user))
            raw = [data.draw(st.integers(1, 4)) for _ in flats]
            compact = {r: k + 1 for k, r in enumerate(sorted(set(raw)))}
            labels = {flat: compact[r] for flat, r in zip(flats, raw)}
            clusterings[user] = ContextClustering(user, labels, len(compact))
        space = build_virtual_space(cube, clusterings)
        mapped: dict = {}
        for (user, flat, item), rating in cube.cells().items():
            key = (user, clusterings[user].labels[flat])
            mapped.setdefault(key, {}).setdefault(item, []).append(rating)
        for key, per_item in mapped.items():
            row = space.ratings_of(key)
            assert set(row) == set(per_item)
            for item, ratings in per_item.items():
                assert row[item] == sum(ratings) / len(ratings)
        assert set(space.keys) == set(mapped)


@st.composite
def labeled_spaces(draw):
    """A small space, a SOM of 1-4 neurons and any labeling of its rows:
    rows repeat or hold no entry, and a neuron holds no row, one or several."""
    p = draw(st.integers(1, 5))
    items = tuple(f"i{j}" for j in range(p))
    value = st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0, 5.0])
    matrix = draw(st.lists(st.lists(value, min_size=p, max_size=p), min_size=1, max_size=8))
    n = draw(st.integers(1, 4))
    weight = st.sampled_from([0.0, 0.3, 1.0])
    weights = draw(st.lists(st.lists(weight, min_size=p, max_size=p), min_size=n, max_size=n))
    neurons = draw(st.lists(st.integers(0, n - 1), min_size=len(matrix), max_size=len(matrix)))
    rows = {f"u{r}": {i: v for i, v in zip(items, row) if v} for r, row in enumerate(matrix)}
    space = RowSpace(items, rows)
    return _cluster_model(SomNetwork(np.array(weights), SomConfig(n)), space, neurons), space


class TestPeerIndexScorer:
    @settings(max_examples=200, deadline=None)
    @given(case=labeled_spaces())
    def test_scores_through_the_index_equal_the_reference(self, case):
        model, space = case
        for key in space.keys:
            columns, scores = _score(model, space, key)
            got = [(space.items[j], s.hex()) for j, s in zip(columns.tolist(), scores.tolist())]
            assert got == [(item, s.hex()) for item, s in py_score(model, space, key).items()]
