"""Schema encoding, rating-cube construction, and CSV ingestion."""

import io

import numpy as np
import pytest

from ctxrec.core import (
    ContextDimension,
    ContextSchema,
    RatingCube,
    default_schema,
    load_ratings,
    load_schema,
    write_ratings,
)
from ctxrec import jsonio
from ctxrec.errors import InvalidConfig, MalformedRow, UnknownContextValue, UnknownUser

from conftest import make_cube, tiny_schema


def all_situations(schema):
    return [schema.situation_from_flat(i) for i in range(schema.situation_count)]


def ratings_csv_text(cube):
    buf = io.StringIO()
    write_ratings(cube, buf)
    return buf.getvalue()


class TestContextDimension:
    def test_cardinality(self):
        dim = ContextDimension("day", ("Weekday", "Weekend"))
        assert dim.cardinality == 2

    def test_rejects_empty_values(self):
        with pytest.raises(InvalidConfig):
            ContextDimension("day", ())

    def test_rejects_duplicate_values(self):
        with pytest.raises(InvalidConfig):
            ContextDimension("day", ("Weekday", "Weekday"))

    @pytest.mark.parametrize("name, values", [(float("nan"), ("a",)), ("d", ("a", None))])
    def test_rejects_non_string_names_and_values(self, name, values):
        with pytest.raises(InvalidConfig, match="must be strings"):
            ContextDimension(name, values)

    @pytest.mark.parametrize("values", ["abc", 3, None])
    def test_rejects_values_that_are_not_a_list(self, values):
        # a string would otherwise read as one value per character
        with pytest.raises(InvalidConfig, match="values must be a list"):
            ContextDimension("d", values)


class TestContextSchema:
    def test_default_schema_situation_count(self):
        # 2 * 4 * 6 * 7
        assert default_schema().situation_count == 336

    def test_default_schema_dimensions(self):
        schema = default_schema()
        assert [d.name for d in schema.dimensions] == [
            "day",
            "time",
            "companion",
            "weather",
        ]
        assert schema.cardinalities == (2, 4, 6, 7)
        assert schema.rating_min == 1
        assert schema.rating_max == 5

    def test_single_value_dimension_yields_one_situation(self):
        schema = ContextSchema((ContextDimension("only", ("v",)),))
        assert schema.situation_count == 1
        assert len(all_situations(schema)) == 1

    def test_enumeration_order_last_dimension_fastest(self):
        schema = tiny_schema()
        names = [schema.value_names(s) for s in all_situations(schema)]
        assert names == [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]

    def test_enumerate_default_schema(self):
        sits = all_situations(default_schema())
        assert len(sits) == 336
        assert [s.flat_index for s in sits] == list(range(336))

    def test_encode_decode_round_trip_full_default_schema(self):
        schema = default_schema()
        for flat in range(schema.situation_count):
            values = schema.decode(flat)
            assert schema.encode(values) == flat

    def test_encode_decode_round_trip_all_value_tuples(self):
        schema = tiny_schema()
        seen = set()
        for i in range(2):
            for j in range(2):
                flat = schema.encode((i, j))
                assert schema.decode(flat) == (i, j)
                seen.add(flat)
        assert seen == {0, 1, 2, 3}

    def test_situation_from_names(self):
        schema = default_schema()
        sit = schema.situation_from_names(
            ["Weekend", "Night", "Friends", "Hot/Sunny"]
        )
        assert schema.value_names(sit) == (
            "Weekend",
            "Night",
            "Friends",
            "Hot/Sunny",
        )
        assert sit.flat_index == schema.encode((1, 3, 2, 4))

    def test_unknown_value_name_rejected(self):
        schema = default_schema()
        with pytest.raises(UnknownContextValue):
            schema.situation_from_names(["Weekday", "Noon", "Robot", "Others"])

    def test_decode_out_of_range(self):
        with pytest.raises(InvalidConfig):
            tiny_schema().decode(4)

    def test_counts_are_fixed_at_construction(self):
        schema = default_schema()
        assert schema.cardinalities == (2, 4, 6, 7)
        assert schema.situation_count == 336
        assert schema == ContextSchema(schema.dimensions)

    def test_schema_needs_a_dimension(self):
        with pytest.raises(InvalidConfig):
            ContextSchema(())

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(InvalidConfig):
            ContextSchema(
                (
                    ContextDimension("d", ("a",)),
                    ContextDimension("d", ("b",)),
                )
            )

    def test_json_round_trip(self, tmp_path):
        schema = default_schema()
        path = tmp_path / "schema.json"
        jsonio.write_json(path, schema.to_json_dict())
        assert load_schema(path) == schema

    def test_json_shape(self):
        data = tiny_schema().to_json_dict()
        assert set(data) == {"dimensions", "rating_min", "rating_max"}
        assert data["dimensions"][0] == {"name": "d1", "values": ["a", "b"]}


class TestRatingCube:
    def test_ratings_indexed_by_cell(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("a", "x"), 3),
                ("u2", "i1", ("b", "y"), 1),
            ],
        )
        assert cube.n_ratings == 3
        assert cube.users == ("u1", "u2")
        assert cube.items == ("i1", "i2")
        flat_ax = schema2x2.situation_from_names(("a", "x")).flat_index
        assert cube.user_ratings("u1")[flat_ax] == {"i1": 5, "i2": 3}

    def test_rating_out_of_range(self, schema2x2):
        with pytest.raises(MalformedRow, match=r"rating 7 outside \[1, 5\]"):
            make_cube(schema2x2, [("u1", "i1", ("a", "x"), 7)])

    @pytest.mark.parametrize("rating", [3.5, 4.0, True])
    def test_non_integer_rating_rejected(self, schema2x2, rating):
        """A cube holds what ``load_ratings`` reads back from its CSV: a
        float (even a whole one) or a bool would be written as ``3.5``,
        ``4.0`` or ``True``, which that reader refuses."""
        with pytest.raises(MalformedRow, match=f"rating {rating!r} is not an integer"):
            make_cube(schema2x2, [("u1", "i1", ("a", "x"), rating)])

    def test_integer_ratings_round_trip(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 5),
                ("u1", "i2", ("b", "y"), np.int64(2)),
                ("u2", "i1", ("a", "y"), 1),
            ],
        )
        loaded = load_ratings(io.StringIO(ratings_csv_text(cube)), schema2x2)
        assert loaded == cube
        assert ratings_csv_text(loaded) == ratings_csv_text(cube)

    def test_same_pair_in_two_situations_is_fine(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 3),
                ("u1", "i1", ("a", "y"), 4),
            ],
        )
        assert cube.n_ratings == 2

    def test_cell_user_must_be_listed(self, schema2x2):
        sit = schema2x2.situation_from_names(("a", "x"))
        with pytest.raises(UnknownUser):
            RatingCube(
                schema2x2,
                users=("u1",),
                items=("i1",),
                cells={("ghost", sit.flat_index, "i1"): 3},
            )

    def test_user_ratings_empty_for_unrated_user(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [("u1", "i1", ("a", "x"), 3)],
            users=("u1", "u2"),
            items=("i1",),
        )
        assert cube.user_ratings("u2") == {}


class TestUsagePatternVectors:
    def test_single_rating_vector(self, schema2x2):
        # p=3; only item2 rated (=4) in one situation
        cube = make_cube(
            schema2x2,
            [("u1", "i2", ("a", "x"), 4)],
            items=("i1", "i2", "i3"),
        )
        flats, columns, rows = cube.usage_rows("u1")
        assert len(flats) == 1
        situation = schema2x2.situation_from_flat(flats[0])
        assert schema2x2.value_names(situation) == ("a", "x")
        assert columns.tolist() == [1]
        assert rows.tolist() == [[4.0]]

    def test_user_with_no_ratings_gives_empty_list(self, schema2x2):
        cube = make_cube(
            schema2x2,
            [("u1", "i1", ("a", "x"), 3)],
            users=("u1", "u2"),
            items=("i1",),
        )
        flats, columns, rows = cube.usage_rows("u2")
        assert flats == []
        assert columns.shape == (0,)
        assert rows.shape == (0, 0)

    def test_one_vector_per_rated_situation(self, restaurant_schema):
        names = [
            ("Weekday", "Morning", "Alone", "Others"),
            ("Weekend", "Night", "Friends", "Hot/Sunny"),
            ("Weekday", "Noon", "Family", "Cold/Rainy"),
        ]
        rows = [("u1", f"i{k}", ctx, 3) for k, ctx in enumerate(names)]
        cube = make_cube(restaurant_schema, rows)
        flats, columns, usage = cube.usage_rows("u1")
        encoded = [restaurant_schema.situation_from_names(n).flat_index for n in names]
        assert flats == sorted(encoded)
        assert columns.tolist() == [0, 1, 2]
        # item i<k> is rated 3 in situation k, and in no other
        for flat, row in zip(flats, usage):
            k = encoded.index(flat)
            assert row.tolist() == [3.0 if j == k else 0.0 for j in range(3)]

    def test_unknown_user_rejected(self, schema2x2):
        cube = make_cube(schema2x2, [("u1", "i1", ("a", "x"), 3)])
        with pytest.raises(UnknownUser):
            cube.usage_rows("nobody")

    def test_nonzero_components_sum_to_cell_count(self, restaurant_schema):
        # invariant: per user, nonzeros in the usage rows == that user's cells
        rng = np.random.default_rng(7)
        cells = {}
        for _ in range(200):
            user = f"u{rng.integers(0, 5)}"
            item = f"i{rng.integers(0, 12)}"
            flat = int(rng.integers(0, restaurant_schema.situation_count))
            if (user, flat, item) in cells:
                continue
            cells[(user, flat, item)] = int(rng.integers(1, 6))
        users = sorted({user for user, _, _ in cells})
        items = sorted({item for _, _, item in cells})
        cube = RatingCube(restaurant_schema, users, items, cells)
        for user in cube.users:
            total = int(np.count_nonzero(cube.usage_rows(user)[2]))
            expected = sum(
                len(items) for items in cube.user_ratings(user).values()
            )
            assert total == expected


class TestRatingsCsv:
    CSV = (
        "user_id,item_id,day,time,companion,weather,rating\n"
        "u1,i1,Weekday,Noon,Family,Cold/Sunny,4\n"
        "u1,i2,Weekend,Night,Friends,Hot/Rainy,5\n"
        "u2,i1,Weekday,Morning,Alone,Others,2\n"
    )

    def test_three_valid_rows(self, restaurant_schema):
        cube = load_ratings(io.StringIO(self.CSV), restaurant_schema)
        assert cube.n_ratings == 3
        assert cube.users == ("u1", "u2")
        assert cube.items == ("i1", "i2")

    def test_header_is_exact(self, restaurant_schema):
        text = ratings_csv_text(
            load_ratings(io.StringIO(self.CSV), restaurant_schema)
        )
        assert text.splitlines()[0] == (
            "user_id,item_id,day,time,companion,weather,rating"
        )

    def test_round_trip(self, restaurant_schema, tmp_path):
        cube = load_ratings(io.StringIO(self.CSV), restaurant_schema)
        path = tmp_path / "ratings.csv"
        write_ratings(cube, path)
        again = load_ratings(path, restaurant_schema)
        assert again == cube
        # canonical output is byte-stable
        assert ratings_csv_text(again) == ratings_csv_text(cube)

    def test_unknown_companion_value(self, restaurant_schema):
        text = (
            "user_id,item_id,day,time,companion,weather,rating\n"
            "u1,i1,Weekday,Noon,Robot,Cold/Sunny,4\n"
        )
        with pytest.raises(UnknownContextValue):
            load_ratings(io.StringIO(text), restaurant_schema)

    def test_repeated_situations_and_late_errors(self, restaurant_schema):
        """A situation met again maps to the same flat index, and an unknown
        value after known rows of the same names names its own line."""
        again = "u2,i2,Weekday,Noon,Family,Cold/Sunny,3\n"
        cube = load_ratings(io.StringIO(self.CSV + again), restaurant_schema)
        flat = restaurant_schema.situation_from_names(("Weekday", "Noon", "Family", "Cold/Sunny"))
        assert cube.user_ratings("u1")[flat.flat_index] == {"i1": 4}
        assert cube.user_ratings("u2")[flat.flat_index] == {"i2": 3}
        bad = "u3,i1,Weekday,Noon,Robot,Cold/Sunny,4\n"
        with pytest.raises(UnknownContextValue, match="^line 6: value 'Robot' not in dimension"):
            load_ratings(io.StringIO(self.CSV + again + bad), restaurant_schema)

    def test_rating_out_of_range(self, restaurant_schema):
        text = (
            "user_id,item_id,day,time,companion,weather,rating\n"
            "u1,i1,Weekday,Noon,Family,Cold/Sunny,7\n"
        )
        with pytest.raises(MalformedRow, match=r"line 2: rating 7 outside \[1, 5\]"):
            load_ratings(io.StringIO(text), restaurant_schema)

    def test_duplicate_row_rejected(self, restaurant_schema):
        text = self.CSV + "u1,i1,Weekday,Noon,Family,Cold/Sunny,4\n"
        with pytest.raises(MalformedRow, match="duplicate rating for user 'u1', item 'i1'"):
            load_ratings(io.StringIO(text), restaurant_schema)

    def test_wrong_header_rejected(self, restaurant_schema):
        text = "user,item,day,time,companion,weather,rating\nu1,i1,a,b,c,d,1\n"
        with pytest.raises(MalformedRow):
            load_ratings(io.StringIO(text), restaurant_schema)

    def test_non_integer_rating_rejected(self, restaurant_schema):
        text = (
            "user_id,item_id,day,time,companion,weather,rating\n"
            "u1,i1,Weekday,Noon,Family,Cold/Sunny,good\n"
        )
        with pytest.raises(MalformedRow):
            load_ratings(io.StringIO(text), restaurant_schema)

    def test_short_row_rejected(self, restaurant_schema):
        text = (
            "user_id,item_id,day,time,companion,weather,rating\n"
            "u1,i1,Weekday,Noon,4\n"
        )
        with pytest.raises(MalformedRow):
            load_ratings(io.StringIO(text), restaurant_schema)

    def test_empty_file_rejected(self, restaurant_schema):
        with pytest.raises(MalformedRow):
            load_ratings(io.StringIO(""), restaurant_schema)


def test_export_surface():
    """``ctxrec.__all__`` names every public function and class bound at the
    top level, once each, and each name resolves, so ``import *`` works."""
    import inspect

    import ctxrec

    names = ctxrec.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(ctxrec, name) for name in names)
    bound = {
        name
        for name, value in vars(ctxrec).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert bound <= set(names)
