"""Context schemas and rating cubes: the data model everything else builds on.

A rating here is not a (user, item) pair but a (user, situation, item) cell,
where a situation is one combination of context values (weekend + night +
friends + hot weather, say).  This script builds a tiny two-dimensional
schema by hand, fills a cube, and shows the round trips.
"""

import io

from ctxrec.core import (
    ContextDimension,
    ContextSchema,
    RatingCube,
    default_schema,
    load_ratings,
    write_ratings,
)


def main():
    # -- a small custom schema ------------------------------------------
    schema = ContextSchema(
        dimensions=(
            ContextDimension("day", ("Weekday", "Weekend")),
            ContextDimension("companion", ("Alone", "Friends", "Family")),
        )
    )
    print(f"custom schema: {schema.situation_count} situations "
          f"from cardinalities {schema.cardinalities}")

    # situations are addressed by per-dimension value names ...
    situation = schema.situation_from_names(["Weekend", "Friends"])
    print(f"(Weekend, Friends) -> flat index {situation.flat_index}")
    # ... and the flat index decodes back to value indices
    print(f"decode({situation.flat_index}) -> {schema.decode(situation.flat_index)}")

    # -- filling a cube --------------------------------------------------
    # a cube is a map from (user, situation flat index, item) cells to ratings
    flat = lambda *names: schema.situation_from_names(names).flat_index
    cells = {
        ("ana", flat("Weekday", "Alone"), "solaris"): 5,
        ("ana", flat("Weekend", "Friends"), "alien"): 4,
        ("ana", flat("Weekend", "Friends"), "solaris"): 2,
        ("ben", flat("Weekend", "Family"), "alien"): 3,
    }
    cube = RatingCube(schema, users=("ana", "ben"), items=("alien", "solaris"), cells=cells)
    print(f"\ncube: {len(cube.users)} users x {schema.situation_count} situations "
          f"x {len(cube.items)} items, {cube.n_ratings} ratings")

    # the same movie can carry different ratings in different situations
    for flat, item_ratings in sorted(cube.user_ratings("ana").items()):
        names = schema.value_names(schema.situation_from_flat(flat))
        print(f"  ana @ {names}: {dict(sorted(item_ratings.items()))}")

    # -- usage pattern matrix --------------------------------------------
    # One row per situation the user rated in; column i is the rating of
    # item i (0 = unrated).  This matrix is the input to per-user clustering.
    print("\nusage pattern matrix for ana:")
    flats, matrix = cube.usage_matrix("ana")
    for flat, row in zip(flats, matrix):
        print(f"  {schema.value_names(schema.situation_from_flat(flat))}: {row}")

    # -- CSV round trip ---------------------------------------------------
    buf = io.StringIO()
    write_ratings(cube, buf)
    print("\nCSV form:")
    print(buf.getvalue())
    reloaded = load_ratings(io.StringIO(buf.getvalue()), schema)
    print(f"reload == original: {reloaded == cube}")

    # the ready-made schema used by the synthetic generator and the demos
    full = default_schema()
    print(f"\ndefault schema: {full.situation_count} situations, dimensions "
          f"{tuple(d.name for d in full.dimensions)}")


if __name__ == "__main__":
    main()
