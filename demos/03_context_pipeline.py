"""The three-phase pipeline end to end, on synthetic data.

Phase 1 clusters each user's situations by their usage patterns, so a user
who behaves differently on weekend nights than on weekday mornings splits
into several "virtual users".  Phase 2 rebuilds the rating matrix over
those virtual users.  Phase 3 clusters the virtual users and scores unseen
items from same-cluster peers.  At recommendation time the live context
picks which of the user's virtual users answers.
"""

from ctxrec.datagen import GenConfig, generate, scaled_config
from ctxrec.pipeline import fit_pipeline
from ctxrec.som import SomConfig


def main():
    cfg = scaled_config(GenConfig(seed=7), n_users=80, n_items=60)
    cube = generate(cfg)
    print(f"synthetic cube: {len(cube.users)} users, {len(cube.items)} items, "
          f"{cube.n_ratings} ratings")

    model = fit_pipeline(cube, SomConfig(6, seed=7), SomConfig(21, seed=7))
    sizes = [c.m for c in model.clusterings.values()]
    print(f"phase 1: every user got 1..6 context clusters "
          f"(mean {sum(sizes) / len(sizes):.2f})")
    print(f"phase 2: {len(model.space.keys)} virtual users "
          f"(vs {len(cube.users)} real ones)")
    occupied = len(set(model.user_model.neurons.tolist()))
    print(f"phase 3: virtual users spread over {occupied} neurons")

    # pick a user whose situations split into several clusters
    user = next(
        u for u in sorted(model.clusterings) if model.clusterings[u].m >= 2
    )
    clustering = model.clusterings[user]
    schema = model.schema
    print(f"\nuser {user} has {clustering.m} context clusters")

    # one labeled situation per cluster, recommended in that live context
    seen = set()
    for flat, label in sorted(clustering.labels.items()):
        if label in seen:
            continue
        seen.add(label)
        situation = schema.situation_from_flat(flat)
        names = ", ".join(schema.value_names(situation))
        top = model.recommend(user, situation, 5)
        shown = ", ".join(f"{item} ({score:.2f})" for item, score in top)
        print(f"  cluster {label} [{names}]:")
        print(f"    {shown}")

    print("\nsame user, different context, different list — that is the point.")


if __name__ == "__main__":
    main()
