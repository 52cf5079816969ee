"""Acceptance suite: one test — and one printed PASS line — per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Criteria 5-7 train full models on 200x100 synthetic data
and together need a few minutes.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ctxrec.baseline import fit_baseline
from ctxrec.cli import main as cli_main
from ctxrec.core import RatingCube, default_schema
from ctxrec.datagen import GenConfig, generate, scaled_config, write_dataset
from ctxrec.evaluation import (
    EvalConfig,
    SplitConfig,
    evaluate,
    f1,
    neuron_sweep,
    precision_recall,
    split,
)
from ctxrec.pipeline import aggregate, fit_pipeline
from ctxrec.som import SomConfig, cosine_similarity, initial_weights, train

from conftest import make_cube, tiny_schema

TOL = 1e-12


def report(criterion: int, detail: str) -> None:
    print(f"\nCRITERION {criterion}: PASS — {detail}")


# ---------------------------------------------------------------------------
# shared 200x100 experiment helpers (criteria 5-7)


def experiment_config(seed: int, gamma: float) -> GenConfig:
    return scaled_config(
        GenConfig(gamma=gamma, noise_sd=0.3, seed=seed), n_users=200, n_items=100
    )


@lru_cache(maxsize=None)
def experiment_split(seed: int, gamma: float):
    cube = generate(experiment_config(seed, gamma))
    return split(cube, SplitConfig(train_fraction=0.8, seed=seed))


def f1_at_10(train_cube, test_cube, seed: int) -> tuple[float, float]:
    """(pipeline, baseline) mean F1@10 with the default 6/21/19 setup."""
    eval_cfg = EvalConfig(seed=seed)
    pipeline = fit_pipeline(
        train_cube, SomConfig(6, seed=seed), SomConfig(21, seed=seed), workers=2
    )
    baseline = fit_baseline(train_cube, SomConfig(19, seed=seed))
    return (
        evaluate(pipeline, test_cube, eval_cfg).mean_f1[10],
        evaluate(baseline, test_cube, eval_cfg).mean_f1[10],
    )


# ---------------------------------------------------------------------------
# independent evaluation oracle (criterion 4): set enumeration only


def oracle_units_baseline(model, test, threshold):
    units = {}
    for user in model.space.keys:
        relevant = {
            item
            for item_ratings in test.user_ratings(user).values()
            for item, rating in item_ratings.items()
            if rating >= threshold
        }
        units[user] = [(user, relevant)] if relevant else []
    return units


def oracle_units_pipeline(model, test, threshold):
    units = {}
    for user in sorted(model.clusterings):
        labels = model.clusterings[user].labels
        by_label = {}
        for flat, item_ratings in test.user_ratings(user).items():
            if flat not in labels:
                continue
            for item, rating in item_ratings.items():
                if rating >= threshold:
                    by_label.setdefault(labels[flat], set()).add(item)
        units[user] = [
            ((user, label), by_label[label]) for label in sorted(by_label)
        ]
    return units


def oracle_report(model, test, cfg, units_by_user):
    """Recompute the evaluation protocol with plain set arithmetic."""
    f1s = {n: [] for n in cfg.top_ns}
    precs = {n: [] for n in cfg.top_ns}
    recs = {n: [] for n in cfg.top_ns}
    n_units = skipped_rel = skipped_cand = 0
    for user in sorted(units_by_user):
        units = units_by_user[user]
        if not units:
            skipped_rel += 1
            continue
        uf = {n: [] for n in cfg.top_ns}
        up = {n: [] for n in cfg.top_ns}
        ur = {n: [] for n in cfg.top_ns}
        for key, relevant in units:
            ranking = model.recommend_key(key, max(cfg.top_ns))
            if not ranking:
                skipped_cand += 1
                continue
            n_units += 1
            for n in cfg.top_ns:
                top = ranking[:n]
                hits = len(set(top) & relevant)
                p = hits / len(top)
                r = hits / len(relevant)
                uf[n].append(2 * p * r / (p + r) if p + r else 0.0)
                up[n].append(p)
                ur[n].append(r)
        if not uf[cfg.top_ns[0]]:
            continue
        for n in cfg.top_ns:
            f1s[n].append(sum(uf[n]) / len(uf[n]))
            precs[n].append(sum(up[n]) / len(up[n]))
            recs[n].append(sum(ur[n]) / len(ur[n]))
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return {
        "mean_f1": {n: mean(f1s[n]) for n in cfg.top_ns},
        "mean_precision": {n: mean(precs[n]) for n in cfg.top_ns},
        "mean_recall": {n: mean(recs[n]) for n in cfg.top_ns},
        "n_users": len(f1s[cfg.top_ns[0]]),
        "n_units": n_units,
        "skipped_no_relevant": skipped_rel,
        "skipped_no_candidates": skipped_cand,
    }


def random_toy_cubes(seed: int, n_users: int, n_items: int, single_situation: bool):
    """A (train, test) pair of small random cubes over shared universes."""
    rng = np.random.default_rng(seed)
    schema = default_schema()
    users = [f"u{k}" for k in range(1 + int(rng.integers(1, n_users)))]
    items = [f"i{k}" for k in range(2 + int(rng.integers(1, n_items - 1)))]
    if single_situation:
        flats = [int(rng.integers(0, schema.situation_count))]
    else:
        flats = sorted(
            int(f) for f in rng.choice(schema.situation_count, 4, replace=False)
        )
    cells = {}
    for user in users:
        for flat in flats:
            for item in items:
                if rng.random() < 0.55:
                    cells[(user, flat, item)] = int(rng.integers(1, 6))
    train_cells, test_cells = {}, {}
    for key, value in cells.items():
        (test_cells if rng.random() < 0.3 else train_cells)[key] = value
    # every universe user keeps at least one training rating
    for user in users:
        if not any(k[0] == user for k in train_cells):
            flat, item = flats[0], items[0]
            train_cells[(user, flat, item)] = 3
            test_cells.pop((user, flat, item), None)
    base = RatingCube(schema, users, items, {})
    return base.with_cells(train_cells), base.with_cells(test_cells)


# ---------------------------------------------------------------------------
# criteria


class TestCriterion1FormulaOracles:
    def test_criterion_1_formula_oracles(self):
        start = time.monotonic()
        rng = np.random.default_rng(1)

        # cosine similarity vs math.fsum/sqrt recomputation
        checked = 0
        for _ in range(24):
            x = rng.uniform(0.0, 5.0, int(rng.integers(2, 9)))
            w = rng.uniform(0.01, 1.0, len(x))
            dot = math.fsum(float(a) * float(b) for a, b in zip(x, w))
            nx = math.sqrt(math.fsum(float(a) * float(a) for a in x))
            nw = math.sqrt(math.fsum(float(b) * float(b) for b in w))
            assert abs(cosine_similarity(x, w) - dot / (nx * nw)) < TOL
            checked += 1
        assert abs(cosine_similarity([1, 2, 0], [2, 1, 0]) - 0.8) < TOL
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

        # f1 vs exact rational arithmetic
        for _ in range(24):
            p = int(rng.integers(0, 21)) / 20
            r = int(rng.integers(0, 21)) / 20
            expected = (
                float(2 * Fraction(p) * Fraction(r) / (Fraction(p) + Fraction(r)))
                if p + r
                else 0.0
            )
            assert abs(f1(p, r) - expected) < TOL
        assert abs(f1(0.5, 0.25) - 1.0 / 3.0) < TOL
        assert f1(0.5, 0.5) == 0.5

        # precision/recall vs direct counting
        alphabet = [f"item{k}" for k in range(12)]
        for _ in range(24):
            k = int(rng.integers(1, 9))
            recommended = list(rng.choice(alphabet, k, replace=False))
            relevant = {
                a for a in alphabet if rng.random() < 0.4
            } or {alphabet[0]}
            hits = sum(1 for item in recommended if item in relevant)
            p, r = precision_recall(recommended, relevant)
            assert abs(p - hits / len(recommended)) < TOL
            assert abs(r - hits / len(relevant)) < TOL
        assert precision_recall(["a", "b"], {"a"}) == (0.5, 1.0)

        # aggregate vs exact rational mean
        for _ in range(24):
            values = [int(v) for v in rng.integers(1, 6, int(rng.integers(1, 8)))]
            expected = float(Fraction(sum(values), len(values)))
            assert abs(aggregate(values) - expected) < TOL
        assert abs(aggregate([1, 2, 2]) - 5.0 / 3.0) < TOL

        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
        report(1, f"4 ops x 24 random cases + derived examples, |err| < 1e-12 "
                  f"({elapsed:.2f}s < 1s)")


class TestCriterion2SomContraction:
    def test_criterion_2_som_contraction(self):
        start = time.monotonic()
        cfg = SomConfig(neuron_count=1, epochs=1, alpha0=0.5, radius0=0, seed=123)
        x = np.array([4.0, 1.0, 3.0, 2.0])
        weights = initial_weights(cfg, len(x))
        dist = float(np.linalg.norm(weights[0] - x))
        steps_to_tiny = None
        for step in range(1, 41):
            # one epoch over `step` copies of x: `step` presentations at 0.5
            weights = train(np.tile(x, (step, 1)), cfg).weights
            new_dist = float(np.linalg.norm(weights[0] - x))
            assert abs(new_dist - 0.5 * dist) < TOL, f"step {step}"
            dist = new_dist
            if dist < 1e-9 and steps_to_tiny is None:
                steps_to_tiny = step
        assert steps_to_tiny is not None and steps_to_tiny <= 40
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (budget 1s)"
        report(2, f"distance halves every step (±1e-12), < 1e-9 after "
                  f"{steps_to_tiny} steps ({elapsed:.2f}s < 1s)")


class TestCriterion3CollapseEquivalence:
    def test_criterion_3_collapse_equivalence(self):
        from ctxrec.baseline import flatten_cube
        from ctxrec.pipeline import build_virtual_space, cluster_user_contexts

        start = time.monotonic()
        for seed in range(50):
            train, _ = random_toy_cubes(
                seed, n_users=10, n_items=8, single_situation=True
            )
            som_seed = 1000 + seed
            n_neurons = min(4, len(train.users))

            clusterings = {
                user: cluster_user_contexts(train, user, SomConfig(6, seed=som_seed))
                for user in train.users
            }
            space = build_virtual_space(train, clusterings)
            flat = flatten_cube(train)

            assert [key[0] for key in space.keys] == list(flat.keys)
            for user, label in space.keys:
                assert label == 1
                assert space.ratings_of((user, label)) == flat.ratings_of(user)

            shared = SomConfig(n_neurons, seed=som_seed)
            pipe = fit_pipeline(train, SomConfig(6, seed=som_seed), shared)
            base = fit_baseline(train, shared)
            the_flat = next(iter(train.user_ratings(train.users[0])))
            situation = train.schema.situation_from_flat(the_flat)
            for user in train.users:
                assert pipe.recommend(user, situation, 10) == base.recommend(
                    user, 10
                )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s (budget 5s)"
        report(3, f"50 single-situation cubes: matrices equal cell-for-cell, "
                  f"top-10 identical ({elapsed:.2f}s < 5s)")


class TestCriterion4EvaluationOracle:
    def test_criterion_4_evaluation_oracle(self):
        start = time.monotonic()
        cfg = EvalConfig(top_ns=(1, 2, 3), threshold=4, sample_users=200, seed=0)
        for seed in range(25):
            train, test = random_toy_cubes(
                seed, n_users=5, n_items=6, single_situation=False
            )
            som = SomConfig(2, epochs=10, seed=seed)
            for system, units_fn in (
                (fit_baseline(train, som), oracle_units_baseline),
                (fit_pipeline(train, som, som), oracle_units_pipeline),
            ):
                got = evaluate(system, test, cfg)
                want = oracle_report(
                    system, test, cfg, units_fn(system, test, cfg.threshold)
                )
                assert got.mean_f1 == want["mean_f1"]
                assert got.mean_precision == want["mean_precision"]
                assert got.mean_recall == want["mean_recall"]
                assert got.n_users_evaluated == want["n_users"]
                assert got.n_units_evaluated == want["n_units"]
                assert got.skipped_no_relevant == want["skipped_no_relevant"]
                assert got.skipped_no_candidates == want["skipped_no_candidates"]
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s (budget 5s)"
        report(4, f"25 toy instances x 2 systems match the set-enumeration "
                  f"oracle bitwise ({elapsed:.2f}s < 5s)")


class TestCriterion5ContextGain:
    @pytest.mark.slow
    def test_criterion_5_context_gain(self):
        start = time.monotonic()
        margins = {}
        for seed in range(5):
            train, test = experiment_split(seed, gamma=0.9)
            per_user = train.n_ratings / len(train.users)
            assert 20.0 <= per_user <= 40.0, f"~30 ratings/user, got {per_user:.1f}"
            pipe_f1, base_f1 = f1_at_10(train, test, seed)
            margins[seed] = pipe_f1 - base_f1
            assert margins[seed] >= 0.05, (
                f"seed {seed}: pipeline F1@10 {pipe_f1:.4f} vs baseline "
                f"{base_f1:.4f} (margin {margins[seed]:+.4f} < 0.05)"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 180.0, f"criterion 5 took {elapsed:.1f}s (budget 180s)"
        pretty = ", ".join(f"{m:+.4f}" for m in margins.values())
        report(5, f"F1@10 margins over 5 seeds: {pretty} (all ≥ +0.05, "
                  f"{elapsed:.1f}s < 180s)")


class TestCriterion6NullContextControl:
    @pytest.mark.slow
    def test_criterion_6_null_context_control(self):
        start = time.monotonic()
        margins = {}
        for seed in range(5):
            train, test = experiment_split(seed, gamma=0.0)
            pipe_f1, base_f1 = f1_at_10(train, test, seed)
            margins[seed] = pipe_f1 - base_f1
            assert abs(margins[seed]) <= 0.05, (
                f"seed {seed}: |pipeline - baseline| = "
                f"{abs(margins[seed]):.4f} > 0.05 at gamma=0"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 180.0, f"criterion 6 took {elapsed:.1f}s (budget 180s)"
        pretty = ", ".join(f"{m:+.4f}" for m in margins.values())
        report(6, f"gamma=0 F1@10 differences over 5 seeds: {pretty} "
                  f"(all within ±0.05, {elapsed:.1f}s < 180s)")


class TestCriterion7SweepProtocol:
    @pytest.mark.slow
    def test_criterion_7_sweep_protocol(self):
        start = time.monotonic()
        train, test = experiment_split(0, gamma=0.9)
        eval_cfg = EvalConfig(seed=0)
        p1 = SomConfig(6, seed=0)
        p3 = SomConfig(21, seed=0)

        phase1_runs = [
            neuron_sweep(train, test, "phase1", tuple(range(2, 16)),
                         p1, p3, eval_cfg, metric_n=10)
            for _ in range(2)
        ]
        phase3_runs = [
            neuron_sweep(train, test, "phase3", tuple(range(5, 36)),
                         p1, p3, eval_cfg, metric_n=10)
            for _ in range(2)
        ]
        assert phase1_runs[0].neuron_counts == tuple(range(2, 16))
        assert phase3_runs[0].neuron_counts == tuple(range(5, 36))
        for runs in (phase1_runs, phase3_runs):
            assert len(runs[0].scores) == len(runs[0].neuron_counts)
            assert all(0.0 <= s <= 1.0 for s in runs[0].scores)
            assert runs[0].scores == runs[1].scores
            assert runs[0].best == runs[1].best
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s (budget 600s)"
        report(7, f"full curves over 2-15 and 5-35; repeated argmax stable at "
                  f"{phase1_runs[0].best}/{phase3_runs[0].best} "
                  f"({elapsed:.1f}s < 600s)")


class TestCriterion8CompareDeterminism:
    REPORTS = ("compare.json", "compare.csv")

    def run_compare(self, ratings, out, parallel):
        code = cli_main(
            [
                "compare",
                "--ratings", str(ratings),
                "--out", str(out),
                "--seed", "0",
                "--parallel", str(parallel),
            ]
        )
        assert code == 0
        return {name: (out / name).read_bytes() for name in self.REPORTS}

    def test_criterion_8_compare_determinism(self, tmp_path):
        start = time.monotonic()
        cfg = scaled_config(GenConfig(seed=0), n_users=60, n_items=50)
        write_dataset(cfg, tmp_path / "data")
        ratings = tmp_path / "data" / "ratings.csv"

        serial_dir = tmp_path / "serial"
        first = self.run_compare(ratings, serial_dir, parallel=1)
        second = self.run_compare(ratings, serial_dir, parallel=1)
        assert first == second

        parallel_dir = tmp_path / "parallel"
        third = self.run_compare(ratings, parallel_dir, parallel=2)
        fourth = self.run_compare(ratings, parallel_dir, parallel=2)
        assert third == fourth

        # parallelism changes nothing but the embedded output path
        mask = lambda blob, out: blob.replace(
            str(out).encode(), b"OUT"
        )
        assert mask(first["compare.json"], serial_dir) == mask(
            third["compare.json"], parallel_dir
        )
        assert first["compare.csv"] == third["compare.csv"]
        elapsed = time.monotonic() - start
        report(8, f"compare reruns byte-identical, serial == parallel "
                  f"({elapsed:.1f}s)")
