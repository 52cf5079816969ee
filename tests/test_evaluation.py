"""Split, precision/recall/F1, top-N evaluation, per-cluster F1, sweeps."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ctxrec.baseline import fit_baseline
from ctxrec.datagen import GenConfig, generate, scaled_config
from ctxrec.errors import EmptyInput, InvalidConfig
from ctxrec.evaluation import (
    EvalConfig,
    SplitConfig,
    _mean,
    evaluate,
    f1,
    neuron_sweep,
    per_cluster_f1,
    precision_recall,
    sample_eval_users,
    split,
)
from ctxrec.pipeline import fit_pipeline
from ctxrec.rng import derive_seed, permutation
from ctxrec.som import SomConfig

from conftest import make_cube, py_permutation


class StubModel:
    """Minimal evaluation surface with scripted units and rankings."""

    def __init__(self, units_by_user, rankings, neuron_of=None):
        self._units = units_by_user
        self._rankings = rankings
        if neuron_of is not None:
            self.space = SimpleNamespace(keys=tuple(neuron_of))
            self.user_model = SimpleNamespace(neurons=np.array(list(neuron_of.values())))

    def eval_user_pool(self):
        return sorted(self._units)

    def eval_units(self, user, test, threshold):
        return self._units[user]

    def recommend_key(self, key, n):
        return self._rankings[key][:n]


def toy_split_cubes(schema):
    """Hand-sized train/test cubes over a fixed 6-item universe."""
    items = tuple(f"i{k}" for k in range(1, 7))
    train = make_cube(
        schema,
        [
            ("u1", "i1", ("a", "x"), 5),
            ("u1", "i2", ("a", "x"), 4),
            ("u1", "i3", ("b", "y"), 2),
            ("u2", "i2", ("a", "y"), 5),
            ("u2", "i4", ("a", "y"), 3),
            ("u3", "i1", ("b", "x"), 4),
            ("u3", "i5", ("b", "x"), 2),
        ],
        users=("u1", "u2", "u3"),
        items=items,
    )
    test = make_cube(
        schema,
        [
            ("u1", "i4", ("a", "x"), 5),
            ("u1", "i5", ("b", "y"), 4),
            ("u2", "i1", ("a", "y"), 4),
            ("u2", "i3", ("a", "y"), 2),
            ("u3", "i2", ("b", "x"), 1),
        ],
        users=("u1", "u2", "u3"),
        items=items,
    )
    return train, test


class TestSplitConfig:
    def test_defaults(self):
        cfg = SplitConfig()
        assert cfg.train_fraction == 0.8
        assert cfg.seed == 0

    def test_full_train_fraction_allowed(self):
        assert SplitConfig(train_fraction=1.0).train_fraction == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            SplitConfig(train_fraction=bad)


class TestSplit:
    def ten_record_cube(self, schema):
        rows = []
        for k in range(10):
            user = f"u{k % 3}"
            names = ("a", "x") if k % 2 == 0 else ("b", "y")
            rows.append((user, f"i{k}", names, 1 + k % 5))
        return make_cube(schema, rows)

    def test_eight_two_split(self, schema2x2):
        cube = self.ten_record_cube(schema2x2)
        train, test = split(cube, SplitConfig(train_fraction=0.8, seed=1))
        assert train.n_ratings == 8
        assert test.n_ratings == 2

    def test_full_fraction_empties_test(self, schema2x2):
        cube = self.ten_record_cube(schema2x2)
        train, test = split(cube, SplitConfig(train_fraction=1.0))
        assert train.n_ratings == 10
        assert test.n_ratings == 0

    def test_deterministic(self, schema2x2):
        cube = self.ten_record_cube(schema2x2)
        cfg = SplitConfig(seed=42)
        a_train, a_test = split(cube, cfg)
        b_train, b_test = split(cube, cfg)
        assert a_train == b_train
        assert a_test == b_test

    def test_seed_changes_partition(self, schema2x2):
        cube = self.ten_record_cube(schema2x2)
        _, test_a = split(cube, SplitConfig(seed=0))
        _, test_b = split(cube, SplitConfig(seed=1))
        assert test_a != test_b

    def test_exact_partition(self, schema2x2):
        cube = self.ten_record_cube(schema2x2)
        train, test = split(cube, SplitConfig(train_fraction=0.7, seed=5))
        train_cells = train.cells()
        test_cells = test.cells()
        assert not set(train_cells) & set(test_cells)
        merged = dict(train_cells)
        merged.update(test_cells)
        assert merged == cube.cells()

    def test_universes_preserved(self, schema2x2):
        cube = self.ten_record_cube(schema2x2)
        train, test = split(cube, SplitConfig(seed=3))
        for part in (train, test):
            assert part.users == cube.users
            assert part.items == cube.items

    def test_ceil_rounding(self, schema2x2):
        # 3 records at f=0.5 -> ceil(1.5) = 2 train
        cube = make_cube(
            schema2x2,
            [
                ("u1", "i1", ("a", "x"), 3),
                ("u1", "i2", ("a", "y"), 3),
                ("u1", "i3", ("b", "x"), 3),
            ],
        )
        train, test = split(cube, SplitConfig(train_fraction=0.5))
        assert train.n_ratings == 2
        assert test.n_ratings == 1

    @pytest.mark.parametrize("fraction", [0.3, 0.8, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_train_is_the_first_positions_of_the_permutation(self, schema2x2, fraction, seed):
        cube = self.ten_record_cube(schema2x2)
        cells = list(cube.cells().items())
        n_train = math.ceil(fraction * len(cells))
        first = set(permutation(derive_seed(seed, "split"), len(cells))[:n_train].tolist())
        train, test = split(cube, SplitConfig(fraction, seed))
        assert list(train.cells().items()) == [c for i, c in enumerate(cells) if i in first]
        assert list(test.cells().items()) == [c for i, c in enumerate(cells) if i not in first]


class TestPrecisionRecall:
    def test_half_precision_full_recall(self):
        assert precision_recall(["a", "b"], {"a"}) == (0.5, 1.0)

    def test_no_hits(self):
        assert precision_recall(["a", "b"], {"c"}) == (0.0, 0.0)

    def test_perfect_match(self):
        assert precision_recall(["a", "b"], {"a", "b"}) == (1.0, 1.0)

    def test_empty_recommendation_scores_zero(self):
        assert precision_recall([], {"a"}) == (0.0, 0.0)

    def test_empty_relevant_set_signals_skip(self):
        with pytest.raises(EmptyInput, match="relevant set is empty"):
            precision_recall(["a"], set())


class TestF1:
    def test_equal_precision_recall(self):
        assert f1(0.5, 0.5) == 0.5

    def test_zero_precision(self):
        assert f1(0.0, 1.0) == 0.0

    def test_hand_computed(self):
        # 2 * 0.5 * 0.25 / 0.75 = 1/3
        assert f1(0.5, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_bounded_by_arithmetic_mean(self):
        grid = [k / 20.0 for k in range(21)]
        for p in grid:
            for r in grid:
                v = f1(p, r)
                assert 0.0 <= v <= (p + r) / 2.0 + 1e-12
        for p in grid:
            assert f1(p, p) == pytest.approx(p, abs=1e-15)


class TestMean:
    def test_empty_is_zero(self):
        assert _mean([]) == 0.0

    def test_sums_left_to_right(self):
        """Each 1e-16 is lost against 1.0, as in a plain loop; a compensated
        sum (the built-in ``sum`` from Python 3.12 on) keeps them."""
        assert _mean([1.0] + [1e-16] * 10) == 1.0 / 11


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.top_ns == (5, 10, 15, 20, 25, 30)
        assert cfg.threshold == 4
        assert cfg.sample_users == 200

    @pytest.mark.parametrize(
        "ns", [(), (0,), (5, 5), (10, 5), (5, -1)]
    )
    def test_bad_top_ns_rejected(self, ns):
        with pytest.raises(InvalidConfig):
            EvalConfig(top_ns=ns)


class TestSampleEvalUsers:
    def test_small_pool_taken_whole(self):
        cfg = EvalConfig(sample_users=10)
        assert sample_eval_users(["b", "a"], cfg) == ["a", "b"]

    def test_large_pool_sampled_without_replacement(self):
        pool = [f"u{k:03d}" for k in range(50)]
        cfg = EvalConfig(sample_users=20, seed=7)
        got = sample_eval_users(pool, cfg)
        assert len(got) == 20
        assert len(set(got)) == 20
        assert got == sorted(got)
        assert set(got) <= set(pool)

    def test_deterministic(self):
        pool = [f"u{k:03d}" for k in range(50)]
        cfg = EvalConfig(sample_users=5, seed=3)
        assert sample_eval_users(pool, cfg) == sample_eval_users(pool, cfg)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_keeps_the_first_ids_of_its_order(self, seed):
        pool = [f"u{k:03d}" for k in range(50)][::-1]
        order = py_permutation(derive_seed(seed, "sample"), 50)
        expected = sorted(f"u{k:03d}" for k in order[:20])
        assert sample_eval_users(pool, EvalConfig(sample_users=20, seed=seed)) == expected


class TestEvaluate:
    def test_perfect_recommendations_score_one(self, schema2x2):
        model = StubModel(
            {"u1": [(("u1", 1), {"a", "b"})]},
            {("u1", 1): ["a", "b"]},
        )
        report = evaluate(model, None, EvalConfig(top_ns=(2,)))
        assert report.mean_f1[2] == 1.0
        assert report.n_users_evaluated == 1
        assert report.n_units_evaluated == 1

    def test_empty_test_skips_everyone(self, schema2x2):
        train, _ = toy_split_cubes(schema2x2)
        model = fit_baseline(train, SomConfig(2, epochs=5))
        empty = train.with_cells({})
        report = evaluate(model, empty, EvalConfig(top_ns=(5,)))
        assert report.n_users_evaluated == 0
        assert report.skipped_no_relevant == 3
        assert report.to_json_dict()["per_n"] == {}

    def test_unit_without_candidates_is_counted(self):
        model = StubModel(
            {
                "u1": [(("u1", 1), {"a"})],
                "u2": [(("u2", 1), {"b"})],
            },
            {("u1", 1): ["a"], ("u2", 1): []},
        )
        report = evaluate(model, None, EvalConfig(top_ns=(1,)))
        assert report.n_users_evaluated == 1
        assert report.skipped_no_candidates == 1

    def test_untrained_system_rejected(self):
        with pytest.raises(EmptyInput, match="model has no users to evaluate"):
            evaluate(StubModel({}, {}), None, EvalConfig())

    def test_shorter_cutoffs_are_prefixes(self):
        # hits at ranks 1 and 3: recall must grow with n, precision shrink
        model = StubModel(
            {"u1": [(("u1", 1), {"a", "c"})]},
            {("u1", 1): ["a", "b", "c", "d"]},
        )
        report = evaluate(model, None, EvalConfig(top_ns=(1, 2, 3, 4)))
        assert report.mean_recall[1] == 0.5
        assert report.mean_recall[3] == 1.0
        assert report.mean_precision[1] == 1.0
        assert report.mean_precision[4] == 0.5
        recalls = [report.mean_recall[n] for n in (1, 2, 3, 4)]
        assert recalls == sorted(recalls)

    def test_baseline_toy_matches_brute_force_oracle(self, schema2x2):
        train, test = toy_split_cubes(schema2x2)
        model = fit_baseline(train, SomConfig(2, epochs=10, seed=1))
        cfg = EvalConfig(top_ns=(1, 2, 3), threshold=4, seed=0)
        report = evaluate(model, test, cfg)

        # independent recomputation by set enumeration
        f1s = {n: [] for n in cfg.top_ns}
        precs = {n: [] for n in cfg.top_ns}
        recs = {n: [] for n in cfg.top_ns}
        for user in sorted(model.space.keys):
            relevant = set()
            for item_ratings in test.user_ratings(user).values():
                for item, rating in item_ratings.items():
                    if rating >= cfg.threshold:
                        relevant.add(item)
            if not relevant:
                continue
            ranking = model.recommend_key(user, max(cfg.top_ns))
            if not ranking:
                continue
            for n in cfg.top_ns:
                top = ranking[:n]
                hits = len(set(top) & relevant)
                p = hits / len(top)
                r = hits / len(relevant)
                f1s[n].append(2 * p * r / (p + r) if p + r else 0.0)
                precs[n].append(p)
                recs[n].append(r)
        for n in cfg.top_ns:
            assert report.mean_f1[n] == sum(f1s[n]) / len(f1s[n])
            assert report.mean_precision[n] == sum(precs[n]) / len(precs[n])
            assert report.mean_recall[n] == sum(recs[n]) / len(recs[n])

    def test_pipeline_toy_matches_brute_force_oracle(self, schema2x2):
        train, test = toy_split_cubes(schema2x2)
        model = fit_pipeline(
            train,
            SomConfig(2, epochs=10, seed=0),
            SomConfig(2, epochs=10, seed=0),
        )
        cfg = EvalConfig(top_ns=(1, 2, 3), threshold=4, seed=0)
        report = evaluate(model, test, cfg)

        # routing recomputed straight from the stored clusterings
        f1s = {n: [] for n in cfg.top_ns}
        units_seen = 0
        for user in sorted(model.clusterings):
            labels = model.clusterings[user].labels
            by_label = {}
            for flat, item_ratings in test.user_ratings(user).items():
                if flat not in labels:
                    continue
                for item, rating in item_ratings.items():
                    if rating >= cfg.threshold:
                        by_label.setdefault(labels[flat], set()).add(item)
            user_f1s = {n: [] for n in cfg.top_ns}
            for label in sorted(by_label):
                ranking = model.recommend_key((user, label), max(cfg.top_ns))
                if not ranking:
                    continue
                units_seen += 1
                for n in cfg.top_ns:
                    top = ranking[:n]
                    hits = len(set(top) & by_label[label])
                    p = hits / len(top)
                    r = hits / len(by_label[label])
                    user_f1s[n].append(2 * p * r / (p + r) if p + r else 0.0)
            if user_f1s[cfg.top_ns[0]]:
                for n in cfg.top_ns:
                    f1s[n].append(sum(user_f1s[n]) / len(user_f1s[n]))
        assert report.n_units_evaluated == units_seen
        for n in cfg.top_ns:
            assert report.mean_f1[n] == sum(f1s[n]) / len(f1s[n])

    def test_monotone_recall_per_unit(self):
        cube = generate(GenConfig(n_users=12, n_items=25, density=0.008, seed=6))
        train, test = split(cube, SplitConfig(seed=2))
        model = fit_baseline(train, SomConfig(4, epochs=15))
        cfg = EvalConfig(top_ns=(5, 10, 20, 30))
        for user in model.eval_user_pool():
            units = model.eval_units(user, test, cfg.threshold)
            for key, relevant in units:
                ranking = model.recommend_key(key, max(cfg.top_ns))
                if not ranking:
                    continue
                recalls = [
                    precision_recall(ranking[:n], relevant)[1]
                    for n in cfg.top_ns
                ]
                assert recalls == sorted(recalls)


class TestEvalReportSerialization:
    def make_report(self):
        model = StubModel(
            {"u1": [(("u1", 1), {"a", "b"})]},
            {("u1", 1): ["a", "c", "b"]},
        )
        return evaluate(model, None, EvalConfig(top_ns=(1, 3)))

    def test_csv_header_and_rows(self):
        text = self.make_report().csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "n,mean_f1,mean_precision,mean_recall"
        assert len(lines) == 3
        assert lines[1].startswith("1,")


class TestPerClusterF1:
    def test_single_member_cluster_scores_that_member(self):
        model = StubModel(
            {"u1": [(("u1", 1), {"a", "b"})]},
            {("u1", 1): ["a", "x", "y", "z", "w"]},
            neuron_of={("u1", 1): 4},
        )
        report = per_cluster_f1(model, None, EvalConfig(), n=5)
        # P = 1/5, R = 1/2 -> F1 = 2*(0.1)/(0.7)
        p, r = 1 / 5, 1 / 2
        assert set(report.rows) == {4}
        count, score = report.rows[4]
        assert count == 1
        assert score == pytest.approx(2 * p * r / (p + r), abs=1e-15)

    def test_members_capped_at_ten(self):
        units = {}
        rankings = {}
        neuron_of = {}
        for k in range(15):
            key = (f"u{k:02d}", 1)
            units[key[0]] = [(key, {"a"})]
            rankings[key] = ["a", "b", "c", "d", "e"]
            neuron_of[key] = 0
        model = StubModel(units, rankings, neuron_of=neuron_of)
        report = per_cluster_f1(model, None, EvalConfig(), n=5)
        assert report.rows[0][0] == 10

    def test_members_are_the_first_of_the_neurons_order(self):
        keys = [(f"u{k:02d}", 1) for k in range(15)]
        model = StubModel(
            {user: [((user, label), {"a"})] for user, label in keys},
            {},
            neuron_of={key: 3 for key in keys[::-1]},
        )
        scored = []
        model.recommend_key = lambda key, n: scored.append(key) or ["a", "b"]
        per_cluster_f1(model, None, EvalConfig(seed=2), n=2)
        order = py_permutation(derive_seed(2, "cluster", 3), 15)
        assert scored == [keys[k] for k in sorted(order[:10])]

    def test_empty_neurons_absent(self, schema2x2):
        train, test = toy_split_cubes(schema2x2)
        model = fit_baseline(train, SomConfig(6, epochs=10))
        report = per_cluster_f1(model, test, EvalConfig(), n=5)
        occupied = set(model.user_model.neurons.tolist())
        assert set(report.rows) <= occupied

    def test_matches_brute_force_oracle(self, schema2x2):
        train, test = toy_split_cubes(schema2x2)
        model = fit_baseline(train, SomConfig(2, epochs=10, seed=1))
        cfg = EvalConfig(threshold=4, seed=0)
        report = per_cluster_f1(model, test, cfg, n=2)

        relevant_of = {}
        for user in model.space.keys:
            pooled = {
                item
                for item_ratings in test.user_ratings(user).values()
                for item, rating in item_ratings.items()
                if rating >= cfg.threshold
            }
            if pooled:
                relevant_of[user] = pooled
        expected = {}
        for user, relevant in relevant_of.items():
            neuron = model.user_model.neurons[model.space.row(user)]
            top = model.recommend_key(user, 2)
            hits = len(set(top) & relevant)
            p = hits / len(top)
            r = hits / len(relevant)
            expected.setdefault(neuron, []).append(
                2 * p * r / (p + r) if p + r else 0.0
            )
        assert set(report.rows) == set(expected)
        for neuron, scores in expected.items():
            count, mean = report.rows[neuron]
            assert count == len(scores)
            assert mean == pytest.approx(
                sum(scores) / len(scores), abs=1e-15
            )

    def test_deterministic(self, schema2x2):
        train, test = toy_split_cubes(schema2x2)
        model = fit_baseline(train, SomConfig(3, epochs=10))
        a = per_cluster_f1(model, test, EvalConfig(), n=5)
        b = per_cluster_f1(model, test, EvalConfig(), n=5)
        assert a.rows == b.rows

    def test_csv_header(self, schema2x2):
        train, test = toy_split_cubes(schema2x2)
        model = fit_baseline(train, SomConfig(2, epochs=10))
        text = per_cluster_f1(model, test, EvalConfig(), n=5).csv_text()
        assert text.split("\n")[0] == "cluster,mean_f1"


class TestNeuronSweep:
    def small_dataset(self):
        cube = generate(GenConfig(n_users=12, n_items=20, density=0.008, seed=9))
        return split(cube, SplitConfig(seed=1))

    def fast_cfgs(self):
        return (
            SomConfig(3, epochs=8),
            SomConfig(4, epochs=8),
            EvalConfig(top_ns=(5, 10), sample_users=12),
        )

    def test_single_count_wins_by_default(self):
        train, test = self.small_dataset()
        p1, p3, ev = self.fast_cfgs()
        result = neuron_sweep(
            train, test, "baseline", (4,), p1, p3, ev, metric_n=10
        )
        assert result.best == 4
        assert len(result.scores) == 1

    def test_equal_scores_pick_smaller_count(self, schema2x2):
        # no relevant test items anywhere -> every count scores 0.0
        train, _ = toy_split_cubes(schema2x2)
        barren = make_cube(
            schema2x2,
            [("u1", "i6", ("a", "x"), 2)],
            users=("u1", "u2", "u3"),
            items=tuple(f"i{k}" for k in range(1, 7)),
        )
        p1, p3, ev = self.fast_cfgs()
        result = neuron_sweep(
            train, barren, "baseline", (1, 2, 3), p1, p3, ev, metric_n=10
        )
        assert len(set(result.scores)) == 1
        assert result.best == 1

    def test_full_curve_returned_in_order(self):
        train, test = self.small_dataset()
        p1, p3, ev = self.fast_cfgs()
        result = neuron_sweep(
            train, test, "phase3", (2, 3, 4), p1, p3, ev, metric_n=10
        )
        assert result.neuron_counts == (2, 3, 4)
        assert len(result.scores) == 3
        assert all(0.0 <= s <= 1.0 for s in result.scores)
        assert result.best in result.neuron_counts

    def test_deterministic(self):
        train, test = self.small_dataset()
        p1, p3, ev = self.fast_cfgs()
        runs = [
            neuron_sweep(train, test, "phase1", (2, 3), p1, p3, ev, 10)
            for _ in range(2)
        ]
        assert runs[0].scores == runs[1].scores
        assert runs[0].best == runs[1].best

    def test_unknown_role_rejected(self):
        train, test = self.small_dataset()
        with pytest.raises(InvalidConfig):
            neuron_sweep(train, test, "phase9", (2, 3))

    def test_unordered_counts_rejected(self):
        train, test = self.small_dataset()
        with pytest.raises(InvalidConfig):
            neuron_sweep(train, test, "phase1", (3, 2))

    def test_metric_n_must_be_reported(self):
        train, test = self.small_dataset()
        p1, p3, ev = self.fast_cfgs()
        with pytest.raises(InvalidConfig):
            neuron_sweep(train, test, "phase1", (2,), p1, p3, ev, metric_n=7)

    def test_csv_shape(self):
        train, test = self.small_dataset()
        p1, p3, ev = self.fast_cfgs()
        result = neuron_sweep(train, test, "baseline", (2, 3), p1, p3, ev, 10)
        lines = result.csv_text().strip().split("\n")
        assert lines[0] == "neuron_count,mean_f1"
        assert len(lines) == 3


class TestSweepOracle:
    """Each role's sweep scores equal, bit for bit, ``evaluate`` of a whole
    per-count fit: the loop the sweep ran before it fitted each stage once."""

    COUNTS = (2, 3, 5, 6)

    def dataset(self):
        cube = generate(scaled_config(GenConfig(seed=4), n_users=30, n_items=40))
        return split(cube, SplitConfig(seed=4))

    def cfgs(self):
        return (
            SomConfig(3, epochs=6, seed=5),
            SomConfig(4, epochs=6, seed=6),
            EvalConfig(top_ns=(5, 10), sample_users=30),
        )

    def per_count_models(self, train, role):
        p1, p3, _ = self.cfgs()
        for count in self.COUNTS:
            if role == "phase1":
                yield fit_pipeline(train, replace(p1, neuron_count=count), p3)
            elif role == "phase3":
                yield fit_pipeline(train, p1, replace(p3, neuron_count=count))
            else:
                yield fit_baseline(train, replace(p3, neuron_count=count))

    @pytest.mark.parametrize("role", ["phase1", "phase3", "baseline"])
    def test_scores_equal_per_count_fits(self, role):
        train, test = self.dataset()
        p1, p3, ev = self.cfgs()
        expected = [
            evaluate(model, test, ev).mean_f1[10] for model in self.per_count_models(train, role)
        ]
        assert len(set(expected)) > 1  # the counts give different models
        result = neuron_sweep(train, test, role, self.COUNTS, p1, p3, ev, metric_n=10)
        assert result.scores == tuple(expected)
