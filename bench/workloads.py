"""The three benchmark workloads.

Each workload prepares its inputs from the seed with ``ctxrec.datagen``
(untimed), then hands ``Run.iterate`` one operation to repeat for the time
budget and a check for each result.  The package is driven only through its
public entry points, in this process, with one phase-1 worker.

* ``compare``: ``ctxrec compare`` on the GenConfig default cube (630 users x
  400 items); the heaviest training path, with p ~ 385 rated items as SOM inputs.
* ``sweep-phase3``: ``ctxrec sweep --role phase3`` at acceptance scale
  (200 x 100) over three phase-3 counts around the default; every point refits
  phase 1, so this is where fitting each stage once shows.
* ``serve``: one closed-loop client issuing ``PipelineModel.recommend``
  queries against a bundle loaded from disk; no SOM training is timed.
"""

from __future__ import annotations

import contextlib
import io
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from checks import (
    rankings_digest,
    read_f1_csv,
    report_digest,
    ranking_errors,
    sha256_bytes,
)

# (users, items) of the generated cube, full size and self-check size
SIZES = {
    "compare": {"full": (630, 400), "tiny": (40, 30)},
    "sweep-phase3": {"full": (200, 100), "tiny": (30, 20)},
    "serve": {"full": (630, 400), "tiny": (40, 30)},
}
SWEEP_COUNTS = (19, 21, 23)
SERVE_PASS = {"full": 1000, "tiny": 100}  # queries per timed pass
TOP_N = 10


def _ratings(run, name: str):
    from ctxrec.datagen import GenConfig, scaled_config, write_dataset

    users, items = SIZES[name][run.size]
    cfg = scaled_config(GenConfig(seed=run.seed), n_users=users, n_items=items)
    ratings, _ = write_dataset(cfg, run.work / "data")
    return ratings


def _record_inputs(run, ratings) -> None:
    from ctxrec.core import default_schema, load_ratings

    cube = load_ratings(ratings, default_schema())
    run.inputs.update(ratings=cube.n_ratings, users=len(cube.users), items=len(cube.items))


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


@contextmanager
def _timed_rank_queries(run):
    """Time each ranked-list query that evaluation makes, and keep its output.

    ``recommend_key`` is the one call per evaluation unit; wrapping it on the
    two model classes times queries without tracing.  Outputs of both are
    checked after the iteration, outside the timed region; query times are
    kept for the context pipeline's queries only, the ones ``serve`` times.
    The baseline's are cheaper, and the median of the mix moved with how
    many units of each kind a seed gave (spread 0.12 over ten seeds).
    """
    from ctxrec.baseline import BaselineModel
    from ctxrec.pipeline import PipelineModel

    originals = {cls: cls.recommend_key for cls in (PipelineModel, BaselineModel)}

    def timed(original):
        def recommend_key(model, key, n):
            tracer = run.tracer if run.tracing else None
            start, cpu = perf_counter(), run.own_cpu()
            if tracer is None:
                ranked = original(model, key, n)
            else:
                tracer.request = run.next_request()
                with tracer.span("bench.query"):
                    ranked = original(model, key, n)
                tracer.request = None
            seconds = (perf_counter() - start, run.own_cpu() - cpu)
            timed = seconds if isinstance(model, PipelineModel) else None
            run.pending.append((timed, model.space, key, n, ranked))
            return ranked

        return recommend_key

    for cls, original in originals.items():
        cls.recommend_key = timed(original)
    try:
        yield
    finally:
        for cls, original in originals.items():
            cls.recommend_key = original


def _check_rank_queries(run) -> None:
    """Check the queries the last iteration made; each is an operation."""
    for seconds, space, key, n, ranked in run.pending:
        errors = ranking_errors(ranked, n, space.ratings_of(key), scored=False)
        run.operation(not errors, f"query {key}: {errors}")
        if seconds is not None and not run.tracing:
            run.latencies.append(seconds[0])
            run.latencies_cpu.append(seconds[1])
    run.pending.clear()


def compare(run) -> None:
    import ctxrec.cli

    ratings = _ratings(run, "compare")
    _record_inputs(run, ratings)
    out = run.work / "out"
    argv = [
        "compare", "--ratings", str(ratings), "--out", str(out),
        "--seed", str(run.seed), "--parallel", "1",
    ]

    def check(code) -> list[str]:
        _check_rank_queries(run)
        if code != 0:
            return [f"ctxrec compare exited {code}"]
        csv_text = (out / "compare.csv").read_text()
        try:
            rows = read_f1_csv(csv_text, "n", ("pipeline_f1", "baseline_f1"))
        except (ValueError, KeyError) as exc:
            return [f"compare.csv: {exc}"]
        if TOP_N not in rows:
            return [f"compare.csv has no n={TOP_N} row"]
        pipeline_f1, baseline_f1 = rows[TOP_N]
        run.quality.update(
            f1_at_10_pipeline=pipeline_f1,
            f1_at_10_baseline=baseline_f1,
            sweep_best_f1_at_10=pipeline_f1,  # one phase-3 count: the default
        )
        return run.same_digest("compare.csv", sha256_bytes(csv_text.encode())) + run.same_digest(
            "compare.json", report_digest(out / "compare.json", out)
        )

    with _timed_rank_queries(run):
        run.iterate(lambda: _quiet(ctxrec.cli.main, argv), check)


def sweep_phase3(run) -> None:
    import ctxrec.cli
    from ctxrec.baseline import DEFAULT_BASELINE_NEURONS
    from ctxrec.pipeline import DEFAULT_PHASE3_NEURONS

    ratings = _ratings(run, "sweep-phase3")
    _record_inputs(run, ratings)
    out = run.work / "out"
    argv = [
        "sweep", "--role", "phase3",
        "--counts", ",".join(str(c) for c in SWEEP_COUNTS),
        "--ratings", str(ratings), "--out", str(out), "--seed", str(run.seed),
    ]

    def check(code) -> list[str]:
        _check_rank_queries(run)
        if code != 0:
            return [f"ctxrec sweep exited {code}"]
        csv_text = (out / "sweep.csv").read_text()
        try:
            rows = read_f1_csv(csv_text, "neuron_count", ("mean_f1",))
        except (ValueError, KeyError) as exc:
            return [f"sweep.csv: {exc}"]
        if tuple(rows) != SWEEP_COUNTS:
            return [f"sweep scored counts {tuple(rows)}, not {SWEEP_COUNTS}"]
        run.quality.update(
            f1_at_10_pipeline=rows[DEFAULT_PHASE3_NEURONS][0],
            sweep_best_f1_at_10=max(score for (score,) in rows.values()),
        )
        return run.same_digest("sweep.csv", sha256_bytes(csv_text.encode())) + run.same_digest(
            "sweep.json", report_digest(out / "sweep.json", out)
        )

    with _timed_rank_queries(run):
        run.iterate(lambda: _quiet(ctxrec.cli.main, argv), check)

    if run.tracer is None:
        return  # quality is a per-layer record, reported by traced runs
    # the sweep fits no baseline; fit one once, untimed, for the quality record
    from ctxrec.baseline import fit_baseline
    from ctxrec.core import default_schema, load_ratings
    from ctxrec.evaluation import EvalConfig, SplitConfig, evaluate, split
    from ctxrec.som import SomConfig

    train_cube, test_cube = split(
        load_ratings(ratings, default_schema()), SplitConfig(0.8, seed=run.seed)
    )
    model = fit_baseline(train_cube, SomConfig(DEFAULT_BASELINE_NEURONS, seed=run.seed))
    report = evaluate(model, test_cube, EvalConfig(seed=run.seed))
    run.quality["f1_at_10_baseline"] = report.mean_f1[TOP_N]


def _serve_queries(model, seed: int, count: int):
    """Seeded (user, situation) list: even slots a situation the user rated
    in training (routed by label), odd slots any situation (usually the
    unlabeled fallback)."""
    rng = np.random.default_rng(seed)
    users = sorted(model.clusterings)
    n_situations = model.schema.situation_count
    queries = []
    for i in range(count):
        user = users[int(rng.integers(len(users)))]
        if i % 2 == 0:
            rated = sorted(model.clusterings[user].labels)
            flat = rated[int(rng.integers(len(rated)))]
        else:
            flat = int(rng.integers(n_situations))
        queries.append((user, model.schema.situation_from_flat(flat)))
    return queries


def _fallback_labels(model) -> dict[str, int]:
    """Reference routing for unlabeled contexts: the user's virtual user with
    the most rated items, ties to the smallest label."""
    best: dict[str, tuple[int, int]] = {}
    for user, label in model.space.keys:
        size = len(model.space.ratings_of((user, label)))
        if user not in best or size > best[user][0] or (
            size == best[user][0] and label < best[user][1]
        ):
            best[user] = (size, label)
    return {user: label for user, (_, label) in best.items()}


def serve(run) -> None:
    from ctxrec import baseline, evaluation, pipeline
    from ctxrec.core import default_schema, load_ratings
    from ctxrec.som import SomConfig

    ratings = _ratings(run, "serve")
    cube = load_ratings(ratings, default_schema())
    run.inputs.update(ratings=cube.n_ratings, users=len(cube.users), items=len(cube.items))
    train_cube, test_cube = evaluation.split(cube, evaluation.SplitConfig(0.8, seed=run.seed))
    som = lambda neurons: SomConfig(neurons, seed=run.seed)
    fitted = pipeline.fit_pipeline(
        train_cube, som(pipeline.DEFAULT_PHASE1_NEURONS), som(pipeline.DEFAULT_PHASE3_NEURONS)
    )
    bundle = run.work / "bundle"
    with run.one_off():
        pipeline.save_pipeline(fitted, bundle)
    del fitted
    run.measure_setup(bundle)
    with run.one_off():
        model = pipeline.load_pipeline(bundle)

    if run.tracer is not None:  # quality is a per-layer record
        eval_cfg = evaluation.EvalConfig(seed=run.seed)
        served_f1 = evaluation.evaluate(model, test_cube, eval_cfg).mean_f1[TOP_N]
        flat = baseline.fit_baseline(train_cube, som(baseline.DEFAULT_BASELINE_NEURONS))
        run.quality.update(
            f1_at_10_pipeline=served_f1,
            f1_at_10_baseline=evaluation.evaluate(flat, test_cube, eval_cfg).mean_f1[TOP_N],
            sweep_best_f1_at_10=served_f1,  # one phase-3 count: the default
        )
        del flat

    queries = _serve_queries(model, run.seed, SERVE_PASS[run.size])
    fallback = _fallback_labels(model)

    def one_pass():
        tracer = run.tracer if run.tracing else None
        outcomes = []
        for user, situation in queries:
            if tracer is not None:
                tracer.request = run.next_request()
            start, cpu = perf_counter(), run.own_cpu()
            try:
                if tracer is None:
                    ranked = model.recommend(user, situation, TOP_N)
                else:
                    with tracer.span("bench.request"):
                        ranked = model.recommend(user, situation, TOP_N)
            except Exception as exc:  # a failed query is counted, the loop goes on
                ranked = exc
            outcomes.append(((perf_counter() - start, run.own_cpu() - cpu), ranked))
        if tracer is not None:
            tracer.request = None
        return outcomes

    def check(outcomes) -> list[str]:
        lists = []
        for (user, situation), (seconds, ranked) in zip(queries, outcomes):
            if isinstance(ranked, Exception):
                errors = [f"raised {ranked!r}"]
            else:
                label = model.clusterings[user].labels.get(situation.flat_index)
                routed = (user, fallback[user] if label is None else label)
                errors = ranking_errors(ranked, TOP_N, model.space.ratings_of(routed))
                lists.append([user, situation.flat_index, ranked])
            run.operation(not errors, f"query {user}/{situation.flat_index}: {errors}")
            if not run.tracing:
                run.latencies.append(seconds[0])
                run.latencies_cpu.append(seconds[1])
        return run.same_digest("rankings", rankings_digest(lists))

    one_pass()  # warm-up, untimed and unchecked
    run.iterate(one_pass, check)


WORKLOADS = {"compare": compare, "sweep-phase3": sweep_phase3, "serve": serve}
