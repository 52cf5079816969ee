"""Per-layer metrics read off a ``Tracer`` window.

A layer is a module of the package.  Times are inclusive times of the named
function's spans unless the name starts with ``self.``, which is the layer's
self time (its spans minus the child spans they cover).  Counts marked
"computed" in ``bench/rationale.json`` are derived from array sizes in the
call arguments, not measured inside the program.
"""

from __future__ import annotations

from pathlib import Path

# Self time is reported for every layer that has public functions on the
# measured paths; ``datagen`` only runs while inputs are prepared.
SELF_LAYERS = ("cli", "core", "som", "pipeline", "baseline", "evaluation", "jsonio", "rng")


def bmu_search_cost(neurons: int, p: int) -> tuple[int, int]:
    """Computed flops and bytes of one BMU search (``som._similarities``).

    Row norms and dot products each read the N x p weights once (2Np flops
    each), the input norm reads x once more (2p), and the N-wide denominator
    and division add 3N.  Bytes count float64 reads of the weights and the
    input twice each plus the N similarities written.  The neighbourhood
    update after the search is not counted.
    """
    flops = 4 * neurons * p + 2 * p + 3 * neurons
    nbytes = 8 * (2 * neurons * p + 2 * p + neurons)
    return flops, nbytes


def _train(tracer, args, kwargs, result, seconds):
    inputs = args[0] if args else kwargs["inputs"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n, p = len(inputs), len(inputs[0])
    steps = cfg.epochs * n
    # xoshiro outputs: one per initial weight, then one Fisher-Yates draw
    # per position above 0 in each epoch's shuffle
    tracer.counts["rng.draws"] += cfg.neuron_count * p + cfg.epochs * (n - 1)
    tracer.counts["som.train_steps"] += steps
    flops, nbytes = bmu_search_cost(cfg.neuron_count, p)
    tracer.counts["som.kernel_flops"] += steps * flops
    tracer.counts["som.kernel_bytes"] += steps * nbytes


def _assign(tracer, args, kwargs, result, seconds):
    net = args[0] if args else kwargs["net"]
    flops, nbytes = bmu_search_cost(net.neuron_count, net.p)
    tracer.counts["som.kernel_flops"] += len(result) * flops
    tracer.counts["som.kernel_bytes"] += len(result) * nbytes


def _virtual_space(tracer, args, kwargs, result, seconds):
    tracer.gauges["pipeline.virtual_users"] = len(result.keys)


def _load_pipeline(tracer, args, kwargs, result, seconds):
    tracer.gauges["pipeline.virtual_users"] = len(result.space.keys)


def _save_pipeline(tracer, args, kwargs, result, seconds):
    directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
    tracer.gauges["pipeline.bundle_bytes"] = sum(
        path.stat().st_size for path in directory.iterdir()
    )


def _evaluate(tracer, args, kwargs, result, seconds):
    system = "pipeline" if hasattr(args[0], "clusterings") else "baseline"
    tracer.counts[f"evaluation.evaluate_{system}_s"] += seconds
    tracer.counts["evaluation.units_evaluated"] += result.n_units_evaluated
    tracer.counts["evaluation.units_attempted"] += (
        result.n_units_evaluated + result.skipped_no_candidates
    )


def _recommend(tracer, args, kwargs, result, seconds):
    clusterings, user, context = args[2], args[3], args[4]
    tracer.counts["pipeline.recommend_calls"] += 1
    if context.flat_index not in clusterings[user].labels:
        tracer.counts["pipeline.recommend_unlabeled"] += 1


HOOKS = {
    "som.train": _train,
    "som.assign": _assign,
    "pipeline.build_virtual_space": _virtual_space,
    "pipeline.load_pipeline": _load_pipeline,
    "pipeline.save_pipeline": _save_pipeline,
    "evaluation.evaluate": _evaluate,
    "pipeline.recommend": _recommend,
}


def window_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of the tracer's current aggregation window."""
    inc, calls, counts = tracer.inclusive, tracer.calls, tracer.counts
    caller = tracer.by_caller
    metrics = {
        "core.load_ratings_s": inc.get("core.load_ratings", 0.0),
        "evaluation.split_s": inc.get("evaluation.split", 0.0),
        "pipeline.phase1_s": inc.get("pipeline.cluster_user_contexts", 0.0),
        "pipeline.phase1_fits": calls.get("pipeline.cluster_user_contexts", 0),
        "som.initial_weights_s": inc.get("som.initial_weights", 0.0),
        "som.train_s": inc.get("som.train", 0.0),
        "som.assign_s": inc.get("som.assign", 0.0),
        "pipeline.phase2_s": inc.get("pipeline.build_virtual_space", 0.0),
        "pipeline.virtual_users": tracer.gauges.get("pipeline.virtual_users", 0),
        "pipeline.phase3_s": caller.get(
            ("pipeline.cluster_virtual_users", "pipeline.fit_pipeline"), 0.0
        ),
        "baseline.flatten_cube_s": inc.get("baseline.flatten_cube", 0.0),
        "baseline.som_s": caller.get(
            ("pipeline.cluster_virtual_users", "baseline.fit_baseline"), 0.0
        ),
        "baseline.fit_baseline_s": inc.get("baseline.fit_baseline", 0.0),
        "pipeline.predict_scores_s": inc.get("pipeline.predict_scores", 0.0),
        "pipeline.predict_scores_calls": calls.get("pipeline.predict_scores", 0),
        "pipeline.load_pipeline_s": inc.get("pipeline.load_pipeline", 0.0),
        "pipeline.save_pipeline_s": inc.get("pipeline.save_pipeline", 0.0),
        "pipeline.bundle_bytes": tracer.gauges.get("pipeline.bundle_bytes", 0),
    }
    for name in (
        "rng.draws",
        "som.train_steps",
        "som.kernel_flops",
        "som.kernel_bytes",
        "evaluation.evaluate_pipeline_s",
        "evaluation.evaluate_baseline_s",
        "evaluation.units_evaluated",
        "evaluation.units_attempted",
        "pipeline.recommend_calls",
        "pipeline.recommend_unlabeled",
    ):
        metrics[name] = counts.get(name, 0)
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_s"] = tracer.self_time.get(layer, 0.0)
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
