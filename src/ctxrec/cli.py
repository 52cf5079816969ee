"""Command-line front end: generate, split, train, evaluate, compare.

Every command is reproducible from its flags plus its input files; reports
embed the fully resolved run configuration.  Exit codes: 0 success, 1 usage
error (bad flags), 2 data error (bad files, unknown ids).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .baseline import (
    DEFAULT_BASELINE_NEURONS,
    fit_baseline,
    load_baseline,
    save_baseline,
)
from .core import ContextSchema, default_schema, load_ratings, load_schema, write_ratings
from .datagen import GenConfig, write_dataset
from .errors import CtxRecError, InvalidConfig
from .evaluation import (
    EvalConfig,
    SplitConfig,
    evaluate,
    neuron_sweep,
    per_cluster_f1,
    split,
)
from .pipeline import (
    DEFAULT_PHASE1_NEURONS,
    DEFAULT_PHASE3_NEURONS,
    fit_pipeline,
    load_pipeline,
    save_pipeline,
)
from .som import SomConfig
from . import jsonio


class UsageError(Exception):
    """Flag-level mistake: wrong values or combinations (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse that reads ``-1e-3`` as a value, as it reads ``-1`` and
    ``-0.5``, and reports a bad flag in one ``ctxrec: error:`` line with exit
    1 (argparse prints its usage block and exits 2, which is for data)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.exit(1, f"ctxrec: error: {message}\n")


def _run_config(command: str, args, schema_path: str | None = None, **configs) -> dict:
    """Everything a command resolved from flags, embedded in its reports;
    ``configs`` come in report order: phase1, phase3, baseline, split, eval, gen."""
    run = {"command": command, "seed": args.seed, "schema_path": schema_path, "out": args.out}
    for name, config in configs.items():
        run[name] = jsonio.config_dict(config)
    return run


# gen flag -> GenConfig field; the flag's type and default are the field's
_GEN_FLAGS = {
    "--users": "n_users",
    "--items": "n_items",
    "--archetypes": "n_archetypes",
    "--gamma": "gamma",
    "--density": "density",
    "--ratings-per-situation": "ratings_per_active_situation",
    "--noise-sd": "noise_sd",
    "--archetypes-per-user": "archetypes_per_user",
    "--exposure-sharpness": "exposure_sharpness",
}


def _usage_guard(build, *args, **kwargs):
    """Turn config-validation failures on flag values into usage errors."""
    try:
        return build(*args, **kwargs)
    except InvalidConfig as exc:
        raise UsageError(str(exc)) from exc


def _parse_topn(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse --topn {text!r}; expected e.g. 5,10,15")


def _parse_counts(text: str) -> tuple[int, ...]:
    """Neuron counts: '5-35' (inclusive range) or '5,9,13'; distinct, positive
    and ascending."""
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            counts = tuple(range(int(lo), int(hi) + 1))
        else:
            counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse --counts {text!r}; expected e.g. 2-15 or 2,5,9")
    if not counts or counts[0] < 1 or list(counts) != sorted(set(counts)):
        raise UsageError(f"--counts {text!r} must be distinct, positive and ascending")
    return counts


def _check_count(flag: str, value: int) -> None:
    """A count flag (``--parallel``, ``--num``) must be at least 1."""
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")


def _load_schema_arg(path: str | None) -> ContextSchema:
    return load_schema(path) if path else default_schema()


def _som_cfg(neurons: int, args) -> SomConfig:
    return _usage_guard(
        SomConfig,
        neuron_count=neurons,
        epochs=args.epochs,
        alpha0=args.alpha0,
        seed=args.seed,
    )


def _split_cfg(args) -> SplitConfig:
    return _usage_guard(SplitConfig, train_fraction=args.train_frac, seed=args.seed)


def _eval_cfg(args) -> EvalConfig:
    return _usage_guard(
        EvalConfig,
        top_ns=_parse_topn(args.topn),
        threshold=args.threshold,
        sample_users=args.sample_users,
        seed=args.seed,
    )


# flags of ``recommend`` itself; a context dimension cannot share their names
_RECOMMEND_FLAGS = ("model", "user", "num", "out", "help")


def _check_dimension_names(schema: ContextSchema) -> None:
    """A schema a model can be queried with: no dimension shadows a flag."""
    for dim in schema.dimensions:
        if dim.name in _RECOMMEND_FLAGS:
            raise InvalidConfig(
                f"context dimension {dim.name!r} has the name of a recommend flag "
                f"(reserved: {', '.join(_RECOMMEND_FLAGS)})"
            )


def _load_model(path: str):
    """A model bundle is a directory; its files tell the two systems apart."""
    directory = Path(path)
    if (directory / "clusterings.json").exists():
        return load_pipeline(directory), "pipeline"
    if (directory / "flat_space.json").exists():
        return load_baseline(directory), "baseline"
    raise InvalidConfig(
        f"{path!r} is not a model bundle (no clusterings.json or flat_space.json)"
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    schema = _load_schema_arg(args.schema)
    values = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name in _GEN_FLAGS.items()}
    cfg = _usage_guard(GenConfig, schema=schema, seed=args.seed, **values)
    out = _out_dir(args)
    ratings_path, truth_path = write_dataset(cfg, out)
    jsonio.write_json(out / "run_config.json", _run_config("gen", args, args.schema, gen=cfg))
    print(f"wrote {ratings_path} and {truth_path}")
    return 0


def cmd_split(args) -> int:
    schema = _load_schema_arg(args.schema)
    split_cfg = _split_cfg(args)
    cube = load_ratings(args.ratings, schema)
    train_cube, test_cube = split(cube, split_cfg)
    out = _out_dir(args)
    write_ratings(train_cube, out / "train.csv")
    write_ratings(test_cube, out / "test.csv")
    jsonio.write_json(
        out / "split.json",
        {
            "run_config": _run_config("split", args, args.schema, split=split_cfg),
            "n_train": train_cube.n_ratings,
            "n_test": test_cube.n_ratings,
        },
    )
    print(
        f"split {cube.n_ratings} ratings into {train_cube.n_ratings} train / "
        f"{test_cube.n_ratings} test under {out}"
    )
    return 0


def cmd_train(args) -> int:
    _check_count("--parallel", args.parallel)
    if args.system == "pipeline":
        configs = {
            "phase1": _som_cfg(args.neurons_phase1, args),
            "phase3": _som_cfg(args.neurons_phase3, args),
        }
    else:
        configs = {"baseline": _som_cfg(args.neurons_baseline, args)}
    schema = _load_schema_arg(args.schema)
    _check_dimension_names(schema)
    cube = load_ratings(args.ratings, schema)
    out = _out_dir(args)
    if args.system == "pipeline":
        model = fit_pipeline(cube, configs["phase1"], configs["phase3"], workers=args.parallel)
        save_pipeline(model, out)
        summary = (
            f"trained pipeline on {len(model.clusterings)} users -> "
            f"{len(model.space.keys)} virtual users"
        )
    else:
        model = fit_baseline(cube, configs["baseline"])
        save_baseline(model, out)
        summary = f"trained baseline on {len(model.space.keys)} users"
    jsonio.write_json(out / "run_config.json", _run_config("train", args, args.schema, **configs))
    print(f"{summary}; model saved under {out}")
    return 0


def cmd_eval(args) -> int:
    eval_cfg = _eval_cfg(args)
    model, system = _load_model(args.model)
    test_cube = load_ratings(args.ratings, model.schema)
    report = evaluate(model, test_cube, eval_cfg)
    cluster_report = per_cluster_f1(model, test_cube, eval_cfg)
    out = _out_dir(args)
    jsonio.write_json(
        out / "eval_report.json",
        {
            "run_config": _run_config("eval", args, eval=eval_cfg),
            "system": system,
            **report.to_json_dict(),
            "per_cluster": cluster_report.to_json_dict()["clusters"],
        },
    )
    (out / "eval_report.csv").write_text(report.csv_text())
    (out / "cluster_f1.csv").write_text(cluster_report.csv_text())
    for n in report.top_ns:
        print(f"top-{n}: F1={report.mean_f1[n]:.4f}")
    print(
        f"{report.n_users_evaluated} users evaluated "
        f"({report.skipped_no_relevant} skipped without relevant items); "
        f"reports under {out}"
    )
    return 0


def cmd_sweep(args) -> int:
    counts = _parse_counts(args.counts)
    split_cfg = _split_cfg(args)
    eval_cfg = _eval_cfg(args)
    if args.metric_n not in eval_cfg.top_ns:
        raise UsageError(f"--metric-n {args.metric_n} must be one of --topn")
    phase1 = _som_cfg(args.neurons_phase1, args)
    phase3 = _som_cfg(args.neurons_phase3, args)
    schema = _load_schema_arg(args.schema)
    cube = load_ratings(args.ratings, schema)
    train_cube, test_cube = split(cube, split_cfg)
    result = neuron_sweep(
        train_cube,
        test_cube,
        args.role,
        counts,
        phase1_cfg=phase1,
        phase3_cfg=phase3,
        eval_cfg=eval_cfg,
        metric_n=args.metric_n,
    )
    out = _out_dir(args)
    run = _run_config(
        "sweep", args, args.schema, phase1=phase1, phase3=phase3, split=split_cfg, eval=eval_cfg
    )
    jsonio.write_json(out / "sweep.json", {"run_config": run, **result.to_json_dict()})
    (out / "sweep.csv").write_text(result.csv_text())
    print(
        f"swept {args.role} over {counts[0]}..{counts[-1]}: "
        f"best neuron count {result.best} "
        f"(mean F1@{result.metric_n} {max(result.scores):.4f}); reports under {out}"
    )
    return 0


def cmd_recommend(args) -> int:
    _check_count("--num", args.num)
    model, system = _load_model(args.model)
    _check_dimension_names(model.schema)
    # one --<dimension> VALUE flag per dimension of the model's schema
    names = [dim.name for dim in model.schema.dimensions]
    context = _Parser(prog="ctxrec recommend", add_help=False, allow_abbrev=False)
    for name in names:
        context.add_argument(f"--{name}", dest=name)
    values = [getattr(context.parse_args(args.context), name) for name in names]
    if system == "pipeline":
        if None in values:
            raise UsageError(
                f"missing --{names[values.index(None)]} "
                f"(the model's schema needs all of: {', '.join(names)})"
            )
        situation = model.schema.situation_from_names(values)
        ranked = model.recommend(args.user, situation, args.num)
    else:
        if values.count(None) != len(values):
            raise UsageError("context flags have no effect on a flat baseline model")
        ranked = model.recommend(args.user, args.num)
    for rank, (item, score) in enumerate(ranked, start=1):
        print(f"{rank:2d}. {item}  {score:.4f}")
    if args.out:
        out = _out_dir(args)
        jsonio.write_json(
            out / "recommendations.json",
            {
                "user": args.user,
                "system": system,
                "items": [{"item": item, "score": score} for item, score in ranked],
            },
        )
    return 0


def cmd_compare(args) -> int:
    _check_count("--parallel", args.parallel)
    split_cfg = _split_cfg(args)
    eval_cfg = _eval_cfg(args)
    phase1 = _som_cfg(args.neurons_phase1, args)
    phase3 = _som_cfg(args.neurons_phase3, args)
    baseline_cfg = _som_cfg(args.neurons_baseline, args)
    schema = _load_schema_arg(args.schema)
    cube = load_ratings(args.ratings, schema)
    train_cube, test_cube = split(cube, split_cfg)
    pipeline_model = fit_pipeline(train_cube, phase1, phase3, workers=args.parallel)
    baseline_model = fit_baseline(train_cube, baseline_cfg)
    pipeline_report = evaluate(pipeline_model, test_cube, eval_cfg)
    baseline_report = evaluate(baseline_model, test_cube, eval_cfg)
    diff = {
        n: pipeline_report.mean_f1[n] - baseline_report.mean_f1[n]
        for n in eval_cfg.top_ns
    }
    out = _out_dir(args)
    run = _run_config(
        "compare", args, args.schema, phase1=phase1, phase3=phase3, baseline=baseline_cfg,
        split=split_cfg, eval=eval_cfg,
    )
    jsonio.write_json(
        out / "compare.json",
        {
            "run_config": run,
            "pipeline": pipeline_report.to_json_dict(),
            "baseline": baseline_report.to_json_dict(),
            "difference": {str(n): diff[n] for n in eval_cfg.top_ns},
        },
    )
    rows = [
        (n, pipeline_report.mean_f1[n], baseline_report.mean_f1[n], diff[n])
        for n in eval_cfg.top_ns
    ]
    header = ("n", "pipeline_f1", "baseline_f1", "difference")
    (out / "compare.csv").write_text(jsonio.csv_text(header, rows))
    print("  n  pipeline  baseline      diff")
    for n in eval_cfg.top_ns:
        print(
            f"{n:3d}  {pipeline_report.mean_f1[n]:8.4f}  "
            f"{baseline_report.mean_f1[n]:8.4f}  {diff[n]:+8.4f}"
        )
    print(f"reports under {out}")
    return 0


def _add_schema_seed(p) -> None:
    p.add_argument("--schema", help="schema JSON path (default: built-in schema)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_som_flags(p, roles=("phase1", "phase3", "baseline")) -> None:
    if "phase1" in roles:
        p.add_argument(
            "--neurons-phase1", type=int, default=DEFAULT_PHASE1_NEURONS,
            help="context-clustering SOM size (default %(default)s)",
        )
    if "phase3" in roles:
        p.add_argument(
            "--neurons-phase3", type=int, default=DEFAULT_PHASE3_NEURONS,
            help="virtual-user SOM size (default %(default)s)",
        )
    if "baseline" in roles:
        p.add_argument(
            "--neurons-baseline", type=int, default=DEFAULT_BASELINE_NEURONS,
            help="flat-user SOM size (default %(default)s)",
        )
    p.add_argument(
        "--epochs", type=int, default=SomConfig.epochs, help="SOM epochs (default %(default)s)"
    )
    p.add_argument(
        "--alpha0", type=float, default=SomConfig.alpha0,
        help="initial learning rate (default %(default)s)",
    )


def _add_eval_flags(p) -> None:
    p.add_argument(
        "--topn",
        default=",".join(str(n) for n in EvalConfig.top_ns),
        help="comma-separated cutoffs (default %(default)s)",
    )
    p.add_argument(
        "--threshold", type=int, default=EvalConfig.threshold,
        help="minimum rating that counts as relevant (default %(default)s)",
    )
    p.add_argument(
        "--sample-users", type=int, default=EvalConfig.sample_users,
        help="users sampled for evaluation (default %(default)s)",
    )



def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctxrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic ratings CSV")
    _add_schema_seed(p)
    p.add_argument("--out", required=True, help="output directory")
    for flag, name in _GEN_FLAGS.items():
        default = getattr(GenConfig, name)
        p.add_argument(flag, type=type(default), default=default, help="(default %(default)s)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="split a ratings CSV into train/test")
    _add_schema_seed(p)
    p.add_argument("--ratings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-frac", type=float, default=SplitConfig.train_fraction)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit and persist a recommender")
    _add_schema_seed(p)
    p.add_argument("--ratings", required=True, help="training ratings CSV")
    p.add_argument("--out", required=True, help="model bundle directory")
    p.add_argument("--system", choices=("pipeline", "baseline"), default="pipeline")
    _add_som_flags(p)
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model bundle against held-out ratings")
    p.add_argument("--model", required=True, help="model bundle directory")
    p.add_argument("--ratings", required=True, help="held-out ratings CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_eval_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="try a range of SOM sizes for one role")
    _add_schema_seed(p)
    p.add_argument("--ratings", required=True, help="full ratings CSV (split inside)")
    p.add_argument("--out", required=True)
    p.add_argument("--role", choices=("phase1", "phase3", "baseline"), required=True)
    p.add_argument("--counts", required=True, help="e.g. 2-15 or 5,10,15")
    p.add_argument("--train-frac", type=float, default=SplitConfig.train_fraction)
    p.add_argument("--metric-n", type=int, default=10)
    _add_som_flags(p, roles=("phase1", "phase3"))
    _add_eval_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "recommend",
        help="top-N items for a user in a context",
        epilog="context: one --<dimension> VALUE per dimension of the model's schema, "
        "e.g. --day --time --companion --weather; a baseline model takes none",
        allow_abbrev=False,
    )
    p.add_argument("--model", required=True, help="model bundle directory")
    p.add_argument("--user", required=True)
    p.add_argument("-n", "--num", type=int, default=10)
    p.add_argument("--out", help="also write recommendations.json here")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("compare", help="pipeline vs baseline on one split")
    _add_schema_seed(p)
    p.add_argument("--ratings", required=True, help="full ratings CSV (split inside)")
    p.add_argument("--out", required=True)
    p.add_argument("--train-frac", type=float, default=SplitConfig.train_fraction)
    _add_som_flags(p)
    _add_eval_flags(p)
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # recommend's context flags depend on the model's schema; it parses them
    args, extras = parser.parse_known_args(argv)
    if extras and args.command != "recommend":
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.context = extras
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ctxrec: error: {exc}", file=sys.stderr)
        return 1
    except (CtxRecError, OSError) as exc:
        print(f"ctxrec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
