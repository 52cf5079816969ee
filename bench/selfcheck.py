"""Self-check of the benchmark harness at tiny sizes (a few seconds a run).

Run from the repository root:

    python3 bench/selfcheck.py

It runs every workload untraced and traced and checks that the result line
carries every metric named in ``BENCHMARK.json`` with its unit, that the
outputs were correct, and that the exact counts match the workload's shape.
It feeds the ranking checker deliberately bad lists and checks that each
failure is counted, and it checks that the benchmark refuses to run without
the package sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from checks import ranking_errors  # noqa: E402
from run import Run  # noqa: E402
from workloads import SIZES, SWEEP_COUNTS  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selfcheck: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workloads(spec) -> None:
    for workload in SIZES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{where}: result keys {sorted(result)}",
            )
            check(result["correct"] and result["failed"] == 0, f"{where}: {proc.stderr[-2000:]}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            metrics = result["metrics"]
            check(
                list(metrics) == [m["name"] for m in listed],
                f"{where}: metrics {sorted(metrics)}",
            )
            for m in listed:
                entry = metrics[m["name"]]
                check(entry["unit"] == m["unit"], f"{where}: unit of {m['name']}")
                check(isinstance(entry["value"], (int, float)), f"{where}: {m['name']}")
                if trace == 0:
                    check(entry["value"] > 0, f"{where}: {m['name']} is not positive")
            if trace:
                users = SIZES[workload]["tiny"][0]
                fits = {"compare": users, "sweep-phase3": users * len(SWEEP_COUNTS), "serve": 0}
                value = metrics["pipeline.phase1_fits"]["value"]
                check(value == fits[workload], f"{where}: phase1_fits {value}")
                check(metrics["error_rate"]["value"] == 0, f"{where}: error_rate")
            print(f"selfcheck: {where}: ok ({len(metrics)} metrics)")


def check_checker() -> None:
    """Bad rankings are caught, and a caught one counts as a failed operation."""
    from ctxrec.core import default_schema, load_ratings
    from ctxrec.datagen import GenConfig, scaled_config, write_dataset
    from ctxrec.pipeline import fit_pipeline
    from ctxrec.som import SomConfig

    run = Run(argparse.Namespace(seed=0, seconds=1, tiny=True, workload="selfcheck"), None)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        ratings, _ = write_dataset(scaled_config(GenConfig(seed=0), 20, 15), run.work)
        cube = load_ratings(ratings, default_schema())
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    model = fit_pipeline(cube, SomConfig(3, seed=0), SomConfig(4, seed=0))
    user, clustering = sorted(model.clusterings.items())[0]
    flat = min(clustering.labels)
    key = (user, clustering.labels[flat])
    rated = model.space.ratings_of(key)
    good = model.recommend(user, model.schema.situation_from_flat(flat), 5)
    check(len(good) >= 2 and not ranking_errors(good, 5, rated), "a valid ranking is rejected")

    top_score = good[0][1]
    first, second = sorted(item for item, _ in good[:2])
    bad = {
        "already rated": [(min(rated), top_score)] + good[1:],
        "too long": good + [(f"{item}x", 0.0) for item, _ in good],
        "score rises": [(first, 1.0), (second, 2.0)],
        "tie order": [(second, top_score), (first, top_score)],
        "non-finite": [(first, float("nan"))],
    }
    for name, ranked in bad.items():
        errors = ranking_errors(ranked, 5, rated)
        before = run.failed
        run.operation(not errors, name)
        check(run.failed == before + 1, f"checker missed a bad ranking: {name}")
    check(run.attempted == run.failed, "every bad ranking counts as failed")
    print(f"selfcheck: checker: {run.failed} bad rankings counted as failed")


def check_refuses_without_sources(spec) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, it fails."""
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench("compare", 0, cwd=bare)
        check(proc.returncode != 0, "ran without the package sources")
        check('"metrics"' not in proc.stdout, "printed a result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"selfcheck: without sources: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checker()
    check_refuses_without_sources(spec)
    check_workloads(spec)
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
