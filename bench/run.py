"""ctxrec benchmark: one workload per process, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload compare --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` reports the per-layer metrics: the
first half of the time budget runs untraced, the second half traced, and the
difference of the two median iteration times is the tracing overhead.

Spans go to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.  Digests of the
reports each iteration wrote are printed above the result line; every
iteration of one run must produce the same digests.

Bounded times are in reference seconds: CPU seconds (user + system, of this
process and of the children it waited for) scaled to a reference host speed.
Every workload runs on one thread of one process, so on an unshared core CPU
time equals wall time.  On a shared virtual machine wall time also counts
the time the hypervisor takes the vCPU away (steal): a fixed pure-Python loop
read 0.09-0.22 s wall but 0.09-0.10 s CPU from one second to the next.  CPU
speed itself still moves with the neighbours' load, so a fixed probe
(``hostspeed``) is timed every 50 ms inside each untraced iteration, and
before and after each set-up process, and each CPU time is scaled by
``PROBE_REF_S / mean probe time`` of its own probes.  The probes' own CPU
time is taken out.  Raw wall and CPU times are printed and reported per
layer.

The package is imported from ``src/`` of the checkout this file sits in.
Without it the benchmark prints an error and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, process_time

# One BLAS thread, set before numpy is first imported: the workloads are
# single-threaded, and CPU time must not count spinning pool threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import PROBE_REF_S, Sampler, probe
from layers import HOOKS, ratio, window_metrics
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_PROBES = 10  # host-speed probes before and after each set-up process

# A fresh process importing the package and, for ``serve``, loading the bundle.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import ctxrec
if len(sys.argv) > 2:
    ctxrec.load_pipeline(sys.argv[2])
"""


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0 when nothing was timed."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Run:
    """State of one benchmark run: budget, counters, timings and checks."""

    def __init__(self, args, tracer):
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.size = "tiny" if args.tiny else "full"
        self.tracer = tracer
        self.tracing = False
        self.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.inputs: dict[str, int] = {}
        self.quality = dict.fromkeys(
            ("f1_at_10_pipeline", "f1_at_10_baseline", "sweep_best_f1_at_10"), 0.0
        )
        self.pending: list[tuple] = []
        self.latencies: list[float] = []
        self.latencies_cpu: list[float] = []
        self.latencies_ref: list[float] = []
        self.iteration_s: list[float] = []
        self.iteration_cpu_s: list[float] = []
        self.iteration_ref_s: list[float] = []
        self.traced_iteration_s: list[float] = []
        self.layer_windows: list[dict[str, float]] = []
        self.one_off_layers: dict[str, float] = {}
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.probe_s: list[float] = []
        self.sampler = None
        self._request = 0

    def next_request(self) -> int:
        self._request += 1
        return self._request

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def same_digest(self, name: str, digest: str) -> list[str]:
        first = self.digests.setdefault(name, digest)
        return [] if digest == first else [f"{name} digest changed: {first} -> {digest}"]

    def own_cpu(self) -> float:
        """CPU seconds used so far, less what the host-speed probes took."""
        return cpu_seconds() - (self.sampler.spent if self.sampler else 0.0)

    def reference_scale(self, probes: list[float]) -> float:
        """Factor from CPU seconds to reference seconds at the probes' speed."""
        self.probe_s.extend(probes)
        return PROBE_REF_S / statistics.fmean(probes)

    def measure_setup(self, bundle=None) -> None:
        """Time fresh processes that import the package (and load a bundle)."""
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
        if bundle is not None:
            argv.append(str(bundle))
        for _ in range(SETUP_REPEATS if self.size == "full" else 2):
            before = [probe() for _ in range(SETUP_PROBES)]
            start, cpu = perf_counter(), cpu_seconds()
            subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
            cpu = cpu_seconds() - cpu
            self.setup_wall_s.append(perf_counter() - start)
            after = [probe() for _ in range(SETUP_PROBES)]
            self.setup_s.append(cpu * self.reference_scale(before + after))

    @contextmanager
    def one_off(self):
        """Trace a step that runs once per run (bundle save or load)."""
        if self.tracer is None:
            yield
            return
        self.tracer.reset()
        with self.tracer.installed():
            yield
        for name, value in window_metrics(self.tracer).items():
            self.one_off_layers[name] = self.one_off_layers.get(name, 0) + value

    def iterate(self, once, check) -> None:
        """Repeat ``once`` while the next iteration should end within the
        budget (at least once), predicting its length from the last one.

        Only ``once`` is timed; ``check(result)`` runs afterwards and returns
        the problems it found.  Untraced iterations run under a host-speed
        ``Sampler``.  With a tracer, the first half of the budget runs
        untraced and the second half traced, one aggregation window per
        traced iteration.
        """
        if self.tracer is None:
            phases = [(False, self.seconds)]
        else:
            phases = [(False, self.seconds / 2), (True, self.seconds / 2)]
        for traced, budget in phases:
            times = self.traced_iteration_s if traced else self.iteration_s
            self.tracing = traced
            self.sampler = None if traced else Sampler()
            began = perf_counter()
            with self.sampler or nullcontext():
                while not times or perf_counter() - began + times[-1] <= budget:
                    self._iteration(traced, once, check)
            self.sampler = None
        self.tracing = False

    def _iteration(self, traced: bool, once, check) -> None:
        result = error = None
        sampler, queries = self.sampler, len(self.latencies_cpu)
        if traced:
            self.tracer.reset()
        else:
            samples, wall_spent = len(sampler.samples), sampler.spent_wall
        start, cpu = perf_counter(), self.own_cpu()
        try:
            if traced:
                with self.tracer.installed(), self.tracer.span("bench.iteration"):
                    result = once()
            else:
                result = once()
        except Exception:  # the run goes on and reports the failure
            error = traceback.format_exc()
        wall, cpu = perf_counter() - start, self.own_cpu() - cpu
        if traced:
            self.traced_iteration_s.append(wall)
            self.layer_windows.append(window_metrics(self.tracer))
        else:
            self.iteration_s.append(wall - (sampler.spent_wall - wall_spent))
            self.iteration_cpu_s.append(cpu)
            scale = self.reference_scale(sampler.samples[samples:] or [probe()])
            self.iteration_ref_s.append(cpu * scale)
        problems = [error] if error else check(result)
        self.operation(not problems, "; ".join(problems)[:2000])
        # queries the check just recorded ran in this iteration, at its speed
        if not traced:
            self.latencies_ref.extend(scale * t for t in self.latencies_cpu[queries:])

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "run_ref_s": statistics.median(self.iteration_ref_s),
            "query_ref_p50_ms": 1000.0 * _percentile(self.latencies_ref, 50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        metrics = dict(self.one_off_layers)
        for name in self.layer_windows[0]:
            median = statistics.median(w[name] for w in self.layer_windows)
            metrics[name] = metrics.get(name, 0) + median
        metrics["evaluation.unit_yield"] = ratio(
            metrics["evaluation.units_evaluated"], metrics["evaluation.units_attempted"]
        )
        metrics["pipeline.recommend_unlabeled_share"] = ratio(
            metrics["pipeline.recommend_unlabeled"], metrics["pipeline.recommend_calls"]
        )
        metrics["run_wall_s"] = statistics.median(self.iteration_s)
        metrics["run_cpu_s"] = statistics.median(self.iteration_cpu_s)
        metrics["setup_wall_s"] = statistics.median(self.setup_wall_s)
        metrics["host.probe_cpu_s"] = statistics.median(self.probe_s)
        metrics["trace.overhead_s"] = statistics.median(
            self.traced_iteration_s
        ) - statistics.median(self.iteration_s)
        # Wall-clock query latencies of the untraced half.  Unlike the bounded
        # query_ref_p50_ms they carry the host's steal and speed swings.
        metrics["query_p50_ms"] = 1000.0 * _percentile(self.latencies, 50)
        metrics["query_p99_ms"] = 1000.0 * _percentile(self.latencies, 99)
        metrics["queries_per_s"] = ratio(len(self.latencies), sum(self.latencies))
        metrics["error_rate"] = ratio(self.failed, self.attempted)
        metrics.update(self.quality)
        return metrics


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-check sizes (bench/selfcheck.py)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ctxrec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no ctxrec package under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import ctxrec  # noqa: F401  (first import: compiles the package once)

    run = Run(args, Tracer(HOOKS) if args.trace else None)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "serve":
            run.measure_setup()
        WORKLOADS[args.workload](run)
        if run.tracer is not None:
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            run.tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for key, value in sorted(run.inputs.items()):
        print(f"input {key}: {value}")
    for key, value in sorted(run.digests.items()):
        print(f"digest {key}: {value}")
    for key, value in sorted(run.quality.items()):
        if value:  # serve and sweep-phase3 score quality only in traced runs
            print(f"quality {key}: {value!r}")
    print(f"iterations untraced (s): {[round(t, 4) for t in run.iteration_s]}")
    print(f"iterations untraced cpu (s): {[round(t, 4) for t in run.iteration_cpu_s]}")
    print(f"iterations untraced ref (s): {[round(t, 4) for t in run.iteration_ref_s]}")
    if run.traced_iteration_s:
        print(f"iterations traced (s): {[round(t, 4) for t in run.traced_iteration_s]}")
    print(f"setup ref (s): {[round(t, 4) for t in run.setup_s]}")
    print(f"setup (s): {[round(t, 4) for t in run.setup_wall_s]}")
    if run.probe_s:
        print(f"host probes: {len(run.probe_s)}, cpu (s) mean {statistics.fmean(run.probe_s):.5f}"
              f" min {min(run.probe_s):.5f} max {max(run.probe_s):.5f}")
    if run.latencies:
        print(
            f"queries: {len(run.latencies)} timed, p50 {1000 * _percentile(run.latencies, 50):.4f} ms,"
            f" p99 {1000 * _percentile(run.latencies, 99):.4f} ms,"
            f" {ratio(len(run.latencies), sum(run.latencies)):.2f} 1/s,"
            f" cpu p50 {1000 * _percentile(run.latencies_cpu, 50):.4f} ms,"
            f" cpu p99 {1000 * _percentile(run.latencies_cpu, 99):.4f} ms"
        )
    for problem in run.problems:
        print(f"bench: problem: {problem}", file=sys.stderr)

    if args.trace:
        values, listed = run.per_layer(), spec["per_layer"]
    else:
        values, listed = run.end_to_end(), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
