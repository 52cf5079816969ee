"""The benchmark harness still runs against the package sources.

``bench/selfcheck.py`` runs every benchmark workload at tiny sizes, traced
and untraced, and checks the harness's tracer, metrics and checks.  A change
under ``src/`` that breaks the benchmark therefore fails here.

The self-check pins the traced ``pipeline.phase1_fits`` count of the
``sweep-phase3`` workload to ``users * len(SWEEP_COUNTS)``: one phase-1 fit
per user at every sweep point.  ``evaluation.neuron_sweep`` fits phase 1 once
for the whole phase-3 sweep, so the right figure is ``users``.  The pin reads
``SWEEP_COUNTS`` for nothing else (the workload runs in its own process and
imports its own counts), so the test runs the self-check's ``main`` with that
name bound to a single count: the pin then asserts exactly ``users`` fits,
and every other check runs unchanged.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SELFCHECK = """
import sys
sys.path.insert(0, "bench")
import selfcheck
selfcheck.SWEEP_COUNTS = selfcheck.SWEEP_COUNTS[:1]
sys.exit(selfcheck.main())
"""


@pytest.mark.slow
def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "-c", SELFCHECK],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selfcheck: all checks passed" in proc.stdout
    for workload in ("compare", "sweep-phase3", "serve"):
        for trace in (0, 1):
            assert f"selfcheck: {workload} --trace {trace}: ok" in proc.stdout
