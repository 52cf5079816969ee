"""The benchmark harness still runs against the package sources.

``bench/selfcheck.py`` runs every benchmark workload at tiny sizes, traced
and untraced, and checks the harness's tracer, metrics and checks.  A change
under ``src/`` that breaks the benchmark therefore fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selfcheck: all checks passed" in proc.stdout
