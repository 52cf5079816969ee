"""The suite's pytest settings let a failing property test fail like any other.

Warnings are errors (``filterwarnings = ["error"]``).  A failing ``@given``
test must still be reported as one failure with its falsifying example, and
the tests after it must still run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after_the_failure():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output[-3000:]
    assert "1 failed, 1 passed" in proc.stdout, output[-3000:]
    assert "Falsifying example" in proc.stdout, output[-3000:]
