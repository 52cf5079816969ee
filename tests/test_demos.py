"""Every demo script runs to completion from an empty working directory, and
README's imports resolve."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr


def test_readme_imports():
    """Every ``from ctxrec... import ...`` line of README's Python blocks
    runs, and the package root exports only the two names README uses."""
    import ctxrec

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [
        line
        for block in blocks
        for line in block.splitlines()
        if re.match(r"from ctxrec(\.\w+)* import ", line)
    ]
    assert lines
    for line in lines:
        exec(line, {})
    assert ctxrec.__all__ == ["CtxRecError", "load_pipeline"]
