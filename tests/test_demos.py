"""Every demo script runs to completion from an empty working directory,
README's imports resolve, every public name of the package is used
outside the tests, and every module uses the names it imports."""

import ast
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


def test_public_names_named_outside_tests():
    """Every public module-level function and class of ``src/ctxrec`` is
    named outside its own definition and outside ``tests/``: in another part
    of ``src/``, in a demo, in ``bench/`` or in a README code block.  A
    public helper that only tests call fails here."""
    read = lambda path: path.read_text(encoding="utf-8")
    sources = {path: read(path) for path in sorted(ROOT.glob("src/ctxrec/*.py"))}
    elsewhere = [read(path) for path in DEMOS + sorted(ROOT.glob("bench/*.py"))]
    elsewhere += re.findall(r"```[^\n]*\n(.*?)```", read(README), re.S)
    unnamed = []
    for path, text in sources.items():
        lines = text.splitlines()
        others = [other for other_path, other in sources.items() if other_path != path]
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # the module without the definition's own lines, decorators included
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(t) for t in [rest, *others, *elsewhere]):
                unnamed.append(f"{path.name}: {node.name}")
    assert unnamed == []


def test_every_import_is_used():
    """Each name a module of ``src/ctxrec`` imports is named again in that
    module; ``__init__.py`` (which re-exports) and ``from __future__`` are
    left out.  No linter is assumed, so an unused import fails here."""
    unused = []
    for path in sorted(ROOT.glob("src/ctxrec/*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []
