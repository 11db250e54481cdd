"""Every name a vidcap module imports is read somewhere in that module, unless
its line is marked `# noqa: F401` (an import kept for another module to find)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vidcap"


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unread_import():
    source = "import os\nfrom json import dumps, loads\nfrom re import sub  # noqa: F401\n" \
             "print(loads)\n"
    assert unread_imports(source) == ["line 1: os", "line 2: dumps"]


def test_harness_import_loads_no_process_pool():
    """A cold `import vidcap.harness` is the benchmark's set-up time; the
    training worker's fork needs neither of these packages."""
    probe = "import sys, vidcap.harness; " \
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_metrics_import_loads_no_numpy():
    probe = "import sys, vidcap.metrics; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False", (
        "a cold `import vidcap.metrics` is the score-challenge-scale benchmark's set-up "
        "time: about 56 ms without numpy, 130-190 ms with it")
