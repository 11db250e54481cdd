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
    """Nor any process machinery: the scorer imports numpy when it scores, and
    scores in the calling process."""
    unwanted = {"numpy", "multiprocessing", "concurrent.futures", "pickle", "signal",
                "vidcap.forking"}
    probe = f"import sys, vidcap.metrics; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]", (
        "a cold `import vidcap.metrics` is the score-challenge-scale benchmark's set-up "
        "time: about 56 ms without numpy, 130-190 ms with it")


def fork_calls(source: str) -> list[int]:
    """Lines that name `os.fork`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "fork"
                  and isinstance(node.value, ast.Name) and node.value.id == "os")


def names(source: str, name: str) -> bool:
    """Whether the source reads or imports `name`, or an attribute `name`."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.alias) and node.name == name
               or isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(ast.parse(source)))


def test_one_module_forks():
    """`forking._worker` is the one fork in vidcap, and its one caller,
    run_experiment, goes through it: harness is the one module naming it."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert [name for name, source in sources.items() if fork_calls(source)] == ["forking.py"]
    assert [name for name, source in sources.items() if names(source, "_worker")] == \
        ["harness.py"]


def test_scan_finds_a_fork():
    source = "import os\npid = os.fork()\nf = os.forkpty\nfork = os.fork\nos.getpid()\n"
    assert fork_calls(source) == [2, 4]


def test_scan_finds_a_name():
    assert names("from .forking import _can_fork, _worker\n", "_worker")
    assert names("with forking._worker(f, 's'):\n    pass\n", "_worker")
    assert not names("def _worker(fn):\n    return fn\n", "_worker")


# os.open flags that write, create or truncate
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _writes(arg) -> bool:
    """Whether an argument of an `open` call asks to write: a mode string with
    w, a, x or +, or an os.O_* flag that writes."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return set(arg.value) <= set("rwxabt+") and bool(set(arg.value) & set("wax+"))
    return any(isinstance(n, ast.Attribute) and n.attr in _WRITE_FLAGS for n in ast.walk(arg))


def file_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each `write_bytes` and `write_text`, and of
    each call to `open` or `.open` that writes; "<module>" outside a function."""
    found = []

    def visit(node, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("write_bytes", "write_text"):
            found.append((func, node.lineno))
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            if any(_writes(a) for a in [*node.args, *(k.value for k in node.keywords)]):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda f: f[1])


def test_one_function_writes_files():
    """`binio.write_file` is the one place vidcap writes a file: by a temporary
    file renamed over the target, naming the target when it fails."""
    assert sorted({(path.name, func) for path in sorted(SRC.glob("*.py"))
                   for func, _ in file_writes(path.read_text(encoding="utf-8"))}) == \
        [("binio.py", "write_file")]


def test_scan_finds_a_file_write():
    source = ("def write_file(p, b):\n"
              "    p.write_bytes(b)\n"
              "def f(p, fd):\n"
              "    open(p).read(); open('/proc/self/stat', encoding='ascii')\n"
              "    open(p, 'a')\n"
              "    p.open(mode='w+b')\n"
              "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
              "    os.fdopen(fd, 'wb'); p.open('rb'); os.open(p, os.O_RDONLY)\n"
              "    save = p.write_text\n"
              "Path('x').write_text('')\n"
              "with open(name, mode='x') as f: pass\n")
    assert file_writes(source) == [("write_file", 2), ("f", 5), ("f", 6), ("f", 7), ("f", 9),
                                   ("<module>", 10), ("<module>", 11)]
