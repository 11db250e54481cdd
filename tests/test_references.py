"""Every top-level function and class in src/vidcap is referenced somewhere
outside its own definition, in src/ or bench/: one that only tests reach is
dead code. A reference is a name read, an attribute, an imported name or a
string constant equal to the name (bench/layers.py names the attributes it
traces as strings)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vidcap"


def references(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def unreferenced(definers: dict[str, str], readers: list[str]) -> list[str]:
    """`module:name` of each top-level def or class in the `definers` sources
    (module -> source) that no source in `readers` references outside the
    definition itself."""
    total = Counter()
    for source in readers:
        total += references(ast.parse(source))
    found = []
    for module, source in sorted(definers.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if total[node.name] - references(node)[node.name] <= 0:
                    found.append(f"{module}:{node.name}")
    return found


def test_every_top_level_definition_is_referenced():
    readers = [p.read_text(encoding="utf-8")
               for top in ("src", "bench") for p in sorted((ROOT / top).rglob("*.py"))]
    definers = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(definers, readers) == []


def test_scan_finds_an_unreferenced_definition():
    lib = "def used(): pass\n" \
          "def recursive(n): return recursive(n - 1)\n" \
          "def traced(): pass\n" \
          "class Dead: pass\n" \
          "def imported(): pass\n" \
          "def tested(): pass\n"
    user = "from lib import imported\nimport lib\nlib.used()\nSITES = [(lib, 'traced')]\n"
    test = "from lib import tested\ndef test_tested(): tested()\n"  # not a reader
    assert unreferenced({"lib": lib}, [lib, user]) == ["lib:recursive", "lib:Dead", "lib:tested"]
    assert unreferenced({"lib": lib}, [lib, user, test]) == ["lib:recursive", "lib:Dead"]
