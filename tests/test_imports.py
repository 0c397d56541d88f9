"""Import and definition hygiene: every name a starklab module imports is
used in it, and every top-level name it defines is used somewhere.

The package's __init__ re-exports what it imports, so its imports are not
checked.  An import line marked `noqa` is kept on purpose and skipped."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "starklab"


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in source that no expression reads, except
    on import lines marked noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lineno = getattr(alias, "lineno", node.lineno)
                if "noqa" in lines[lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_an_unused_import_is_found():
    source = "from itertools import groupby, chain  # noqa\nimport math\nx = 1\n"
    assert unused_imports(source) == ["math (line 2)"]
    assert unused_imports("import math\nx = math.pi\n") == []


def dead_definitions(module: str, other_sources: list[str]) -> list[str]:
    """The top-level functions, classes and constants of module whose name
    appears nowhere in module outside their own definition, nor in
    other_sources.  Dunder names are skipped."""
    tree = ast.parse(module)
    lines = module.splitlines()
    dead = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        rest = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
        for name in names:
            if name.startswith("__"):
                continue
            word = re.compile(r"\b%s\b" % re.escape(name))
            if not any(word.search(text) for text in [rest] + other_sources):
                dead.append("%s (line %d)" % (name, node.lineno))
    return dead


def test_no_dead_definitions():
    sources = {path: path.read_text() for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    dead = {}
    for path in sorted(SRC.glob("*.py")):
        others = [text for other, text in sources.items() if other != path]
        found = dead_definitions(sources[path], others)
        if found:
            dead[path.name] = found
    assert dead == {}


def test_a_dead_definition_is_found():
    module = ("LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
              "def unused(n):\n    return unused(n - 1) if n else used()\n")
    assert dead_definitions(module, ["used()"]) == ["unused (line 8)"]
    assert dead_definitions(module, ["used(); unused(2)"]) == []


def test_the_package_imports_no_numpy():
    # numpy's import costs about 0.1 s of every process start, and no
    # starklab module names it: it is a test dependency only
    code = "import starklab.cli, sys; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
    assert [p.name for p in sorted(SRC.glob("*.py")) if "numpy" in p.read_text()] == []
