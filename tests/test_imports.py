"""Import hygiene: every name a starklab module imports is used in it.

The package's __init__ re-exports what it imports, so it is not checked.  An
import line marked `noqa` is kept on purpose and skipped."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "starklab"


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
