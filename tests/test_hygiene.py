"""No module of momentlab imports a name it never reads: a deletion that
leaves its import behind fails here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "momentlab"


def unused_imports(source: str) -> list:
    """(line, name) of every name `source` binds by an import and never
    reads. Names listed in __all__, imports from __future__ and imports
    marked `# noqa: F401` on one of their lines are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_import_left_behind():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from os import path, sep  # noqa: F401\n"
              "from typing import Optional, NamedTuple\n"
              "__all__ = ['Optional']\n"
              "def f(x: np.ndarray) -> float:\n"
              "    return x\n")
    assert unused_imports(source) == [(2, "math"), (5, "NamedTuple")]
