"""Every name a module of src/qasr imports is used: referenced in the module
or listed in its __all__. No linter ships with the project, so this scan
keeps unused imports out."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qasr"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import that the module neither references nor
    exports, sorted; __future__ imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: Optional[int]):\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
