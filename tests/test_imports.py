"""Every name a module of src/qasr imports is used: referenced in the module
or listed in its __all__, and no demo or benchmark script imports a
private (underscore-prefixed) name from qasr. No linter ships with the
project, so these scans keep unused and private imports out. The package
imports nothing but the standard library and numpy, its one runtime
dependency: an import scan and a fresh interpreter check that."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qasr"
MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


def private_imports(source: str) -> list:
    """Dotted names, in source order, of what the source imports from qasr
    that is private: an underscore-prefixed module or name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names += [f"{node.module}.{a.name}" for a in node.names]
    parts = [n.split(".") for n in names]
    return [".".join(p) for p in parts if p[0] == "qasr" and any(q.startswith("_") for q in p)]


def test_the_private_scan_finds_what_it_should():
    source = (
        "import numpy._core\n"
        "import qasr.engine, qasr._hidden\n"
        "from qasr.toy import ToySpec, _random_layer as layer\n"
        "from qasr._hidden import thing\n"
        "from numpy import _globals\n"
    )
    assert private_imports(source) == [
        "qasr._hidden", "qasr.toy._random_layer", "qasr._hidden.thing",
    ]


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.relative_to(ROOT).as_posix() for p in SCRIPTS])
def test_no_private_imports_from_qasr(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


# what a module of src/qasr may import: pyproject.toml's runtime dependencies
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "qasr"}


def foreign_imports(source: str) -> list:
    """Top-level packages, sorted, that the source imports absolutely and
    that are neither the standard library, numpy nor qasr."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return sorted(names - RUNTIME)


def test_the_runtime_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "import scipy.io.wavfile\n"
        "from . import quant\n"
        "from qasr.rnn import build_lut\n"
        "def f():\n"
        "    from hypothesis import given\n"
    )
    assert foreign_imports(source) == ["hypothesis", "scipy"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]] == ["numpy"]


def test_importing_every_module_leaves_scipy_out():
    names = ", ".join(f"qasr.{p.stem}" for p in MODULES if p.stem not in ("__init__", "__main__"))
    code = f"import sys, {names}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
