"""Every name a module of the package imports is used in that module.

An import kept for an outside reader (the benchmark's tracer looks some
names up in the module that uses them) is marked ``# noqa: F401`` on
its first line, and only such lines are exempt.  A name counts as used
when the module reads it, or when ``__all__`` lists it.
"""

import ast
from pathlib import Path

import pytest

import meanforge

PACKAGE = Path(meanforge.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = ("from .linalg import (random_complex,  # used\n"
              "                     random_hpd)\n"
              "from .norms import ky_fan  # noqa: F401\n"
              "import numpy as np\n"
              "__all__ = ['random_hpd']\n"
              "x = np.zeros(random_complex)\n")
    assert unused_imports(source) == []
    assert unused_imports(source.replace("random_complex)", "1)")) == [
        "random_complex (line 1)"]
    assert unused_imports(source + "import math\n") == ["math (line 7)"]
