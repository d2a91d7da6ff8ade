"""Every imported name is read by the module that imports it.

No linter ships with the project, so this reads each module of the package
and of the tests with ``ast``: a name bound by an import and never loaded,
nor listed in ``__all__``, is reported.  An import kept on purpose (a binding
another module looks up) says so with ``# noqa: F401`` on its statement.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hyperpart").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names the imports of ``source`` bind that nothing reads, each as
    ``"line: name"``, skipping imports marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda b: b[1]) if name not in read]


def test_the_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from math import comb, gcd  # noqa: F401\n"
        "from itertools import (\n    chain,\n    count,  # noqa: F401\n)\n"
        "from re import compile as rx\n"
        "__all__ = ['rx']\n"
        "def f(x: Sequence) -> None:\n    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["2: os", "2: osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
