"""Every imported name is read by the module that imports it, every private
helper of the package is referenced by the package, and every name the
benchmark's tracer wraps exists.

No linter ships with the project, so this reads each module of the package
and of the tests with ``ast``: a name bound by an import and never loaded,
nor listed in ``__all__``, is reported.  An import kept on purpose (a binding
another module looks up) says so with ``# noqa: F401`` on its statement.  A
private module-level function or class of ``src/hyperpart`` that no module
there references outside its own body is reported too, as it is dead code
or kept only for the tests; the ``cli._cmd_*`` subcommand bodies, which
``main`` looks up by name, are exempt.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
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


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of ``sources`` (module
    name -> source) that no module references outside the definition's own
    body, by a name, an attribute or an import, each as
    ``"module.name"``; ``cli._cmd_*`` is exempt."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [
        f"{module}.{name}" for module, name in defined
        if name not in referenced and not (module == "cli" and name.startswith("_cmd_"))
    ]


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


def test_the_private_helper_scan_finds_what_it_should():
    sources = {
        "a": (
            "def _used_here(): pass\n"
            "def _recursive_only(n): return _recursive_only(n - 1)\n"
            "class _Unused: pass\n"
            "def __dunder__(): pass\n"
            "def public(): return _used_here()\n"
            "def _imported(): pass\n"
            "def _as_attribute(): pass\n"
        ),
        "b": "from .a import _imported\nimport a\nx = a._as_attribute\n",
        "cli": "def _cmd_run(args): pass\ndef _unused_in_cli(): pass\n",
    }
    assert unreferenced_private_defs(sources) == [
        "a._recursive_only", "a._Unused", "cli._unused_in_cli",
    ]


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "hyperpart").glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def _load_tracer():
    """``perfbench/tracer.py``, loaded by path: the benchmark's per-layer
    spans wrap package functions by name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_wraps_names_that_exist_and_restores_them():
    """Every function the benchmark's tracer wraps is still there, and
    installing then uninstalling the tracer leaves every attribute of every
    ``hyperpart`` module, and of the classes it wraps methods on, as it was."""
    tracer = _load_tracer()
    for owner, attr, _, _ in tracer._TARGETS:
        assert hasattr(owner, attr), (owner, attr)
    holders = [m for key, m in sys.modules.items() if key == "hyperpart" or key.startswith("hyperpart.")]
    holders += [owner for owner, *_ in tracer._TARGETS if isinstance(owner, type)]
    before = [(holder, dict(vars(holder))) for holder in holders]
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    for holder, attrs in before:
        after = dict(vars(holder))
        assert after.keys() == attrs.keys(), holder
        assert all(after[key] is value for key, value in attrs.items()), holder
