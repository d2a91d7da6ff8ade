"""The README's documented library example runs as printed."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines()[0] == "7"


def _hyperpart(*argv: str) -> subprocess.CompletedProcess:
    """``python -m hyperpart`` in a fresh process, with ``src`` importable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hyperpart", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_readme_cli_example_runs_as_a_process():
    command = "formulas --dim 2 --colors 3"
    printed = README.read_text().split(f"$ hyperpart {command}\n", 1)[1].split("\n\n", 1)[0]
    run = _hyperpart(*command.split())
    assert (run.returncode, run.stdout) == (0, printed + "\n")
    assert _hyperpart("formulas", "--dim", "2", "--colors", "1").returncode == 1
