"""Smoke test: every narrative demo in demos/ runs to completion.

Each demo runs in a fresh interpreter inside a temporary directory, so any
plot it saves lands there; the subprocess imports the same meijergap
sources as the test suite.  RuntimeWarnings are errors there, so a numpy
overflow or invalid-value warning fails the demo; other warnings (from an
optional plotting library, say) do not.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import meijergap

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(meijergap.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
