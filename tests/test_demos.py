"""Smoke test: every narrative demo in demos/ and the README's library
quick start run to completion.

Each runs in a fresh interpreter inside a temporary directory, so any
plot it saves lands there; the subprocess imports the same meijergap
sources as the test suite.  RuntimeWarnings are errors there, so a numpy
overflow or invalid-value warning fails the run; other warnings (from an
optional plotting library, say) do not.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meijergap
from meijergap import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(meijergap.__file__).resolve().parent.parent)


def _run_python(args, cwd):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path, capsys):
    """The python block under "Library quick start" runs, and the ln det on
    its last line is the one ``meijergap det --s 8 --nodes 100`` prints."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    log_det = float(proc.stdout.splitlines()[-1].split()[0])
    flags = ["--r", "3", "--q", "2", "--nu", "1.31,2.15,3.19", "--mu", "1.87,2.61", "--s", "8", "--nodes", "100"]
    assert cli.main(["det", *flags]) == 0
    assert cli._fmt(math.exp(log_det)) == capsys.readouterr().out.strip()
