"""Smoke tests: each script under demos/ runs to completion and prints."""

import os
import pathlib
import subprocess
import sys

import pytest

from fibstat import cli

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    # a child interpreter importing the same package as the tests, installed
    # or not, run from an empty directory so a demo writes nothing here
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
