"""Every walkthrough under demos/ runs to completion and prints its recorded output.

The files under tests/demo_outputs/ hold each demo's stdout byte for byte; it
does not depend on PYTHONHASHSEED.  A kernel change that alters a printed
value fails here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.txt").read_bytes()
