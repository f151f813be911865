"""The demos run to completion.

Each demo runs as a script in a child process, from a copy of the demos
(and of the shipped scenario that one of them reads) under a temporary
directory, so its ``out`` directory lands there and not in the checkout.
One BLAS thread keeps the child's timing and memory small; each demo takes
a few seconds.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would parametrize no test_demo_runs at all
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    (tmp_path / "demos").mkdir()
    shutil.copy(ROOT / "demos" / name, tmp_path / "demos" / name)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("OBPB_OUTPUT_ROOT", None)
    done = subprocess.run([sys.executable, str(tmp_path / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
