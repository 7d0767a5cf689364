"""Smoke test: every script in scripts/ runs to completion at a tiny size."""

import os
import pathlib
import subprocess
import sys

import pytest

import twistcheck

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args", [
    ("les_random_audit.py", ["--count", "3", "--seed", "1"]),
    ("model_residual_table.py", ["--samples", "200", "--dims", "1", "2"]),
    ("slope_rank_table.py", ["--grid", "5", "--max-power", "2"]),
])
def test_script_runs(script, args):
    src = pathlib.Path(twistcheck.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip()
