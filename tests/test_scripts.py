"""Smoke test: every script in scripts/ runs to completion at a tiny size."""

import os
import pathlib
import subprocess
import sys

import pytest

import twistcheck

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("script,args", [
    ("les_random_audit.py", ["--count", "3", "--seed", "1"]),
    ("model_residual_table.py", ["--samples", "200", "--dims", "1", "2"]),
    ("slope_rank_table.py", ["--grid", "5", "--max-power", "2"]),
])
def test_script_runs(script, args):
    out = run_script(script, args)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip()


@pytest.mark.parametrize("eps", ["4", "0", "-1", "nan"])
def test_residual_table_rejects_epsilon_outside_dehn_range(eps):
    # the Dehn profile needs 0 < epsilon <= pi: a usage error, no
    # traceback
    out = run_script("model_residual_table.py",
                     ["--samples", "20", "--dims", "1", "--epsilon", eps])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.endswith(
        "error: --epsilon must be a number > 0 and <= pi\n")
    assert "Traceback" not in out.stderr


def test_les_audit_output_unchanged():
    # the histogram of rank sequences over 200 random LES triples, byte
    # for byte
    out = run_script("les_random_audit.py", ["--count", "200", "--seed", "0"])
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.encode() == \
        (GOLDEN / "les-random-audit--count200--seed0.txt").read_bytes()


def run_script(script, args):
    src = pathlib.Path(twistcheck.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
