"""Byte-for-byte contract on structured reports.

Each case runs one CLI verb on a built-in scenario with
``--format structured`` and compares the report with the file committed
under tests/golden/.  A refactor or optimisation must leave every file
unchanged.  After an intended report change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

The verify-model cases pin every floating-point operation of the model
verifiers: a structured report prints each residual at full precision.
Their sample count spans more than one evaluation block of
twistcheck.modelgeo, ending in a partial block.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from twistcheck import cli
from twistcheck.scenarios import BUILDERS

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Verbs that accept --subdivide run on every scenario at levels 0-2.  The
# rest refuse refinement (involution verbs) or need curves only some
# scenarios carry, so they run unrefined where the scenario provides
# what they need.
CASES = ([(verb, name, n)
          for verb in ("hf", "cohomology", "cut", "element-a")
          for name in sorted(BUILDERS) for n in (0, 1, 2)]
         + [(verb, name, 0)
            for verb in ("involution", "verify-theorem-a")
            for name in ("genus2", "genus3", "torus")]
         + [(verb, name, 0)
            for verb in ("les-check", "twist")
            for name in ("genus2-crossing", "torus-les")])

# Cases with flags beyond --subdivide: (verb, scenario, subdivide, extra
# flags).  Refined twists print the x.i part names of subdivided edges;
# negative and positive powers walk both shears of the twisted strand and
# both directions of the crossing; refined LES checks tighten bigons on
# refined surfaces.
LES_SCENARIOS = ("genus2-crossing", "torus-les")
EXTRA_CASES = ([(verb, name, n, ())
                for verb in ("twist", "les-check")
                for name in LES_SCENARIOS for n in (1, 2)]
               + [("twist", name, 0, ("--power", power))
                  for name in LES_SCENARIOS for power in ("-2", "3")])

# verify-model cases: (kind, dim, extra flags, exit status).  An admissible
# profile has nu(0) = lambda < pi and does not extend over the zero
# section, so its twist report has no zero-section residuals and passes.
MODEL_CASES = ([(kind, dim, (), 0) for kind in ("id", "r") for dim in (2, 3)]
               + [("r", 3, ("--lambda", "1.0"), 0)])
MODEL_SAMPLES = 20000
MODEL_SEED = 7


def flag_tail(extra) -> str:
    return "".join(f"--{flag.lstrip('-')}{value}"
                   for flag, value in zip(extra[::2], extra[1::2]))


def golden_path(verb: str, name: str, subdivide: int,
                extra=()) -> pathlib.Path:
    return GOLDEN / f"{verb}--{name}--s{subdivide}{flag_tail(extra)}.json"


def write_report(verb: str, name: str, subdivide: int, out,
                 extra=()) -> int:
    return cli.main([verb, name, "--subdivide", str(subdivide), *extra,
                     "--format", "structured", "--out", str(out)])


def model_golden_path(kind: str, dim: int, extra) -> pathlib.Path:
    return GOLDEN / f"verify-model--{kind}--d{dim}{flag_tail(extra)}.json"


def write_model_report(kind: str, dim: int, extra, out) -> int:
    return cli.main(["verify-model", "--check", "all", "--kind", kind,
                     "--dim", str(dim), "--samples", str(MODEL_SAMPLES),
                     "--seed", str(MODEL_SEED), *extra,
                     "--format", "structured", "--out", str(out)])


@pytest.mark.parametrize("verb,name,subdivide", CASES)
def test_report_bytes_unchanged(verb, name, subdivide, tmp_path):
    out = tmp_path / "report.json"
    assert write_report(verb, name, subdivide, out) == 0
    assert out.read_bytes() == golden_path(verb, name, subdivide).read_bytes()


@pytest.mark.parametrize(
    "verb,name,subdivide,extra", EXTRA_CASES,
    ids=[golden_path(*case).stem for case in EXTRA_CASES])
def test_extra_flag_report_bytes_unchanged(verb, name, subdivide, extra,
                                           tmp_path):
    out = tmp_path / "report.json"
    assert write_report(verb, name, subdivide, out, extra) == 0
    assert out.read_bytes() == \
        golden_path(verb, name, subdivide, extra).read_bytes()


@pytest.mark.parametrize(
    "kind,dim,extra,status", MODEL_CASES,
    ids=[model_golden_path(*case[:3]).stem for case in MODEL_CASES])
def test_model_report_bytes_unchanged(kind, dim, extra, status, tmp_path):
    out = tmp_path / "report.json"
    assert write_model_report(kind, dim, extra, out) == status
    assert out.read_bytes() == model_golden_path(kind, dim, extra).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        if write_report(*case, golden_path(*case)) != 0:
            sys.exit(f"no passing report for {case}")
    for *case, extra in EXTRA_CASES:
        if write_report(*case, golden_path(*case, extra), extra) != 0:
            sys.exit(f"no passing report for {case} {extra}")
    for *case, status in MODEL_CASES:
        if write_model_report(*case, model_golden_path(*case)) != status:
            sys.exit(f"unexpected exit status for verify-model {case}")
