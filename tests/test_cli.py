import json
import os
import pathlib
import subprocess
import sys

import pytest

import twistcheck

from twistcheck import cli
from twistcheck import scenarios as sc

TORUS_FILE = """
[faces]
a b a' b'

[curves]
S = a
b = b

[involutions]
c = (b b')

[scenario]
description = torus scenario file
s = S
involution = c
q = b
n = b
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSurfaceVerbs:
    def test_hf_builtin(self, capsys):
        code, out, _ = run(capsys, "hf", "genus2")
        assert code == 0
        assert "0: 2, 1: 4" in out

    def test_verify_theorem_a(self, capsys):
        code, out, _ = run(capsys, "verify-theorem-a", "genus2")
        assert code == 0
        assert "overall: pass" in out

    def test_element_a_structured(self, capsys):
        code, out, _ = run(capsys, "element-a", "genus3",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["data"]["a"] == [1, 1]
        assert payload["passed"] is True

    def test_involution_matrix(self, capsys):
        code, out, _ = run(capsys, "involution", "genus2",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["data"]["c_star"]["0"] == [[0, 1], [1, 0]]

    def test_les_check(self, capsys):
        code, out, _ = run(capsys, "les-check", "torus-les")
        assert code == 0
        assert "rank_sequence" in out

    def test_twist_prints_new_curve(self, capsys):
        code, out, _ = run(capsys, "twist", "torus", "--curve", "b",
                           "--power", "1")
        assert code == 0
        assert "twisted" in out

    def test_cut_and_cohomology(self, capsys):
        code, out, _ = run(capsys, "cut", "genus2")
        assert code == 0 and "euler: -1" in out
        code, out, _ = run(capsys, "cohomology", "torus")
        assert code == 0 and "0: 1, 1: 2, 2: 1" in out

    def test_structured_output_parses_as_report(self, capsys):
        code, out, _ = run(capsys, "les-check", "torus-les",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(payload["verdicts"].values())


class TestInputsAndFlags:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "torus.scn"
        path.write_text(TORUS_FILE)
        code, out, _ = run(capsys, "verify-theorem-a", str(path))
        assert code == 0
        assert "torus scenario file" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "hf", "no-such-input")
        assert code == 2
        assert "error" in err

    def test_bad_file_cites_location(self, capsys, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("[faces]\na b c\n")
        code, _, err = run(capsys, "hf", str(path))
        assert code == 2
        assert "line 2" in err

    def test_out_flag(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "hf", "torus", "--format", "structured",
                           "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["passed"] is True

    def test_subdivide_allowed_for_hf(self, capsys):
        code, out, _ = run(capsys, "hf", "genus2", "--subdivide", "1")
        assert code == 0
        assert "0: 2, 1: 4" in out

    def test_subdivide_rejected_for_involution_verbs(self, capsys):
        for verb in ("involution", "verify-theorem-a"):
            code, _, err = run(capsys, verb, "genus2", "--subdivide", "1")
            assert code == 2
            assert "subdivide" in err

    def test_negative_subdivide_rejected(self, capsys):
        code, _, err = run(capsys, "hf", "torus", "--subdivide", "-1")
        assert code == 2

    def test_unknown_twist_curve(self, capsys):
        code, _, err = run(capsys, "twist", "torus", "--curve", "zz")
        assert code == 2
        assert "unknown curve" in err

    def test_twist_contractible_s_exits_2(self, capsys, tmp_path):
        # S bounds one square of the 4-by-4 grid torus
        faces = "\n".join(" ".join(w) for w in
                          sc.grid_torus(4).face_words_symbols())
        path = tmp_path / "square.scn"
        path.write_text(f"[faces]\n{faces}\n\n[curves]\n"
                        "S = h0_0 v1_0 h0_1' v0_0'\n"
                        "N = v2_0 v2_1 v2_2 v2_3\n\n"
                        "[scenario]\ns = S\nn = N\n")
        code, out, err = run(capsys, "twist", str(path))
        assert code == 2
        assert out == ""
        assert err == ("twistcheck: error: the twist curve S must be "
                       "noncontractible\n")

    def test_disconnected_surface_cites_location(self, capsys, tmp_path):
        path = tmp_path / "two-tori.scn"
        path.write_text("[faces]\na b a' b'\nc d c' d'\n\n[curves]\n"
                        "S = a\n\n[scenario]\ns = S\n")
        code, out, err = run(capsys, "hf", str(path))
        assert code == 2
        assert out == ""
        assert err == (f"twistcheck: error: {path}: line 2, column 1: "
                       "invalid surface: the face words describe a "
                       "disconnected surface\n")

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "torus"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("verb", cli.SURFACE_VERBS)
    def test_seed_is_not_a_surface_option(self, capsys, verb):
        # only verify-model samples anything
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, "torus", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestVerifyModel:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify-model", "--check", "lemma",
                           "--dim", "1", "--samples", "200")
        assert code == 0
        assert "[pass] lemma" in out

    def test_structured_residuals(self, capsys):
        code, out, _ = run(capsys, "verify-model", "--check", "twist",
                           "--dim", "1", "--samples", "200",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["twist"] is True
        assert payload["residuals"][0]["tolerance"] == 1e-5

    def test_admissible_profile_flag(self, capsys):
        code, out, _ = run(capsys, "verify-model", "--check", "handle",
                           "--dim", "1", "--samples", "200",
                           "--lambda", "1.5")
        assert code == 0
        assert "profile=admissible" in out

    @pytest.mark.parametrize("check", ["twist", "splitting", "all"])
    @pytest.mark.parametrize("eps", ["1e5", "1e8", "1e7", "1e12"])
    def test_large_epsilon_model_passes(self, capsys, check, eps):
        # fiber chart coordinates and rounding grow like epsilon; the
        # symplectic residual rescales the charts, so a fixed difference
        # step still resolves a correct model, and the other fiber
        # deviations are divided by max(1, |p|)
        code, out, _ = run(capsys, "verify-model", "--check", check,
                           "--lambda", "1.0", "--epsilon", eps,
                           "--dim", "2", "--samples", "200")
        assert code == 0, out
        assert "overall: pass" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify-model", "--check", "twist",
                           "--dim", "1", "--samples", "200",
                           "--tolerance", "0")
        assert code == 1
        assert "overall: FAIL" in out

    # "-inf" and "-1e5" do not look like negative numbers to argparse
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "-1e5"])
    def test_meaningless_tolerance_rejected(self, capsys, tol):
        code, out, err = run(capsys, "verify-model", "--check", "twist",
                             "--dim", "1", "--samples", "200",
                             "--tolerance", tol)
        assert code == 2
        assert out == ""
        assert err == ("twistcheck: error: --tolerance must be a finite "
                       "number >= 0\n")

    @pytest.mark.parametrize("eps", ["0", "nan", "inf", "1e308", "1e151",
                                     "-1e5", "-inf"])
    def test_unsampleable_epsilon_rejected(self, capsys, eps):
        # inf and 1e308 overflow numpy's uniform draw, and from about
        # 1.3e154 the squared radius of the handle samples overflows
        code, out, err = run(capsys, "verify-model", "--check", "twist",
                             "--samples", "50", "--epsilon", eps)
        assert code == 2
        assert out == ""
        assert err == ("twistcheck: error: --epsilon must be a number > 0 "
                       "and <= 1e150\n")

    def test_largest_epsilon_runs(self, capsys):
        # the Dehn profile stops at epsilon = pi; an admissible one takes
        # any epsilon
        code, out, _ = run(capsys, "verify-model", "--check", "all",
                           "--dim", "1", "--samples", "20",
                           "--epsilon", "1e150", "--lambda", "1.0",
                           "--format", "structured")
        # fiber deviations are scaled by max(1, |p|), so the residuals
        # stay finite and small and a correct model passes
        assert code == 0, out
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(v is not None for r in doc["residuals"]
                   for v in r["residuals"].values())

    def test_dehn_epsilon_past_pi_rejected(self, capsys):
        code, out, err = run(capsys, "verify-model", "--check", "twist",
                             "--samples", "50", "--epsilon", "3.5")
        assert code == 2
        assert out == ""
        assert err.startswith("twistcheck: error: ")
        assert "epsilon" in err and "pi" in err

    def test_bad_profile_parameters(self, capsys):
        code, _, err = run(capsys, "verify-model", "--check", "lemma",
                           "--dim", "1", "--samples", "50",
                           "--lambda", "5.0")
        assert code == 2
        assert "lam" in err or "profile" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_samples_rejected(self, capsys, count):
        code, _, err = run(capsys, "verify-model", "--check", "lemma",
                           "--samples", count)
        assert code == 2
        assert err == "twistcheck: error: --samples must be at least 1\n"

    def test_seed_changes_the_samples(self, capsys):
        outs = []
        for seed in ("0", "3", "3"):
            code, out, _ = run(capsys, "verify-model", "--check", "lemma",
                               "--dim", "2", "--samples", "200", "--seed",
                               seed, "--format", "structured")
            assert code == 0
            outs.append(json.loads(out))
        assert outs[1]["residuals"][0]["details"]["seed"] == 3
        assert outs[1] == outs[2]
        assert outs[0]["residuals"] != outs[1]["residuals"]

    @pytest.mark.parametrize("count", [5, 1039])
    def test_suspension_reports_requested_samples(self, capsys, count):
        # the samples are split over 20 time slices, not rounded to a
        # multiple of 20
        code, out, _ = run(capsys, "verify-model", "--check", "suspension",
                           "--dim", "1", "--samples", str(count),
                           "--format", "structured")
        assert code == 0
        assert json.loads(out)["residuals"][0]["samples"] == count

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB only on Linux")
    def test_peak_memory_bounded(self):
        # the child reports its own peak RSS; evaluating in row blocks
        # keeps it far below the ~240 MiB that whole-batch Jacobians of
        # 100k samples took
        src = pathlib.Path(twistcheck.__file__).resolve().parents[1]
        child = ("import os, resource\n"
                 "from twistcheck import cli\n"
                 "code = cli.main(['verify-model', '--check', 'all', "
                 "'--dim', '3', '--samples', '100000', '--out', os.devnull])\n"
                 "print(code, resource.getrusage(resource.RUSAGE_SELF)"
                 ".ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, check=True)
        code, maxrss_kib = map(int, out.stdout.split())
        assert code == 0
        assert maxrss_kib / 1024 < 128
