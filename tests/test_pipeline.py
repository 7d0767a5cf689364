import numpy as np
import pytest

from twistcheck import cli
from twistcheck import floer as fl
from twistcheck import gf2 as g
from twistcheck import pipeline as pl
from twistcheck import report as rp
from twistcheck import scenarios as sc
from twistcheck import surface as sf


@pytest.fixture
def cut_surfaces(monkeypatch):
    """The surface of every cut_along call, in call order."""
    seen = []
    real = sf.cut_along

    def recording(surface, curves):
        seen.append(surface)
        return real(surface, curves)

    monkeypatch.setattr(sf, "cut_along", recording)
    monkeypatch.setattr(fl, "cut_along", recording)
    return seen


def all_corpus():
    scens = [b() for b in sc.BUILDERS.values()]
    scens.append(sc.genus2_scenario(component_preserving=True))
    return scens


class TestHfInverseTwist:
    def test_torus_ranks(self):
        dims, cut = pl.hf_inverse_twist(sc.torus_scenario())
        assert dims.dims == {0: 1, 1: 1}
        assert len(cut.components) == 1

    def test_genus2_ranks(self):
        dims, cut = pl.hf_inverse_twist(sc.genus2_scenario())
        assert dims.dims == {0: 2, 1: 4}
        assert len(cut.components) == 2

    def test_genus3_ranks(self):
        dims, _ = pl.hf_inverse_twist(sc.genus3_scenario())
        assert dims[0] == 2
        assert dims.dims == {0: 2, 1: 6}

    def test_contractible_s_rejected(self):
        s = sc.grid_torus(4)
        square = sc.grid_path_curve(
            s, 4, [(0, 0), (1, 0), (1, 1), (0, 1)], "sq")
        scen = sc.TwistScenario(s, "bad", square)
        with pytest.raises(pl.PipelineError):
            pl.hf_inverse_twist(scen)


class TestDistinguishedElement:
    def test_all_ones_per_scenario(self):
        for scen in all_corpus():
            a = pl.distinguished_element(scen)
            assert a.vector.all()
            _, cut = pl.hf_inverse_twist(scen)
            assert len(a.vector) == len(cut.components)

    def test_zero_vector_rejected(self):
        with pytest.raises(pl.PipelineError):
            pl.AClass(np.zeros(2, dtype=np.uint8))

    def test_genus2_value(self):
        assert pl.distinguished_element(sc.genus2_scenario()).as_list() \
            == [1, 1]


class TestInvolutionAction:
    def test_genus2_swap_matrix(self):
        ind = pl.involution_action(sc.genus2_scenario())
        assert ind[0].tolist() == [[0, 1], [1, 0]]

    def test_genus2_component_preserving_identity(self):
        ind = pl.involution_action(
            sc.genus2_scenario(component_preserving=True))
        assert ind[0].tolist() == [[1, 0], [0, 1]]

    def test_torus_identity(self):
        ind = pl.involution_action(sc.torus_scenario())
        assert ind[0].tolist() == [[1]]

    def test_squares_to_identity_everywhere(self):
        for scen in all_corpus():
            if scen.involution is None:
                continue
            for m in pl.involution_action(scen).values():
                n = m.shape[0]
                assert ((m @ m) % 2 == np.eye(n, dtype=np.uint8)).all()

    def test_missing_involution_rejected(self):
        with pytest.raises(pl.PipelineError):
            pl.involution_action(sc.genus2_crossing_scenario())


class TestTheoremA:
    def test_corpus_passes(self):
        for scen in all_corpus():
            if scen.involution is None:
                continue
            rep = pl.verify_theorem_A(scen)
            assert rep.passed, scen.description
            assert set(rep.verdicts) == {
                "a_nonzero", "c_star_fixes_a", "degree0_is_permutation",
                "c_star_squares_to_identity"}

    def test_randomized_presentations(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            scen = sc.randomized_scenario(rng)
            assert pl.verify_theorem_A(scen).passed, scen.description

    def test_homology_eliminated_once_per_complex_and_degree(self,
                                                            monkeypatch):
        # ranks, c* and the induced map share one complex of the cut, so
        # its homology bases are eliminated once per degree
        calls = []
        rref = g.rref

        def counted(*args):
            calls.append(args)
            return rref(*args)

        monkeypatch.setattr(g, "rref", counted)
        assert pl.verify_theorem_A(sc.genus2_scenario()).passed
        assert len(calls) <= 8

    def test_verdicts_recomputable_from_data(self):
        # recomputation oracle: every verdict follows from the stored
        # payload alone
        rep = rp.parse(rp.serialize(pl.verify_theorem_A(
            sc.genus2_scenario())))
        a = np.array(rep.data["a"], dtype=np.uint8)
        m0 = np.array(rep.data["c_star"]["0"], dtype=np.uint8)
        assert rep.verdicts["a_nonzero"] == bool(a.any())
        assert rep.verdicts["c_star_fixes_a"] == bool(
            ((m0 @ a) % 2 == a).all())
        assert rep.verdicts["degree0_is_permutation"] == bool(
            (m0.sum(axis=0) == 1).all() and (m0.sum(axis=1) == 1).all())
        got = all(
            ((np.array(m, dtype=np.uint8) @ np.array(m, dtype=np.uint8))
             % 2 == np.eye(len(m), dtype=np.uint8)).all()
            for m in rep.data["c_star"].values() if len(m))
        assert rep.verdicts["c_star_squares_to_identity"] == got


def _convolve(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


class TestLesRankCheck:
    def test_torus_les_values(self):
        rep = pl.les_rank_check(sc.torus_les_scenario())
        assert rep.passed
        assert (rep.data["r1"], rep.data["r2"], rep.data["r3"]) == (1, 2, 1)
        assert rep.data["rank_sequence"] == [2, 1]

    def test_genus2_crossing_passes(self):
        rep = pl.les_rank_check(sc.genus2_crossing_scenario())
        assert rep.passed
        # Q is disjoint from S, so the outer term vanishes and the rank
        # is forced to stay put
        assert rep.data["r1"] == 0
        assert rep.data["r3"] == rep.data["r2"]

    def test_r1_is_kunneth_convolution(self):
        rep = pl.les_rank_check(sc.torus_les_scenario())
        sn = {int(k): v for k, v in rep.data["hf_S_N"].items()}
        qs = {int(k): v for k, v in rep.data["hf_Q_S"].items()}
        r1 = {int(k): v for k, v in rep.data["r1_graded"].items()}
        assert _convolve(sn, qs) == r1

    def test_zero_power_keeps_n(self):
        scen = sc.torus_les_scenario()
        scen.twist_power = 0
        rep = pl.les_rank_check(scen)
        assert rep.passed
        assert rep.data["twisted"] == "unchanged"
        assert rep.data["r3"] == rep.data["r2"]

    def test_higher_powers_step_through_triangles(self):
        scen = sc.torus_les_scenario()
        scen.twist_power = 3
        rep = pl.les_rank_check(scen)
        assert rep.passed
        assert len(rep.data["rank_sequence"]) == 4
        # (0,1) against (j,1): rank grows by one per twist after the
        # self-Floer start
        assert rep.data["rank_sequence"] == [2, 1, 2, 3]

    def test_missing_curves_rejected(self):
        with pytest.raises(pl.PipelineError):
            pl.les_rank_check(sc.torus_scenario())

    def test_contractible_test_curve_rejected(self):
        s = sc.grid_torus(4)
        scen = sc.TwistScenario(
            s, "bad", sc.grid_row(s, 4, 0),
            q_curve=sc.grid_path_curve(
                s, 4, [(0, 2), (1, 2), (1, 3), (0, 3)], "sq"),
            n_curve=sc.grid_col(s, 4, 2))
        with pytest.raises(pl.PipelineError):
            pl.les_rank_check(scen)

    def test_random_torus_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scen = sc.random_torus_les_scenario(rng)
            rep = pl.les_rank_check(scen)
            assert rep.passed, (scen.description, rep.data)

    def test_parity_identity_random(self):
        # chi2 additivity per step, checked against the raw data
        rng = np.random.default_rng(99)
        for _ in range(20):
            scen = sc.random_torus_les_scenario(rng)
            rep = pl.les_rank_check(scen)
            seq = rep.data["rank_sequence"]
            r1 = rep.data["r1"]
            for a, b in zip(seq, seq[1:]):
                assert (a + b + r1) % 2 == 0, rep.data


class TestReports:
    def test_round_trip(self):
        rep = pl.verify_theorem_A(sc.genus2_scenario())
        assert rp.parse(rp.serialize(rep)) == rep

    def test_deterministic_serialization(self):
        a = rp.serialize(pl.les_rank_check(sc.torus_les_scenario()))
        b = rp.serialize(pl.les_rank_check(sc.torus_les_scenario()))
        assert a == b

    def test_tampered_verdict_rejected(self):
        text = rp.serialize(pl.verify_theorem_A(sc.torus_scenario()))
        bad = text.replace('"passed": true', '"passed": false')
        with pytest.raises(rp.ReportError):
            rp.parse(bad)

    def test_table_format_mentions_verdicts(self):
        rep = pl.verify_theorem_A(sc.torus_scenario())
        table = rp.format_table(rep)
        assert "[pass] c_star_fixes_a" in table
        assert table.strip().endswith("overall: pass")

    def test_unknown_format_rejected(self):
        with pytest.raises(rp.ReportError):
            rp.emit_report(pl.verify_theorem_A(sc.torus_scenario()), "xml")

    def test_structured_is_json_native(self):
        import json
        rep = pl.les_rank_check(sc.genus2_crossing_scenario())
        payload = json.loads(rp.serialize(rep))
        assert payload["passed"] is True


class TestSubdivisionInvariance:
    def test_hf_ranks_stable_under_refinement(self):
        scen = sc.genus2_scenario()
        new, emap = scen.surface.refined(1)
        s2 = scen.s_curve.mapped(new, emap, "S")
        refined = sc.TwistScenario(new, "refined", s2)
        dims, _ = pl.hf_inverse_twist(refined)
        assert dims.dims == {0: 2, 1: 4}


class TestOneCut:
    def test_hf_cuts_once(self, cut_surfaces):
        for scen in all_corpus():
            cut_surfaces.clear()
            pl.hf_inverse_twist(scen)
            assert len(cut_surfaces) == 1, scen.description
            assert cut_surfaces[0] is scen.surface

    def test_theorem_a_cuts_once(self, cut_surfaces):
        for scen in all_corpus():
            if scen.involution is None:
                continue
            cut_surfaces.clear()
            assert pl.verify_theorem_A(scen).passed
            assert len(cut_surfaces) == 1, scen.description
            assert cut_surfaces[0] is scen.surface

    @pytest.mark.parametrize("k", [5, -5])
    def test_les_check_cuts_only_the_input_surface(self, cut_surfaces, k):
        scen = sc.torus_les_scenario()
        scen.twist_power = k
        assert pl.les_rank_check(scen).passed
        assert 1 <= len(cut_surfaces) <= 4
        assert all(s is scen.surface for s in cut_surfaces)

    def test_twist_verb_cuts_once(self, cut_surfaces):
        assert cli.main(["twist", "torus-les"]) == 0
        assert len(cut_surfaces) == 1
