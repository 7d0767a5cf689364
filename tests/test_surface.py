import numpy as np
import pytest

from twistcheck import cli
from twistcheck import floer as fl
from twistcheck import gf2 as g
from twistcheck import scenarios as sc
from twistcheck import surface as sf

from generators import randomized_scenario
from oracles import component_permutation, oracle_homology_ranks


def polygon_surface(genus):
    word = []
    for i in range(genus):
        word += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"]
    return sf.Surface.parse([word])


class TestBuild:
    def test_octagon_genus2(self):
        s = polygon_surface(2)
        assert s.euler() == -2
        assert (s.n_vertices, s.n_edges, s.n_faces) == (1, 4, 1)

    def test_square_torus(self):
        s = sf.Surface.parse([["a", "b", "a'", "b'"]])
        assert s.euler() == 0

    def test_nonorientable_rejected(self):
        with pytest.raises(sf.NonOrientableError):
            sf.Surface.parse([["a", "a", "b", "b'"]])

    def test_bad_edge_count_rejected(self):
        with pytest.raises(sf.NonSurfaceError):
            sf.Surface.parse([["a", "b", "a'"]])

    def test_disconnected_rejected(self):
        with pytest.raises(sf.DisconnectedError):
            sf.Surface.parse([["a", "b", "a'", "b'"], ["c", "d", "c'", "d'"]])

    def test_corpus_cell_counts(self):
        s2 = sc.genus2_scenario().surface
        assert s2.euler() == -2
        s3 = sc.genus3_scenario().surface
        assert s3.euler() == -4
        sx = sc.genus2_crossing_scenario().surface
        assert sx.euler() == -2


class TestSubdivide:
    def test_chi_invariant(self):
        s = sc.genus2_scenario().surface
        assert s.refined(1)[0].euler() == -2

    def test_strictly_finer(self):
        t1 = sf.Surface.parse([["a", "b", "a'", "b'"]]).refined(1)[0]
        t2 = sf.Surface.parse([["a", "b", "a'", "b'"]]).refined(2)[0]
        assert t1.euler() == t2.euler() == 0
        assert t2.n_edges > t1.n_edges

    def test_curve_transport(self):
        scen = sc.genus2_scenario()
        fine, parts = scen.surface.refined(1)
        S2 = scen.s_curve.mapped(fine, parts)
        assert len(S2) == 2 * len(scen.s_curve)
        cut = sf.cut_along(fine, [S2])
        assert len(cut.components) == 2


class TestDartWords:
    """Derived surfaces are built from dart words and number their edges
    by first appearance, as parsing their symbol words does."""

    @staticmethod
    def assert_canonical(s):
        p = sf.Surface.parse(s.face_words_symbols())
        assert p.words == s.words
        assert p.edge_names == s.edge_names

    @pytest.mark.parametrize("rounds", [1, 2])
    @pytest.mark.parametrize("name", sorted(sc.BUILDERS))
    def test_refined_numbering_is_canonical(self, name, rounds):
        self.assert_canonical(sc.BUILDERS[name]().surface.refined(rounds)[0])

    @pytest.mark.parametrize("k", [-3, -1, 1, 3])
    @pytest.mark.parametrize("name", ["genus2-crossing", "torus-les"])
    def test_twisted_numbering_is_canonical(self, name, k):
        scen = sc.BUILDERS[name]()
        out = fl.dehn_twist(scen.surface, scen.s_curve, k,
                            [scen.n_curve], [scen.q_curve])
        assert out.surface is not scen.surface
        self.assert_canonical(out.surface)

    def test_gapped_out_of_order_ids(self):
        # give the edges of a parsed surface scattered caller ids, spread
        # over three times the range, in shuffled order
        p = sc.genus2_crossing_scenario().surface
        rng = np.random.default_rng(4)
        ids = rng.permutation(3 * p.n_edges)[:p.n_edges].tolist()
        names = [None] * (3 * p.n_edges)
        for e, i in enumerate(ids):
            names[i] = p.edge_names[e]
        s = sf.Surface([[2 * ids[d // 2] + d % 2 for d in w]
                        for w in p.words], names)
        assert s.words == p.words and s.edge_names == p.edge_names
        assert s.rotations == p.rotations
        for a in ("phi", "phi_inv", "face_of", "vertex_of"):
            assert getattr(s, a) == getattr(p, a), a
        assert [s.renumber[i] for i in ids] == list(range(p.n_edges))
        assert s.renumber.count(-1) == 2 * p.n_edges

    def test_names_follow_first_appearance(self):
        # caller edge 5 appears first, so it becomes edge 0
        s = sf.Surface([(10, 2, 11, 3)], [None, "b", None, None, None, "a"])
        assert s.edge_names == ["a", "b"] and s.words == [(0, 2, 1, 3)]
        assert s.face_words_symbols() == [["a", "b", "a'", "b'"]]


class TestCohomology:
    def test_closed_genus_g(self):
        for genus in range(1, 6):
            h = sf.cellular_cohomology(
                sf.cut_along(polygon_surface(genus), []))
            assert h.dims == {0: 1, 1: 2 * genus, 2: 1}

    def test_genus2_cut(self):
        scen = sc.genus2_scenario()
        cut = sf.cut_along(scen.surface, [scen.s_curve])
        h = sf.cellular_cohomology(cut)
        assert h.dims == {0: 2, 1: 4}

    def test_torus_cut_annulus(self):
        scen = sc.torus_scenario()
        cut = sf.cut_along(scen.surface, [scen.s_curve])
        assert len(cut.components) == 1
        assert cut.components[0].is_annulus()
        h = sf.cellular_cohomology(cut)
        assert h.dims == {0: 1, 1: 1}

    def test_grid_torus_at_scale(self):
        # 400 faces: the ranks are read off the pieces, with no
        # elimination, so size costs only the cut.
        s = sc.grid_torus(20)
        assert sf.cellular_cohomology(sf.cut_along(s, [])).dims == \
            {0: 1, 1: 2, 2: 1}
        cut = sf.cut_along(s, [sc.grid_row(s, 20, 7)])
        assert sf.cellular_cohomology(cut).dims == {0: 1, 1: 1}


def assert_ranks_match_oracle(cut):
    cx = cut.cochain_complex()
    want = oracle_homology_ranks({k: cx.dims[k] for k in (0, 1, 2)},
                                 {k: cx.diff(k) for k in (0, 1)})
    assert sf.cellular_cohomology(cut).dims == \
        {k: v for k, v in want.items() if v}


class TestRankRule:
    """The ranks read off the pieces of a cut equal the naive elimination
    of its cochain complex, on 375 cuts."""

    # larger refinements (1,744 to 10,840 edges) take the naive oracle
    # seconds each, and add sizes but no new topology
    REFINED = ([(name, r) for name in sorted(sc.BUILDERS) for r in (0, 1)]
               + [("torus", 2), ("genus2", 2), ("genus2-crossing", 2),
                  ("genus3", 2), ("torus", 3)])

    @pytest.mark.parametrize("name, rounds", REFINED)
    def test_builtin_refined(self, name, rounds):
        scen = sc.BUILDERS[name]()
        fine, parts = scen.surface.refined(rounds)
        assert_ranks_match_oracle(
            sf.cut_along(fine, [scen.s_curve.mapped(fine, parts)]))
        assert_ranks_match_oracle(sf.cut_along(fine, []))

    def test_randomized(self):
        rng = np.random.default_rng(20261020)
        for _ in range(150):
            scen = randomized_scenario(rng)
            assert_ranks_match_oracle(
                sf.cut_along(scen.surface, [scen.s_curve]))
            assert_ranks_match_oracle(sf.cut_along(scen.surface, []))

    @pytest.mark.parametrize("n", range(4, 21, 2))
    def test_grid_rows(self, n):
        s = sc.grid_torus(n)
        for k in range(5):
            assert_ranks_match_oracle(sf.cut_along(
                s, [sc.grid_row(s, n, j * n // 4) for j in range(k)]))


class TestEliminationCounts:
    """Ranks take no elimination; only c* builds and reduces a complex."""

    @pytest.fixture
    def counts(self, monkeypatch):
        n = {"rref": 0, "cochain_complex": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                n[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(g, "rref", counted("rref", g.rref))
        monkeypatch.setattr(sf.CutResult, "cochain_complex",
                            counted("cochain_complex",
                                    sf.CutResult.cochain_complex))
        return n

    @pytest.mark.parametrize("verb", ["cohomology", "hf"])
    def test_ranks_take_no_elimination(self, verb, counts, tmp_path,
                                       capsys):
        s = sc.grid_torus(10)
        faces = "\n".join(" ".join(w) for w in s.face_words_symbols())
        row = " ".join(sc.grid_row(s, 10, 3).symbols())
        path = tmp_path / "grid.scn"
        path.write_text(f"[faces]\n{faces}\n\n[curves]\nS = {row}\n\n"
                        "[scenario]\ns = S\n")
        assert cli.main([verb, str(path)]) == 0
        capsys.readouterr()
        assert counts == {"rref": 0, "cochain_complex": 0}

    @pytest.mark.parametrize("name", ["torus", "genus2", "genus3"])
    def test_theorem_a_builds_one_complex(self, name, counts, capsys):
        assert cli.main(["verify-theorem-a", name]) == 0
        capsys.readouterr()
        assert counts["cochain_complex"] == 1
        assert counts["rref"] <= 8


class TestCut:
    def test_genus2_separating(self):
        scen = sc.genus2_scenario()
        cut = sf.cut_along(scen.surface, [scen.s_curve])
        assert sorted(c.euler() for c in cut.components) == [-1, -1]
        assert all(len(c.boundary) == 1 for c in cut.components)

    def test_genus3_unequal_pieces(self):
        scen = sc.genus3_scenario()
        cut = sf.cut_along(scen.surface, [scen.s_curve])
        assert sorted(c.euler() for c in cut.components) == [-3, -1]

    def test_chi_additivity_on_grid(self):
        s = sc.grid_torus(4)
        row = sc.grid_row(s, 4, 0)
        cut = sf.cut_along(s, [row])
        assert sum(c.euler() for c in cut.components) == 0

    def test_nonseparating_on_genus2(self):
        scen = sc.genus2_scenario()
        cut = sf.cut_along(scen.surface, [scen.curves["beta1"]])
        assert len(cut.components) == 1
        assert cut.components[0].euler() == -2

    @pytest.mark.parametrize("n, rows", [(5, [0, 2]), (6, [0, 3]),
                                         (6, [1, 2, 4]), (7, [0, 3, 5])])
    def test_disjoint_rows_give_annuli(self, n, rows):
        # row i runs in +x, so its left side (0) faces the next row up,
        # which meets that annulus on its right side (1)
        s = sc.grid_torus(n)
        k = len(rows)
        cut = sf.cut_along(s, [sc.grid_row(s, n, j) for j in rows])
        assert len(cut.components) == k
        for c in cut.components:
            assert c.is_annulus()
            assert c.cochain_complex().homology().dims == {0: 1, 1: 1}
        circles = {frozenset((b.curve_index, b.side) for b in c.boundary)
                   for c in cut.components}
        assert circles == {frozenset({(i, 0), ((i + 1) % k, 1)})
                           for i in range(k)}

    def test_genus2_along_both_betas(self):
        scen = sc.genus2_scenario()
        cut = sf.cut_along(scen.surface,
                           [scen.curves["beta1"], scen.curves["beta2"]])
        assert len(cut.components) == 1
        comp = cut.components[0]
        assert comp.euler() == -2
        assert sorted((b.curve_index, b.side) for b in comp.boundary) == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_curves_sharing_a_vertex_rejected(self):
        s = sc.grid_torus(4)
        with pytest.raises(sf.CurveError):
            sf.cut_along(s, [sc.grid_row(s, 4, 0), sc.grid_col(s, 4, 2)])

    def test_contractibility(self):
        s = sc.grid_torus(4)
        square = sc.grid_path_curve(s, 4, [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert square.is_contractible()
        assert not sc.grid_row(s, 4, 0).is_contractible()
        assert not sc.torus_scenario().s_curve.is_contractible()


class TestCurveValidation:
    def test_broken_curve(self):
        s = sc.grid_torus(3)
        with pytest.raises(sf.CurveError):
            sf.Curve.from_symbols(s, ["h0_0", "h0_1", "h1_0", "h2_0"])

    def test_repeated_edge(self):
        s = sf.Surface.parse([["a", "b", "a'", "b'"]])
        with pytest.raises(sf.CurveError):
            sf.Curve.from_symbols(s, ["a", "a"])

    def test_vertex_revisit(self):
        s = sc.grid_torus(4)
        # figure eight through (0,0)
        path = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (3, 0), (3, 3),
                (0, 3)]
        with pytest.raises(sf.CurveError):
            sc.grid_path_curve(s, 4, path)


class TestInvolution:
    def test_genus2_swap_valid(self):
        scen = sc.genus2_scenario()
        diag = scen.involution.diagnostics()
        assert not diag, diag

    def test_identity_rejected(self):
        s = sf.Surface.parse([["a", "b", "a'", "b'"]])
        ident = sf.Involution.from_cycles(s, [])
        diag = ident.diagnostics()
        assert any("orientation" in d for d in diag)

    def test_quarter_rotation_rejected(self):
        s = sf.Surface.parse([["a", "b", "a'", "b'"]])
        rot = sf.Involution.from_cycles(s, [["a", "b", "a'", "b'"]])
        diag = rot.diagnostics()
        assert any("order" in d for d in diag)

    def test_corpus_involutions_valid(self):
        for scen in (sc.torus_scenario(), sc.genus2_scenario(),
                     sc.genus2_scenario(component_preserving=True),
                     sc.genus3_scenario()):
            assert not scen.involution.diagnostics(), scen.description
            assert scen.involution.preserves_curve(scen.s_curve)

    def test_swap_induced_degree0(self):
        scen = sc.genus2_scenario()
        ind = sf.involution_induced_map(
            sf.cut_along(scen.surface, [scen.s_curve]), scen.involution)
        assert (ind[0] == g.gf2([[0, 1], [1, 0]])).all()

    def test_component_preserving_degree0(self):
        scen = sc.genus2_scenario(component_preserving=True)
        ind = sf.involution_induced_map(
            sf.cut_along(scen.surface, [scen.s_curve]), scen.involution)
        assert (ind[0] == g.eye(2)).all()

    def test_torus_degree0(self):
        scen = sc.torus_scenario()
        ind = sf.involution_induced_map(
            sf.cut_along(scen.surface, [scen.s_curve]), scen.involution)
        assert (ind[0] == g.eye(1)).all()

    @staticmethod
    def _assert_degree0_matches_oracle(scen):
        cut = sf.cut_along(scen.surface, [scen.s_curve])
        m0 = sf.involution_induced_map(cut, scen.involution)[0]
        pieces, want = component_permutation(
            scen.surface, scen.s_curve, scen.involution.psi)
        faces = [frozenset(f for f, _ in c.faces) for c in cut.components]
        assert sorted(faces, key=min) == pieces, scen.description
        at = [pieces.index(f) for f in faces]
        assert (m0 == want[np.ix_(at, at)]).all(), scen.description

    def test_degree0_matches_oracle_on_corpus(self):
        for scen in (sc.torus_scenario(), sc.genus2_scenario(),
                     sc.genus2_scenario(component_preserving=True),
                     sc.genus3_scenario()):
            self._assert_degree0_matches_oracle(scen)

    def test_degree0_matches_oracle_on_randomized(self):
        rng = np.random.default_rng(20261019)
        for _ in range(50):
            self._assert_degree0_matches_oracle(randomized_scenario(rng))

    def test_induced_squares_to_identity(self):
        for scen in (sc.torus_scenario(), sc.genus2_scenario(),
                     sc.genus2_scenario(component_preserving=True),
                     sc.genus3_scenario()):
            ind = sf.involution_induced_map(
                sf.cut_along(scen.surface, [scen.s_curve]), scen.involution)
            for k, m in ind.items():
                assert (g.matmul(m, m) == g.eye(m.shape[0])).all(), \
                    (scen.description, k)

    def test_curve_not_preserved_rejected(self):
        scen = sc.genus2_scenario()
        with pytest.raises(sf.InvolutionError):
            sf.involution_induced_map(
                sf.cut_along(scen.surface, [scen.curves["beta1"]]),
                scen.involution)
