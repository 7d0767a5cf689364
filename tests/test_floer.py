import pytest

from twistcheck import floer as fl
from twistcheck import scenarios as sc
from twistcheck import surface as sf

from generators import reversed_curve
from oracles import flat_torus_crossings


def square_torus():
    s = sf.Surface.parse([["a", "b", "a'", "b'"]])
    return s, sf.Curve.from_symbols(s, ["a"], "a"), \
        sf.Curve.from_symbols(s, ["b"], "b")


def regions(l0, l1):
    fl.find_intersections(l0, l1)  # validates transversality
    return fl._region_census(l0.surface, [l0, l1])


def hf(l0, l1):
    return fl.floer_complex(l0, l1).complex.homology()


def wiggled_column(s):
    """Class (0,1) curve on the 5-grid torus crossing row 0 three times."""
    path = [(1, 0), (1, 1), (2, 1), (2, 0), (2, 4), (3, 4), (3, 0), (3, 1),
            (3, 2), (3, 3), (2, 3), (1, 3), (1, 4)]
    return sc.grid_path_curve(s, 5, path, "wiggle")


def wiggled_row(s):
    """Class (1,0) curve on the 5-grid torus crossing row 0 twice."""
    path = [(0, 1), (1, 1), (1, 0), (1, 4), (2, 4), (2, 0), (2, 1), (3, 1),
            (4, 1)]
    return sc.grid_path_curve(s, 5, path, "dip")


class TestIntersections:
    def test_square_torus_single_positive_crossing(self):
        _, a, b = square_torus()
        pts = fl.find_intersections(a, b)
        assert len(pts) == 1
        assert pts[0].nu == 1 and pts[0].degree == 1

    def test_swap_flips_sign(self):
        _, a, b = square_torus()
        assert fl.find_intersections(b, a)[0].nu == -1

    def test_reversal_flips_sign(self):
        _, a, b = square_torus()
        assert fl.find_intersections(a, reversed_curve(b))[0].nu == -1

    def test_shared_edge_rejected(self):
        s = sc.grid_torus(4)
        r0 = sc.grid_row(s, 4, 0)
        square = sc.grid_path_curve(s, 4, [(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(fl.NonTransverseError):
            fl.find_intersections(r0, square)

    def test_wiggle_signs(self):
        s = sc.grid_torus(5)
        pts = fl.find_intersections(sc.grid_row(s, 5, 0), wiggled_column(s))
        assert sorted(p.nu for p in pts) == [-1, 1, 1]

    def test_grid_row_col(self):
        s = sc.grid_torus(3)
        pts = fl.find_intersections(sc.grid_row(s, 3, 0),
                                    sc.grid_col(s, 3, 1))
        assert len(pts) == 1 and pts[0].nu == 1


class TestRegions:
    def test_square_torus_complement_is_a_square(self):
        _, a, b = square_torus()
        found = regions(a, b)
        assert len(found) == 1
        r = found[0]
        assert r.chi == 1 and len(r.circles) == 1 and r.n_corners == 4

    def test_grid_row_col_complement(self):
        s = sc.grid_torus(5)
        found = regions(sc.grid_row(s, 5, 0), sc.grid_col(s, 5, 0))
        assert len(found) == 1
        assert found[0].chi == 1 and found[0].n_corners == 4

    def test_chi_additive(self):
        s = sc.grid_torus(5)
        found = regions(sc.grid_row(s, 5, 0), wiggled_column(s))
        # cutting along both curves duplicates each crossing vertex into
        # four sector copies: total chi grows by one per crossing
        assert sum(r.chi for r in found) == s.euler() + 3
        # corner count: four sectors per crossing
        assert sum(r.n_corners for r in found) == 4 * 3

    def test_isotopic_pair_has_two_bigons(self):
        s = sc.grid_torus(5)
        found = regions(sc.grid_row(s, 5, 0), wiggled_row(s))
        assert sum(1 for r in found if r.is_bigon()) == 2


class TestFloerComplex:
    def test_torus_one_generator(self):
        _, a, b = square_torus()
        assert hf(a, b).dims == {1: 1}

    def test_contractible_rejected(self):
        s = sc.grid_torus(4)
        square = sc.grid_path_curve(s, 4, [(2, 2), (3, 2), (3, 3), (2, 3)])
        with pytest.raises(fl.FloerError):
            fl.floer_complex(sc.grid_col(s, 4, 0), square)

    def test_wiggle_homology_is_isotopy_invariant(self):
        s = sc.grid_torus(5)
        fc = fl.floer_complex(sc.grid_row(s, 5, 0), wiggled_column(s))
        assert fc.complex.dims.total() == 3
        assert fc.complex.homology().total() == 1

    def test_isotopic_pair_differential_cancels(self):
        s = sc.grid_torus(5)
        fc = fl.floer_complex(sc.grid_row(s, 5, 0), wiggled_row(s))
        assert fc.complex.dims.dims == {0: 1, 1: 1}
        # the two bigons cancel mod 2
        assert fc.complex.homology().dims == {0: 1, 1: 1}

    def test_symmetry_of_total_rank(self):
        s = sc.grid_torus(5)
        r0, w = sc.grid_row(s, 5, 0), wiggled_column(s)
        assert hf(r0, w).total() == hf(w, r0).total()
        assert hf(r0, reversed_curve(w)).total() == hf(r0, w).total()

    def test_corpus_d_squared_zero(self):
        pairs = []
        g2 = sc.genus2_scenario()
        pairs.append((g2.curves["alpha1"], g2.curves["beta1"]))
        gx = sc.genus2_crossing_scenario()
        pairs.append((gx.s_curve, gx.n_curve))
        for l0, l1 in pairs:
            fc = fl.floer_complex(l0, l1)
            ok, why = fc.complex.validate()
            assert ok, why

    def test_genus2_handle_loops(self):
        g2 = sc.genus2_scenario()
        assert hf(g2.curves["alpha1"], g2.curves["beta1"]).total() == 1
        assert hf(g2.curves["alpha1"], g2.curves["beta2"]).total() == 0

    def test_gamma_crosses_separating_curve_twice(self):
        gx = sc.genus2_crossing_scenario()
        h = fl.rank_hf(gx.s_curve, gx.n_curve)
        assert h.total() == 2 and h.dims == {0: 1, 1: 1}


class TestTighten:
    def test_wiggle_tightens_to_one_crossing(self):
        s = sc.grid_torus(5)
        l0, l1 = fl.tighten_pair(sc.grid_row(s, 5, 0), wiggled_column(s))
        assert len(fl.find_intersections(l0, l1)) == 1

    def test_isotopic_pair_tightens_to_disjoint(self):
        s = sc.grid_torus(5)
        l0, l1 = fl.tighten_pair(sc.grid_row(s, 5, 0), wiggled_row(s))
        assert not (set(l0.vertices) & set(l1.vertices))

    def test_rank_hf_detects_isotopy(self):
        s = sc.grid_torus(5)
        assert fl.rank_hf(sc.grid_row(s, 5, 0),
                          wiggled_row(s)).dims == {0: 1, 1: 1}
        assert fl.rank_hf(sc.grid_row(s, 5, 0),
                          sc.grid_row(s, 5, 2)).dims == {0: 1, 1: 1}

    def test_rank_hf_distinguishes_classes(self):
        s = sc.grid_torus(5)
        assert fl.rank_hf(sc.grid_row(s, 5, 0),
                          wiggled_column(s)).total() == 1

    def test_self_pair(self):
        s = sc.grid_torus(5)
        r0 = sc.grid_row(s, 5, 0)
        assert fl.rank_hf(r0, r0).dims == {0: 1, 1: 1}

    def test_degenerate_corridor_refines_and_retries(self, monkeypatch):
        # the first bigon removal reports a degenerate corridor, so the
        # pair is carried through one global refinement before the retry
        real, calls = fl._remove_bigon, []

        def degenerate_once(l0, l1, region):
            calls.append(l0.surface)
            if len(calls) == 1:
                raise fl._Degenerate("forced")
            return real(l0, l1, region)

        monkeypatch.setattr(fl, "_remove_bigon", degenerate_once)
        s = sc.grid_torus(5)
        l0, l1 = fl.tighten_pair(sc.grid_row(s, 5, 0), wiggled_column(s))
        assert len(fl.find_intersections(l0, l1)) == 1
        # halving every edge makes each square an octagon, coned into
        # eight triangles
        assert calls[0] is s and calls[1].n_faces == 8 * s.n_faces


class TestDehnTwist:
    def test_les_steps_parse_no_symbols(self, monkeypatch):
        # derived surfaces and curves are built from dart words: once the
        # scenario is loaded, no edge symbol is parsed
        scen = sc.torus_les_scenario()
        real, parsed = sf.parse_symbol, []
        monkeypatch.setattr(
            sf, "parse_symbol", lambda sym: parsed.append(sym) or real(sym))
        _, _, seq, moved = fl.twist_rank_sequence(
            scen.s_curve, scen.q_curve, scen.n_curve, 3)
        assert moved and [r.total() for r in seq] == [2, 1, 2, 3]
        assert parsed == []
        scen.surface.dart("h0_0")  # the counter sees parses
        assert parsed == ["h0_0"]

    def test_trivial_cases(self):
        s = sc.grid_torus(4)
        r0, c0 = sc.grid_row(s, 4, 0), sc.grid_col(s, 4, 0)
        r2 = sc.grid_row(s, 4, 2)
        assert fl.dehn_twist(s, r0, 0, twist=[c0]).twisted[0] is c0
        assert fl.dehn_twist(s, r0, 3, twist=[r2]).twisted[0] is r2

    def test_twist_preserves_genus(self):
        s, a, b = square_torus()
        out = fl.dehn_twist(s, a, 1, twist=[b])
        assert out.surface.euler() == 0
        s5 = sc.grid_torus(5)
        out = fl.dehn_twist(s5, sc.grid_row(s5, 5, 0), 2,
                            twist=[sc.grid_col(s5, 5, 0)],
                            carry=[sc.grid_col(s5, 5, 2)])
        assert out.surface.euler() == 0

    def test_torus_basic_twist(self):
        s, a, b = square_torus()
        out = fl.dehn_twist(s, a, 1, twist=[b])
        tb = out.twisted[0]
        assert len(fl.find_intersections(tb, out.s_image)) == 1
        assert fl.rank_hf(tb, out.s_image).total() == 1

    def test_triple_point_rejected(self):
        s = sc.grid_torus(5)
        r0, c0 = sc.grid_row(s, 5, 0), sc.grid_col(s, 5, 0)
        with pytest.raises(fl.NonTransverseError):
            fl.dehn_twist(s, r0, 1, twist=[c0], carry=[reversed_curve(c0)])

    def test_carried_s_maps_to_image(self):
        s = sc.grid_torus(4)
        r0 = sc.grid_row(s, 4, 0)
        r0_copy = sf.Curve(s, r0.darts, "copy")
        out = fl.dehn_twist(s, r0, 1, twist=[sc.grid_col(s, 4, 1)],
                            carry=[r0_copy])
        assert out.carried[0].edges == out.s_image.edges

    @pytest.mark.parametrize("build", [sc.torus_les_scenario,
                                       sc.genus2_crossing_scenario])
    def test_twisted_images_stay_noncontractible(self, build):
        # twist_rank_sequence checks Q and N once, on the input surface,
        # and ranks their twisted images without checking them again
        scen = build()
        for j in range(-3, 4):
            out = fl.dehn_twist(scen.surface, scen.s_curve, j,
                                twist=[scen.n_curve], carry=[scen.q_curve])
            for cur in out.twisted + out.carried:
                assert not cur.is_contractible(), (scen.description, j)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
    def test_slope_ranks_match_flat_oracle(self, k):
        # twisting the (0,1) curve k times along the (1,0) curve gives a
        # slope (k,1) curve; rank HF against carried (0,1) and (1,0)
        # curves matches the flat determinant count
        s = sc.grid_torus(5)
        r0, c0 = sc.grid_row(s, 5, 0), sc.grid_col(s, 5, 0)
        out = fl.dehn_twist(s, r0, k, twist=[c0],
                            carry=[sc.grid_col(s, 5, 2)])
        tn = out.twisted[0]
        other_col = out.carried[0]
        assert fl.rank_hf(tn, other_col).total() == \
            flat_torus_crossings(k, 1, 0, 1)
        row2 = sf.Curve.from_symbols(out.surface,
                                     sc.grid_row(s, 5, 2).symbols(), "row2")
        assert fl.rank_hf(tn, row2).total() == \
            flat_torus_crossings(k, 1, 1, 0)
        assert fl.rank_hf(tn, out.s_image).total() == 1
