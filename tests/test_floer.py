import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistcheck import floer as fl
from twistcheck import scenarios as sc
from twistcheck import surface as sf

from generators import (grid_dipped_row, grid_serpentine, random_simple_loop,
                        reversed_curve)
from oracles import flat_torus_crossings


def square_torus():
    s = sf.Surface.parse([["a", "b", "a'", "b'"]])
    return s, sf.Curve.from_symbols(s, ["a"], "a"), \
        sf.Curve.from_symbols(s, ["b"], "b")


def circles_by_region(arr):
    """region -> lengths of its boundary circles (one corner per
    half-edge)."""
    out = {r: [] for r in arr.chi}
    for c in arr.circles():
        out[arr.region[c[0]]].append(len(c))
    return out


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
        arr = fl._Arrangement(a, b)
        assert list(arr.chi.values()) == [1]
        assert list(circles_by_region(arr).values()) == [[4]]

    def test_grid_row_col_complement(self):
        s = sc.grid_torus(5)
        arr = fl._Arrangement(sc.grid_row(s, 5, 0), sc.grid_col(s, 5, 0))
        assert list(arr.chi.values()) == [1]
        assert list(circles_by_region(arr).values()) == [[4]]

    def test_chi_additive(self):
        s = sc.grid_torus(5)
        arr = fl._Arrangement(sc.grid_row(s, 5, 0), wiggled_column(s))
        # cutting along both curves duplicates each crossing vertex into
        # four sector copies: total chi grows by one per crossing
        assert sum(arr.chi.values()) == s.euler() + 3
        # corner count: four sectors per crossing
        assert sum(len(c) for c in arr.circles()) == 4 * 3

    def test_isotopic_pair_has_two_bigons(self):
        s = sc.grid_torus(5)
        arr = fl._Arrangement(sc.grid_row(s, 5, 0), wiggled_row(s))
        assert len(arr.bigons()) == 2


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
        left, isotopic = fl.tighten_pair(sc.grid_row(s, 5, 0),
                                         wiggled_column(s))
        assert left.total() == 1 and isotopic is None

    def test_isotopic_pair_tightens_to_disjoint(self):
        s = sc.grid_torus(5)
        left, isotopic = fl.tighten_pair(sc.grid_row(s, 5, 0),
                                         wiggled_row(s))
        assert left.total() == 0 and isotopic is True

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


# ---------------------------------------------------------------------------
# rank_hf against the flat torus


def grid_class(curve, n):
    """Homology class of a curve on the n-grid torus: its net horizontal
    and vertical steps, over n."""
    net = {"h": 0, "v": 0}
    for d in curve.darts:
        net[curve.surface.edge_names[d >> 1][0]] += -1 if d & 1 else 1
    assert net["h"] % n == 0 and net["v"] % n == 0
    return net["h"] // n, net["v"] // n


def flat_rank(c0, c1):
    """rank HF of simple closed curves of classes c0 and c1 on the torus:
    the flat crossings, all of the degree of their sign, or one in each
    degree when the classes agree up to sign."""
    if c0 in (c1, (-c1[0], -c1[1])):
        return {0: 1, 1: 1}
    det = c0[0] * c1[1] - c0[1] * c1[0]
    assert abs(det) == flat_torus_crossings(*c0, *c1)
    return {1: det} if det > 0 else {0: -det}


def grid_curve_specs(n):
    dips = st.sets(st.integers(0, n - 1), min_size=2, max_size=n).map(
        lambda cols: tuple(zip(sorted(cols)[0::2], sorted(cols)[1::2])))
    return st.one_of(
        st.tuples(st.just("row"), st.integers(0, n - 1)),
        st.tuples(st.just("col"), st.integers(0, n - 1)),
        st.tuples(st.just("serp"), st.integers(0, n - 1),
                  st.integers(0, (n - 1) // 2), st.integers(2, n - 2)),
        st.tuples(st.just("dip"), dips),
        st.tuples(st.just("loop"), st.integers(0, 2 ** 16)))


grid_torus = functools.cache(sc.grid_torus)


@functools.cache
def grid_curve(n, spec):
    s = grid_torus(n)
    kind, *args = spec
    if kind == "row":
        return sc.grid_row(s, n, *args)
    if kind == "col":
        return sc.grid_col(s, n, *args)
    if kind == "serp":
        return grid_serpentine(s, n, *args)
    if kind == "dip":
        return grid_dipped_row(s, n, args[0])
    return random_simple_loop(s, np.random.default_rng(args[0]))


grid_pairs = st.integers(5, 11).flatmap(lambda n: st.tuples(
    st.just(n), grid_curve_specs(n), grid_curve_specs(n)))


class TestFlatTorusOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=grid_pairs)
    # serpentines three and four bigons away from minimal position
    @example(case=(9, ("row", 0), ("serp", 1, 3, 4)))
    @example(case=(11, ("serp", 6, 4, 7), ("row", 0)))
    # three dips: the pair ends disjoint and isotopic
    @example(case=(8, ("row", 0), ("dip", ((0, 1), (2, 4), (5, 7)))))
    # a serpentine and a column that never cross
    @example(case=(7, ("serp", 0, 2, 3), ("col", 5)))
    def test_rank_hf_matches_flat_crossings(self, case):
        n, spec0, spec1 = case
        l0, l1 = grid_curve(n, spec0), grid_curve(n, spec1)
        assume(l0 is not None and l1 is not None)
        assume(not l0.is_contractible() and not l1.is_contractible())
        try:
            got = fl.rank_hf(l0, l1)
        except fl.NonTransverseError:
            assume(False)
        assert got.dims == flat_rank(grid_class(l0, n), grid_class(l1, n))

    def test_coarse_pair_that_needed_refinement(self):
        # on the square torus refined once, removing this pair's bigon
        # by surgery met a corridor that revisits a face, and needed one
        # more global refinement; on the arrangement it is one removal
        s, _ = sc.torus_scenario().surface.refined(1)
        l0 = sf.Curve.from_symbols(s, ["a.0", "f0.s5", "f0.s2'"])
        l1 = sf.Curve.from_symbols(s, ["f0.s6'", "b.0", "f0.s3"])
        # in half units, the face a.0 a.1 b.0 b.1 a.1' a.0' b.1' b.0' is
        # the square from (0, 0) to (2, 2), and spoke f0.si runs from its
        # i-th corner to the centre (1, 1)
        corners = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2),
                   (0, 1)]
        step = {"a.0": (1, 0), "a.1": (1, 0), "b.0": (0, 1), "b.1": (0, 1)}
        step.update({f"f0.s{i}": (1 - x, 1 - y)
                     for i, (x, y) in enumerate(corners)})

        def unit_class(curve):
            sign = [-1 if d & 1 else 1 for d in curve.darts]
            steps = [step[s.edge_names[d >> 1]] for d in curve.darts]
            return tuple(sum(k * xy[i] for k, xy in zip(sign, steps)) // 2
                         for i in (0, 1))

        assert len(fl.find_intersections(l0, l1)) == 2
        assert fl.rank_hf(l0, l1).dims == flat_rank(unit_class(l0),
                                                    unit_class(l1))



# ---------------------------------------------------------------------------
# the side of S a crossing arrives from, which dehn_twist reads off nu


@functools.cache
def twist_curve_case(source, n, s_spec):
    """(S, its cut's corner vertices, curves that may cross S) on the
    n-grid torus, S row s_spec[1] or that column reversed, or on the
    built-in scenario source refined once, S its twist curve."""
    if source == "grid":
        s = grid_torus(n)
        kind, i = s_spec
        S = sc.grid_row(s, n, i, "S") if kind == "row" else \
            reversed_curve(sc.grid_col(s, n, i, "S"))
        across = [sc.grid_col(s, n, j) if kind == "row" else
                  sc.grid_row(s, n, j) for j in range(n)]
    else:
        scen = sc.BUILDERS[source]()
        s, parts = scen.surface.refined(1)
        S = scen.s_curve.mapped(s, parts)
        across = [c.mapped(s, parts) for c in scen.curves.values()
                  if c.edges != scen.s_curve.edges]
    return S, sf.cut_along(s, [S]).vertex_of_corner, across


side_cases = st.one_of(
    st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.just("grid"), st.just(n),
        st.tuples(st.sampled_from(["row", "col"]), st.integers(0, n - 1)),
        st.integers(0, 2 ** 16))),
    st.tuples(st.sampled_from(sorted(sc.BUILDERS)), st.just(0),
              st.just(None), st.integers(0, 2 ** 16)))


class TestCrossingSide:
    @settings(max_examples=200, deadline=None)
    @given(case=side_cases)
    def test_negative_sign_arrives_from_the_right(self, case):
        # nu = -1 exactly when the crossing curve's reversed incoming
        # dart has its corner on the right of S (odd side of the cut)
        source, n, s_spec, seed = case
        S, corner, across = twist_curve_case(source, n, s_spec)
        s = S.surface
        rng = np.random.default_rng(seed)
        loops = [random_simple_loop(s, rng, S.edges) for _ in range(6)]
        curves = across + [c for c in loops if c is not None]
        curves += [reversed_curve(c) for c in curves]
        checked = 0
        for cur in curves:
            try:
                points = fl.find_intersections(cur, S)
            except fl.NonTransverseError:
                continue
            incoming = {s.head(d): d for d in cur.darts}
            for p in points:
                right = (corner[incoming[p.vertex] ^ 1] - s.n_vertices) & 1
                assert (p.nu == -1) == (right == 1), (cur.symbols(), p)
                checked += 1
        assert checked > 0 or source != "grid"
