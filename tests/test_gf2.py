import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistcheck import gf2 as g

from algebra import random_chain_map, random_complex, random_invertible
from oracles import (greedy_homology_reps, naive_rank_gf2,
                     oracle_homology_ranks, oracle_induced_matrix)


def rng(seed=0):
    return np.random.default_rng(seed)


def identity(cx):
    return g.ChainMap(cx, cx, {k: g.eye(cx.dims[k]) for k in cx.degrees()})


# ---------------------------------------------------------------------------
# matrix kernel


class TestBasicOps:
    def test_rank_matches_naive_oracle(self):
        r = rng(11)
        for _ in range(60):
            rows = int(r.integers(0, 7))
            cols = int(r.integers(0, 7))
            m = r.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            assert g.rank(m) == naive_rank_gf2(m.tolist())

    def test_rref_pivots_lexicographic(self):
        m = g.gf2([[0, 1, 1], [0, 1, 0]])
        _, pivots = g.rref(m)
        assert pivots == [1, 2]

    def test_kernel_annihilated(self):
        r = rng(2)
        for _ in range(40):
            m = r.integers(0, 2, size=(5, 7), dtype=np.uint8)
            k = g.kernel_basis(m)
            assert not g.matmul(m, k).any()
            assert g.rank(k) == k.shape[1] == 7 - g.rank(m)

    def test_solve_roundtrip_and_inconsistency(self):
        a = g.gf2([[1, 0], [0, 1], [1, 1]])
        b = g.gf2([[1], [1], [0]])
        x = g.solve(a, b)
        assert x is not None and not (g.matmul(a, x) ^ b).any()
        assert g.solve(a, g.gf2([[1], [1], [1]])) is None

    def test_random_invertible(self):
        m = random_invertible(6, rng(3))
        assert g.rank(m) == 6


# ---------------------------------------------------------------------------
# complexes and homology


class TestComplex:
    def test_zero_differential_homology_is_everything(self):
        cx = g.ChainComplex({0: 2, 1: 4})
        assert cx.homology().dims == {0: 2, 1: 4}

    def test_d_squared_rejected(self):
        with pytest.raises(g.NotAComplexError):
            g.ChainComplex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(g.ShapeError):
            g.ChainComplex({0: 2, 1: 1}, {0: [[1, 0], [0, 1]]})

    def test_two_step_complex(self):
        # 0 -> k -> k -> 0 with d an isomorphism: acyclic
        cx = g.ChainComplex({0: 1, 1: 1}, {0: [[1]]})
        assert cx.homology().total() == 0
        assert cx.dims.euler() == 0

    def test_random_complexes_match_oracle(self):
        r = rng(7)
        for _ in range(50):
            cx, h, _ = random_complex(r)
            assert cx.validate()[0]
            got = cx.homology()
            want = oracle_homology_ranks(
                {k: cx.dims[k] for k in cx.degrees()},
                {k: cx.diff(k) for k in cx.degrees()})
            assert {k: got[k] for k in want} == want
            assert got.dims == h.dims

    def test_mod2_grading_wraps(self):
        cx = g.ChainComplex({0: 1, 1: 1}, {0: [[1]], 1: [[1]]}, mod2=True,
                            check=False)
        ok, why = cx.validate()
        assert not ok and isinstance(why, g.NotAComplexError)
        cx = g.ChainComplex({0: 2, 1: 2}, {0: [[1, 1], [0, 0]]}, mod2=True)
        assert cx.homology().dims == {0: 1, 1: 1}

    def test_homology_data_kept_and_read_only(self):
        cx, _, _ = random_complex(rng(11))
        for k in cx.degrees():
            first = cx.homology_data(k)
            assert cx.homology_data(k) is first
            assert not any(a.flags.writeable for a in first)

    def test_euler_equals_homology_euler(self):
        r = rng(9)
        for _ in range(25):
            cx, h, _ = random_complex(r)
            assert cx.dims.euler() == h.euler()


# ---------------------------------------------------------------------------
# chain maps and induced maps


class TestChainMap:
    def test_noncommuting_rejected(self):
        c = g.ChainComplex({0: 1, 1: 1}, {0: [[1]]})
        d = g.ChainComplex({0: 1, 1: 1})
        with pytest.raises(g.NotAChainMapError):
            g.ChainMap(c, d, {0: [[0]], 1: [[1]]})

    def test_identity_induces_identity(self):
        cx, h, _ = random_complex(rng(4))
        ind = g.induced_map(identity(cx))
        for k in cx.degrees():
            assert (ind[k] == g.eye(h[k])).all()

    def test_swap_map(self):
        c = g.ChainComplex({0: 2})
        f = g.ChainMap(c, c, {0: [[0, 1], [1, 0]]})
        assert (g.induced_map(f)[0] == g.gf2([[0, 1], [1, 0]])).all()

    def test_induced_matches_coset_oracle(self):
        r = rng(21)
        for _ in range(20):
            sd = random_complex(r, degrees=(0, 1, 2), max_dim=3)
            td = random_complex(r, degrees=(0, 1, 2), max_dim=3)
            f, _ = random_chain_map(r, sd, td)
            ind = g.induced_map(f)
            for k in (0, 1, 2):
                reps_s, img_s = f.source.homology_data(k)
                reps_t, img_t = f.target.homology_data(k)
                if reps_s.shape[1] == 0 or f.source.dims[k] > 8 \
                        or f.target.dims[k] > 8:
                    continue
                want = oracle_induced_matrix(None, img_s, None, img_t,
                                             f.comp(k), reps_s, reps_t)
                assert (ind[k] == want).all()

    def test_induced_rank_matches_planted_block(self):
        r = rng(33)
        for _ in range(20):
            sd = random_complex(r, degrees=(0, 1, 2))
            td = random_complex(r, degrees=(0, 1, 2))
            f, a = random_chain_map(r, sd, td)
            ind = g.induced_map(f)
            for k in (0, 1, 2):
                assert g.rank(ind[k]) == g.rank(a[k])

    def test_functoriality(self):
        r = rng(5)
        for _ in range(10):
            d0 = random_complex(r, degrees=(0, 1, 2))
            d1 = random_complex(r, degrees=(0, 1, 2))
            d2 = random_complex(r, degrees=(0, 1, 2))
            f, _ = random_chain_map(r, d0, d1)
            h, _ = random_chain_map(r, d1, d2)
            hf = g.ChainMap(d0[0], d2[0], {k: g.matmul(h.comp(k), f.comp(k))
                                           for k in (0, 1, 2)})
            lhs = g.induced_map(hf)
            fi, hi = g.induced_map(f), g.induced_map(h)
            for k in (0, 1, 2):
                assert (lhs[k] == g.matmul(hi[k], fi[k])).all()


# ---------------------------------------------------------------------------
# cones and long exact sequences


class TestCone:
    def test_cone_of_identity_acyclic(self):
        for seed in range(8):
            cx, _, _ = random_complex(rng(seed))
            assert g.Cone(identity(cx)).complex.homology().total() == 0

    def test_cone_of_zero_splits(self):
        c, hc, _ = random_complex(rng(10))
        d, hd, _ = random_complex(rng(20))
        f = g.ChainMap(c, d, {})
        h = g.Cone(f).complex.homology()
        want = {}
        for k, v in hd.dims.items():
            want[k] = want.get(k, 0) + v
        for k, v in hc.dims.items():
            want[k - 1] = want.get(k - 1, 0) + v
        assert h.dims == {k: v for k, v in want.items() if v}

    def test_cone_euler(self):
        r = rng(14)
        for _ in range(15):
            sd = random_complex(r, degrees=(0, 1, 2))
            td = random_complex(r, degrees=(0, 1, 2))
            f, _ = random_chain_map(r, sd, td)
            assert g.Cone(f).complex.dims.euler() == \
                td[0].dims.euler() - sd[0].dims.euler()

    def test_cone_dims(self):
        c = g.ChainComplex({0: 2, 1: 3})
        d = g.ChainComplex({0: 5, 1: 1})
        cx = g.Cone(g.ChainMap(c, d, {})).complex
        assert cx.dims.dims == {-1: 2, 0: 8, 1: 1}


class TestLES:
    def test_random_les_exact(self):
        r = rng(77)
        for _ in range(100):
            sd = random_complex(r, degrees=(0, 1, 2), max_dim=3)
            td = random_complex(r, degrees=(0, 1, 2), max_dim=3)
            f, _ = random_chain_map(r, sd, td)
            les = g.LongExactSequence(f)  # raises on any exactness failure
            hs, ht, hc = les.h_source, les.h_target, les.h_cone
            # Euler characteristics of an exact triangle cancel.
            assert hc.euler() == ht.euler() - hs.euler()

    def test_les_isomorphism_gives_trivial_cone(self):
        cx, _, _ = random_complex(rng(1))
        les = g.LongExactSequence(identity(cx))
        assert les.h_cone.total() == 0


# ---------------------------------------------------------------------------
# tensor products


class TestTensor:
    def test_dims_convolve(self):
        c = g.ChainComplex({0: 2, 1: 4})
        t = g.tensor_complex(c, c)
        assert t.dims.dims == {0: 4, 1: 16, 2: 16}
        assert t.homology().dims == {0: 4, 1: 16, 2: 16}

    def test_kunneth(self):
        r = rng(8)
        for _ in range(15):
            c, hc, _ = random_complex(r, degrees=(0, 1, 2), max_dim=3)
            d, hd, _ = random_complex(r, degrees=(0, 1, 2), max_dim=3)
            t = g.tensor_complex(c, d)
            assert t.validate()[0]
            assert t.homology().dims == g.convolve(hc, hd, False).dims

    def test_tensor_with_point(self):
        c, hc, _ = random_complex(rng(3))
        pt = g.ChainComplex({0: 1})
        t = g.tensor_complex(c, pt)
        assert t.homology().dims == hc.dims


# ---------------------------------------------------------------------------
# property-based checks


@st.composite
def gf2_matrix(draw, max_side=6):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    data = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))
    return g.gf2(data)


@given(gf2_matrix())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r1, p1 = g.rref(m)
    r2, p2 = g.rref(r1)
    assert (r1 == r2).all() and p1 == p2


@given(gf2_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert g.rank(m) + g.kernel_basis(m).shape[1] == m.shape[1]


@given(gf2_matrix(), st.integers(0, 2 ** 18 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_consistent_system(m, bits):
    x = g.gf2([[(bits >> i) & 1] for i in range(m.shape[1])])
    b = g.matmul(m, x)
    y = g.solve(m, b)
    assert y is not None and not (g.matmul(m, y) ^ b).any()


def assert_greedy_basis(cx, k):
    reps, img = cx.homology_data(k)
    want_reps, want_img = greedy_homology_reps(
        cx.diff(cx.prev_deg(k)), g.kernel_basis(cx.diff(k)))
    for got, want in ((reps, want_reps), (img, want_img)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_homology_basis_matches_greedy_on_random_complexes(seed, max_dim):
    cx, _, _ = random_complex(rng(seed), max_dim=max_dim)
    for k in cx.degrees():
        assert_greedy_basis(cx, k)


@given(gf2_matrix(), st.integers(1, 6), st.integers(0, 2 ** 36 - 1))
@settings(max_examples=60, deadline=None)
def test_homology_basis_matches_greedy_on_matrix_pairs(d0, n2, bits):
    # d1 takes its rows from the left null space of d0, so d1 d0 = 0.
    left_null = g.kernel_basis(d0.T)
    mix = g.gf2([[(bits >> (i * 6 + j)) & 1
                  for j in range(left_null.shape[1])] for i in range(n2)])
    d1 = g.matmul(mix, left_null.T)
    cx = g.ChainComplex({0: d0.shape[1], 1: d0.shape[0], 2: n2},
                        {0: d0, 1: d1})
    for k in (0, 1, 2):
        assert_greedy_basis(cx, k)
