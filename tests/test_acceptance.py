"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the captured output of a failing run) and asserts the criterion at its
stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from twistcheck import floer as fl
from twistcheck import gf2 as g
from twistcheck import modelgeo as mg
from twistcheck import pipeline as pl
from twistcheck import scenarios as sc
from twistcheck import surface as sf

from algebra import random_chain_map, random_complex
from oracles import (flat_torus_crossings, oracle_homology_ranks,
                     oracle_suspension_flow)


def _report(label, ok, elapsed, budget):
    word = "PASS" if ok else "FAIL"
    print(f"{word}: {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, label
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over budget"


def test_criterion_01_genus2_example():
    t0 = time.time()
    scen = sc.genus2_scenario()
    dims, _ = pl.hf_inverse_twist(scen)
    ind = pl.involution_action(scen)
    a = pl.distinguished_element(scen)
    ok = (dims.dims == {0: 2, 1: 4}
          and ind[0].tolist() == [[0, 1], [1, 0]]
          and a.as_list() == [1, 1]
          and pl.verify_theorem_A(scen).passed)
    _report("criterion 1: genus-2 example (ranks, c*, A, theorem)",
            ok, time.time() - t0, 1.0)


def test_criterion_02_torus_example():
    t0 = time.time()
    scen = sc.torus_scenario()
    dims, _ = pl.hf_inverse_twist(scen)
    ind = pl.involution_action(scen)
    a = pl.distinguished_element(scen)
    ok = (dims[0] == 1 and ind[0].tolist() == [[1]]
          and a.as_list() == [1]
          and pl.verify_theorem_A(scen).passed)
    _report("criterion 2: torus example", ok, time.time() - t0, 1.0)


def test_criterion_03_genus3_example():
    t0 = time.time()
    scen = sc.genus3_scenario()
    dims, _ = pl.hf_inverse_twist(scen)
    a = pl.distinguished_element(scen)
    ok = (dims[0] == 2 and a.as_list() == [1, 1]
          and pl.verify_theorem_A(scen).passed)
    _report("criterion 3: genus-3 separating example", ok,
            time.time() - t0, 1.0)


def test_criterion_04_a_nonzero_on_corpus():
    t0 = time.time()
    scens = [b() for b in sc.BUILDERS.values()]
    scens.append(sc.genus2_scenario(component_preserving=True))
    ok = all(np.asarray(pl.distinguished_element(s).vector).any()
             for s in scens)
    _report("criterion 4: A != 0 on every corpus scenario", ok,
            time.time() - t0, 1.0)


def test_criterion_05_model_dehn_twist():
    t0 = time.time()
    nu = mg.ProfileFunction("dehn", 1.0)
    ok = True
    for dim in (1, 2):
        rep = mg.verify_model_twist(nu, dim, 10000, seed=dim,
                                    tolerance=1e-5)
        res = rep.residuals
        ok = ok and res["zero_section_antipode"] == 0.0 \
            and res["identity_region"] <= 1e-12 \
            and res["symplectic"] < 1e-5 and rep.passed
    _report("criterion 5: model Dehn twist (antipode exact, identity "
            "region 1e-12, symplecticity 1e-5, n in {1,2})",
            ok, time.time() - t0, 30.0)


def test_criterion_06_lemma_identities():
    t0 = time.time()
    ok = True
    for kind in ("id", "r"):
        for dim in (1, 2, 3):
            rep = mg.verify_lemma_identities(kind, dim, 10000,
                                             seed=dim, tolerance=1e-9)
            ok = ok and rep.passed
    _report("criterion 6: involution/flow identities < 1e-9, "
            "kind in {id,r}, n in {1,2,3}", ok, time.time() - t0, 30.0)


def test_criterion_07_handle_and_suspension():
    t0 = time.time()
    nu = mg.ProfileFunction("dehn", 1.0)
    ok = True
    for kind in ("id", "r"):
        rep = mg.verify_handle_symmetry(kind, nu, 2, 10000,
                                        tolerance=1e-9)
        ok = ok and rep.passed
        rep = mg.verify_suspension_symmetry(kind, nu, 2, 10000,
                                            tolerance=1e-9)
        ok = ok and rep.passed
    # independent ODE path for the suspension flow; some inner slice
    # must lie past the start of the bump, where the ODE integrates a K
    # that is on (at t = 1 the accumulated time b is the whole integral)
    slices = []

    def ode_flow(q, p, t, nu0):
        q2, p2, b = oracle_suspension_flow(q, p, t, nu0, steps=250)
        slices.append((t, float(np.max(b))))
        return q2, p2, b

    rep = mg.verify_suspension_symmetry("id", nu, 1, 10000, tolerance=1e-6,
                                        flow=ode_flow)
    ok = (ok and rep.passed
          and any(0.0 < t < 1.0 and b > 0.0 for t, b in slices))
    _report("criterion 7: handle + suspension symmetry (closed form "
            "1e-9, ODE path 1e-6)", ok, time.time() - t0, 60.0)


def test_criterion_08_splitting_identities():
    t0 = time.time()
    nu = mg.ProfileFunction("dehn", 1.0)
    ok = True
    for kind in ("id", "r"):
        for dim in (1, 2):
            rep = mg.verify_involution_splitting(kind, nu, dim, 4000,
                                                 seed=dim,
                                                 tolerance=1e-5)
            res = rep.residuals
            ok = ok and res["involution"] <= 1e-10 \
                and res["conjugation"] < 1e-8 \
                and res["antisymplectic_c"] < 1e-5 \
                and res["antisymplectic_ctilde"] < 1e-5
    _report("criterion 8: splitting identities (square 1e-10, "
            "conjugation 1e-8, anti-symplecticity 1e-5)",
            ok, time.time() - t0, 30.0)


def test_criterion_09_homological_suite():
    t0 = time.time()
    r = np.random.default_rng(2718)
    ok = True
    for _ in range(100):
        # max_dim caps the homology and rank blocks, keeping every
        # chain group at dimension <= 8
        sd = random_complex(r, degrees=(0, 1, 2), max_dim=2)
        td = random_complex(r, degrees=(0, 1, 2), max_dim=2)
        cx, hx, _ = sd
        ok = ok and cx.validate()[0]
        got = cx.homology().dims
        want = oracle_homology_ranks(
            dict(cx.dims.dims), {k: cx.diff(k) for k in (0, 1)})
        ok = ok and got == {k: v for k, v in want.items() if v}
        f, _ = random_chain_map(r, sd, td)
        try:
            g.LongExactSequence(f)  # raises on any exactness failure
        except Exception:
            ok = False
        dy, hy, _ = td
        t = g.tensor_complex(cx, dy)
        ok = ok and t.homology().dims == g.convolve(hx, hy, False).dims
    _report("criterion 9: homological suite (d2=0, cone LES, oracle "
            "ranks, Kunneth) on 100 random complexes",
            ok, time.time() - t0, 10.0)


def test_criterion_10_floer_suite():
    t0 = time.time()
    ok = True
    # bigon differential d^2 = 0 on corpus pairs
    pairs = []
    g2 = sc.genus2_scenario()
    pairs.append((g2.curves["alpha1"], g2.curves["beta1"]))
    gx = sc.genus2_crossing_scenario()
    pairs.append((gx.s_curve, gx.n_curve))
    tor = sc.grid_torus(5)
    pairs.append((sc.grid_row(tor, 5, 0), sc.grid_col(tor, 5, 0)))
    for l0, l1 in pairs:
        ok = ok and fl.floer_complex(l0, l1).complex.validate()[0]
    # torus rank law on 20 coprime slope pairs
    count = 0
    for k in (1, 2, 3, 4, 5, -1, -2, -3, -4, -5):
        out = fl.dehn_twist(tor, sc.grid_row(tor, 5, 0), k,
                            twist=[sc.grid_col(tor, 5, 0)],
                            carry=[sc.grid_col(tor, 5, 2)])
        tn = out.twisted[0]
        ok = ok and fl.rank_hf(tn, out.carried[0]).total() \
            == flat_torus_crossings(k, 1, 0, 1)
        row2 = sf.Curve.from_symbols(out.surface,
                                     sc.grid_row(tor, 5, 2).symbols(),
                                     "row2")
        ok = ok and fl.rank_hf(tn, row2).total() \
            == flat_torus_crossings(k, 1, 1, 0)
        count += 2
    assert count == 20
    # LES rank inequalities: corpus plus 50 randomized torus triples
    for builder in (sc.genus2_crossing_scenario, sc.torus_les_scenario):
        ok = ok and pl.les_rank_check(builder()).passed
    rng = np.random.default_rng(424242)
    for _ in range(50):
        scen = sc.random_torus_les_scenario(rng)
        ok = ok and pl.les_rank_check(scen).passed
    _report("criterion 10: Floer suite (d2=0, 20 slope pairs vs flat "
            "oracle, LES inequalities corpus + 50 random)",
            ok, time.time() - t0, 60.0)
