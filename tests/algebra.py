"""Random GF(2) complexes and chain maps with known homology, for the
tests of twistcheck.gf2."""

from __future__ import annotations

import numpy as np

from twistcheck.gf2 import (ChainComplex, ChainMap, GradedDims, eye, matmul,
                            rank, solve, zeros)


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if rank(m) == n:
            return m


def random_complex(rng: np.random.Generator, degrees=(0, 1, 2, 3),
                   max_dim: int = 4):
    """Random complex with known homology.

    Built from a standard form [homology | source | target] per degree and
    conjugated by random invertible matrices, so d^2 = 0 by construction.
    Returns (complex, homology GradedDims, change-of-basis dict).
    """
    degrees = sorted(degrees)
    h = {k: int(rng.integers(0, max_dim + 1)) for k in degrees}
    r = {k: int(rng.integers(0, max_dim + 1)) for k in degrees}
    r[degrees[-1]] = 0  # nothing to map out of the top degree
    dims, diffs = {}, {}
    for k in degrees:
        r_prev = r.get(k - 1, 0)
        dims[k] = h[k] + r[k] + r_prev
    for k in degrees[:-1]:
        n_src, n_tgt = dims[k], dims[k + 1]
        m = zeros(n_tgt, n_src)
        for t in range(r[k]):
            m[n_tgt - r[k] + t, h[k] + t] = 1
        diffs[k] = m
    basis = {k: random_invertible(dims[k], rng) if dims[k] else eye(0)
             for k in degrees}
    conj = {}
    for k in degrees[:-1]:
        inv = solve(basis[k], eye(dims[k]))
        conj[k] = matmul(matmul(basis[k + 1], diffs[k]), inv)
    cx = ChainComplex(dims, conj, mod2=False)
    return cx, GradedDims({k: h[k] for k in degrees}), basis


def random_chain_map(rng: np.random.Generator, source_data, target_data):
    """Random chain map between two random_complex outputs.

    Returns (ChainMap, expected induced-map matrices per degree).
    The map is block diagonal in the standard bases (homology block A_k,
    matched source/target blocks B_k) plus a random null homotopy.
    """
    (cs, hs, bs) = source_data
    (ct, ht, bt) = target_data
    degrees = sorted(set(cs.dims.degrees()) | set(ct.dims.degrees())
                     | set(cs.d) | set(ct.d))
    # recover the standard block sizes
    def blocks(cx, h):
        r = {}
        ks = sorted(set(cx.dims.degrees()) | set(cx.d))
        for k in ks:
            r[k] = rank(cx.diff(k))
        return r
    rs, rt = blocks(cs, hs), blocks(ct, ht)
    a, b = {}, {}
    for k in degrees:
        a[k] = rng.integers(0, 2, size=(ht[k], hs[k]), dtype=np.uint8)
        n = min(rs.get(k, 0), rt.get(k, 0))
        bk = zeros(rt.get(k, 0), rs.get(k, 0))
        sub = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        bk[:n, :n] = sub
        b[k] = bk
    comps = {}
    for k in degrees:
        ns, nt = cs.dims[k], ct.dims[k]
        m = zeros(nt, ns)
        m[:ht[k], :hs[k]] = a[k]
        r_s, r_t = rs.get(k, 0), rt.get(k, 0)
        m[ht[k]:ht[k] + r_t, hs[k]:hs[k] + r_s] = b[k]
        rp_s, rp_t = rs.get(k - 1, 0), rt.get(k - 1, 0)
        if rp_s and rp_t:
            m[nt - rp_t:, ns - rp_s:] = b[k - 1][:rp_t, :rp_s] \
                if b.get(k - 1) is not None else 0
        comps[k] = m
    # conjugate into the scrambled bases
    conj = {}
    for k in degrees:
        inv = solve(bs[k], eye(cs.dims[k]))
        conj[k] = matmul(matmul(bt[k], comps[k]), inv)
    f = ChainMap(cs, ct, conj)
    return f, a
