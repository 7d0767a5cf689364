"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and shares no code with the package:
row reduction is a fresh textbook elimination, homology ranks come from
rank-nullity, induced maps on homology from explicit coset enumeration.
"""

from __future__ import annotations

import itertools

import numpy as np


def naive_rank_gf2(rows) -> int:
    """Gaussian elimination on python ints, one bit per column."""
    m = [int("".join(map(str, map(int, row))), 2) if len(row) else 0
         for row in rows]
    width = len(rows[0]) if len(rows) else 0
    rank = 0
    for col in range(width):
        bit = 1 << (width - 1 - col)
        pivot = None
        for i in range(rank, len(m)):
            if m[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        # the rank needs only the rows below cleared, and those up to
        # the pivot lack its bit
        for i in range(pivot + 1, len(m)):
            if m[i] & bit:
                m[i] ^= m[rank]
        rank += 1
    return rank


def oracle_homology_ranks(dims: dict[int, int],
                          diffs: dict[int, np.ndarray]) -> dict[int, int]:
    """dim H^k = nullity(d_k) - rank(d_{k-1}) via the naive eliminator."""
    rank = {k: naive_rank_gf2(d.tolist()) if d.size else 0
            for k, d in diffs.items() if d is not None}
    return {k: n - rank.get(k, 0) - rank.get(k - 1, 0)
            for k, n in dims.items()}


def greedy_homology_reps(dprev: np.ndarray, ker: np.ndarray):
    """Reference basis choice of ChainComplex.homology_data: (reps, img).

    Walks the columns of dprev and then of ker left to right and keeps
    each one that is not in the span of the columns kept so far, one span
    test per column against an xor basis of python ints.  The kept dprev
    columns are the image basis, the kept ker columns the representatives.
    """
    basis = {}  # leading bit -> basis vector with that leading bit

    def independent(col) -> bool:
        v = int("".join(str(int(x)) for x in col) or "0", 2)
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                return True
            v ^= basis[top]
        return False

    img = [j for j in range(dprev.shape[1]) if independent(dprev[:, j])]
    reps = [j for j in range(ker.shape[1]) if independent(ker[:, j])]
    return ker[:, reps], dprev[:, img]


def enumerate_space(basis_cols: np.ndarray):
    """All vectors of the GF(2) span of the given columns."""
    n, k = basis_cols.shape
    vecs = set()
    for coeffs in itertools.product((0, 1), repeat=k):
        v = np.zeros(n, dtype=np.uint8)
        for c, j in zip(coeffs, range(k)):
            if c:
                v ^= basis_cols[:, j]
        vecs.add(tuple(int(x) for x in v))
    return vecs


def oracle_induced_matrix(ker_s, img_s, ker_t, img_t, f_mat,
                          reps_s, reps_t) -> np.ndarray:
    """Induced map on H = ker/img by explicit coset arithmetic.

    For each source representative, finds the unique target representative
    combination whose coset contains the mapped vector, by enumerating the
    target image subspace.  Feasible for dims <= 8.
    """
    img_span = enumerate_space(img_t)
    n_t = reps_t.shape[1]
    n_s = reps_s.shape[1]
    out = np.zeros((n_t, n_s), dtype=np.uint8)
    for j in range(n_s):
        v = (f_mat @ reps_s[:, j]) % 2
        found = False
        for coeffs in itertools.product((0, 1), repeat=n_t):
            w = np.zeros_like(v)
            for c, t in zip(coeffs, range(n_t)):
                if c:
                    w ^= reps_t[:, t]
            if tuple(int(x) for x in (v ^ w)) in img_span:
                out[:, j] = coeffs
                found = True
                break
        if not found:
            raise AssertionError("mapped class not found in any coset")
    return out


def component_permutation(surface, curve, psi):
    """Action of a cellular involution on the pieces of surface cut along
    curve, by breadth-first search over faces.

    Two faces are in one piece when a chain of faces joins them, each
    sharing with the next an edge off the curve.  An orientation-reversing
    involution with dart map psi sends the face holding dart d to the face
    holding the reverse of psi(d).  Returns (pieces, m): pieces is a list
    of frozensets of faces ordered by least face, and m[i, j] = 1 when
    piece j goes to piece i.
    """
    face_of = {}
    for f, word in enumerate(surface.words):
        for d in word:
            face_of[d] = f
    cut = {d // 2 for d in curve.darts}
    piece_of = {}
    pieces = []
    for start in range(len(surface.words)):
        if start in piece_of:
            continue
        piece_of[start] = len(pieces)
        members, queue = [start], [start]
        while queue:
            f = queue.pop(0)
            for d in surface.words[f]:
                g = face_of[d ^ 1]
                if d // 2 not in cut and g not in piece_of:
                    piece_of[g] = len(pieces)
                    members.append(g)
                    queue.append(g)
        pieces.append(frozenset(members))
    m = np.zeros((len(pieces), len(pieces)), dtype=np.uint8)
    for j, piece in enumerate(pieces):
        f = min(piece)
        m[piece_of[face_of[int(psi[surface.words[f][0]]) ^ 1]], j] = 1
    return pieces, m


def flat_torus_crossings(a, b, c, d):
    """Minimal crossing number of flat-torus lines of classes (a, b) and
    (c, d): the absolute value of the determinant."""
    return abs(a * d - b * c)


# ---------------------------------------------------------------------------
# Stereographic cotangent charts by finite differences.


def inverse_stereographic(u, s):
    """The point of S^n in R^{n+1} that projects to u from the pole
    s * e_last, rowwise: (2u, s (|u|^2 - 1)) / (1 + |u|^2)."""
    uu = np.sum(u * u, axis=1, keepdims=True)
    return np.hstack([2.0 * u, s[:, None] * (uu - 1.0)]) / (1.0 + uu)


def oracle_chart_covector(u, p, s, h=1e-5):
    """The chart covector J^T p, with J the central-difference Jacobian
    of inverse_stereographic at u, shape (rows, n+1, n)."""
    cols = []
    for j in range(u.shape[1]):
        e = np.zeros(u.shape[1])
        e[j] = h
        cols.append((inverse_stereographic(u + e, s)
                     - inverse_stereographic(u - e, s)) / (2.0 * h))
    jac = np.stack(cols, axis=2)
    return np.sum(jac * p[:, :, None], axis=1)


# ---------------------------------------------------------------------------
# ODE integration oracles for the model geometry.  These integrate the
# relevant Hamiltonian vector fields numerically and never touch the
# closed-form trigonometric solutions they are used to certify.


def rk4(field, y0, t0, t1, steps):
    """Classical fixed-step Runge-Kutta 4 for dy/dt = field(t, y).

    y may be an arbitrary-shape numpy array (batched states welcome).
    """
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = field(t, y)
        k2 = field(t + h / 2, y + h / 2 * k1)
        k3 = field(t + h / 2, y + h / 2 * k2)
        k4 = field(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def _geodesic_field(q, p):
    """Hamiltonian vector field of (q, p) -> |p| on T*S^n, written in
    ambient coordinates with the sphere constraint eliminated by a
    Lagrange multiplier: dq = p/|p|, dp = -|p| q."""
    norms = np.linalg.norm(p, axis=-1, keepdims=True)
    return p / norms, -norms * q


def oracle_geodesic_flow(q, p, t, steps=800):
    """Integrate the normalized geodesic flow by RK4.

    q, p are batches of shape (rows, n+1); per-row flow times are
    handled by rescaling the field.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    tarr = np.broadcast_to(np.asarray(t, dtype=float), (q.shape[0],))

    def field(_, y):
        qq, pp = y[0], y[1]
        dq, dp = _geodesic_field(qq, pp)
        return np.stack([tarr[:, None] * dq, tarr[:, None] * dp])

    out = rk4(field, np.stack([q, p]), 0.0, 1.0, steps)
    return out[0], out[1]


def oracle_suspension_flow(q, p, t, nu0, K, steps=600):
    """ODE path for the suspension: seed the nu0-handle points from the
    batch xi = (q, p), then integrate the Hamiltonian vector field of
    K_t(|p1|, |p2|) on the product, tracking the accumulated per-factor
    flow times a and b as extra state.

    Matches the signature of the closed-form evaluator inside
    twistcheck.modelgeo.verify_suspension_symmetry.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    n = np.linalg.norm(p, axis=1)
    q2, p2 = oracle_geodesic_flow(q, -p, nu0(n), steps=steps)
    a = np.zeros_like(n)
    b = np.zeros_like(n)
    if t == 0.0:
        return q.copy(), p.copy(), q2, p2, a, b

    rows = q.shape[0]
    dim = q.shape[1]

    def field(s, y):
        q1, p1, q2, p2 = y[0], y[1], y[2], y[3]
        n1 = np.linalg.norm(p1, axis=-1)
        n2 = np.linalg.norm(p2, axis=-1)
        s1 = np.asarray(K.d1(s, n1, n2), dtype=float)
        s2 = np.asarray(K.d2(s, n1, n2), dtype=float)
        dq1, dp1 = _geodesic_field(q1, p1)
        dq2, dp2 = _geodesic_field(q2, p2)
        out = np.zeros_like(y)
        out[0] = s1[:, None] * dq1
        out[1] = s1[:, None] * dp1
        out[2] = s2[:, None] * dq2
        out[3] = s2[:, None] * dp2
        out[4, :, 0] = s1
        out[5, :, 0] = s2
        return out

    state = np.zeros((6, rows, dim))
    state[0], state[1], state[2], state[3] = q, p, q2, p2
    out = rk4(field, state, 0.0, t, steps)
    return (out[0], out[1], out[2], out[3],
            out[4][:, 0], out[5][:, 0])
