"""Exact linear algebra over GF(2): graded chain complexes, chain maps,
mapping cones, long exact sequences and tensor products.

Matrices are dense numpy uint8 arrays with entries in {0, 1}; all arithmetic
is mod 2.  A differential in degree k is a matrix d_k: C^k -> C^{k+1}, stored
with shape (dim C^{k+1}, dim C^k).  Complexes are either Z-graded (finite
support) or Z/2-graded, in which case degree arithmetic wraps mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GF2Error(Exception):
    pass


class ShapeError(GF2Error):
    """Structural mismatch between graded dimensions and matrix shapes."""


class NotAComplexError(GF2Error):
    """d o d != 0 somewhere."""


class NotAChainMapError(GF2Error):
    """Components fail to commute with the differentials."""


# ---------------------------------------------------------------------------
# basic matrix routines


def gf2(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.uint8) % 2
    if m.ndim != 2:
        m = np.atleast_2d(m)
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 reaches BLAS, which numpy's integer matmul does not; every
    # entry is a sum of 0/1 products, exact while the inner size < 2**53.
    return (a.astype(np.float64) @ b.astype(np.float64) % 2).astype(np.uint8)


def rref(a: np.ndarray):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the ordered list of pivot columns.
    Scanning columns left to right makes the pivot set the lexicographically
    smallest one, so all downstream basis choices are deterministic.
    """
    r = a.copy()
    rows, cols = r.shape
    pivots = []
    lead = 0
    for col in range(cols):
        if lead == rows:
            break
        below = r[lead:, col].nonzero()[0]
        if below.size == 0:
            continue
        sel = lead + below[0]
        if sel != lead:
            r[[lead, sel]] = r[[sel, lead]]
        # Row `lead` is zero left of col, so only columns col.. change.
        others = r[:, col].nonzero()[0]
        r[others[others != lead], col:] ^= r[lead, col:]
        pivots.append(col)
        lead += 1
    return r, pivots


def rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return len(rref(a)[1])


def kernel_basis(a: np.ndarray) -> np.ndarray:
    """Columns form a basis of the null space, in free-column order."""
    r, pivots = rref(a)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = zeros(a.shape[1], free.size)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = r[:len(pivots), free]
    return basis


def solve(a: np.ndarray, b: np.ndarray):
    """One solution of a x = b per column of b, or None if inconsistent."""
    rows, cols = a.shape
    b = np.asarray(b, dtype=np.uint8) % 2
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != rows:
        raise ShapeError(f"rhs has {b.shape[0]} rows, expected {rows}")
    if rows == 0:
        return zeros(cols, b.shape[1])
    aug, pivots = rref(np.concatenate([a, b], axis=1))
    if any(p >= cols for p in pivots):
        return None
    x = zeros(cols, b.shape[1])
    x[pivots] = aug[:len(pivots), cols:]
    return x


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if rank(m) == n:
            return m


# ---------------------------------------------------------------------------
# graded objects


@dataclass(frozen=True)
class GradedDims:
    """Finite-support map degree -> dimension."""

    dims: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {int(k): int(v) for k, v in self.dims.items() if v}
        if any(v < 0 for v in clean.values()):
            raise ShapeError("negative dimension")
        object.__setattr__(self, "dims", clean)

    def __getitem__(self, k: int) -> int:
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def total(self) -> int:
        return sum(self.dims.values())

    def euler(self) -> int:
        return sum(d if k % 2 == 0 else -d for k, d in self.dims.items())

    def shift(self, n: int, mod2: bool = False) -> "GradedDims":
        if mod2:
            out: dict[int, int] = {}
            for k, d in self.dims.items():
                kk = (k + n) % 2
                out[kk] = out.get(kk, 0) + d
            return GradedDims(out)
        return GradedDims({k + n: d for k, d in self.dims.items()})


def convolve(a: "GradedDims", b: "GradedDims", mod2: bool) -> "GradedDims":
    out: dict[int, int] = {}
    for i, di in a.dims.items():
        for j, dj in b.dims.items():
            k = (i + j) % 2 if mod2 else i + j
            out[k] = out.get(k, 0) + di * dj
    return GradedDims(out)


class ChainComplex:
    """Cochain complex over GF(2) with differentials of degree +1."""

    def __init__(self, dims, differentials=None, mod2: bool = False,
                 check: bool = True):
        if not isinstance(dims, GradedDims):
            dims = GradedDims(dict(dims))
        self.dims = dims
        self.mod2 = mod2
        self.d = {int(k): m2 for k, m in (differentials or {}).items()
                  if (m2 := gf2(m)).size}
        self._homology = {}
        if check:
            ok, why = self.validate()
            if not ok:
                raise why

    def next_deg(self, k: int) -> int:
        return (k + 1) % 2 if self.mod2 else k + 1

    def prev_deg(self, k: int) -> int:
        return (k + 1) % 2 if self.mod2 else k - 1

    def dim(self, k: int) -> int:
        return self.dims[k]

    def diff(self, k: int) -> np.ndarray:
        """Differential C^k -> C^{k+1} (zero matrix if absent)."""
        if k in self.d:
            return self.d[k]
        return zeros(self.dims[self.next_deg(k)], self.dims[k])

    def degrees(self):
        if self.mod2:
            return [k for k in (0, 1) if self.dims[k] or k in self.d]
        ks = set(self.dims.degrees()) | set(self.d)
        return sorted(ks)

    def validate(self):
        """(True, None) or (False, exception) with the first violation."""
        for k, m in self.d.items():
            want = (self.dims[self.next_deg(k)], self.dims[k])
            if m.shape != want:
                return False, ShapeError(
                    f"differential at degree {k} has shape {m.shape}, "
                    f"expected {want}")
        for k in self.degrees():
            dk = self.diff(k)
            dk1 = self.diff(self.next_deg(k))
            sq = matmul(dk1, dk)
            if sq.any():
                col = int(np.nonzero(sq.any(axis=0))[0][0])
                return False, NotAComplexError(
                    f"d^2 != 0 at degree {k}, witness column {col}")
        return True, None

    def euler(self) -> int:
        return self.dims.euler()

    # -- homology ----------------------------------------------------------

    def homology_data(self, k: int):
        """(representative columns, image basis) in degree k.

        The image basis is the lexicographically first independent set of
        columns of d_{k-1}; the representatives are the lexicographically
        first kernel-basis columns independent modulo the image.  Both are
        read off the pivots of one elimination of [d_{k-1} | ker d_k]: a
        column is a pivot exactly when it is not in the span of the
        columns to its left.

        The pair is computed once per degree and kept on the instance
        (d and dims are fixed after construction); its arrays are
        read-only.
        """
        if k in self._homology:
            return self._homology[k]
        dprev = self.diff(self.prev_deg(k))
        ker = kernel_basis(self.diff(k))
        _, pivots = rref(np.concatenate([dprev, ker], axis=1))
        pivots = np.array(pivots, dtype=int)
        n_prev = dprev.shape[1]
        data = (ker[:, pivots[pivots >= n_prev] - n_prev],
                dprev[:, pivots[pivots < n_prev]])
        for a in data:
            a.flags.writeable = False
        self._homology[k] = data
        return data

    def homology(self) -> GradedDims:
        return GradedDims({k: self.homology_data(k)[0].shape[1]
                           for k in self.degrees()})


class ChainMap:
    """Degree-preserving map of complexes commuting with differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components=None, check: bool = True):
        if source.mod2 != target.mod2:
            raise ShapeError("mixed gradings")
        self.source = source
        self.target = target
        self.f = {int(k): gf2(m) for k, m in (components or {}).items()}
        if check:
            bad = self.failing_degree()
            if bad is not None:
                raise NotAChainMapError(f"does not commute at degree {bad}")

    def comp(self, k: int) -> np.ndarray:
        if k in self.f:
            return self.f[k]
        return zeros(self.target.dims[k], self.source.dims[k])

    def degrees(self):
        ks = set(self.source.degrees()) | set(self.target.degrees()) | set(self.f)
        return sorted(ks)

    def failing_degree(self):
        for k in self.degrees():
            fk = self.comp(k)
            want = (self.target.dims[k], self.source.dims[k])
            if fk.shape != want:
                return k
            lhs = matmul(self.target.diff(k), fk)
            rhs = matmul(self.comp(self.source.next_deg(k)),
                         self.source.diff(k))
            if (lhs ^ rhs).any():
                return k
        return None

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        comps = {k: matmul(self.comp(k), other.comp(k))
                 for k in set(self.degrees()) | set(other.degrees())}
        return ChainMap(other.source, self.target, comps, check=False)


def identity_map(c: ChainComplex) -> ChainMap:
    return ChainMap(c, c, {k: eye(c.dims[k]) for k in c.degrees()},
                    check=False)


def induced_map(f: ChainMap) -> dict[int, np.ndarray]:
    """Matrices of H(f) in the deterministic homology bases.

    Rejects non-chain-maps; the solve is always consistent for genuine
    chain maps since f(ker) stays in ker and images map to images.
    """
    bad = f.failing_degree()
    if bad is not None:
        raise NotAChainMapError(f"does not commute at degree {bad}")
    out = {}
    for k in f.degrees():
        reps_s, _ = f.source.homology_data(k)
        reps_t, img_t = f.target.homology_data(k)
        n_s, n_t = reps_s.shape[1], reps_t.shape[1]
        mapped = matmul(f.comp(k), reps_s)
        sys = np.concatenate([reps_t, img_t], axis=1)
        if n_s == 0:
            out[k] = zeros(n_t, 0)
            continue
        x = solve(sys, mapped)
        if x is None:
            raise NotAChainMapError(
                f"image of homology class leaves the cycle space at {k}")
        out[k] = x[:n_t, :]
    return out


# ---------------------------------------------------------------------------
# cones, long exact sequences, tensor products


class Cone:
    """Mapping cone of f: C -> D, with the two structural chain maps.

    Cone^k = C^{k+1} (+) D^k, differential (c, x) -> (d_C c, f c + d_D x).
    """

    def __init__(self, f: ChainMap):
        bad = f.failing_degree()
        if bad is not None:
            raise NotAChainMapError(f"does not commute at degree {bad}")
        c, d = f.source, f.target
        mod2 = c.mod2
        degs = set(c.degrees()) | set(d.degrees())
        if mod2:
            degs = {0, 1}
        else:
            degs = set(degs) | {k - 1 for k in c.degrees()}
        dims = {}
        for k in sorted(degs):
            kc = (k + 1) % 2 if mod2 else k + 1
            dims[k] = c.dims[kc] + d.dims[k]
        diffs = {}
        for k in sorted(degs):
            kc = (k + 1) % 2 if mod2 else k + 1
            k1 = (k + 1) % 2 if mod2 else k + 1
            kc1 = (kc + 1) % 2 if mod2 else kc + 1
            top = np.concatenate(
                [c.diff(kc), zeros(c.dims[kc1], d.dims[k])], axis=1)
            bot = np.concatenate([f.comp(kc), d.diff(k)], axis=1)
            m = np.concatenate([top, bot], axis=0)
            if m.size:
                diffs[k] = m
        self.f = f
        self.complex = ChainComplex(dims, diffs, mod2=mod2)

    def inclusion(self) -> ChainMap:
        """D -> Cone."""
        d, cx = self.f.target, self.complex
        comps = {}
        for k in cx.degrees():
            m = zeros(cx.dims[k], d.dims[k])
            off = cx.dims[k] - d.dims[k]
            for j in range(d.dims[k]):
                m[off + j, j] = 1
            comps[k] = m
        return ChainMap(d, cx, comps, check=False)

    def projection_components(self) -> dict[int, np.ndarray]:
        """Cone^k -> C^{k+1}, degree +1 chain map onto the shifted source."""
        c, cx = self.f.source, self.complex
        out = {}
        for k in cx.degrees():
            kc = (k + 1) % 2 if cx.mod2 else k + 1
            m = zeros(c.dims[kc], cx.dims[k])
            for j in range(c.dims[kc]):
                m[j, j] = 1
            out[k] = m
        return out


def cone(f: ChainMap) -> ChainComplex:
    return Cone(f).complex


@dataclass
class LESNode:
    """One map of the long exact sequence at homology level."""

    label: str
    degree: int
    matrix: np.ndarray


class LongExactSequence:
    """H^k(C) -> H^k(D) -> H^k(cone f) -> H^{k+1}(C) -> ...

    Exactness is verified on construction; failure raises, since it can only
    indicate an internal bug.
    """

    def __init__(self, f: ChainMap):
        kone = Cone(f)
        c, d, cx = f.source, f.target, kone.complex
        self.cone = kone
        self.h_source = c.homology()
        self.h_target = d.homology()
        self.h_cone = cx.homology()
        fstar = induced_map(f)
        istar = induced_map(kone.inclusion())
        # projection is a chain map into C shifted by one; push to homology
        # by hand since it changes degree.
        proj = kone.projection_components()
        pstar = {}
        for k in cx.degrees():
            kc = cx.next_deg(k)
            reps_cx, _ = cx.homology_data(k)
            reps_c, img_c = c.homology_data(kc)
            mapped = matmul(proj[k], reps_cx)
            if reps_cx.shape[1] == 0:
                pstar[k] = zeros(reps_c.shape[1], 0)
                continue
            x = solve(np.concatenate([reps_c, img_c], axis=1), mapped)
            if x is None:
                raise NotAComplexError("cone projection left cycle space")
            pstar[k] = x[:reps_c.shape[1], :]
        self.maps: list[LESNode] = []
        degs = set(cx.degrees()) | set(c.degrees()) | set(d.degrees()) or {0}
        if not cx.mod2:
            degs = degs | {min(degs) - 1, max(degs) + 1}
        for k in sorted(degs):
            self.maps.append(LESNode("f*", k, fstar.get(k, zeros(
                self.h_target[k], self.h_source[k]))))
            self.maps.append(LESNode("i*", k, istar.get(k, zeros(
                self.h_cone[k], self.h_target[k]))))
            self.maps.append(LESNode("p*", k, pstar.get(k, zeros(
                self.h_source[cx.next_deg(k) if cx.mod2 else k + 1],
                self.h_cone[k]))))
        self._check_exactness(c.mod2)

    def _sequence_edges(self, mod2: bool):
        """Consecutive (incoming, outgoing) pairs of the periodic sequence."""
        by = {(n.label, n.degree): n for n in self.maps}
        edges = []
        for n in self.maps:
            if n.label == "f*":
                nxt = by.get(("i*", n.degree))
            elif n.label == "i*":
                nxt = by.get(("p*", n.degree))
            else:
                k1 = (n.degree + 1) % 2 if mod2 else n.degree + 1
                nxt = by.get(("f*", k1))
            if nxt is not None:
                edges.append((n, nxt))
        return edges

    def _check_exactness(self, mod2: bool):
        for inc, out in self._sequence_edges(mod2):
            if inc.matrix.shape[0] != out.matrix.shape[1]:
                raise ShapeError("LES node dimension mismatch")
            middle = inc.matrix.shape[0]
            if matmul(out.matrix, inc.matrix).any():
                raise NotAComplexError(
                    f"LES not exact after {inc.label}@{inc.degree}: "
                    "composition nonzero")
            if rank(inc.matrix) + rank(out.matrix) != middle:
                raise NotAComplexError(
                    f"LES not exact at node after {inc.label}@{inc.degree}: "
                    "image != kernel")

    def node_dims(self):
        return self.h_source, self.h_target, self.h_cone


def tensor_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Graded tensor product; over GF(2) no Koszul signs are needed."""
    if c.mod2 != d.mod2:
        raise ShapeError("mixed gradings")
    mod2 = c.mod2
    pairs: dict[int, list[tuple[int, int]]] = {}
    for i in c.dims.degrees():
        for j in d.dims.degrees():
            k = (i + j) % 2 if mod2 else i + j
            pairs.setdefault(k, []).append((i, j))
    for k in pairs:
        pairs[k].sort()
    dims = {k: sum(c.dims[i] * d.dims[j] for i, j in ps)
            for k, ps in pairs.items()}

    def offset(k, pair):
        off = 0
        for p in pairs[k]:
            if p == pair:
                return off
            off += c.dims[p[0]] * d.dims[p[1]]
        raise KeyError(pair)

    diffs = {}
    for k, ps in pairs.items():
        k1 = (k + 1) % 2 if mod2 else k + 1
        if k1 not in pairs:
            continue
        m = zeros(dims[k1], dims[k])
        for (i, j) in ps:
            src_off = offset(k, (i, j))
            blk = c.dims[i] * d.dims[j]
            # d_C (x) 1
            i1 = (i + 1) % 2 if mod2 else i + 1
            if (i1, j) in pairs.get(k1, []):
                part = np.kron(c.diff(i), eye(d.dims[j])) % 2
                t_off = offset(k1, (i1, j))
                m[t_off:t_off + part.shape[0],
                  src_off:src_off + blk] ^= part.astype(np.uint8)
            # 1 (x) d_D
            j1 = (j + 1) % 2 if mod2 else j + 1
            if (i, j1) in pairs.get(k1, []):
                part = np.kron(eye(c.dims[i]), d.diff(j)) % 2
                t_off = offset(k1, (i, j1))
                m[t_off:t_off + part.shape[0],
                  src_off:src_off + blk] ^= part.astype(np.uint8)
        if m.size:
            diffs[k] = m
    return ChainComplex(dims, diffs, mod2=mod2)


# ---------------------------------------------------------------------------
# random instances (test corpus generators)


def random_complex(rng: np.random.Generator, degrees=(0, 1, 2, 3),
                   max_dim: int = 4, mod2: bool = False):
    """Random complex with known homology.

    Built from a standard form [homology | source | target] per degree and
    conjugated by random invertible matrices, so d^2 = 0 by construction.
    Returns (complex, homology GradedDims, change-of-basis dict).
    """
    degrees = sorted(degrees)
    h = {k: int(rng.integers(0, max_dim + 1)) for k in degrees}
    r = {k: int(rng.integers(0, max_dim + 1)) for k in degrees}
    r[degrees[-1]] = 0  # nothing to map out of the top degree
    if mod2:
        raise NotImplementedError("generator emits Z-graded complexes")
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
