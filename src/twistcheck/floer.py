"""Combinatorial Lagrangian Floer cohomology of embedded curves on
surfaces over GF(2).

Intersections are crossings at vertices where the edge-ends of the two
curves interleave in the rotation; the differential counts embedded
bigon regions of the complement, and minimal position is reached by
removing such bigons from the arrangement of the two curves, which
edits no surface; the Dehn twist replaces the twist curve by a grid
annulus in which the twisted curve runs as a staircase and other curves
are carried straight across, each entering the annulus on the side that
the sign of its crossing names.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf2
# floer uses no cut_along of its own; the binding stays for perfbench's
# check that tracing patches from-imports
from .surface import Curve, Surface, _face_classes, _mint, cut_along


class FloerError(Exception):
    pass


class NonTransverseError(FloerError):
    pass


def _require_noncontractible(*curves):
    """Floer theory here is defined for noncontractible curves only."""
    for cur in curves:
        if cur.is_contractible():
            raise FloerError(
                f"curve {cur.name or '?'} is contractible; Floer theory "
                "requires noncontractible curves")


# ---------------------------------------------------------------------------
# intersections


@dataclass(frozen=True)
class IntersectionPoint:
    vertex: int
    nu: int
    degree: int


def _passages(curve: Curve) -> dict[int, tuple[int, int]]:
    """vertex -> (incoming dart, outgoing dart) along the curve."""
    out = {}
    darts = curve.darts
    for i, d in enumerate(darts):
        nxt = darts[(i + 1) % len(darts)]
        out[curve.surface.head(d)] = (d, nxt)
    return out


def find_intersections(l0: Curve, l1: Curve) -> list[IntersectionPoint]:
    """All transverse crossings of l0 and l1, with signs and degrees.

    The sign is nu = +1 when the frame (direction of l0, direction of l1)
    is positively oriented; the mod-2 degree is 1 for nu = +1 and 0 for
    nu = -1.
    """
    s = l0.surface
    if l1.surface is not s:
        raise FloerError("curves live on different surfaces")
    shared = l0.edges & l1.edges
    if shared:
        name = s.edge_names[min(shared)]
        raise NonTransverseError(
            f"curves share edge {name!r}; subdivide and perturb first")
    p0, p1 = _passages(l0), _passages(l1)
    points = []
    for v in sorted(set(p0) & set(p1)):
        in0, out0 = p0[v]
        in1, out1 = p1[v]
        # clockwise steps from out0 in the rotation at v; l1 crosses when
        # exactly one of its darts lies between out0 and l0's way back
        rot = s.rotations[v]
        back, up, down = ((rot.index(d) - rot.index(out0)) % len(rot)
                          for d in (in0 ^ 1, out1, in1 ^ 1))
        if (up < back) == (down < back):
            raise NonTransverseError(
                "curves touch at a vertex without crossing; "
                "subdivide and perturb first")
        nu = 1 if down < back else -1
        points.append(IntersectionPoint(v, nu, 1 if nu > 0 else 0))
    return points


# ---------------------------------------------------------------------------
# the arrangement of two curves and the pieces of its complement


class _Arrangement:
    """Two transverse curves as a graph on their crossings.

    Half-edges are the curve darts leaving a crossing.  alpha pairs the
    two ends of an arc, rot[h] is the next half-edge clockwise at h's
    crossing, region[h] is the piece of the complement left of h's arc,
    and chi[r] is the Euler characteristic of piece r.  The boundary
    circles through crossings are the orbits of h -> rot[alpha[h]].
    degree maps each crossing left to its mod-2 degree.  Once no
    crossing is left, sides[i] holds the pieces left and right of curve
    i.  Bigon removal edits only these dictionaries.
    """

    def __init__(self, l0: Curve, l1: Curve):
        s = l0.surface
        self.points = find_intersections(l0, l1)
        self.degree = {p.vertex: p.degree for p in self.points}
        self.vertex_of = vertex_of = s.vertex_of
        on_curve = l0.edges | l1.edges
        face_of = s.face_of
        reg_of, n_regions = _face_classes(face_of, s.n_faces, on_curve)

        # chi = interior vertices - interior edges + faces (sector
        # vertices and boundary edge sides cancel)
        chi = [0] * n_regions
        for f in range(s.n_faces):
            chi[reg_of[f]] += 1
        for e in range(s.n_edges):
            if e not in on_curve:
                chi[reg_of[face_of[2 * e]]] -= 1
        curve_vertices = {vertex_of[d] for e in on_curve
                          for d in (2 * e, 2 * e + 1)}
        for v, rot in enumerate(s.rotations):
            if v not in curve_vertices:
                chi[reg_of[face_of[rot[0] ^ 1]]] += 1
        self.chi = dict(enumerate(chi))

        self.alpha = {}
        self.sides = []
        for cur in (l0, l1):
            darts = cur.darts
            at = [i for i, d in enumerate(darts)
                  if vertex_of[d] in self.degree]
            for i, j in zip(at, at[1:] + at[:1]):
                h, g = darts[i], darts[j - 1] ^ 1
                self.alpha[h], self.alpha[g] = g, h
            self.sides.append((reg_of[face_of[darts[0]]],
                               reg_of[face_of[darts[0] ^ 1]]))
        self.rot = {}
        for v in self.degree:
            hs = [d for d in s.rotations[v] if d >> 1 in on_curve]
            self.rot.update(zip(hs, hs[1:] + hs[:1]))
        self.region = {h: reg_of[face_of[h]] for h in self.alpha}

    def circles(self) -> list[list[int]]:
        """The boundary circles through crossings, as half-edge lists."""
        seen, out = set(), []
        for h in self.alpha:
            if h in seen:
                continue
            out.append([])
            while h not in seen:
                seen.add(h)
                out[-1].append(h)
                h = self.rot[self.alpha[h]]
        return out

    def bigons(self) -> list[tuple[int, int]]:
        """Circles (h0, h1) at two crossings that bound a disk piece."""
        circles = self.circles()
        n_circles = Counter(self.region[c[0]] for c in circles)
        out = []
        for c in circles:
            r = self.region[c[0]]
            if len(c) != 2 or self.chi[r] != 1 or n_circles[r] != 1:
                continue
            x, y = (self.vertex_of[h] for h in c)
            if x == y:
                continue
            if self.degree[x] == self.degree[y]:
                raise FloerError("bigon violates the mod-2 grading")
            out.append((c[0], c[1]))
        return out

    def _glue(self, a: int, b: int):
        """Join pieces a and b across a strip, which lowers chi by one."""
        if a != b:
            self.chi[a] += self.chi.pop(b)
            for h, r in self.region.items():
                if r == b:
                    self.region[h] = a
        self.chi[a] -= 1

    def remove(self, h0: int, h1: int):
        """Push one curve across the bigon (h0, h1), deleting its corners
        x = tail(h0) and y = tail(h1)."""
        alpha, rot, region = self.alpha, self.rot, self.region
        # clockwise at x: alpha h1, h0, c1x, c0x; at y: alpha h0, h1,
        # c0y, c1y
        c1x, c0y = rot[h0], rot[h1]
        c0x, c1y = rot[c1x], rot[c0y]
        self._glue(region[h0], region[alpha[h1]])
        self._glue(region[c0x], region[c1y])
        # the far ends of the arcs that leave the bigon become one arc
        far = [(alpha[c0x], alpha[c0y]), (alpha[c1x], alpha[c1y])]
        sides = [(region[p], region[q]) for p, q in far]
        for h in (alpha[h0], alpha[h1], h0, h1, c1x, c0x, c0y, c1y):
            del alpha[h], rot[h], region[h]
        del self.degree[self.vertex_of[h0]], self.degree[self.vertex_of[h1]]
        if self.degree:
            for p, q in far:
                alpha[p], alpha[q] = q, p
        else:
            self.sides = sides

    def isotopic(self) -> bool | None:
        """None while crossings are left.  Then, whether some piece is an
        annulus (chi = 0) bounded by one side of each curve."""
        if self.degree:
            return None
        s0, s1 = self.sides
        return any(self.chi[r] == 0 and s0.count(r) == 1 and s1.count(r) == 1
                   for r in s0)


# ---------------------------------------------------------------------------
# the Floer complex


@dataclass
class FloerComplex:
    complex: gf2.ChainComplex
    points: list
    generators: dict       # degree -> ordered list of vertices


def floer_complex(l0: Curve, l1: Curve) -> FloerComplex:
    _require_noncontractible(l0, l1)
    arr = _Arrangement(l0, l1)
    points = arr.points
    gens = {0: [p.vertex for p in points if p.degree == 0],
            1: [p.vertex for p in points if p.degree == 1]}
    pos = {0: {v: i for i, v in enumerate(gens[0])},
           1: {v: i for i, v in enumerate(gens[1])}}
    d = {0: gf2.zeros(len(gens[1]), len(gens[0])),
         1: gf2.zeros(len(gens[0]), len(gens[1]))}
    for h0, h1 in arr.bigons():
        # the bigon runs along l0 from x to y
        x, y = arr.vertex_of[h0], arr.vertex_of[h1]
        if h0 >> 1 not in l0.edges:
            x, y = y, x
        kx = arr.degree[x]
        d[kx][pos[1 - kx][y], pos[kx][x]] ^= 1
    cx = gf2.ChainComplex({0: len(gens[0]), 1: len(gens[1])}, d, mod2=True)
    return FloerComplex(cx, points, gens)


# ---------------------------------------------------------------------------
# combinatorial Dehn twist


@dataclass
class TwistOutcome:
    surface: Surface
    s_image: Curve
    twisted: list
    carried: list


def dehn_twist(surface: Surface, s_curve: Curve, k: int,
               twist=(), carry=()) -> TwistOutcome:
    """Open the surface along s_curve, glue in a grid annulus, and
    transport curves: those in `twist` as k-fold staircase strands,
    those in `carry` straight across.

    k > 0 twists to the right of the oriented curve (shear in the
    direction of increasing column index).  s_curve must be
    noncontractible: callers check it where their input enters."""
    twist, carry = list(twist), list(carry)
    if k == 0:
        return TwistOutcome(surface, s_curve, twist, carry)

    # subdivide every S edge into four parts: crossings land on columns
    # divisible by four, leaving room for strands and carried verticals
    s1, parts = surface.subdivide_edges({e: 4 for e in s_curve.edges})
    S1 = s_curve.mapped(s1, parts)
    C = len(S1)
    col_of_vertex = {s1.tail(d): c for c, d in enumerate(S1.darts)}
    # each transported curve as None (S itself, which maps to the S
    # image) or (curve on s1, column -> sign of its crossing with S)
    moved = []
    for cur in twist + carry:
        if cur.edges == s_curve.edges:
            moved.append(None)
            continue
        cur1 = cur.mapped(s1, parts)
        moved.append((cur1, {col_of_vertex[p.vertex]: p.nu
                             for p in find_intersections(cur1, S1)}))
    used_cols = [c for m in moved if m for c in m[1]]
    if len(used_cols) != len(set(used_cols)):
        raise NonTransverseError(
            "two transported curves cross the twist curve at the same "
            "vertex; subdivide and perturb first")
    if not used_cols:
        return TwistOutcome(surface, s_curve, twist, carry)

    # the annulus edges get ids after those of s1, whose S edges drop
    # out: right copies of S (row 0), left copies (row R), the inner
    # horizontals and the verticals, each row by row
    R = abs(k) * C // 2 + 1
    n0 = s1.n_edges
    names = list(s1.edge_names)
    taken = set(names)
    for base in ([s1.edge_names[d >> 1] + "@r" for d in S1.darts]
                 + [s1.edge_names[d >> 1] + "@l" for d in S1.darts]
                 + [f"ann_h{r}_{c}" for r in range(1, R) for c in range(C)]
                 + [f"ann_v{r}_{c}" for r in range(R) for c in range(C)]):
        _mint(names, taken, base)

    def h(r, c):
        """Forward dart of the horizontal at row r, column c mod C."""
        return 2 * (n0 + C * (0 if r == 0 else 1 if r == R else r + 1)
                    + c % C)

    def v(r, c):
        """Forward dart of the vertical at row r, column c mod C."""
        return 2 * (n0 + C * (R + 1 + r) + c % C)

    # row 0 is glued to the right of S (the side carrying the reversed
    # occurrences), row R to the left
    glued = {}
    for c, d in enumerate(S1.darts):
        glued[d], glued[d ^ 1] = h(R, c), h(0, c) ^ 1
    words = [[glued.get(d, d) for d in w] for w in s1.words]
    words += [(h(r, c), v(r, c + 1), h(r + 1, c) ^ 1, v(r, c) ^ 1)
              for r in range(R) for c in range(C)]
    s2 = Surface(words, names)

    def curve(darts, name):
        return Curve(s2, [2 * s2.renumber[d >> 1] + (d & 1) for d in darts],
                     name)

    def staircase(c0):
        """Up the annulus from column c0, shearing by C per |k|."""
        seq, col = [v(0, c0)], c0
        for r in range(1, R):
            if k > 0:
                seq += [h(r, col), h(r, col + 1)]
                col += 2
            else:
                seq += [h(r, col - 1) ^ 1, h(r, col - 2) ^ 1]
                col -= 2
            seq.append(v(r, col))
        assert (col - c0) % C == 0
        return seq

    def straight(c0):
        """Up the annulus beside column c0, from right copy to left."""
        return [h(0, c0)] + [v(r, c0 + 1) for r in range(R)] + [h(R, c0) ^ 1]

    # a crossing with nu = -1 arrives from the right of S, at row 0, and
    # runs up the annulus; one with nu = +1 runs down
    s_image = curve([h(0, c) for c in range(C)], s_curve.name)
    out = []
    for i, m in enumerate(moved):
        if m is None:
            out.append(s_image)
            continue
        cur, signs = m
        splice = staircase if i < len(twist) else straight
        darts = []
        for d in cur.darts:
            darts.append(d)
            c = col_of_vertex.get(s1.head(d))
            if c in signs:
                seq = splice(c)
                darts += seq if signs[c] < 0 else [x ^ 1 for x in seq[::-1]]
        out.append(curve(darts, cur.name))
    return TwistOutcome(s2, s_image, out[:len(twist)], out[len(twist):])


# ---------------------------------------------------------------------------
# minimal position


def tighten_pair(l0: Curve, l1: Curve):
    """Remove complementary bigons until the pair is in minimal position
    (the bigon criterion, Farb and Margalit, Primer, Prop. 1.7).

    Returns the graded counts of the crossings left and, when none is
    left, whether the curves are isotopic (None otherwise)."""
    arr = _Arrangement(l0, l1)
    while bigons := arr.bigons():
        arr.remove(*bigons[0])
    return gf2.GradedDims(Counter(arr.degree.values())), arr.isotopic()


def rank_hf(l0: Curve, l1: Curve) -> gf2.GradedDims:
    """Graded ranks of HF(l0, l1) after tightening to minimal position.

    Isotopic pairs (including l1 = l0) use the standard two-crossing
    perturbed model: rank one in each degree.  Both curves must be
    noncontractible: callers check it where their input enters."""
    if l0.edges == l1.edges:
        return gf2.GradedDims({0: 1, 1: 1})
    counts, isotopic = tighten_pair(l0, l1)
    return gf2.GradedDims({0: 1, 1: 1}) if isotopic else counts


def twist_rank_sequence(s_curve: Curve, q_curve: Curve, n_curve: Curve,
                        k: int):
    """The Floer ranks the twist exact sequence audits on (S, Q, N).

    Returns (hf(S, N), hf(Q, S), sequence, moved): sequence lists
    hf(Q, tau_S^j N) for j = 0, 1, ..., k (or down to k when k < 0), and
    moved is False when the twist fixes N (k = 0, N = S, or N disjoint
    from S), in which case every entry equals hf(Q, N).  The three curves
    are checked once, on the input surface; a Dehn twist is a
    homeomorphism, so the twisted images stay noncontractible.
    """
    S, Q, N = s_curve, q_curve, n_curve
    _require_noncontractible(S, Q, N)
    hf_sn, hf_qs, hf_qn = rank_hf(S, N), rank_hf(Q, S), rank_hf(Q, N)
    crossings = N.edges != S.edges and find_intersections(N, S)
    sequence = [hf_qn]
    if k == 0 or not crossings:
        return hf_sn, hf_qs, sequence + [hf_qn] * abs(k), False
    # one exact triangle governs one twist, so the power k is walked as
    # |k| single steps
    step = 1 if k > 0 else -1
    for j in range(step, k + step, step):
        out = dehn_twist(S.surface, S, j, [N], [Q])
        sequence.append(rank_hf(out.carried[0], out.twisted[0]))
    return hf_sn, hf_qs, sequence, True
