"""Combinatorial Lagrangian Floer cohomology of embedded curves on
surfaces over GF(2).

Intersections are crossings at vertices where the edge-ends of the two
curves interleave in the rotation; the differential counts embedded
bigon regions of the complement; the Dehn twist is performed by cutting
along the twist curve and regluing through a grid annulus in which the
twisted curve runs as a staircase and other curves are carried straight
across.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .surface import (Curve, Surface, _cut_cells, _expand, _face_classes,
                      _mint, cut_along)


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
    l0_in: int
    l0_out: int
    l1_in: int
    l1_out: int


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
        b0, b1 = in0 ^ 1, in1 ^ 1
        # walk the clockwise rotation from out0 back to b0
        order = []
        d = s.sigma(out0)
        while d != out0:
            order.append(d)
            d = s.sigma(d)
        i_b0 = order.index(b0)
        before = set(order[:i_b0])
        inside = {out1, b1} & before
        if len(inside) != 1:
            raise NonTransverseError(
                f"curves touch at a vertex without crossing; "
                "subdivide and perturb first")
        nu = 1 if b1 in inside else -1
        points.append(IntersectionPoint(v, nu, 1 if nu > 0 else 0,
                                        in0, out0, in1, out1))
    return points


# ---------------------------------------------------------------------------
# complementary regions


@dataclass
class Region:
    index: int
    faces: list
    chi: int
    circles: list          # each circle: list of boundary darts
    corners: list          # (circle idx, position, vertex, d_in, d_out)

    @property
    def n_corners(self) -> int:
        return len(self.corners)

    def is_bigon(self) -> bool:
        if self.chi != 1 or len(self.circles) != 1 or self.n_corners != 2:
            return False
        (_, _, v1, _, _), (_, _, v2, _, _) = self.corners
        return v1 != v2


def _curve_edge_map(curves):
    m = {}
    for ci, cur in enumerate(curves):
        for d in cur.darts:
            m[d // 2] = (ci, d)
    return m


def _region_census(s: Surface, curves) -> list[Region]:
    cmap = _curve_edge_map(curves)
    curve_darts = set()
    for e in cmap:
        curve_darts.update((2 * e, 2 * e + 1))
    phi, face_of, vertex_of = s.phi, s.face_of, s.vertex_of

    reg_of, n_regions = _face_classes(face_of, s.n_faces, cmap)
    regions = [Region(i, [], 0, [], []) for i in range(n_regions)]
    for f in range(s.n_faces):
        regions[reg_of[f]].faces.append(f)

    # chi = interior vertices - interior edges + faces (sector vertices
    # and boundary edge sides cancel)
    int_edges = [0] * n_regions
    for e in range(s.n_edges):
        if e not in cmap:
            int_edges[reg_of[face_of[2 * e]]] += 1
    int_verts = [0] * n_regions
    curve_vertices = {vertex_of[d] for d in curve_darts}
    for v, rot in enumerate(s.rotations):
        if v not in curve_vertices:
            int_verts[reg_of[face_of[rot[0] ^ 1]]] += 1
    for i, r in enumerate(regions):
        r.chi = int_verts[i] - int_edges[i] + len(r.faces)

    # boundary circles: each curve-edge side, walked with the region on
    # the left; the next side starts at the first curve dart clockwise
    # after the reversed incoming dart
    def next_side(d):
        g = phi[d]
        while g not in curve_darts:
            g = phi[g ^ 1]
        return g

    sides = sorted(curve_darts)
    seen = set()
    for start in sides:
        if start in seen:
            continue
        circle = []
        d = start
        while d not in seen:
            seen.add(d)
            circle.append(d)
            d = next_side(d)
        reg = regions[reg_of[face_of[circle[0]]]]
        ci = len(reg.circles)
        for pos, dd in enumerate(circle):
            nd = circle[(pos + 1) % len(circle)]
            if cmap[dd // 2][0] != cmap[nd // 2][0]:
                reg.corners.append((ci, pos, vertex_of[dd ^ 1], dd, nd))
        reg.circles.append(circle)
    return regions


# ---------------------------------------------------------------------------
# the Floer complex


@dataclass
class FloerComplex:
    complex: gf2.ChainComplex
    points: list
    generators: dict       # degree -> ordered list of vertices


def _bigon_pairs(s: Surface, regions, l0: Curve):
    """(x, y) vertex pairs with a bigon running along l0 from x to y."""
    l0_edges = l0.edges
    pairs = []
    for r in regions:
        if not r.is_bigon():
            continue
        (c1, p1_, v1, _, d1out), (c2, p2_, v2, _, d2out) = r.corners
        # the corner whose outgoing boundary arc lies on l0 is x
        if (d1out // 2) in l0_edges:
            pairs.append((v1, v2))
        else:
            pairs.append((v2, v1))
    return pairs


def floer_complex(l0: Curve, l1: Curve) -> FloerComplex:
    _require_noncontractible(l0, l1)
    points = find_intersections(l0, l1)
    regions = _region_census(l0.surface, [l0, l1])
    gens = {0: [p.vertex for p in points if p.degree == 0],
            1: [p.vertex for p in points if p.degree == 1]}
    deg_of = {p.vertex: p.degree for p in points}
    pos = {0: {v: i for i, v in enumerate(gens[0])},
           1: {v: i for i, v in enumerate(gens[1])}}
    d = {0: gf2.zeros(len(gens[1]), len(gens[0])),
         1: gf2.zeros(len(gens[0]), len(gens[1]))}
    for x, y in _bigon_pairs(l0.surface, regions, l0):
        kx = deg_of[x]
        if deg_of[y] != 1 - kx:
            raise FloerError("bigon violates the mod-2 grading")
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


def _crossing_columns(curve: Curve, s_curve: Curve, col_of_vertex):
    pts = find_intersections(curve, s_curve)
    return {col_of_vertex[p.vertex]: p for p in pts}


def dehn_twist(surface: Surface, s_curve: Curve, k: int,
               twist=(), carry=()) -> TwistOutcome:
    """Cut along s_curve, reglue through a grid annulus, and transport
    curves: those in `twist` as k-fold staircase strands, those in
    `carry` straight across.

    k > 0 twists to the right of the oriented curve (shear in the
    direction of increasing column index).  s_curve must be
    noncontractible: callers check it where their input enters."""
    twist, carry = list(twist), list(carry)
    if k == 0:
        return TwistOutcome(surface, s_curve, twist, carry)
    # a transported curve equal to S itself maps to the S image
    is_s = [cur.edges == s_curve.edges for cur in twist + carry]

    # subdivide every S edge into four parts: crossings land on columns
    # divisible by four, leaving room for strands and carried verticals
    s1, parts = surface.subdivide_edges({e: 4 for e in s_curve.edges})
    S1 = s_curve.mapped(s1, parts)
    C = len(S1)
    col_of_vertex = {s1.tail(d): c for c, d in enumerate(S1.darts)}
    twist1 = [None if is_s[i] else cur.mapped(s1, parts)
              for i, cur in enumerate(twist)]
    carry1 = [None if is_s[len(twist) + i] else cur.mapped(s1, parts)
              for i, cur in enumerate(carry)]

    crossings = [_crossing_columns(cur, S1, col_of_vertex)
                 if cur is not None else {} for cur in twist1]
    carried_x = [_crossing_columns(cur, S1, col_of_vertex)
                 if cur is not None else {} for cur in carry1]
    used_cols = [c for m in crossings + carried_x for c in m]
    if len(used_cols) != len(set(used_cols)):
        raise NonTransverseError(
            "two transported curves cross the twist curve at the same "
            "vertex; subdivide and perturb first")
    if not used_cols:
        return TwistOutcome(surface, s_curve, twist, carry)

    # the annulus edges get ids after those of s1, whose S edges drop out
    R = abs(k) * C // 2 + 1
    names = list(s1.edge_names)
    taken = set(names)

    def fresh(base):
        """Forward dart of a new edge named after base."""
        return 2 * _mint(names, taken, base)

    # boundary copies of the S edges, oriented along S
    rc = [fresh(s1.edge_names[S1.darts[c] // 2] + "@r") for c in range(C)]
    lc = [fresh(s1.edge_names[S1.darts[c] // 2] + "@l") for c in range(C)]
    h = {}
    for r in range(R + 1):
        for c in range(C):
            if r == 0:
                h[r, c] = rc[c]
            elif r == R:
                h[r, c] = lc[c]
            else:
                h[r, c] = fresh(f"ann_h{r}_{c}")
    v = {(r, c): fresh(f"ann_v{r}_{c}") for r in range(R) for c in range(C)}

    col_of_edge = {S1.darts[c] // 2: c for c in range(C)}

    words = []
    for w in s1.words:
        nw = []
        for d in w:
            c = col_of_edge.get(d // 2)
            if c is None:
                nw.append(d)
            else:
                nw.append(lc[c] if d == S1.darts[c] else rc[c] ^ 1)
        words.append(nw)
    for r in range(R):
        for c in range(C):
            words.append((h[r, c], v[r, (c + 1) % C], h[r + 1, c] ^ 1,
                          v[r, c] ^ 1))
    s2 = Surface(words, names)

    def curve(darts, name):
        return Curve(s2, [2 * s2.renumber[d >> 1] + (d & 1) for d in darts],
                     name)

    # sides: row 0 is glued to the right of S (the side carrying the
    # reversed occurrences), row R to the left
    corner_vertex, _ = _cut_cells(s1, [S1])

    def travels_up(pt) -> bool:
        # pt crosses S at its vertex; the incoming edge attaches to the
        # side (odd = right) of the corner before its reversed dart
        return (corner_vertex[pt.l0_in ^ 1] - s1.n_vertices) & 1 == 1

    sign = 1 if k > 0 else -1

    def up_strand(c0):
        seq = [v[0, c0 % C]]
        col = c0
        for r in range(1, R):
            if sign > 0:
                seq += [h[r, col % C], h[r, (col + 1) % C]]
                col += 2
            else:
                seq += [h[r, (col - 1) % C] ^ 1, h[r, (col - 2) % C] ^ 1]
                col -= 2
            seq.append(v[r, col % C])
        assert (col - c0) % C == 0
        return seq

    def up_carry(c0):
        return ([rc[c0 % C]] + [v[r, (c0 + 1) % C] for r in range(R)]
                + [lc[c0 % C] ^ 1])

    def transport(cur, xmap, splice):
        darts = []
        for d in cur.darts:
            darts.append(d)
            c = col_of_vertex.get(s1.head(d))
            if c in xmap:
                seq = splice(c)
                darts.extend(seq if travels_up(xmap[c])
                             else [x ^ 1 for x in reversed(seq)])
        return curve(darts, cur.name)

    s_image = curve(rc, s_curve.name)
    out_twisted = [s_image if cur is None else transport(cur, xmap, up_strand)
                   for cur, xmap in zip(twist1, crossings)]
    out_carried = [s_image if cur is None else transport(cur, xmap, up_carry)
                   for cur, xmap in zip(carry1, carried_x)]
    return TwistOutcome(s2, s_image, out_twisted, out_carried)


# ---------------------------------------------------------------------------
# tightening (bigon removal)


class _Degenerate(Exception):
    """Corridor hit a repeated face or edge; refine globally and retry."""


def _walk_sector(s: Surface, start: int, stop: int):
    """Darts strictly between start and stop in clockwise order, plus
    the corner faces from the start side to the stop side."""
    darts = []
    faces = [s.face_of[start ^ 1]]
    d = s.sigma(start)
    while d != stop:
        darts.append(d)
        faces.append(s.face_of[d ^ 1])
        d = s.sigma(d)
    return darts, faces


def _corner_pieces(s: Surface, din: int, dout: int, want_left,
                   curve_edges):
    """Crossed darts and corridor faces where the pushed path rounds one
    vertex, entering along din and leaving along dout.

    want_left selects the sector left of the din -> dout direction; with
    want_left None (at the bigon corners) the unique sector free of
    curve darts is taken.  Pieces are ordered from the din side to the
    dout side.
    """
    darts_a, faces_a = _walk_sector(s, din ^ 1, dout)
    darts_b, faces_b = _walk_sector(s, dout, din ^ 1)
    darts_b, faces_b = list(reversed(darts_b)), list(reversed(faces_b))
    if want_left is None:
        a_clean = not any(d // 2 in curve_edges for d in darts_a)
        b_clean = not any(d // 2 in curve_edges for d in darts_b)
        if a_clean == b_clean:
            raise _Degenerate("no unique clean sector at a bigon corner")
        return (darts_a, faces_a) if a_clean else (darts_b, faces_b)
    pick = (darts_a, faces_a) if want_left else (darts_b, faces_b)
    if any(d // 2 in curve_edges for d in pick[0]):
        raise FloerError("curve dart inside a corridor sector")
    return pick


def _consecutive_run(l1: Curve, arc_edges):
    """Start index and length of the cyclic run of l1 darts in arc_edges."""
    n = len(l1.darts)
    flags = [d // 2 in arc_edges for d in l1.darts]
    q = sum(flags)
    if q == 0 or q == n:
        raise FloerError("bigon arc does not leave room to reroute")
    start = next(i for i in range(n)
                 if flags[i] and not flags[(i - 1) % n])
    if not all(flags[(start + t) % n] for t in range(q)):
        raise FloerError("bigon arc is not a consecutive run of the curve")
    return start, q


def _remove_bigon(l0: Curve, l1: Curve, region: Region):
    """Reroute l1 around the far side of the bigon's l0 arc, removing
    the two corner crossings.  Returns the new (surface, l0, l1)."""
    s = l0.surface
    circle = region.circles[0]
    (_, pa, _, _, oa), (_, pb, _, _, ob) = region.corners
    n = len(circle)
    if (oa // 2) in l0.edges:
        x_pos, y_pos = pa, pb
    else:
        x_pos, y_pos = pb, pa
    # boundary arcs with the bigon on the left: l0 from corner x to
    # corner y, l1 back from y to x
    a0_walk = [circle[(x_pos + 1 + t) % n]
               for t in range((y_pos - x_pos) % n)]
    a1_walk = [circle[(y_pos + 1 + t) % n]
               for t in range((x_pos - y_pos) % n)]
    arc_edges = {d // 2 for d in a1_walk}

    start, q = _consecutive_run(l1, arc_edges)
    nl1 = len(l1.darts)
    run = [l1.darts[(start + t) % nl1] for t in range(q)]
    p_before = l1.darts[(start - 1) % nl1]
    p_after = l1.darts[(start + q) % nl1]
    z0, z1 = s.tail(run[0]), s.head(run[-1])

    # orient the l0 arc from z0 to z1; the walked darts keep the bigon
    # on their left, so the far side of the corridor is the left of
    # t_list exactly when the walk had to be reversed
    if s.tail(a0_walk[0]) == z0:
        t_list = list(a0_walk)
        far_left = False
    else:
        t_list = [d ^ 1 for d in reversed(a0_walk)]
        far_left = True
    if s.tail(t_list[0]) != z0 or s.head(t_list[-1]) != z1:
        raise FloerError("bigon boundary bookkeeping failed")

    curve_edges = l0.edges | l1.edges
    ins = [p_before] + t_list
    outs = t_list + [p_after]
    corridor_faces = []
    crossed = []
    for i, (din, dout) in enumerate(zip(ins, outs)):
        corner = i == 0 or i == len(ins) - 1
        darts, faces = _corner_pieces(s, din, dout,
                                      None if corner else far_left,
                                      curve_edges)
        if corridor_faces:
            if corridor_faces[-1] != faces[0]:
                raise _Degenerate("corridor faces fail to join up")
            faces = faces[1:]
        corridor_faces += faces
        crossed += darts

    if len(set(corridor_faces)) != len(corridor_faces):
        raise _Degenerate("corridor revisits a face")
    crossed_edges = [d // 2 for d in crossed]
    if len(set(crossed_edges)) != len(crossed_edges):
        raise _Degenerate("corridor crosses an edge twice")

    # subdivide the gate edges and every crossed edge; when the curve
    # consists of the arc plus a single extra edge, that edge carries
    # both gates and is cut into three
    same_gate = p_before == p_after
    counts = {e: 2 for e in crossed_edges}
    counts[p_before // 2] = 3 if same_gate else 2
    if not same_gate:
        counts[p_after // 2] = 2
    s2, parts = s.subdivide_edges(counts)

    def midpoints(d):
        """Subdivision vertices along the dart direction."""
        return [s2.head(x) for x in _expand([d], parts)[:-1]]

    if same_gate:
        # p_before runs z1 -> z0; the corridor leaves near z0 and
        # returns near z1
        m_w, m_u = midpoints(p_before)
    else:
        m_u = midpoints(p_before)[0]
        m_w = midpoints(p_after)[0]
    m_cross = [s2.head(2 * parts[d // 2][0]) for d in crossed]

    s3, spokes = s2.cone_faces(corridor_faces)
    # the parts of each edge of s, numbered on s3
    parts3 = [[s3.renumber[p] for p in ps] for ps in parts]

    def spoke_at(face, vertex):
        hits = [i for i, d in enumerate(s2.words[face])
                if s2.tail(d) == vertex]
        if len(hits) != 1:
            raise _Degenerate("ambiguous corridor attachment")
        return spokes[face][hits[0]]

    gates = [m_u] + m_cross + [m_w]
    path = []
    for f, g_in, g_out in zip(corridor_faces, gates, gates[1:]):
        path += [2 * spoke_at(f, g_in), 2 * spoke_at(f, g_out) + 1]

    entry = _expand([p_before], parts3)
    if same_gate:
        l1_darts = [entry[1]] + path
    else:
        kept = []
        i = (start + q + 1) % nl1
        while l1.darts[i] != p_before:
            kept.append(l1.darts[i])
            i = (i + 1) % nl1
        exit_ = _expand([p_after], parts3)
        l1_darts = [entry[0]] + path + [exit_[1]] + _expand(kept, parts3)
    return s3, l0.mapped(s3, parts3), Curve(s3, l1_darts, l1.name)


# global refinements tighten_pair makes before it gives up
_MAX_REFINES = 5


def tighten_pair(l0: Curve, l1: Curve):
    """Remove complementary bigons until the pair is in minimal position."""
    refines = 0
    while True:
        find_intersections(l0, l1)  # validates transversality
        regions = _region_census(l0.surface, [l0, l1])
        bigons = [r for r in regions if r.is_bigon()]
        if not bigons:
            return l0, l1
        bigons.sort(key=lambda r: (len(r.circles[0]), r.index))
        try:
            _, l0, l1 = _remove_bigon(l0, l1, bigons[0])
        except _Degenerate:
            refines += 1
            if refines > _MAX_REFINES:
                raise FloerError("bigon removal failed to stabilize "
                                 "after repeated refinement")
            fine, parts = l0.surface.refined(1)
            l0 = l0.mapped(fine, parts)
            l1 = l1.mapped(fine, parts)


def _are_isotopic_disjoint(l0: Curve, l1: Curve) -> bool:
    """Disjoint embedded curves are isotopic iff they cobound an annulus
    component of the complement."""
    cut = cut_along(l0.surface, [l0, l1])
    return any(comp.is_annulus()
               and {b.curve_index for b in comp.boundary} == {0, 1}
               for comp in cut.components)


def rank_hf(l0: Curve, l1: Curve) -> gf2.GradedDims:
    """Graded ranks of HF(l0, l1) after tightening to minimal position.

    Isotopic pairs (including l1 = l0) use the standard two-crossing
    perturbed model: rank one in each degree.  Both curves must be
    noncontractible: callers check it where their input enters."""
    if l0.edges == l1.edges:
        return gf2.GradedDims({0: 1, 1: 1})
    if l0.edges & l1.edges:
        raise NonTransverseError("curves share edges; subdivide first")
    if set(l0.vertices) & set(l1.vertices):
        l0, l1 = tighten_pair(l0, l1)
    if not (set(l0.vertices) & set(l1.vertices)):
        if _are_isotopic_disjoint(l0, l1):
            return gf2.GradedDims({0: 1, 1: 1})
        return gf2.GradedDims({})
    pts = find_intersections(l0, l1)
    return gf2.GradedDims({0: sum(1 for p in pts if p.degree == 0),
                           1: sum(1 for p in pts if p.degree == 1)})


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
