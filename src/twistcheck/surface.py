"""Combinatorial closed oriented surfaces, curves in the 1-skeleton,
cutting, cellular cohomology over GF(2), and cellular involutions.

A surface is given by its counterclockwise face boundary words over
darts.  Edge e owns two darts 2e (forward) and 2e+1 (reversed); every
dart occurs exactly once across the face words of a closed oriented
surface.  The vertex rotation (counterclockwise cyclic order of outgoing
darts) is derived, not input: sigma(d) = phi(alpha(d)) with phi the face
successor and alpha the edge flip.

Edge names live only in Surface.edge_names, a list parallel to the edge
numbers.  Refinements and twists build their surfaces from dart words
and mint names for new edges into that list; names are never parsed
back.  Edge symbols (a name, plus a trailing apostrophe for the reversed
dart) are read at the input edge only, by Surface.parse, Surface.dart,
Curve.from_symbols and Involution.from_cycles, and written at the output
edge only, by Surface.symbol.

Cutting along curves numbers its cells from the same darts: corner d
(of d's face, at tail(d)) lies on a cut vertex, dart d on a cut edge,
and a curve vertex or edge becomes two integers, one per side (see
cut_along).  A closed surface is its cut along no curves.  The pieces
are compact, connected and orientable, so cohomology ranks over GF(2)
are read off them: each piece has H^0 = 1, H^2 = 0 if it has boundary
(1 if not), and H^1 = H^0 + H^2 - chi.  Only an involution's induced
map builds and row-reduces a cochain complex, for its printed basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf2


class SurfaceError(Exception):
    pass


class NonSurfaceError(SurfaceError):
    """Some edge is not used exactly twice by the faces."""


class NonOrientableError(SurfaceError):
    """An edge is glued to itself preserving orientation."""


class DisconnectedError(SurfaceError):
    pass


class CurveError(SurfaceError):
    pass


class InvolutionError(SurfaceError):
    pass


def parse_symbol(sym: str):
    """Split an edge symbol into (name, reversed?)."""
    s = sym.strip()
    prime = s.endswith("'")
    if prime:
        s = s[:-1]
    if not s or s.endswith("'"):
        raise SurfaceError(f"bad edge symbol {sym!r}")
    return s, prime


def _mint(names: list, taken: set, base: str) -> int:
    """Append a new edge name, base with "+" added until it is not taken;
    return its index in names."""
    while base in taken:
        base += "+"
    taken.add(base)
    names.append(base)
    return len(names) - 1


class Surface:
    """Closed connected oriented surface as a combinatorial map."""

    def __init__(self, words, names):
        """Build the surface from face words over the caller's darts.

        Darts 2i and 2i+1 are the two directions of the caller's edge i,
        named names[i]; ids need not be dense or in order.  Edges are
        renumbered by first appearance in the words, and renumber[i] is
        the number given to caller edge i (-1 when i does not occur).
        """
        renumber = [-1] * len(names)
        edge_names: list[str] = []
        dart_words = []
        for w in words:
            if not w:
                raise SurfaceError("empty face word")
            dw = []
            for d in w:
                e = renumber[d >> 1]
                if e < 0:
                    e = renumber[d >> 1] = len(edge_names)
                    edge_names.append(names[d >> 1])
                dw.append(2 * e + (d & 1))
            dart_words.append(tuple(dw))
        self.renumber = renumber
        self.edge_names = edge_names
        self.n_edges = len(edge_names)
        self.words = dart_words
        self.n_faces = len(dart_words)
        n_darts = 2 * self.n_edges

        seen = [0] * n_darts
        phi = [0] * n_darts
        phi_inv = [0] * n_darts
        face_of = [0] * n_darts
        for fi, w in enumerate(dart_words):
            for d, nxt in zip(w, w[1:] + w[:1]):
                seen[d] += 1
                phi[d] = nxt
                phi_inv[nxt] = d
                face_of[d] = fi
        for e, name in enumerate(edge_names):
            total = seen[2 * e] + seen[2 * e + 1]
            if total != 2:
                raise NonSurfaceError(
                    f"edge {name!r} appears {total} time(s) in the face "
                    "words; a closed surface uses every edge exactly twice")
            if seen[2 * e] != 1:
                raise NonOrientableError(
                    f"edge {name!r} is glued to itself preserving "
                    "orientation; the gluing is non-orientable")

        # vertices are orbits of sigma(d) = phi(alpha(d)); the orbit order
        # is the clockwise rotation of outgoing darts.
        vertex_of = [-1] * n_darts
        rotations: list[tuple[int, ...]] = []
        for d0 in range(n_darts):
            if vertex_of[d0] >= 0:
                continue
            orbit = []
            d = d0
            while vertex_of[d] < 0:
                vertex_of[d] = len(rotations)
                orbit.append(d)
                d = phi[d ^ 1]
            rotations.append(tuple(orbit))
        self.rotations = rotations
        self.n_vertices = len(rotations)

        # every dart lies in a face, so the surface is connected exactly
        # when the faces glued across all edges form one class
        if _face_classes(face_of, self.n_faces, ())[1] > 1:
            raise DisconnectedError(
                "the face words describe a disconnected surface")

        self.phi = phi
        self.phi_inv = phi_inv
        self.face_of = face_of
        self.vertex_of = vertex_of

    @classmethod
    def parse(cls, face_words):
        """Build the surface from face words over edge symbols."""
        index: dict[str, int] = {}
        words = []
        for w in face_words:
            dw = []
            for sym in w:
                name, prime = parse_symbol(sym)
                dw.append(2 * index.setdefault(name, len(index)) + prime)
            words.append(dw)
        return cls(words, list(index))

    # -- dart utilities ------------------------------------------------

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {name: e for e, name in enumerate(self.edge_names)}

    def tail(self, d: int) -> int:
        return self.vertex_of[d]

    def head(self, d: int) -> int:
        return self.vertex_of[d ^ 1]

    def dart(self, sym: str) -> int:
        name, prime = parse_symbol(sym)
        if name not in self.edge_index:
            raise SurfaceError(f"unknown edge {name!r}")
        return 2 * self.edge_index[name] + (1 if prime else 0)

    def symbol(self, d: int) -> str:
        return self.edge_names[d // 2] + ("'" if d & 1 else "")

    def face_words_symbols(self):
        return [[self.symbol(d) for d in w] for w in self.words]

    # -- global invariants ----------------------------------------------

    def euler(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    # -- refinement ------------------------------------------------------

    def subdivide_edges(self, counts: dict[int, int]):
        """Split edges into consecutive parts.

        counts maps edge -> number of parts (>= 1; default 1).  Returns
        the new surface and parts, where parts[e] lists the new edges of
        edge e in tail-to-head order.  Part i of a split edge x is named
        x.i.
        """
        taken = set(self.edge_names)
        names = []
        ids = []
        for e, name in enumerate(self.edge_names):
            k = counts.get(e, 1)
            if k < 1:
                raise SurfaceError(f"cannot split {name!r} into {k} parts")
            if k == 1:
                names.append(name)
                ids.append([len(names) - 1])
            else:
                ids.append([_mint(names, taken, f"{name}.{i}")
                            for i in range(k)])
        s = Surface([_expand(w, ids) for w in self.words], names)
        return s, [[s.renumber[p] for p in ps] for ps in ids]

    def cone_faces(self, face_ids):
        """Replace each selected face by the cone over its boundary.

        Returns the new surface and, per coned face, the list of spoke
        edges aligned with the face word: spoke i runs from the tail of
        the i-th boundary dart to the new barycenter.  The new surface's
        renumber maps the edges of this one.
        """
        face_ids = set(face_ids)
        names = list(self.edge_names)
        taken = set(names)
        spokes: dict[int, list[int]] = {}
        new_words = []
        for fi, w in enumerate(self.words):
            if fi not in face_ids:
                new_words.append(w)
                continue
            m = len(w)
            ids = spokes[fi] = [_mint(names, taken, f"f{fi}.s{i}")
                                for i in range(m)]
            for i, d in enumerate(w):
                new_words.append((d, 2 * ids[(i + 1) % m], 2 * ids[i] + 1))
        s = Surface(new_words, names)
        return s, {fi: [s.renumber[x] for x in ids]
                   for fi, ids in spokes.items()}

    def refined(self, rounds: int = 1):
        """Global refinement: halve every edge, cone every face.

        Returns the refined surface and parts, where parts[e] lists the
        refined edges of edge e in tail-to-head order.
        """
        s = self
        parts = [[e] for e in range(self.n_edges)]
        for _ in range(rounds):
            s2, halves = s.subdivide_edges({e: 2 for e in range(s.n_edges)})
            s, _ = s2.cone_faces(range(s2.n_faces))
            parts = [[s.renumber[p] for mid in ps for p in halves[mid]]
                     for ps in parts]
        return s, parts


def _expand(darts, parts):
    """Carry darts to a surface in which edge e became the edges
    parts[e], listed tail to head."""
    out = []
    for d in darts:
        ps = parts[d >> 1]
        if d & 1:
            out.extend(2 * p + 1 for p in reversed(ps))
        else:
            out.extend(2 * p for p in ps)
    return out


# ---------------------------------------------------------------------------
# curves


class Curve:
    """Closed embedded oriented loop in the 1-skeleton, as a dart cycle."""

    def __init__(self, surface: Surface, darts, name: str = ""):
        darts = [int(d) for d in darts]
        if not darts:
            raise CurveError("empty curve")
        for i, d in enumerate(darts):
            nxt = darts[(i + 1) % len(darts)]
            if surface.head(d) != surface.tail(nxt):
                raise CurveError(
                    f"curve {name or '?'} breaks between "
                    f"{surface.symbol(d)} and {surface.symbol(nxt)}")
        edges = [d // 2 for d in darts]
        if len(set(edges)) != len(edges):
            raise CurveError(f"curve {name or '?'} repeats an edge")
        verts = [surface.tail(d) for d in darts]
        if len(set(verts)) != len(verts):
            raise CurveError(f"curve {name or '?'} revisits a vertex; "
                             "only embedded curves are supported")
        self.surface = surface
        self.darts = tuple(darts)
        self.name = name

    @classmethod
    def from_symbols(cls, surface: Surface, syms, name: str = ""):
        return cls(surface, [surface.dart(s) for s in syms], name)

    def symbols(self):
        return [self.surface.symbol(d) for d in self.darts]

    @property
    def edges(self):
        return frozenset(d // 2 for d in self.darts)

    def mapped(self, surface: Surface, parts) -> "Curve":
        """Transport to a refinement in which edge e became the edges
        parts[e], listed tail to head."""
        return Curve(surface, _expand(self.darts, parts), self.name)

    def is_contractible(self) -> bool:
        return cut_along(self.surface, [self]).has_disk()

    def __len__(self):
        return len(self.darts)


# ---------------------------------------------------------------------------
# cutting


@dataclass
class BoundaryCircle:
    curve_index: int
    side: int


@dataclass
class CutComponent:
    """Connected piece of a cut surface, as an abstract cell complex.

    Cells are the integers cut_along gives them.  vertices lists the cut
    vertices in increasing order, edges maps each cut edge to its (tail,
    head) cut vertices in increasing edge order, and faces lists
    (face, cut edges of its boundary word) in increasing face order.
    boundary holds one circle per (curve, side) pair on this piece.
    """

    vertices: list = field(default_factory=list)
    edges: dict = field(default_factory=dict)
    faces: list = field(default_factory=list)
    boundary: list = field(default_factory=list)

    def euler(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def is_annulus(self) -> bool:
        return self.euler() == 0 and len(self.boundary) == 2

    def cochain_complex(self) -> gf2.ChainComplex:
        vi = {v: i for i, v in enumerate(self.vertices)}
        ei = {e: i for i, e in enumerate(self.edges)}
        d0 = gf2.zeros(len(ei), len(vi))
        for i, (t, h) in enumerate(self.edges.values()):
            if t != h:
                d0[i, vi[t]] = 1
                d0[i, vi[h]] = 1
        d1 = gf2.zeros(len(self.faces), len(ei))
        for fi, (_, word) in enumerate(self.faces):
            for e in word:
                d1[fi, ei[e]] ^= 1
        return gf2.ChainComplex({0: len(vi), 1: len(ei), 2: len(self.faces)},
                                {0: d0, 1: d1})


@dataclass
class CutResult:
    """A surface cut along disjoint curves: the components, plus the cut
    vertex of every corner and the cut edge of every dart (cut_along)."""

    surface: Surface
    curves: list
    components: list
    vertex_of_corner: list
    edge_of_dart: list

    def has_disk(self) -> bool:
        """Whether some piece is a disk, which is how a closed curve
        shows that it is contractible."""
        return any(c.euler() == 1 for c in self.components)

    def cochain_complex(self) -> gf2.ChainComplex:
        """Block complex over all components, component-major cell order."""
        parts = [c.cochain_complex() for c in self.components]
        dims = {k: sum(p.dims[k] for p in parts) for k in (0, 1, 2)}
        diffs = {}
        for k in (0, 1):
            m = gf2.zeros(dims[k + 1], dims[k])
            r = c0 = 0
            for p in parts:
                blk = p.diff(k)
                m[r:r + blk.shape[0], c0:c0 + blk.shape[1]] = blk
                r += blk.shape[0]
                c0 += blk.shape[1]
            diffs[k] = m
        # every block was checked when its component complex was built
        return gf2.ChainComplex(dims, diffs, check=False)

    def cell_index(self):
        """Per degree, an array from cut cell to its index in the block
        ordering (-1 where the integer names no cell)."""
        s = self.surface
        cells = ([v for c in self.components for v in c.vertices],
                 [e for c in self.components for e in c.edges],
                 [f for c in self.components for f, _ in c.faces])
        out = []
        for size, ids in zip((3 * s.n_vertices, 3 * s.n_edges, s.n_faces),
                             cells):
            pos = np.full(size, -1, dtype=np.int64)
            pos[ids] = np.arange(len(ids))
            out.append(pos)
        return out


def _face_classes(face_of: list, n_faces: int, cut_edges):
    """Classes of faces glued across the edges not in cut_edges.

    Returns (class of each face, number of classes), classes numbered in
    the order of their first face.
    """
    parent = list(range(n_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in range(len(face_of) // 2):
        if e not in cut_edges:
            a, b = find(face_of[2 * e]), find(face_of[2 * e + 1])
            if a != b:
                parent[a] = b
    number: dict[int, int] = {}
    cls = [number.setdefault(find(f), len(number)) for f in range(n_faces)]
    return cls, len(number)


def cut_along(surface: Surface, curves) -> CutResult:
    """Cut the surface open along disjoint embedded curves.

    Cut cells are integers read off the darts.  Corner d, the corner of
    d's face at tail(d) just before d clockwise, lies at cut vertex
    tail(d) when that vertex is off the curves, and at n_vertices +
    2v + side at a curve vertex v, side 0 being the left of the oriented
    curve.  Dart d lies on cut edge e = d // 2 when e is off the curves,
    and on the copy n_edges + 2e + side of a curve edge, side 0 being
    the copy of the curve's own dart; it runs from the cut vertex of
    corner d to that of corner phi(d).  So each piece lists its plain
    cells before the copies, copies by (v or e, side).  The pieces are
    the classes of faces glued across edges off the curves, ordered by
    their least vertex 2v + side (side 0 for a plain vertex).  Cutting
    along no curves gives the closed surface as one piece.
    """
    nv, ne = surface.n_vertices, surface.n_edges
    phi, face_of, vertex_of = surface.phi, surface.face_of, surface.vertex_of
    vertex_of_corner = list(vertex_of)
    edge_of_dart = [d >> 1 for d in range(2 * ne)]
    seen = set()
    for cur in curves:
        darts = cur.darts
        for din, dout in zip(darts[-1:] + darts[:-1], darts):
            v = vertex_of[dout]
            if v in seen:
                raise CurveError("cut curves must be disjoint and embedded")
            seen.add(v)
            e = din >> 1
            edge_of_dart[din] = ne + 2 * e
            edge_of_dart[din ^ 1] = ne + 2 * e + 1
            # the rotation runs clockwise: after dout the corners up to
            # and including din' lie right of the curve, the rest left
            side, d = 1, dout
            while True:
                d = phi[d ^ 1]
                vertex_of_corner[d] = nv + 2 * v + side
                if d == dout:
                    break
                if d == din ^ 1:
                    side = 0
    cls, n_comp = _face_classes(face_of, surface.n_faces,
                                {d >> 1 for cur in curves for d in cur.darts})

    pieces = [CutComponent() for _ in range(n_comp)]
    first = [float("inf")] * n_comp
    piece_of_vertex = {}
    for d, x in enumerate(vertex_of_corner):
        k = piece_of_vertex[x] = cls[face_of[d]]
        first[k] = min(first[k], 2 * x if x < nv else x - nv)
    for x in sorted(piece_of_vertex):
        pieces[piece_of_vertex[x]].vertices.append(x)
    # one dart per cut edge: both darts of a plain edge lie on it
    for x, d in sorted((x, d) for d, x in enumerate(edge_of_dart)
                       if x >= ne or not d & 1):
        pieces[cls[face_of[d]]].edges[x] = (vertex_of_corner[d],
                                             vertex_of_corner[phi[d]])
    for fi, w in enumerate(surface.words):
        pieces[cls[fi]].faces.append((fi, tuple(edge_of_dart[d] for d in w)))
    for ci, cur in enumerate(curves):
        for side in (0, 1):
            pieces[cls[face_of[cur.darts[0] ^ side]]].boundary.append(
                BoundaryCircle(ci, side))

    comps = [pieces[k] for k in sorted(range(n_comp), key=first.__getitem__)]
    if sum(c.euler() for c in comps) != surface.euler():
        raise SurfaceError("cut bookkeeping lost Euler characteristic")
    return CutResult(surface, list(curves), comps, vertex_of_corner,
                     edge_of_dart)


# ---------------------------------------------------------------------------
# cohomology


def cellular_cohomology(cut: CutResult) -> gf2.GradedDims:
    """Cohomology ranks over GF(2) of a cut surface.

    A closed surface is its cut along no curves.  Every piece is compact,
    connected and orientable, so it adds 1 to H^0 and, unless it has a
    boundary circle (then it retracts onto a graph), 1 to H^2; H^1 is
    H^0 + H^2 - chi, and chi is the surface's, which cut_along checks.
    """
    h0 = len(cut.components)
    h2 = sum(not c.boundary for c in cut.components)
    return gf2.GradedDims({0: h0, 1: h0 + h2 - cut.surface.euler(), 2: h2})


# ---------------------------------------------------------------------------
# involutions


class Involution:
    """Orientation-reversing cellular involution, given on signed edges.

    Constructed from cycles of signed edge symbols; edges not mentioned
    are fixed with orientation (c(e) = e).  Validation checks order two
    and the combinatorial-map identity psi phi psi = alpha phi^{-1} alpha
    characterizing orientation-reversing cellular homeomorphisms.
    """

    def __init__(self, surface: Surface, dart_images: dict[int, int],
                 name: str = ""):
        self.surface = surface
        self.name = name
        n = 2 * surface.n_edges
        psi = np.arange(n, dtype=np.int64)
        for d, img in dart_images.items():
            psi[d] = img
            psi[d ^ 1] = img ^ 1
        self.psi = psi

    @classmethod
    def from_cycles(cls, surface: Surface, cycles, name: str = ""):
        images: dict[int, int] = {}
        for cyc in cycles:
            ds = [surface.dart(s) for s in cyc]
            for i, d in enumerate(ds):
                img = ds[(i + 1) % len(ds)]
                if d in images and images[d] != img:
                    raise InvolutionError(
                        f"conflicting images for edge symbol "
                        f"{surface.symbol(d)}")
                images[d] = img
                images[d ^ 1] = img ^ 1
        return cls(surface, images, name)

    def on_dart(self, d: int) -> int:
        return int(self.psi[d])

    def diagnostics(self) -> list[str]:
        s, psi = self.surface, self.psi
        phi, phi_inv = np.asarray(s.phi), np.asarray(s.phi_inv)
        out = []
        if not (psi[psi] == np.arange(len(psi))).all():
            bad = int(np.nonzero(psi[psi] != np.arange(len(psi)))[0][0])
            out.append(f"not of order two (edge {s.edge_names[bad // 2]!r})")
        want = (psi[phi] == (phi_inv[psi ^ 1] ^ 1))
        if not want.all():
            if (psi[phi] == phi[psi]).all():
                out.append("orientation-preserving (maps faces to faces "
                           "without reversing boundary words)")
            else:
                bad = int(np.nonzero(~want)[0][0])
                out.append(f"does not act cellularly near edge "
                           f"{s.edge_names[bad // 2]!r}")
        return out

    def require_valid(self):
        diag = self.diagnostics()
        if diag:
            raise InvolutionError("; ".join(diag))

    def on_edge(self, e: int) -> int:
        return self.on_dart(2 * e) // 2

    def preserves_curve(self, curve: Curve) -> bool:
        return frozenset(self.on_edge(e) for e in curve.edges) == curve.edges


def involution_induced_map(cut: CutResult, c: Involution):
    """Matrices of c* on H^*(X cut along S) in the distinguished bases.

    Takes the cut of X along S and returns the dict degree -> matrix.
    The degree-0 basis is the component indicator basis of the cut
    complex.
    """
    c.require_valid()
    if not all(c.preserves_curve(cur) for cur in cut.curves):
        raise InvolutionError(
            "the involution does not preserve the twist curve")
    x = cut.surface
    # c reverses orientation: it maps dart d of face f to psi(d)' in face
    # c(f), and corner d to corner psi(phi^-1(d))'
    img = c.psi ^ 1
    cells = ((cut.vertex_of_corner, img[x.phi_inv]),
             (cut.edge_of_dart, img), (x.face_of, img))
    cx = cut.cochain_complex()
    pullback = {}
    for k, (pos, (cell_of, to)) in enumerate(zip(cut.cell_index(), cells)):
        cell_of = np.asarray(cell_of)
        src, dst = pos[cell_of], pos[cell_of[to]]
        image = np.empty(cx.dims[k], dtype=np.int64)
        image[src] = dst
        if (image[src] != dst).any():
            raise InvolutionError(
                f"cut cell image not well defined in degree {k}")
        # pullback on cochains is the transpose of the cell permutation;
        # induced_map checks that it is a chain map
        m = gf2.zeros(len(image), len(image))
        m[np.arange(len(image)), image] = 1
        pullback[k] = m
    chain = gf2.ChainMap(cx, cx, pullback, check=False)
    return gf2.induced_map(chain)
