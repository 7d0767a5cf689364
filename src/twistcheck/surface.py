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
        face_of = [0] * n_darts
        for fi, w in enumerate(dart_words):
            for d, nxt in zip(w, w[1:] + w[:1]):
                seen[d] += 1
                phi[d] = nxt
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

        # connectivity of the dart graph under alpha and phi
        if n_darts:
            seen_d = [False] * n_darts
            stack = [0]
            seen_d[0] = True
            while stack:
                d = stack.pop()
                for nd in (d ^ 1, phi[d]):
                    if not seen_d[nd]:
                        seen_d[nd] = True
                        stack.append(nd)
            if not all(seen_d):
                raise DisconnectedError(
                    "the face words describe a disconnected surface")

        self.phi = np.array(phi, dtype=np.int64)
        self.phi_inv = np.empty(n_darts, dtype=np.int64)
        self.phi_inv[self.phi] = np.arange(n_darts)
        self.face_of = np.array(face_of, dtype=np.int64)
        self.vertex_of = np.array(vertex_of, dtype=np.int64)

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
        return int(self.vertex_of[d])

    def head(self, d: int) -> int:
        return int(self.vertex_of[d ^ 1])

    def sigma(self, d: int) -> int:
        """Next outgoing dart clockwise at tail(d)."""
        return int(self.phi[d ^ 1])

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

    def genus(self) -> int:
        chi = self.euler()
        if chi % 2:
            raise SurfaceError(f"odd Euler characteristic {chi}")
        return (2 - chi) // 2

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


def subdivide(x: Surface, n: int) -> Surface:
    if n < 0:
        raise SurfaceError("subdivision count must be nonnegative")
    return x if n == 0 else x.refined(n)[0]


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

    @property
    def vertices(self):
        return [self.surface.tail(d) for d in self.darts]

    def reversed(self) -> "Curve":
        return Curve(self.surface, [d ^ 1 for d in reversed(self.darts)],
                     self.name + "~rev" if self.name else "")

    def mapped(self, surface: Surface, parts,
               name: str | None = None) -> "Curve":
        """Transport to a refinement in which edge e became the edges
        parts[e], listed tail to head."""
        return Curve(surface, _expand(self.darts, parts),
                     self.name if name is None else name)

    def is_contractible(self) -> bool:
        cut = cut_along(self.surface, [self])
        return any(c.euler() == 1 for c in cut.components)

    def __len__(self):
        return len(self.darts)


# ---------------------------------------------------------------------------
# cutting


@dataclass
class BoundaryCircle:
    curve_index: int
    edge_labels: list


@dataclass
class CutComponent:
    """Connected surface piece with boundary, as an abstract cell complex.

    Cell labels remember their origin: ("v", v) original vertex,
    ("vc", v, side) duplicated curve vertex, ("e", e) untouched edge,
    ("ec", e, side) duplicated curve edge; side 0 is the left of the
    oriented cut curve.
    """

    vertices: list
    edges: dict
    faces: list
    boundary: list = field(default_factory=list)

    def euler(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def is_annulus(self) -> bool:
        return self.euler() == 0 and len(self.boundary) == 2

    def cochain_complex(self) -> gf2.ChainComplex:
        vs = sorted(self.vertices)
        es = sorted(self.edges)
        vi = {v: i for i, v in enumerate(vs)}
        ei = {e: i for i, e in enumerate(es)}
        d0 = gf2.zeros(len(es), len(vs))
        for e, (t, h) in self.edges.items():
            if t != h:
                d0[ei[e], vi[t]] = 1
                d0[ei[e], vi[h]] = 1
        d1 = gf2.zeros(len(self.faces), len(es))
        for fi, (_, labels) in enumerate(self.faces):
            for lab in labels:
                d1[fi, ei[lab]] ^= 1
        return gf2.ChainComplex({0: len(vs), 1: len(es), 2: len(self.faces)},
                                {0: d0, 1: d1})

    def sorted_cells(self):
        return sorted(self.vertices), sorted(self.edges), \
            [f for f, _ in self.faces]


@dataclass
class CutResult:
    """A surface cut along disjoint curves: the components, plus the
    curve-vertex data of _curve_vertex_data that involution maps read."""

    surface: Surface
    curves: list
    components: list
    curve_dart: dict
    at_vertex: dict
    left: dict
    _complex: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def cochain_complex(self):
        """Block complex over all components, component-major cell order.

        Returns (complex, offsets) where offsets[k] lists the starting
        index of each component block in degree k.  Built on the first
        call; later calls return the same complex.
        """
        if self._complex is None:
            self._complex = self._block_complex()
        return self._complex

    def _block_complex(self):
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
        offsets = {}
        for k in (0, 1, 2):
            offs, acc = [], 0
            for p in parts:
                offs.append(acc)
                acc += p.dims[k]
            offsets[k] = offs
        # every block was checked when its component complex was built
        return gf2.ChainComplex(dims, diffs, check=False), offsets

    def cell_index(self):
        """Global (degree, label) -> index maps in the block ordering."""
        v_idx, e_idx, f_idx = {}, {}, {}
        nv = ne = nf = 0
        for comp in self.components:
            vs, es, fs = comp.sorted_cells()
            for lab in vs:
                v_idx[lab] = nv
                nv += 1
            for lab in es:
                e_idx[lab] = ne
                ne += 1
            for lab in fs:
                f_idx[lab] = nf
                nf += 1
        return v_idx, e_idx, f_idx


def _curve_vertex_data(surface: Surface, curves):
    """Per cut-curve vertex: darts and the left sector of the rotation."""
    curve_dart = {}
    curve_of_edge = {}
    at_vertex = {}
    for ci, cur in enumerate(curves):
        for i, d in enumerate(cur.darts):
            curve_dart[d // 2] = d
            curve_of_edge[d // 2] = ci
            nxt = cur.darts[(i + 1) % len(cur.darts)]
            v = surface.head(d)
            if v in at_vertex:
                raise CurveError("cut curves must be disjoint and embedded")
            at_vertex[v] = (ci, d, nxt)
    # sigma runs clockwise, so the left side of the curve is swept out
    # between the reversed incoming dart and the outgoing dart
    left = {}
    for v, (ci, din, dout) in at_vertex.items():
        sector = set()
        d = surface.sigma(din ^ 1)
        while d != dout:
            if d == (din ^ 1):
                raise CurveError("curve darts missing from the rotation")
            sector.add(d)
            d = surface.sigma(d)
        left[v] = sector
    return curve_dart, curve_of_edge, at_vertex, left


def cut_along(surface: Surface, curves) -> CutResult:
    """Cut the surface open along disjoint embedded curves.

    Every curve vertex and edge is duplicated into a left and a right
    copy (side 0 = left of the oriented curve); faces keep their
    boundary words with curve-edge occurrences resolved by side.
    """
    if isinstance(curves, Curve):
        curves = [curves]
    curve_dart, curve_of_edge, at_vertex, left = \
        _curve_vertex_data(surface, curves)

    def vlabel(d):
        v = surface.tail(d)
        if v not in at_vertex:
            return ("v", v)
        return ("vc", v, 0 if d in left[v] else 1)

    edges = {}
    for e in range(surface.n_edges):
        if e in curve_dart:
            dc = curve_dart[e]
            u, w = surface.tail(dc), surface.head(dc)
            for side in (0, 1):
                edges[("ec", e, side)] = (("vc", u, side), ("vc", w, side))
        else:
            edges[("e", e)] = (vlabel(2 * e), vlabel(2 * e + 1))

    def elabel(d):
        e = d // 2
        if e in curve_dart:
            return ("ec", e, 0 if d == curve_dart[e] else 1)
        return ("e", e)

    faces = [(fi, tuple(elabel(d) for d in w))
             for fi, w in enumerate(surface.words)]

    # union-find over vertex labels
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    all_vlabels = []
    for v in range(surface.n_vertices):
        if v in at_vertex:
            all_vlabels += [("vc", v, 0), ("vc", v, 1)]
        else:
            all_vlabels.append(("v", v))
    for lab in all_vlabels:
        find(lab)
    for t, h in edges.values():
        union(t, h)

    comp_of = {}
    order = []
    for lab in all_vlabels:
        r = find(lab)
        if r not in comp_of:
            comp_of[r] = len(order)
            order.append(r)
    n_comp = len(order)
    comps = [CutComponent([], {}, []) for _ in range(n_comp)]
    for lab in all_vlabels:
        comps[comp_of[find(lab)]].vertices.append(lab)
    for lab, (t, h) in edges.items():
        comps[comp_of[find(t)]].edges[lab] = (t, h)
    for fi, labels in faces:
        t = edges[labels[0]][0]
        comps[comp_of[find(t)]].faces.append((fi, labels))

    # boundary circles: the duplicated curve-edge copies, one circle per
    # (curve, side) pair of each component
    for comp in comps:
        incident = {}
        for lab in comp.edges:
            if lab[0] != "ec":
                continue
            t, h = comp.edges[lab]
            incident.setdefault(t, []).append(lab)
            incident.setdefault(h, []).append(lab)
        used = set()
        for lab in sorted(comp.edges):
            if lab[0] != "ec" or lab in used:
                continue
            circle = [lab]
            used.add(lab)
            t, h = comp.edges[lab]
            cur = h
            while cur != t:
                nxt = [x for x in incident[cur] if x not in used]
                if not nxt:
                    raise SurfaceError("broken boundary circle")
                circle.append(nxt[0])
                used.add(nxt[0])
                a, b = comp.edges[nxt[0]]
                cur = b if a == cur else a
            comp.boundary.append(
                BoundaryCircle(curve_of_edge[circle[0][1]], circle))

    result = CutResult(surface, list(curves), comps, curve_dart, at_vertex,
                       left)
    if sum(c.euler() for c in comps) != surface.euler():
        raise SurfaceError("cut bookkeeping lost Euler characteristic")
    return result


# ---------------------------------------------------------------------------
# cohomology


def surface_cochain_complex(x: Surface) -> gf2.ChainComplex:
    d0 = gf2.zeros(x.n_edges, x.n_vertices)
    for e in range(x.n_edges):
        t, h = x.tail(2 * e), x.head(2 * e)
        if t != h:
            d0[e, t] = 1
            d0[e, h] = 1
    d1 = gf2.zeros(x.n_faces, x.n_edges)
    for fi, w in enumerate(x.words):
        for d in w:
            d1[fi, d // 2] ^= 1
    return gf2.ChainComplex({0: x.n_vertices, 1: x.n_edges, 2: x.n_faces},
                            {0: d0, 1: d1})


def cellular_cohomology(x) -> gf2.GradedDims:
    """Cohomology ranks of a closed surface, cut result, or component.

    Degree-0 classes are component indicator cochains; for a CutResult
    the block ordering makes the deterministic homology basis exactly the
    per-component indicators.
    """
    if isinstance(x, Surface):
        return surface_cochain_complex(x).homology()
    if isinstance(x, CutResult):
        return x.cochain_complex()[0].homology()
    if isinstance(x, CutComponent):
        return x.cochain_complex().homology()
    raise TypeError(f"cannot compute cohomology of {type(x).__name__}")


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
        out = []
        if not (psi[psi] == np.arange(len(psi))).all():
            bad = int(np.nonzero(psi[psi] != np.arange(len(psi)))[0][0])
            out.append(f"not of order two (edge {s.edge_names[bad // 2]!r})")
        want = (psi[s.phi] == (s.phi_inv[psi ^ 1] ^ 1))
        if not want.all():
            if (psi[s.phi] == s.phi[psi]).all():
                out.append("orientation-preserving (maps faces to faces "
                           "without reversing boundary words)")
            else:
                bad = int(np.nonzero(~want)[0][0])
                out.append(f"does not act cellularly near edge "
                           f"{s.edge_names[bad // 2]!r}")
        return out

    def is_valid(self) -> bool:
        return not self.diagnostics()

    def require_valid(self):
        diag = self.diagnostics()
        if diag:
            raise InvolutionError("; ".join(diag))

    def on_vertex(self, v: int) -> int:
        s = self.surface
        imgs = {s.tail(self.on_dart(d)) for d in s.rotations[v]}
        if len(imgs) != 1:
            raise InvolutionError("vertex image not well defined")
        return imgs.pop()

    def on_edge(self, e: int) -> int:
        return self.on_dart(2 * e) // 2

    def on_face(self, fi: int) -> int:
        s = self.surface
        imgs = {int(s.face_of[self.on_dart(d) ^ 1]) for d in s.words[fi]}
        if len(imgs) != 1:
            raise InvolutionError("face image not well defined")
        return imgs.pop()

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
    curve_dart, at_vertex, left = cut.curve_dart, cut.at_vertex, cut.left

    def edge_copy_image(e, side):
        f = c.on_edge(e)
        dc = curve_dart[e]
        img_occ = c.on_dart(dc) ^ 1  # occurrence correspondence d -> alpha(psi(d))
        s0 = 0 if img_occ == curve_dart[f] else 1
        return ("ec", f, s0 if side == 0 else 1 - s0)

    def vertex_label_image(lab):
        if lab[0] == "v":
            return ("v", c.on_vertex(lab[1]))
        _, v, side = lab
        w = c.on_vertex(v)
        din, dout = at_vertex[v][1], at_vertex[v][2]
        if side == 0:
            sector = sorted(left[v])
        else:
            sector = [d for d in x.rotations[v]
                      if d not in left[v] and d not in (dout, din ^ 1)]
        if sector:
            sides = {0 if c.on_dart(d) in left[w] else 1 for d in sector}
            if len(sides) != 1:
                raise InvolutionError("cut vertex image not well defined")
            return ("vc", w, sides.pop())
        # empty sector: the copy is still an endpoint of the outgoing
        # curve-edge copy, whose image fixes the side
        return ("vc", w, edge_copy_image(dout // 2, side)[2])

    def edge_label_image(lab):
        if lab[0] == "e":
            return ("e", c.on_edge(lab[1]))
        return edge_copy_image(lab[1], lab[2])

    v_idx, e_idx, f_idx = cut.cell_index()
    p0 = gf2.zeros(len(v_idx), len(v_idx))
    for lab, j in v_idx.items():
        img = vertex_label_image(lab)
        if img is None or img not in v_idx:
            raise InvolutionError("cut vertex image not well defined")
        p0[v_idx[img], j] = 1
    p1 = gf2.zeros(len(e_idx), len(e_idx))
    for lab, j in e_idx.items():
        p1[e_idx[edge_label_image(lab)], j] = 1
    p2 = gf2.zeros(len(f_idx), len(f_idx))
    for lab, j in f_idx.items():
        p2[f_idx[c.on_face(lab)], j] = 1

    cx, _ = cut.cochain_complex()
    # pullback on cochains is the transpose of the cell permutation;
    # induced_map checks that it is a chain map
    chain = gf2.ChainMap(cx, cx, {0: p0.T, 1: p1.T, 2: p2.T}, check=False)
    return gf2.induced_map(chain)
