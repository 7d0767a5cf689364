"""Seeded scenario-file generator for the benchmark workloads.

Writes text in the twistcheck scenario-file format for three families:

* grid tori of side n, with the twist curve S a seeded row.  The faces
  are listed from row ``row - n // 2``, so S always sits half-way along
  the cell order.  Elimination cost depends on where the cut lies in that
  order (on n = 14, hf takes 3.5 times as long for the last row as for
  the first), and the seed should vary the input, not its cost;
* the torus LES triple on the 5-grid (S a row, Q and N parallel columns)
  at twist power k;
* re-presentations of the shipped corpus (torus, genus 2 with either
  reflection, genus 3): edges renamed, face words rotated, faces
  shuffled, S rotated, involution cycles renamed, rotated, reflected and
  shuffled.

Each generator returns a ``Spec``: the text plus what the text is meant
to say (face words, curve words, involution dart images).
``round_trip`` parses the text with ``twistcheck.fileformat.parse_text``
and checks that the parser returns exactly that, so the workloads cannot
silently run on different inputs than the generator intended.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Spec:
    text: str
    faces: list                       # [[symbol, ...], ...]
    curves: dict                      # name -> [symbol, ...]
    involution: dict = field(default_factory=dict)   # symbol -> symbol
    involution_name: str = ""
    settings: dict = field(default_factory=dict)


def _render(faces, curves, cycles, inv_name, settings):
    lines = ["[faces]"] + [" ".join(w) for w in faces]
    lines += ["", "[curves]"]
    lines += [f"{name} = {' '.join(w)}" for name, w in curves.items()]
    if cycles:
        lines += ["", "[involutions]",
                  f"{inv_name} = " + " ".join(
                      "(" + " ".join(c) + ")" for c in cycles)]
    lines += ["", "[scenario]"]
    lines += [f"{key} = {value}" for key, value in settings.items()]
    return "\n".join(lines) + "\n"


def _grid_faces(n, first_row=0):
    """n-by-n square grid on the torus: h{i}_{j} runs (i,j) -> (i+1,j),
    v{i}_{j} runs (i,j) -> (i,j+1), indices mod n.  Faces are listed row
    by row, starting with row first_row."""
    rows = [(first_row + t) % n for t in range(n)]
    return [[f"h{i}_{j}", f"v{(i + 1) % n}_{j}", f"h{i}_{(j + 1) % n}'",
             f"v{i}_{j}'"] for j in rows for i in range(n)]


def grid_torus(n, row, description):
    faces = _grid_faces(n, row - n // 2)
    curves = {"S": [f"h{i}_{row}" for i in range(n)]}
    settings = {"description": description, "s": "S"}
    return Spec(_render(faces, curves, [], "", settings), faces, curves,
                settings=settings)


def torus_les(k, description):
    """S = row 0, Q = column 0, N = column 2 of the 5-grid, power k."""
    n = 5
    faces = _grid_faces(n)
    curves = {"S": [f"h{i}_0" for i in range(n)],
              "Q": [f"v0_{j}" for j in range(n)],
              "N": [f"v2_{j}" for j in range(n)]}
    settings = {"description": description, "s": "S", "q": "Q", "n": "N",
                "twist": k}
    return Spec(_render(faces, curves, [], "", settings), faces, curves,
                settings=settings)


@dataclass(frozen=True)
class Base:
    """A corpus scenario and its topological invariants.

    ``components``, ``ranks`` (cohomology of the surface cut along S) and
    ``c0`` (the degree-0 action of c* on the component indicators) follow
    from the topology of the cut, not from running the program.
    """

    name: str
    faces: tuple
    s_curve: tuple
    cycles: tuple
    components: int
    ranks: dict
    c0: tuple


_GENUS2 = (("e1", "a1", "b1", "a1'", "b1'", "e1'", "u1", "u2"),
           ("e2", "a2", "b2", "a2'", "b2'", "e2'", "u2'", "u1'"))

CORPUS = (
    # a nonseparating S cuts the torus into one annulus
    Base("torus", (("a", "b", "a'", "b'"),), ("a",), (("b", "b'"),),
         1, {"0": 1, "1": 1}, ((1,),)),
    # a separating S cuts genus 2 into two one-holed tori, which the
    # handle-swapping reflection exchanges
    Base("genus2-swap", _GENUS2, ("u1", "u2"),
         (("e1", "e2"), ("a1", "b2"), ("b1", "a2")),
         2, {"0": 2, "1": 4}, ((0, 1), (1, 0))),
    Base("genus2-piecewise", _GENUS2, ("u1", "u2"),
         (("a1", "b1"), ("a2", "b2"), ("u1", "u2'")),
         2, {"0": 2, "1": 4}, ((1, 0), (0, 1))),
    # genus 3 cut into a one-holed torus and a one-holed genus-2 surface;
    # pieces of different genus cannot be exchanged
    Base("genus3",
         (("e1", "a1", "b1", "a1'", "b1'", "e1'", "u1", "u2"),
          ("e2", "a2", "b2", "a2'", "b2'", "c2", "d2", "c2'", "d2'",
           "e2'", "u2'", "u1'")),
         ("u1", "u2"),
         (("a1", "b1"), ("u1", "u2'"), ("a2", "d2"), ("b2", "c2")),
         2, {"0": 2, "1": 6}, ((1, 0), (0, 1))),
)


def _flip(sym):
    return sym[:-1] if sym.endswith("'") else sym + "'"


def re_presentation(base, rng, description):
    """A seeded, combinatorially identical re-presentation of ``base``."""
    names = sorted({s.rstrip("'") for w in base.faces for s in w})
    prefix = rng.choice(("x", "e", "edge_", "k"))
    fresh = [f"{prefix}{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))

    def tr(sym):
        return rename[sym[:-1]] + "'" if sym.endswith("'") else rename[sym]

    faces = []
    for word in base.faces:
        off = rng.randrange(len(word))
        faces.append([tr(s) for s in word[off:] + word[:off]])
    rng.shuffle(faces)

    s_word = [tr(s) for s in base.s_curve]
    off = rng.randrange(len(s_word))
    s_name = f"S{rng.randrange(100)}"
    curves = {s_name: s_word[off:] + s_word[:off]}

    # (x y) and (x' y') describe the same involution, as do the two
    # rotations of a 2-cycle
    cycles = []
    for cyc in base.cycles:
        c = [tr(s) for s in cyc]
        if rng.random() < 0.5:
            c = [_flip(s) for s in c]
        if rng.random() < 0.5:
            c = c[::-1]
        cycles.append(c)
    rng.shuffle(cycles)
    images = {}
    for c in cycles:
        for i, sym in enumerate(c):
            images[sym] = c[(i + 1) % len(c)]
            images[_flip(sym)] = _flip(c[(i + 1) % len(c)])

    inv_name = f"c{rng.randrange(100)}"
    settings = {"description": description, "s": s_name,
                "involution": inv_name}
    return Spec(_render(faces, curves, cycles, inv_name, settings), faces,
                curves, images, inv_name, settings)


def round_trip(spec, parse_text):
    """Reason the parsed file differs from the spec, or None."""
    pf = parse_text(spec.text)
    got_faces = pf.surface.face_words_symbols()
    if got_faces != spec.faces:
        return "face words differ from the generated ones"
    for name, word in spec.curves.items():
        if name not in pf.curves or pf.curves[name].symbols() != word:
            return f"curve {name} differs from the generated one"
    if set(pf.curves) != set(spec.curves):
        return "parsed curves are not the generated set"
    if spec.involution:
        inv = pf.involutions.get(spec.involution_name)
        if inv is None:
            return "the generated involution is missing"
        surf = pf.surface
        for sym, img in spec.involution.items():
            if inv.on_dart(surf.dart(sym)) != surf.dart(img):
                return f"involution sends {sym} elsewhere than {img}"
        mentioned = {surf.dart(s) for s in spec.involution}
        for d in range(2 * surf.n_edges):
            if d not in mentioned and inv.on_dart(d) != d:
                return f"involution moves unmentioned {surf.symbol(d)}"
    for key, value in spec.settings.items():
        if pf.settings.get(key) != value:
            return f"scenario key {key} differs"
    return None
