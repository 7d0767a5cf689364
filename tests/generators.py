"""Test inputs built from the shipped scenarios: random re-presentations
and reversed curves."""

from __future__ import annotations

from twistcheck.scenarios import (TwistScenario, genus2_scenario,
                                  genus3_scenario, grid_path_curve,
                                  torus_scenario)
from twistcheck.surface import Curve, Involution, Surface


def reversed_curve(curve: Curve) -> Curve:
    """The same loop run backwards."""
    return Curve(curve.surface, [d ^ 1 for d in reversed(curve.darts)],
                 curve.name + "~rev" if curve.name else "")


def randomized_scenario(rng) -> TwistScenario:
    """Random re-presentation of a corpus scenario.

    Picks one of the shipped symmetric scenarios, then renames every
    edge with a shuffled fresh alphabet, cyclically rotates each face
    word, and shuffles the face order.  This produces a combinatorially
    identical but syntactically scrambled scenario; every pipeline
    verdict must be invariant under such re-presentation.
    """
    base = [torus_scenario, genus2_scenario,
            lambda: genus2_scenario(component_preserving=True),
            genus3_scenario][int(rng.integers(4))]()
    old = base.surface
    fresh = [f"x{i}" for i in range(old.n_edges)]
    rng.shuffle(fresh)

    words = []
    for word in old.words:
        off = int(rng.integers(len(word)))
        words.append(word[off:] + word[:off])
    order = list(range(len(words)))
    rng.shuffle(order)
    new = Surface([words[i] for i in order], fresh)

    def tr_dart(d):
        return 2 * new.renumber[d // 2] + (d & 1)

    curves = {name: Curve(new, [tr_dart(d) for d in c.darts], name)
              for name, c in base.curves.items()}
    invol = None
    if base.involution is not None:
        images = {tr_dart(d): tr_dart(base.involution.on_dart(d))
                  for d in range(2 * old.n_edges)}
        invol = Involution(new, images, base.involution.name)
    return TwistScenario(
        new, "randomized: " + base.description,
        curves[base.s_curve.name], invol, curves=curves)



# ---------------------------------------------------------------------------
# curves on the grid torus and random simple loops


def _grid_loop(surface, n, path, name):
    """grid_path_curve through path, with repeated neighbours dropped."""
    out = []
    for x, y in path:
        if not out or out[-1] != (x % n, y % n):
            out.append((x % n, y % n))
    if out[-1] == out[0]:
        out.pop()
    return grid_path_curve(surface, n, out, name)


def grid_serpentine(surface: Surface, n: int, c: int, m: int, h: int,
                    name: str = "") -> Curve:
    """Class (0,1) curve that crosses row 0 at the 2m + 1 columns c, ...,
    c + 2m, alternately up and down, and returns along row h
    (2m < n, 2 <= h <= n - 2).

    Against row 0 it is m bigon removals away from minimal position."""
    path = [(c, y) for y in range(h, n)]
    for x in range(c, c + 2 * m + 1):
        up = (x - c) % 2 == 0
        path += [(x, n - 1), (x, 0), (x, 1)] if up \
            else [(x, 1), (x, 0), (x, n - 1)]
    path += [(c + 2 * m, y) for y in range(2, h + 1)]
    path += [(x, h) for x in range(c + 2 * m - 1, c, -1)]
    return _grid_loop(surface, n, path, name)


def grid_dipped_row(surface: Surface, n: int, dips, name: str = "") -> Curve:
    """Class (1,0) curve along row 1 that dips to row n - 1 over each
    column interval (a, b) of dips, crossing row 0 at columns a and b.

    The intervals must satisfy 0 <= a < b < n and lie apart.  Against
    row 0 the curve is len(dips) bigon removals away from being
    disjoint, and it is isotopic to row 0."""
    path, x = [], 0
    for a, b in sorted(dips):
        path += [(i, 1) for i in range(x, a + 1)]
        path += [(a, 0)] + [(i, n - 1) for i in range(a, b + 1)] + [(b, 0)]
        x = b
    path += [(i, 1) for i in range(x, n)]
    return _grid_loop(surface, n, path, name)


def random_simple_loop(surface: Surface, rng, avoid=frozenset(),
                       name: str = "") -> Curve | None:
    """The fundamental cycle of a random edge over a random spanning
    forest of the 1-skeleton without the edges in avoid; None when every
    remaining edge lies in the forest."""
    edges = [e for e in range(surface.n_edges) if e not in avoid]
    rng.shuffle(edges)
    parent = list(range(surface.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, spare = [], []
    for e in edges:
        a, b = find(surface.tail(2 * e)), find(surface.head(2 * e))
        if a == b:
            spare.append(e)
        else:
            parent[a] = b
            tree.append(e)
    if not spare:
        return None
    # tree paths from the chosen edge's head back to its tail
    adj = {}
    for e in tree:
        for d in (2 * e, 2 * e + 1):
            adj.setdefault(surface.tail(d), []).append(d)
    d0 = 2 * spare[int(rng.integers(len(spare)))] + int(rng.integers(2))
    start, goal = surface.head(d0), surface.tail(d0)
    via = {start: None}
    queue = [start]
    for v in queue:
        for d in adj.get(v, ()):
            w = surface.head(d)
            if w not in via:
                via[w] = d
                queue.append(w)
    back = []
    v = goal
    while v != start:
        back.append(via[v])
        v = surface.tail(via[v])
    return Curve(surface, [d0] + back[::-1], name)
