"""Built-in surface scenarios: symmetric cell structures for the torus
and for genus 2 and 3 surfaces with a reflection along a separating (or
nonseparating) curve, plus square-grid tori for curve experiments.

Each builder returns a TwistScenario bundling the surface, the twist
curve S, an anti-cellular involution preserving S when one is shipped,
and optional test curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .surface import Curve, Involution, Surface


@dataclass
class TwistScenario:
    surface: Surface
    description: str
    s_curve: Curve
    involution: Involution | None = None
    q_curve: Curve | None = None
    n_curve: Curve | None = None
    twist_power: int = 1
    curves: dict = field(default_factory=dict)


def torus_scenario() -> TwistScenario:
    """Square torus, S the (1,0) curve, c the reflection fixing S."""
    s = Surface.parse([["a", "b", "a'", "b'"]])
    S = Curve.from_symbols(s, ["a"], "S")
    c = Involution.from_cycles(s, [["b", "b'"]], "c")
    b = Curve.from_symbols(s, ["b"], "b")
    return TwistScenario(s, "torus, S = (1,0), reflection across S", S, c,
                         curves={"S": S, "b": b})


_GENUS2_WORDS = [
    ["e1", "a1", "b1", "a1'", "b1'", "e1'", "u1", "u2"],
    ["e2", "a2", "b2", "a2'", "b2'", "e2'", "u2'", "u1'"],
]


def genus2_scenario(component_preserving: bool = False) -> TwistScenario:
    """Genus 2 with separating S = u1 u2 and a reflection along S.

    The default involution swaps the two genus-1 pieces; with
    component_preserving=True it reflects each piece onto itself.
    """
    s = Surface.parse(_GENUS2_WORDS)
    S = Curve.from_symbols(s, ["u1", "u2"], "S")
    if component_preserving:
        c = Involution.from_cycles(
            s, [["a1", "b1"], ["a2", "b2"], ["u1", "u2'"]], "c")
        desc = "genus 2, separating S, piecewise reflection"
    else:
        c = Involution.from_cycles(
            s, [["e1", "e2"], ["a1", "b2"], ["b1", "a2"]], "c")
        desc = "genus 2, separating S, reflection swapping the handles"
    extras = {
        "S": S,
        "alpha1": Curve.from_symbols(s, ["a1"], "alpha1"),
        "beta1": Curve.from_symbols(s, ["b1"], "beta1"),
        "alpha2": Curve.from_symbols(s, ["a2"], "alpha2"),
        "beta2": Curve.from_symbols(s, ["b2"], "beta2"),
    }
    return TwistScenario(s, desc, S, c, curves=extras)


def genus2_crossing_scenario() -> TwistScenario:
    """Genus 2 refined by two chords so a curve crossing S twice exists.

    gamma crosses the separating curve S transversally in two points;
    it is the N-curve of the shipped genus-2 LES scenario.  The first
    handle face carries a barycentric subdivision so that a Q-curve in
    the class of beta1 exists that is vertex-disjoint from both S and
    gamma: every vertex of the bare two-chord complex lies on gamma, so
    Q threads through the barycenter and the midpoint of a1 instead.
    """
    base = Surface.parse([
        ["h1", "u2", "e1", "a1", "b1", "a1'", "b1'"],
        ["h1'", "e1'", "u1"],
        ["h2", "u1'", "e2", "a2", "b2", "a2'", "b2'"],
        ["h2'", "e2'", "u2'"],
    ])
    split, _ = base.subdivide_edges({base.edge_index["a1"]: 2})
    s, spokes = split.cone_faces([0])
    # face 0 word after splitting a1:
    #   h1 u2 e1 a1.0 a1.1 b1 a1.1' a1.0' b1'
    # so the spokes at positions 4 and 7 both start at the a1 midpoint.
    S = Curve.from_symbols(s, ["u1", "u2"], "S")
    gamma = Curve.from_symbols(s, ["h1", "h2'", "e2'", "e1"], "gamma")
    q = Curve(s, [2 * spokes[0][4], 2 * spokes[0][7] + 1], "Q")
    return TwistScenario(
        s, "genus 2 with a curve crossing S twice", S,
        q_curve=q, n_curve=gamma,
        curves={"S": S, "gamma": gamma, "Q": q,
                "beta1": Curve.from_symbols(s, ["b1"], "beta1"),
                "beta2": Curve.from_symbols(s, ["b2"], "beta2")})


def genus3_scenario() -> TwistScenario:
    """Genus 3, S separating a genus-1 from a genus-2 piece."""
    s = Surface.parse([
        ["e1", "a1", "b1", "a1'", "b1'", "e1'", "u1", "u2"],
        ["e2", "a2", "b2", "a2'", "b2'", "c2", "d2", "c2'", "d2'",
         "e2'", "u2'", "u1'"],
    ])
    S = Curve.from_symbols(s, ["u1", "u2"], "S")
    c = Involution.from_cycles(
        s, [["a1", "b1"], ["u1", "u2'"], ["a2", "d2"], ["b2", "c2"]], "c")
    return TwistScenario(
        s, "genus 3, S separating (1|2), piecewise reflection", S, c,
        curves={"S": S,
                "beta1": Curve.from_symbols(s, ["b1"], "beta1"),
                "beta2": Curve.from_symbols(s, ["b2"], "beta2")})


# ---------------------------------------------------------------------------
# grid tori


def grid_torus(n: int) -> Surface:
    """n-by-n square grid cell structure on the torus (n >= 2).

    Horizontal edge h{i}_{j} runs (i,j) -> (i+1,j); vertical edge
    v{i}_{j} runs (i,j) -> (i,j+1), indices mod n.
    """
    if n < 2:
        raise ValueError("grid size must be at least 2")

    def h(i, j):
        return 2 * ((j % n) * n + i % n)

    def v(i, j):
        return h(i, j) + 2 * n * n

    names = [f"{kind}{i}_{j}" for kind in "hv"
             for j in range(n) for i in range(n)]
    return Surface([(h(i, j), v(i + 1, j), h(i, j + 1) ^ 1, v(i, j) ^ 1)
                    for j in range(n) for i in range(n)], names)


def grid_row(surface: Surface, n: int, j: int, name: str = "") -> Curve:
    return Curve.from_symbols(
        surface, [f"h{i}_{j % n}" for i in range(n)], name or f"row{j}")


def grid_col(surface: Surface, n: int, i: int, name: str = "") -> Curve:
    return Curve.from_symbols(
        surface, [f"v{i % n}_{j}" for j in range(n)], name or f"col{i}")


def grid_path_curve(surface: Surface, n: int, path, name: str = "") -> Curve:
    """Closed curve through a cyclic list of grid vertices (i, j).

    Consecutive vertices must be neighbours on the grid torus; a step of
    n-1 in one coordinate is read as a single wraparound step backwards.
    """
    darts = []
    m = len(path)
    for k in range(m):
        (x, y), (x2, y2) = path[k], path[(k + 1) % m]
        dx, dy = (x2 - x) % n, (y2 - y) % n
        if dy == 0 and dx == 1:
            darts.append(surface.dart(f"h{x}_{y}"))
        elif dy == 0 and dx == n - 1:
            darts.append(surface.dart(f"h{x2}_{y}") ^ 1)
        elif dx == 0 and dy == 1:
            darts.append(surface.dart(f"v{x}_{y}"))
        elif dx == 0 and dy == n - 1:
            darts.append(surface.dart(f"v{x}_{y2}") ^ 1)
        else:
            raise ValueError(f"vertices {path[k]} and {path[(k + 1) % m]} "
                             "are not grid neighbours")
    return Curve(surface, darts, name)


def torus_les_scenario() -> TwistScenario:
    """Torus LES triple: S the (1,0) row, Q and N parallel (0,1) columns.

    Q and N realize the same class but are disjoint curves, so the
    twisted configuration stays transverse (they cross S at different
    vertices); the self-Floer rank of the class pair is still 2.
    """
    n = 5
    s = grid_torus(n)
    S = grid_row(s, n, 0, "S")
    return TwistScenario(
        s, "torus LES triple, S = (1,0), Q = N = (0,1)", S,
        q_curve=grid_col(s, n, 0, "Q"), n_curve=grid_col(s, n, 2, "N"),
        curves={"S": S})


_STAIRCASE = [(0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4),
              (4, 4), (4, 0), (4, 1)]


def random_torus_les_scenario(rng) -> TwistScenario:
    """Randomized LES triple on the 5-grid torus.

    S is a random row, Q a random column, N one of: another column,
    a row disjoint from S, or a (1,1) staircase translated to avoid
    the edges of both S and Q.  The twist power runs through -3..3.
    """
    n = 5
    s = grid_torus(n)
    r = int(rng.integers(n))
    qi = int(rng.integers(n))
    S = grid_row(s, n, r, "S")
    Q = grid_col(s, n, qi, "Q")
    pick = int(rng.integers(3))
    if pick == 0:
        N = grid_col(s, n, (qi + 1 + int(rng.integers(n - 1))) % n, "N")
    elif pick == 1:
        N = grid_row(s, n, (r + 1 + int(rng.integers(n - 1))) % n, "N")
    else:
        path = [((i + qi) % n, (j + r) % n) for i, j in _STAIRCASE]
        N = grid_path_curve(s, n, path, "N")
    k = int(rng.integers(-3, 4))
    return TwistScenario(
        s, f"random torus LES triple (S row {r}, Q col {qi}, "
           f"N kind {pick}, k = {k})",
        S, q_curve=Q, n_curve=N, twist_power=k, curves={"S": S})


BUILDERS = {
    "torus": torus_scenario,
    "genus2": genus2_scenario,
    "genus2-crossing": genus2_crossing_scenario,
    "genus3": genus3_scenario,
    "torus-les": torus_les_scenario,
}
