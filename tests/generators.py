"""Test inputs built from the shipped scenarios: random re-presentations
and reversed curves."""

from __future__ import annotations

from twistcheck.scenarios import (TwistScenario, genus2_scenario,
                                  genus3_scenario, torus_scenario)
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
