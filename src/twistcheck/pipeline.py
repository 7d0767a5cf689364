"""The headline computation pipeline.

Ties the layers together for a TwistScenario (a surface, a twist curve
S, an orientation-reversing cell involution preserving S, and optional
test curves Q, N).  The first four entry points below cut the surface
along S exactly once (cut_along_s), reject a contractible S off that
cut, and read everything else from it:

  * hf_inverse_twist: the rank surrogate for HF*(tau_S^{-1}), namely
    the cellular cohomology of the surface cut along S, with the
    distinguished degree-0 basis of component indicators;
  * distinguished_element: the class A, the image of the unit under
    restriction to the complement -- always the all-ones component
    vector, and in particular nonzero;
  * involution_action: the matrices of c* on the cut cohomology;
  * verify_theorem_A: c*(A) = A and the supporting sanity verdicts;
  * les_rank_check: the rank-level shadow of the twist long exact
    sequence on a triple (S, Q, N), whose Floer ranks come from
    floer.twist_rank_sequence.  One triangle governs one twist:
    with r1 = rank hf(S,N) * rank hf(Q,S) (Kunneth, the same at every
    power because tau_S fixes S), exactness forces, for consecutive
    ranks a = rank hf(Q, tau^{j-1} N) and b = rank hf(Q, tau^j N),
    |b - a| <= r1,  b >= r1 - a,  and chi2(b) = chi2(r1) + chi2(a)
    where chi2 is the mod-2 Euler characteristic.  These inequalities,
    together with the parity identity, are the complete rank-level
    consequence of exactness: a three-periodic exact triangle with
    corner ranks (r1, a, b) exists precisely when all three hold.  A
    power k is audited as |k| consecutive steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import floer as fl
from . import gf2 as g
from . import surface as sf
from .report import VerificationReport, graded, matrix
from .scenarios import TwistScenario

__all__ = [
    "PipelineError",
    "AClass",
    "cut_along_s",
    "hf_inverse_twist",
    "distinguished_element",
    "involution_action",
    "verify_theorem_A",
    "les_rank_check",
    "chi2",
]


class PipelineError(ValueError):
    """Invalid scenario or unusable curve configuration."""


@dataclass(frozen=True)
class AClass:
    """The distinguished degree-0 class in the component basis."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.uint8)
        object.__setattr__(self, "vector", v)
        if not v.any():
            raise PipelineError("the distinguished class must be nonzero")

    def as_list(self):
        return [int(x) for x in self.vector]


def cut_along_s(scenario: TwistScenario) -> sf.CutResult:
    """The cut of the surface along S, made once per entry point.

    A contractible S is rejected off this same cut: a closed curve is
    contractible exactly when cutting along it leaves a disk, the test
    (CutResult.has_disk) that Curve.is_contractible runs.
    """
    cut = sf.cut_along(scenario.surface, [scenario.s_curve])
    if cut.has_disk():
        raise PipelineError("the twist curve S must be noncontractible")
    return cut


def hf_inverse_twist(scenario: TwistScenario
                     ) -> Tuple[g.GradedDims, sf.CutResult]:
    """Graded ranks of the HF*(tau_S^{-1}) surrogate.

    Returns the cellular cohomology of the surface cut along S together
    with the cut itself, whose component list is the distinguished
    degree-0 basis.  No elimination: every piece is compact, connected,
    orientable and has boundary, so adds 1 to H^0 and 1 - chi to H^1.
    """
    cut = cut_along_s(scenario)
    return sf.cellular_cohomology(cut), cut


def _a_class(cut: sf.CutResult) -> AClass:
    return AClass(np.ones(len(cut.components), dtype=np.uint8))


def distinguished_element(scenario: TwistScenario) -> AClass:
    """The class A: restriction of the unit to the complement of S.

    In the component-indicator basis of degree 0 this is the all-ones
    vector, one entry per connected component of the cut surface; it is
    never zero.
    """
    return _a_class(cut_along_s(scenario))


def _action(scenario: TwistScenario, cut: sf.CutResult):
    if scenario.involution is None:
        raise PipelineError("scenario has no involution")
    return sf.involution_induced_map(cut, scenario.involution)


def involution_action(scenario: TwistScenario) -> Dict[int, np.ndarray]:
    """Matrices of c* on the cut cohomology, per degree."""
    return _action(scenario, cut_along_s(scenario))


def _is_permutation(m: np.ndarray) -> bool:
    return bool((m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all())


def _squares_to_identity(ind: Dict[int, np.ndarray]) -> bool:
    return all(bool((g.matmul(m, m) == g.eye(m.shape[0])).all())
               for m in ind.values())


def verify_theorem_A(scenario: TwistScenario) -> VerificationReport:
    """The fixed-point statement: c* fixes the distinguished class A.

    Since c permutes the components of the cut surface and A is the
    all-ones component vector, the verdict must pass for every valid
    scenario; a failure indicates an implementation bug.
    """
    dims, cut = hf_inverse_twist(scenario)
    a = _a_class(cut)
    ind = _action(scenario, cut)
    m0 = ind[0]
    image = (m0 @ a.vector) % 2

    verdicts = {
        "a_nonzero": bool(a.vector.any()),
        "c_star_fixes_a": bool((image == a.vector).all()),
        "degree0_is_permutation": _is_permutation(m0),
        "c_star_squares_to_identity": _squares_to_identity(ind),
    }
    data = {
        "ranks": graded(dims),
        "components": len(cut.components),
        "a": a.as_list(),
        "c_star": {str(k): matrix(m) for k, m in sorted(ind.items())},
    }
    return VerificationReport("theorem-A check", scenario.description,
                              data=data, verdicts=verdicts)


def chi2(dims: g.GradedDims) -> int:
    """Mod-2 Euler characteristic of a mod-2 graded rank vector."""
    return dims.total() % 2


def les_rank_check(scenario: TwistScenario) -> VerificationReport:
    """Rank bookkeeping of the twist exact sequence on (S, Q, N)."""
    S, Q, N = scenario.s_curve, scenario.q_curve, scenario.n_curve
    if Q is None or N is None:
        raise PipelineError("les_rank_check needs both test curves Q and N")
    k = scenario.twist_power
    try:
        hf_sn, hf_qs, sequence, moved = fl.twist_rank_sequence(S, Q, N, k)
    except fl.FloerError as exc:
        raise PipelineError(f"Floer ranks of (S, Q, N) unavailable: {exc}")
    twisted_class = f"tau^{k}(N)" if moved else "unchanged"
    r1g = g.convolve(hf_sn, hf_qs, mod2=True)
    hf_qn, hf_qtn = sequence[0], sequence[-1]

    r1, r2, r3 = r1g.total(), hf_qn.total(), hf_qtn.total()
    steps = list(zip(sequence, sequence[1:]))
    verdicts = {
        "upper_bound": all(abs(b.total() - a.total()) <= r1
                           for a, b in steps),
        "lower_bound": all(b.total() >= r1 - a.total() for a, b in steps),
        "chi2_additivity": all(
            chi2(b) == (chi2(r1g) + chi2(a)) % 2 for a, b in steps),
        "zero_r1_forces_equality": (r1 != 0) or all(
            b.total() == a.total() for a, b in steps),
    }
    data = {
        "twist_power": k,
        "twisted": twisted_class,
        "hf_S_N": graded(hf_sn),
        "hf_Q_S": graded(hf_qs),
        "r1_graded": graded(r1g),
        "r2_graded": graded(hf_qn),
        "r3_graded": graded(hf_qtn),
        "r1": r1,
        "r2": r2,
        "r3": r3,
        "rank_sequence": [d.total() for d in sequence],
    }
    return VerificationReport("LES rank check", scenario.description,
                              data=data, verdicts=verdicts)
