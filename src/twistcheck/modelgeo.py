"""Numerical certification of the local model geometry on T*S^n.

Everything in this module lives on the cotangent bundle of the round
sphere S^n in R^{n+1}, identified with the tangent bundle through the
metric: a point is a pair (q, p) with |q| = 1 and q . p = 0.  The norm
of the covector is |p|.

The API is batch-only: points are rows of batches (Q, P) of shape
(rows, n+1), drawn by random_batch.  The kernels _flow, _twist, _c0 and
_handle_batch stay private, so that tracing the public functions
(perfbench/tracing.py) puts no span on every inner call.

Provided here:

  * the normalized geodesic flow (Hamiltonian flow of xi -> |xi|) in
    closed form;
  * the two canonical profile families (the Dehn profile pi - r, for
    epsilon <= pi, and the admissible plateau profiles), built from
    exp(-1/x) smooth steps;
  * the model Dehn twist tau(xi) = flow of xi for time nu(|xi|), with
    the antipodal map on the zero section, where only the Dehn profile
    (nu(0) = pi) makes it continuous and has its residuals reported;
  * the linear anti-symplectic involutions c0* (kinds "id" and "r");
  * the flow handle parameterization and the symmetry identities that
    relate it to its image under the swap-and-flip map Phi;
  * suspension points for a norms-only interpolation Hamiltonian K and
    the corresponding symmetry;
  * the splitting of the model twist into two anti-symplectic
    involutions, certified with finite-difference Jacobians in
    stereographic cotangent charts, whose covector push-forward
    w = J^T p and its inverse are closed forms (the chart is conformal).

All verifiers draw reproducible samples from a seeded generator and
return a ResidualReport with per-identity maximum residuals.  Each
verifier draws its whole sample batch first, in a fixed order, and then
evaluates it in blocks of _BLOCK_ROWS rows, keeping the per-identity max
over blocks (_blockwise_max).  The evaluators are pure and act row by
row, and a max-reduce does not depend on how the rows are grouped, so
the block size changes no residual, not even in its last bit; it only
bounds the temporaries, which no longer grow with the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ModelError",
    "ProfileFunction",
    "NormHamiltonian",
    "ResidualReport",
    "KINDS",
    "smooth_step",
    "random_batch",
    "verify_lemma_identities",
    "verify_handle_symmetry",
    "verify_suspension_symmetry",
    "verify_involution_splitting",
    "verify_model_twist",
]

KINDS = ("id", "r")

# rows per evaluation block of the verifiers
_BLOCK_ROWS = 8192


class ModelError(ValueError):
    """Invalid sample, parameter, or contract violation."""


# ---------------------------------------------------------------------------
# samples


def random_batch(dim: int, count: int, rng: np.random.Generator,
                 norm_low: float, norm_high: float
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Batch of samples on T*S^dim with |p| uniform in [norm_low, norm_high].

    Returns arrays Q, P of shape (count, dim + 1).
    """
    if dim < 1:
        raise ModelError("dim must be at least 1")
    if count < 1:
        raise ModelError("sample count must be at least 1")
    q = rng.normal(size=(count, dim + 1))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    v = rng.normal(size=(count, dim + 1))
    v -= (np.sum(v * q, axis=1, keepdims=True)) * q
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    # resample (vanishingly rare) degenerate directions deterministically
    bad = (nv[:, 0] < 1e-8)
    while np.any(bad):
        v[bad] = rng.normal(size=(int(bad.sum()), dim + 1))
        v[bad] -= (np.sum(v[bad] * q[bad], axis=1, keepdims=True)) * q[bad]
        nv = np.linalg.norm(v, axis=1, keepdims=True)
        bad = (nv[:, 0] < 1e-8)
    v /= nv
    norms = rng.uniform(norm_low, norm_high, size=(count, 1))
    return q, v * norms


def _batch_dist(qa, pa, qb, pb) -> np.ndarray:
    """Rowwise max-abs distance between two sample batches."""
    return np.maximum(np.max(np.abs(qa - qb), axis=1),
                      np.max(np.abs(pa - pb), axis=1))


def _blockwise_max(body: Callable[[slice], Dict[str, float]],
                   rows: int) -> Dict[str, float]:
    """Per-key max of the residual dicts body(block) over consecutive
    blocks of _BLOCK_ROWS rows; a NaN residual stays NaN."""
    out: Dict[str, float] = {}
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, rows))
        for key, value in body(block).items():
            out[key] = float(np.maximum(out.get(key, value), value))
    return out


# ---------------------------------------------------------------------------
# geodesic flow


def _flow(q: np.ndarray, p: np.ndarray, t) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form normalized geodesic flow (the Hamiltonian flow of
    xi -> |xi|) on a batch: along the great circle spanned by q and p/|p|
    at unit angular speed.  t may be a scalar or a per-row array.

    Rows on the zero section are only legal when the flow time there is
    exactly zero; they are returned unchanged.
    """
    t = np.broadcast_to(np.asarray(t, dtype=float), (q.shape[0],))
    norms = np.linalg.norm(p, axis=1)
    on_zero = norms == 0.0
    if np.any(on_zero & (t != 0.0)):
        raise ModelError("geodesic flow is undefined on the zero section")
    safe = np.where(on_zero, 1.0, norms)
    u = p / safe[:, None]
    ct = np.cos(t)[:, None]
    st = np.sin(t)[:, None]
    q2 = ct * q + st * u
    p2 = (-safe * np.sin(t))[:, None] * q + ct * p
    q2[on_zero] = q[on_zero]
    p2[on_zero] = p[on_zero]
    return q2, p2


# ---------------------------------------------------------------------------
# profiles


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, flat at both ends."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        g = np.where(x < 1.0,
                     np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return f / (f + g)


@dataclass(frozen=True)
class ProfileFunction:
    """Twisting profile nu: [0, inf) -> R.

    kind "dehn": nu(r) = pi - r exactly on [0, epsilon/4], then blended
    smoothly and strictly decreasing to 0 at epsilon, identically 0
    beyond; it needs epsilon <= pi, since the blend (pi - r)(1 - step)
    turns negative once epsilon passes pi.  kind "admissible":
    nu(0) = lam in (0, pi), flat at 0 (all derivatives vanish there),
    strictly decreasing on (0, epsilon), identically 0 beyond.
    """

    kind: str
    epsilon: float
    lam: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("dehn", "admissible"):
            raise ModelError("profile kind must be 'dehn' or 'admissible'")
        if not self.epsilon > 0:
            raise ModelError("epsilon must be positive")
        if self.kind == "admissible":
            if self.lam is None or not (0.0 < self.lam < np.pi):
                raise ModelError("admissible profile needs lam in (0, pi)")
        elif self.lam is not None:
            raise ModelError("dehn profile takes no lam parameter")
        elif self.epsilon > np.pi:
            raise ModelError(f"dehn profile needs epsilon <= pi, got "
                             f"epsilon = {self.epsilon:g}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        e = self.epsilon
        if self.kind == "dehn":
            x = (r - e / 4.0) / (0.75 * e)
            out = (np.pi - r) * (1.0 - smooth_step(x))
        else:
            out = self.lam * (1.0 - smooth_step(r / e))
        return np.where(r >= e, 0.0, out)


# ---------------------------------------------------------------------------
# model twist and involutions


def _twist(q: np.ndarray, p: np.ndarray, nu: ProfileFunction,
           sign: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """The model Dehn twist: flow for time nu(|xi|), or -nu(|xi|) for the
    inverse (sign = -1); antipode on the zero section; identity where nu
    vanishes."""
    norms = np.linalg.norm(p, axis=1)
    t = sign * nu(norms)
    zero = norms == 0.0
    q2, p2 = q.copy(), p.copy()
    move = (~zero) & (t != 0.0)
    if np.any(move):
        qm, pm = _flow(q[move], p[move], t[move])
        q2[move] = qm
        p2[move] = pm
    q2[zero] = -q[zero]
    return q2, p2


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ModelError(f"unknown involution kind {kind!r}; "
                         f"expected one of {KINDS}")


def _c0(q: np.ndarray, p: np.ndarray, kind: str
        ) -> Tuple[np.ndarray, np.ndarray]:
    """The linear anti-symplectic involution c0*: kind "id" gives
    (q, p) -> (q, -p); kind "r" composes with the reflection negating the
    first coordinate of both q and p."""
    q2, p2 = q.copy(), -p
    if kind == "r":
        q2[:, 0] = -q2[:, 0]
        p2[:, 0] = -p2[:, 0]
    return q2, p2


# ---------------------------------------------------------------------------
# residual reports


@dataclass
class ResidualReport:
    """Per-identity maximum residuals of a verifier run."""

    name: str
    samples: int
    residuals: Dict[str, float]
    tolerance: Optional[float] = None
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        # np.max, unlike max, propagates a NaN wherever it stands
        return (float(np.max(list(self.residuals.values())))
                if self.residuals else 0.0)

    @property
    def passed(self) -> bool:
        return self.tolerance is None or self.max_residual <= self.tolerance

    def as_dict(self) -> dict:
        # strict JSON has no NaN or infinity: such a residual is null
        def finite(v):
            v = float(v)
            return v if np.isfinite(v) else None

        out = {
            "name": self.name,
            "samples": self.samples,
            "residuals": {k: finite(v)
                          for k, v in sorted(self.residuals.items())},
            "max_residual": finite(self.max_residual),
        }
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
            out["passed"] = bool(self.passed)
        if self.details:
            out["details"] = dict(sorted(self.details.items()))
        return out


# ---------------------------------------------------------------------------
# the linear involution identities


def verify_lemma_identities(kind: str, dim: int, samples: int = 10000,
                            seed: int = 0,
                            tolerance: Optional[float] = None
                            ) -> ResidualReport:
    """Check the two identities of the linear involution c = c0*:

        c(xi) = -psi_s(-c(-psi_s(-xi)))     for every flow time s,
        |c(-psi_s(-xi))| = |xi|,

    with fiberwise negation, on random samples off the zero section and
    random s in (0, pi).
    """
    _check_kind(kind)
    rng = np.random.default_rng(seed)
    q, p = random_batch(dim, samples, rng, 0.05, 2.5)
    s = rng.uniform(1e-3, np.pi - 1e-3, size=samples)

    def block(b):
        qa, pa = _flow(q[b], -p[b], s[b])       # psi_s(-xi)
        qz, pz = _c0(qa, -pa, kind)              # zeta = c(-psi_s(-xi))
        qb, pb = _flow(qz, -pz, s[b])            # psi_s(-zeta)
        qr, pr = qb, -pb                         # -psi_s(-zeta)
        ql, pl = _c0(q[b], p[b], kind)           # c(xi)
        return {
            "conjugation": float(np.max(_batch_dist(ql, pl, qr, pr))),
            "norm": float(np.max(np.abs(np.linalg.norm(pz, axis=1)
                                        - np.linalg.norm(p[b], axis=1)))),
        }

    return ResidualReport(
        name="lemma-identities",
        samples=samples,
        residuals=_blockwise_max(block, samples),
        tolerance=tolerance,
        details={"kind": kind, "dim": dim, "seed": seed},
    )


# ---------------------------------------------------------------------------
# handle points


def _handle_batch(q: np.ndarray, pf: np.ndarray, p: np.ndarray,
                  qq: np.ndarray, nu: ProfileFunction):
    """Flow-handle points (xi, psi_s(-xi), (r + qq) - i p) for the batch
    xi = (q, pf) and T*R coordinates (qq, p), with s = nu(rho) |xi| / rho,
    r = nu(rho) |p| / rho, rho = sqrt(|xi|^2 + p^2) in (0, epsilon).
    The first factor is xi itself; returns the others as (q2, p2, z)."""
    n = np.linalg.norm(pf, axis=1)
    rho = np.sqrt(n ** 2 + p ** 2)
    if np.any(rho == 0.0):
        raise ModelError("handle point needs xi != 0 or p != 0")
    if np.any(rho >= nu.epsilon):
        raise ModelError("handle parameters must satisfy "
                         "sqrt(|xi|^2 + p^2) < epsilon")
    nv = nu(rho)
    s = nv * n / rho
    r = nv * np.abs(p) / rho
    q2, p2 = q.copy(), -pf
    move = s != 0.0
    if np.any(move):
        qm, pm = _flow(q[move], -pf[move], s[move])
        q2[move] = qm
        p2[move] = pm
    z = (r + qq) - 1j * p
    return q2, p2, z


def verify_handle_symmetry(kind: str, nu: ProfileFunction, dim: int,
                           samples: int = 10000, seed: int = 0,
                           tolerance: Optional[float] = None
                           ) -> ResidualReport:
    """Certify that the swap-and-flip map Phi preserves the flow handle.

    Phi(xi1, xi2, z) = (c(-xi2), -c(xi1), z) with c = c0*.  For each
    sampled handle point alpha with parameters (xi, p, q), the image
    Phi(alpha) must again be a handle point, namely the one with
    parameters (zeta, p, q) for zeta = c(-psi_s(-xi)); the substitution
    preserves the norm, so the flow time and the C-coordinate agree.
    A fifth of the samples lie on the p = 0 slice, where the identity
    reduces to the plain surgery-model symmetry.
    """
    _check_kind(kind)
    rng = np.random.default_rng(seed)
    e = nu.epsilon
    q, pf = random_batch(dim, samples, rng, 0.02 * e, 0.90 * e)
    n = np.linalg.norm(pf, axis=1)
    cap = np.sqrt(np.maximum((0.98 * e) ** 2 - n ** 2, 0.0))
    p = rng.uniform(-1.0, 1.0, size=samples) * cap
    p[: samples // 5] = 0.0
    qq = rng.uniform(-2.0, 2.0, size=samples)

    def block(b):
        q2, p2, z = _handle_batch(q[b], pf[b], p[b], qq[b], nu)

        # Phi(alpha); the first factor of alpha is xi
        qA, pA = _c0(q2, -p2, kind)
        qB, pB = _c0(q[b], pf[b], kind)
        pB = -pB

        # handle point of (zeta, p, q)
        rho = np.sqrt(n[b] ** 2 + p[b] ** 2)
        s = nu(rho) * n[b] / rho
        qs, ps = _flow(q[b], -pf[b], s)
        qz, pz = _c0(qs, -ps, kind)             # zeta
        r2, s2, z2 = _handle_batch(qz, pz, p[b], qq[b], nu)
        return {
            "triple": float(np.max(np.maximum(
                _batch_dist(qA, pA, qz, pz), _batch_dist(qB, pB, r2, s2)))),
            "z": float(np.max(np.abs(z - z2))),
            "norm": float(np.max(np.abs(np.linalg.norm(pz, axis=1)
                                        - n[b]))),
        }

    return ResidualReport(
        name="handle-symmetry",
        samples=samples,
        residuals=_blockwise_max(block, samples),
        tolerance=tolerance,
        details={"kind": kind, "dim": dim, "seed": seed,
                 "epsilon": nu.epsilon},
    )


# ---------------------------------------------------------------------------
# suspension


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _integral(fn, t: float, norms1: np.ndarray,
              norms2: np.ndarray) -> np.ndarray:
    """int_0^t fn(s, norms1, norms2) ds by Gauss-Legendre quadrature."""
    if t == 0.0:
        return np.zeros_like(norms1)
    half = 0.5 * t
    out = np.zeros_like(norms1)
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        out = out + w * np.asarray(fn(half * (x + 1.0), norms1, norms2),
                                   dtype=float)
    return half * out


@dataclass(frozen=True)
class NormHamiltonian:
    """Interpolation Hamiltonian K_t depending only on fiber norms.

    value(t, n1, n2) and the partial derivatives d1, d2 with respect to
    the two norms must accept numpy arrays for n1, n2.  The flow of such
    a Hamiltonian moves each cotangent factor along its own geodesic
    flow with angular speed d1 and d2 respectively.
    """

    value: Callable
    d1: Callable
    d2: Callable
    label: str = "custom"

    @classmethod
    def bump_squared(cls, scale: float = 1.0) -> "NormHamiltonian":
        """K_t = scale * bump(t) * n2^2 with bump flat-vanishing for
        t <= 0.1 and t >= 0.9."""
        def bump(t):
            return (smooth_step((t - 0.1) / 0.3)
                    * smooth_step((0.9 - t) / 0.3))

        def value(t, n1, n2):
            n2 = np.asarray(n2, dtype=float)
            return scale * bump(t) * n2 ** 2

        def d1(t, n1, n2):
            return np.zeros_like(np.asarray(n1, dtype=float))

        def d2(t, n1, n2):
            n2 = np.asarray(n2, dtype=float)
            return 2.0 * scale * bump(t) * n2

        return cls(value=value, d1=d1, d2=d2, label="bump*n2^2")


def _suspension_flow(q: np.ndarray, pf: np.ndarray, t: float,
                     nu0: ProfileFunction, K: NormHamiltonian):
    """Closed-form K-flow of the handle points seeded by the batch xi.

    Seeds are x = (xi, psi_{nu0(|xi|)}(-xi)); both factors keep their
    norms, so the flow of K is a geodesic flow on each factor with
    accumulated times a(t) = int d1 and b(t) = int d2.
    Returns (q1, p1, q2, p2, a, b).
    """
    n = np.linalg.norm(pf, axis=1)
    if np.any(n == 0.0):
        raise ModelError("suspension seeds must lie off the zero section")
    a = _integral(K.d1, t, n, n)
    b = _integral(K.d2, t, n, n)
    q1, p1 = _flow(q, pf, a)
    q2, p2 = _flow(q, -pf, nu0(n) + b)
    return q1, p1, q2, p2, a, b


def verify_suspension_symmetry(kind: str, nu0: ProfileFunction,
                               K: NormHamiltonian, dim: int,
                               samples: int = 10000, seed: int = 0,
                               tolerance: Optional[float] = None,
                               flow=None, t_chunks: int = 20
                               ) -> ResidualReport:
    """Certify that Phi preserves the suspension of the K-interpolation.

    Suspension points are (psi_t^K(x), t - i K_t(psi_t^K(x))) for x on
    the nu0-handle.  Since K depends only on the fiber norms, Phi maps
    the time-t slice to itself: the image of the point seeded by xi is
    the slice point seeded by psi_{-a}(zeta) where
    zeta = c(-psi_{nu0+a+b}(-psi_a(xi))) and a, b are the accumulated
    factor flow times.  The C-coordinate matches exactly because
    |zeta| = |xi|.

    K must vanish near t = 0 and t = 1 (checked at the endpoints).  An
    alternative evaluator for the K-flow can be supplied through `flow`
    (same signature as the internal closed form, returning the flowed
    batch and the accumulated times); the test suite passes an ODE
    integrator here.
    """
    _check_kind(kind)
    rng = np.random.default_rng(seed)
    e = nu0.epsilon
    if flow is None:
        flow = _suspension_flow

    probe = np.asarray([0.05, 0.5, 1.3])
    end_res = max(float(np.max(np.abs(K.value(0.0, probe, probe)))),
                  float(np.max(np.abs(K.value(1.0, probe, probe)))))
    if end_res > 1e-12:
        raise ModelError("interpolation Hamiltonian must vanish at the "
                         "endpoints t = 0 and t = 1")

    if samples < 1:
        raise ModelError("sample count must be at least 1")
    if t_chunks < 2:
        raise ModelError("t_chunks must be at least 2: the slices t = 0 "
                         "and t = 1 are always checked")
    t_values = rng.uniform(0.0, 1.0, size=t_chunks)
    t_values[0] = 0.0
    t_values[1] = 1.0

    residuals = {"triple": 0.0, "z": 0.0}
    for i, t in enumerate(t_values):
        # split the samples as evenly as possible over the time slices
        rows = samples // t_chunks + (i < samples % t_chunks)
        if rows == 0:
            continue
        q, pf = random_batch(dim, rows, rng, 0.02 * e, 0.90 * e)

        def block(blk):
            n = np.linalg.norm(pf[blk], axis=1)
            q1, p1, q2, p2, a, b = flow(q[blk], pf[blk], float(t), nu0, K)
            n1 = np.linalg.norm(p1, axis=1)
            n2 = np.linalg.norm(p2, axis=1)
            z = t - 1j * np.asarray(K.value(float(t), n1, n2), dtype=float)
            # Phi of the suspension point
            qA, pA = _c0(q2, -p2, kind)
            qB, pB = _c0(q1, p1, kind)
            pB = -pB
            # the corresponding slice point: zeta and its partner
            s_tot = nu0(n) + a + b
            qs, ps = _flow(q1, -p1, s_tot)       # psi_{nu0+a+b}(-xi_1)
            qz, pz = _c0(qs, -ps, kind)          # zeta
            qw, pw = _flow(qz, -pz, s_tot)       # psi_{nu0+a+b}(-zeta)
            nz = np.linalg.norm(pz, axis=1)
            zb = t - 1j * np.asarray(K.value(float(t), nz, nz), dtype=float)
            z_res = np.abs(z - zb)
            if t in (0.0, 1.0):
                z_res = np.maximum(z_res, np.abs(z.imag))
            return {"z": float(np.max(z_res)), "triple": float(np.max(
                np.maximum(_batch_dist(qA, pA, qz, pz),
                           _batch_dist(qB, pB, qw, pw))))}

        for key, value in _blockwise_max(block, rows).items():
            residuals[key] = float(np.maximum(residuals[key], value))

    return ResidualReport(
        name="suspension-symmetry",
        samples=samples,
        residuals=residuals,
        tolerance=tolerance,
        details={"kind": kind, "dim": dim, "seed": seed,
                 "hamiltonian": K.label},
    )


# ---------------------------------------------------------------------------
# stereographic cotangent charts and Jacobian checks


def _chart_pole(q: np.ndarray) -> np.ndarray:
    """Per-row pole sign: project from +e_last when the base sits in the
    southern hemisphere and from -e_last otherwise."""
    return np.where(q[:, -1] >= 0.0, -1.0, 1.0)


def _to_chart(q: np.ndarray, p: np.ndarray, s: np.ndarray):
    """Cotangent stereographic chart with pole s * e_last (rowwise):
    u = q' / (1 - s q_last) and w = J^T p, with J the Jacobian of the
    inverse chart.  The chart is conformal (J^T J = (2/m)^2 I, with
    m = 1 + |u|^2), so w = (2/m) p' + (4/m^2) (s p_last - u . p') u."""
    u = q[:, :-1] / (1.0 - s * q[:, -1])[:, None]
    m = 1.0 + np.sum(u * u, axis=1)
    up = np.sum(u * p[:, :-1], axis=1)
    w = ((2.0 / m)[:, None] * p[:, :-1]
         + (4.0 / m ** 2 * (s * p[:, -1] - up))[:, None] * u)
    return u, w


def _from_chart(u: np.ndarray, w: np.ndarray, s: np.ndarray):
    """Inverse of _to_chart: q = (2u, s (|u|^2 - 1)) / m and
    p = (m^2 / 4) J w = ((m/2) w - (u . w) u, s (u . w))."""
    uu = np.sum(u * u, axis=1)
    m = 1.0 + uu
    uw = np.sum(u * w, axis=1)
    q = np.concatenate([2.0 * u / m[:, None], (s * (uu - 1.0) / m)[:, None]],
                       axis=1)
    p = np.concatenate([(m / 2.0)[:, None] * w - uw[:, None] * u,
                        (s * uw)[:, None]], axis=1)
    return q, p


def _symplectic_residual(map_batch, q: np.ndarray, p: np.ndarray,
                         q_out: np.ndarray, target_sign: float) -> float:
    """Max-norm residual of D^T J D - target_sign * J for the map in
    stereographic cotangent charts, with central-difference Jacobians
    (step 1e-5).  q_out is the base of the image map_batch(q, p), which
    picks the output chart; the callers have it at hand already.

    The checked maps keep |p|, so the fiber chart coordinates of each
    row are divided by a = max(1, |p|) on both sides: one conformal
    change, under which D^T J D = +-J still holds or fails, that keeps
    the coordinates near unit size, where the fixed step resolves them
    at any epsilon."""
    n = q.shape[1] - 1
    d = 2 * n
    step = 1e-5
    s_in = _chart_pole(q)
    s_out = _chart_pole(q_out)
    a = np.maximum(1.0, np.linalg.norm(p, axis=1))[:, None]
    u0, w0 = _to_chart(q, p, s_in)
    x0 = np.concatenate([u0, w0 / a], axis=1)

    def evaluate(x):
        qb, pb = map_batch(*_from_chart(x[:, :n], x[:, n:] * a, s_in))
        ub, wb = _to_chart(qb, pb, s_out)
        return np.concatenate([ub, wb / a], axis=1)

    cols = []
    for j in range(d):
        xp = x0.copy()
        xp[:, j] += step
        xm = x0.copy()
        xm[:, j] -= step
        cols.append((evaluate(xp) - evaluate(xm)) / (2.0 * step))
    jac = np.stack(cols, axis=2)           # (rows, d, d)

    jmat = np.zeros((d, d))
    jmat[:n, n:] = np.eye(n)
    jmat[n:, :n] = -np.eye(n)
    form = np.swapaxes(jac, 1, 2) @ jmat @ jac
    return float(np.max(np.abs(form - target_sign * jmat)))


# ---------------------------------------------------------------------------
# the splitting and twist verifiers


def verify_model_twist(nu: ProfileFunction, dim: int, samples: int = 10000,
                       seed: int = 0,
                       tolerance: Optional[float] = None) -> ResidualReport:
    """Certify the defining properties of the model Dehn twist.

    Checks: the region |xi| >= epsilon is fixed exactly; the flow
    preserves |p|, |q| = 1 and q.p = 0; and the twist is symplectic
    (finite-difference Jacobian in stereographic cotangent charts).  For
    the Dehn profile, the only one that extends over the zero section,
    also: the zero section maps to the antipode exactly, and the twist
    approaches that antipodal limit along rays.
    """
    rng = np.random.default_rng(seed)
    e = nu.epsilon
    q, p = random_batch(dim, samples, rng, 0.02 * e, 0.95 * e)
    qf, pf = random_batch(dim, min(samples, 1024), rng, e, 3.0 * e)
    qc, pc = random_batch(dim, 64, rng, 1.0, 1.0)

    def twist(a, b):
        return _twist(a, b, nu)

    def block(b):
        q2, p2 = twist(q[b], p[b])
        return {
            "invariants": float(np.max([
                np.max(np.abs(np.linalg.norm(q2, axis=1) - 1.0)),
                np.max(np.abs(np.sum(q2 * p2, axis=1))),
                np.max(np.abs(np.linalg.norm(p2, axis=1)
                              - np.linalg.norm(p[b], axis=1))),
            ])),
            "symplectic": _symplectic_residual(twist, q[b], p[b], q2, +1.0),
        }

    residuals = _blockwise_max(block, samples)
    details = {"dim": dim, "seed": seed, "epsilon": e}
    residuals["identity_region"] = float(np.max(
        _batch_dist(qf, pf, *_twist(qf, pf, nu))))

    if nu.kind == "dehn":
        qz = q[: min(samples, 256)]
        qz2, pz2 = _twist(qz, np.zeros_like(qz), nu)
        residuals["zero_section_antipode"] = float(np.max([
            np.max(np.abs(qz2 + qz)), np.max(np.abs(pz2))]))
        deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        cont = []
        for delta in deltas:
            qd, pd = _twist(qc, delta * pc, nu)
            cont.append(float(np.max(np.maximum(
                np.max(np.abs(qd + qc), axis=1),
                np.max(np.abs(pd), axis=1)))))
        residuals["zero_section_continuity"] = cont[-1]
        details["continuity_monotone"] = all(
            x <= 4.0 * d for x, d in zip(cont, deltas))

    return ResidualReport(
        name="model-twist",
        samples=samples,
        residuals=residuals,
        tolerance=tolerance,
        details=details,
    )


def verify_involution_splitting(kind: str, nu: ProfileFunction, dim: int,
                                samples: int = 10000, seed: int = 0,
                                tolerance: Optional[float] = None
                                ) -> ResidualReport:
    """Certify the splitting of the model twist into involutions.

    With c = c0* and tau the model twist, let ctilde = c o tau.  Checks
    (i) ctilde o ctilde = id, (ii) c tau c = tau^{-1} with the inverse
    realized by flowing time -nu(|xi|), and (iii) anti-symplecticity of
    both c and ctilde through finite-difference Jacobians in
    stereographic cotangent charts (D^T J D = -J).
    """
    _check_kind(kind)
    rng = np.random.default_rng(seed)
    e = nu.epsilon
    q, p = random_batch(dim, samples, rng, 0.02 * e, 0.95 * e)

    def cmap(a, b):
        return _c0(a, b, kind)

    def ctilde(a, b):
        return cmap(*_twist(a, b, nu))

    def block(b):
        qa, pa = ctilde(*ctilde(q[b], p[b]))
        qc, pc = cmap(*_twist(*cmap(q[b], p[b]), nu))
        qi, pi = _twist(q[b], p[b], nu, sign=-1.0)
        return {
            "involution": float(np.max(_batch_dist(qa, pa, q[b], p[b]))),
            "conjugation": float(np.max(_batch_dist(qc, pc, qi, pi))),
        }

    def fd_block(b):
        qc, _ = cmap(q[b], p[b])
        qt, _ = ctilde(q[b], p[b])
        return {
            "antisymplectic_c": _symplectic_residual(
                cmap, q[b], p[b], qc, -1.0),
            "antisymplectic_ctilde": _symplectic_residual(
                ctilde, q[b], p[b], qt, -1.0),
        }

    residuals = _blockwise_max(block, samples)
    residuals.update(_blockwise_max(fd_block, min(samples, 2048)))
    # the involution also on the zero section
    qz = q[: min(samples, 256)]
    qb, pb = ctilde(*ctilde(qz, np.zeros_like(qz)))
    residuals["involution"] = float(np.max([residuals["involution"],
                                            np.max(np.abs(qb - qz)),
                                            np.max(np.abs(pb))]))

    return ResidualReport(
        name="involution-splitting",
        samples=samples,
        residuals=residuals,
        tolerance=tolerance,
        details={"kind": kind, "dim": dim, "seed": seed, "epsilon": e},
    )
