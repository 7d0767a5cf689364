import json

import numpy as np
import pytest

from twistcheck import modelgeo as mg
from twistcheck import report as rp

from oracles import (oracle_chart_covector, oracle_geodesic_flow,
                     oracle_suspension_flow)


def batch(q, p):
    """The 1-row batch (Q, P) holding the point (q, p)."""
    return np.asarray(q, float)[None, :], np.asarray(p, float)[None, :]


def dist(a, b):
    """Max-abs distance between two batches (Q, P)."""
    return float(np.max(mg._batch_dist(*a, *b)))


def flatness(nu, r0, order=4, delta=1e-2):
    """max |nu(r0 +- h) - nu(r0)| / h^order over h in {delta, delta/2},
    on the side r >= 0: a tiny value certifies that the one-sided
    derivatives of nu at r0 vanish through the given order."""
    worst = 0.0
    for h in (delta, delta / 2.0):
        for r in (r0 + h, r0 - h):
            if r >= 0:
                worst = max(worst, abs(float(nu(r) - nu(r0))) / h ** order)
    return worst


def unit(i, dim=3):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


class TestSamples:
    def test_random_batch_invariants(self, rng):
        q, p = mg.random_batch(2, 500, rng, 0.2, 1.5)
        assert np.max(np.abs(np.linalg.norm(q, axis=1) - 1)) < 1e-12
        assert np.max(np.abs(np.sum(q * p, axis=1))) < 1e-12
        norms = np.linalg.norm(p, axis=1)
        assert norms.min() >= 0.2 and norms.max() <= 1.5

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(mg.ModelError):
            mg.random_batch(2, 0, rng, 0.2, 1.5)
        with pytest.raises(mg.ModelError):
            mg.verify_lemma_identities("id", 2, samples=0)


class TestProfiles:
    def test_dehn_exact_linear_head(self):
        nu = mg.ProfileFunction("dehn", epsilon=0.8)
        r = np.linspace(0.0, 0.2, 101)
        assert np.array_equal(nu(r), np.pi - r)

    def test_dehn_strictly_decreasing_and_cutoff(self):
        nu = mg.ProfileFunction("dehn", epsilon=0.8)
        r = np.linspace(1e-6, 0.8 - 1e-6, 1000)
        v = nu(r)
        d = np.diff(v)
        assert np.all(d <= 0)
        # strict except where the tail has underflowed to zero at
        # double precision (the profile is exponentially flat there)
        assert np.all(d[v[1:] > 1e-9] < 0)
        assert np.all(v >= 0) and np.all(v < np.pi)
        assert np.all(nu(np.linspace(0.8, 3.0, 50)) == 0.0)

    def test_dehn_epsilon_at_most_pi(self):
        # (pi - r)(1 - step) stays >= 0 and non-increasing up to
        # epsilon = pi and dips below 0 past it (-3.3e-5 at 3.5)
        v = mg.ProfileFunction("dehn", epsilon=np.pi)(
            np.linspace(0.0, np.pi, 200001))
        assert np.all(v >= 0) and np.all(np.diff(v) <= 0)
        with pytest.raises(mg.ModelError, match="epsilon <= pi"):
            mg.ProfileFunction("dehn", epsilon=3.5)

    def test_admissible_contract(self):
        nu = mg.ProfileFunction("admissible", epsilon=0.5, lam=2.0)
        assert float(nu(0.0)) == 2.0
        r = np.linspace(1e-4, 0.5 - 1e-4, 1000)
        v = nu(r)
        d = np.diff(v)
        assert np.all(d <= 0)
        # strict away from the two exponentially flat plateaus
        mid = (v[1:] > 1e-9) & (v[1:] < 2.0 - 1e-9)
        assert mid.sum() > 500 and np.all(d[mid] < 0)
        assert np.all(nu(np.linspace(0.5, 2.0, 20)) == 0.0)

    def test_admissible_flat_ends(self):
        nu = mg.ProfileFunction("admissible", epsilon=0.5, lam=1.0)
        assert flatness(nu, 0.0) < 1e-12
        assert flatness(nu, 0.5) < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(mg.ModelError):
            mg.ProfileFunction("dehn", epsilon=-1.0)
        with pytest.raises(mg.ModelError):
            mg.ProfileFunction("admissible", epsilon=1.0, lam=4.0)
        with pytest.raises(mg.ModelError):
            mg.ProfileFunction("dehn", epsilon=1.0, lam=1.0)
        with pytest.raises(mg.ModelError):
            mg.ProfileFunction("bogus", epsilon=1.0)


class TestResidualReport:
    @pytest.mark.parametrize("residuals", [
        {"a": 1e-12, "b": float("nan")},
        {"b": float("nan"), "a": 1e-12},
    ])
    def test_nan_residual_fails(self, residuals):
        rep = mg.ResidualReport("x", 1, residuals, tolerance=1e-9)
        assert np.isnan(rep.max_residual)
        assert not rep.passed
        assert not rep.as_dict()["passed"]

    def test_nan_residual_is_strict_json(self):
        # RFC 8259 has no NaN: the residual and the max are null, the
        # table still reads nan, and a bare NaN payload is refused
        res = mg.ResidualReport("x", 1, {"a": 1e-12, "b": float("nan")},
                                tolerance=1e-9).as_dict()
        rep = rp.VerificationReport("t", "s", verdicts={"x": False},
                                    residuals=[res])

        def refuse(token):
            raise ValueError(f"bare {token} token")

        out = json.loads(rp.serialize(rep), parse_constant=refuse)
        got = out["residuals"][0]
        assert got["residuals"] == {"a": 1e-12, "b": None}
        assert got["max_residual"] is None and got["passed"] is False
        assert "    b                      nan\n" in rp.format_table(rep)
        rep.data["bad"] = float("nan")
        with pytest.raises(ValueError):
            rp.serialize(rep)


class TestGeodesicFlow:
    def test_quarter_great_circle(self):
        q, p = mg._flow(*batch(unit(0), unit(1)), np.pi / 2)
        assert np.allclose(q[0], unit(1), atol=1e-15)
        assert np.allclose(p[0], -unit(0), atol=1e-15)

    def test_periodicity(self, rng):
        s = mg.random_batch(2, 1, rng, 0.1, 1.0)
        out = mg._flow(*s, 2 * np.pi)
        assert dist(s, out) < 1e-12

    def test_zero_section_rejected(self):
        with pytest.raises(mg.ModelError):
            mg._flow(*batch(unit(0), np.zeros(3)), 0.3)

    def test_matches_rk4_oracle(self, rng):
        for dim in (1, 2):
            q, p = mg.random_batch(dim, 60, rng, 0.1, 2.0)
            t = rng.uniform(-3.0, 3.0, size=60)
            q1, p1 = mg._flow(q, p, t)
            q2, p2 = oracle_geodesic_flow(q, p, t)
            assert np.max(np.abs(q1 - q2)) < 1e-8
            assert np.max(np.abs(p1 - p2)) < 1e-8

    def test_invariants(self, rng):
        q, p = mg.random_batch(3, 300, rng, 0.05, 2.5)
        t = rng.uniform(-5, 5, size=300)
        q1, p1 = mg._flow(q, p, t)
        assert np.max(np.abs(np.linalg.norm(q1, axis=1) - 1)) < 1e-10
        assert np.max(np.abs(np.sum(q1 * p1, axis=1))) < 1e-10
        assert np.max(np.abs(np.linalg.norm(p1, axis=1)
                             - np.linalg.norm(p, axis=1))) < 1e-10

    def test_flow_property(self, rng):
        q, p = mg.random_batch(2, 200, rng, 0.1, 2.0)
        s = rng.uniform(-2, 2, size=200)
        t = rng.uniform(-2, 2, size=200)
        qa, pa = mg._flow(*mg._flow(q, p, t), s)
        qb, pb = mg._flow(q, p, s + t)
        assert np.max(np.abs(qa - qb)) < 1e-9
        assert np.max(np.abs(pa - pb)) < 1e-9


class TestModelTwist:
    def setup_method(self):
        self.nu = mg.ProfileFunction("dehn", epsilon=0.5)

    def test_zero_section_antipode_exact(self):
        q, p = batch(unit(2), np.zeros(3))
        q2, p2 = mg._twist(q, p, self.nu)
        assert np.array_equal(q2, -q)
        assert np.array_equal(p2, p)

    def test_identity_outside_support(self):
        s = batch(unit(0), 0.6 * unit(1))
        out = mg._twist(*s, self.nu)
        assert dist(s, out) == 0.0

    def test_continuity_across_zero_section(self):
        prev = None
        for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            q, p = mg._twist(*batch(unit(0), delta * unit(1)), self.nu)
            resid = max(np.max(np.abs(q[0] + unit(0))),
                        np.max(np.abs(p[0])))
            if prev is not None:
                assert resid < prev
            prev = resid
        assert prev < 1e-5

    def test_inverse_round_trip(self, rng):
        s = mg.random_batch(2, 1, rng, 0.05, 0.45)
        out = mg._twist(*mg._twist(*s, self.nu), self.nu, sign=-1.0)
        assert dist(s, out) < 1e-12

    def test_one_twist_per_block_for_invariants_and_chart(self, monkeypatch):
        # the symplectic residual reads its output chart off the twist the
        # block computed for the invariants: 1 + 2 * 4 chart differences
        # in T*S^2, then 1 zero-section, 1 identity-region and 5
        # continuity twists
        calls = []
        twist = mg._twist

        def counted(*args, **kwargs):
            calls.append(args)
            return twist(*args, **kwargs)

        monkeypatch.setattr(mg, "_twist", counted)
        mg.verify_model_twist(mg.ProfileFunction("dehn", 0.5), 2,
                              samples=100)
        assert len(calls) == 16

    @pytest.mark.parametrize("dim", [1, 2])
    def test_report(self, dim):
        rep = mg.verify_model_twist(self.nu, dim, samples=2000, seed=7,
                                    tolerance=1e-5)
        assert rep.passed, rep.as_dict()
        assert rep.residuals["zero_section_antipode"] == 0.0
        assert rep.residuals["identity_region"] == 0.0
        assert rep.residuals["symplectic"] < 1e-5
        assert rep.details["continuity_monotone"]

    @pytest.mark.parametrize("eps", [1.0, 1e5])
    def test_nonsymplectic_double_fails(self, monkeypatch, eps):
        # a twist whose fiber is stretched by 1.001 is not symplectic at
        # any epsilon; rescaling the chart must not hide that
        twist = mg._twist

        def stretched(*args, **kwargs):
            q, p = twist(*args, **kwargs)
            return q, 1.001 * p

        nu = mg.ProfileFunction("admissible", epsilon=eps, lam=1.0)
        assert mg.verify_model_twist(nu, 2, samples=200).residuals[
            "symplectic"] < 1e-5
        monkeypatch.setattr(mg, "_twist", stretched)
        rep = mg.verify_model_twist(nu, 2, samples=200, tolerance=1e-5)
        assert rep.residuals["symplectic"] > 1e-3
        assert not rep.passed

    def test_admissible_report_skips_zero_section(self):
        # nu(0) = lam < pi: the twist does not extend over the zero
        # section, so neither zero-section residual is reported
        nu = mg.ProfileFunction("admissible", epsilon=0.5, lam=1.0)
        rep = mg.verify_model_twist(nu, 2, samples=2000, seed=7,
                                    tolerance=1e-5)
        assert rep.passed, rep.as_dict()
        assert set(rep.residuals) == {"invariants", "symplectic",
                                      "identity_region"}
        assert "continuity_monotone" not in rep.details


class TestCharts:
    @staticmethod
    def far_from_pole(rng, dim, pole):
        # mirror each sample into the hemisphere opposite the pole
        q, p = mg.random_batch(dim, 500, rng, 0.05, 2.5)
        near = np.sign(q[:, -1]) == pole
        q[near, -1] *= -1.0
        p[near, -1] *= -1.0
        return q, p, np.full(len(q), pole)

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_covector_matches_jacobian_oracle(self, rng, dim, pole):
        q, p, s = self.far_from_pole(rng, dim, pole)
        u, w = mg._to_chart(q, p, s)
        assert np.max(np.abs(w - oracle_chart_covector(u, p, s))) < 1e-8

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_round_trip(self, rng, dim, pole):
        q, p, s = self.far_from_pole(rng, dim, pole)
        q2, p2 = mg._from_chart(*mg._to_chart(q, p, s), s)
        assert dist((q, p), (q2, p2)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(q2, axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.sum(q2 * p2, axis=1))) < 1e-10


class TestC0Star:
    def test_id_kind(self):
        q, p = batch(unit(0), 0.4 * unit(1))
        q2, p2 = mg._c0(q, p, "id")
        assert np.array_equal(q2, q) and np.array_equal(p2, -p)

    def test_r_kind(self):
        q, p = mg._c0(*batch(unit(0), unit(1)), "r")
        assert np.array_equal(q[0], -unit(0))
        assert np.array_equal(p[0], -unit(1))

    def test_involution_exact(self, rng):
        for kind in mg.KINDS:
            q, p = mg.random_batch(2, 500, rng, 0.0, 2.0)
            q2, p2 = mg._c0(*mg._c0(q, p, kind), kind)
            assert np.array_equal(q2, q) and np.array_equal(p2, p)

    def test_unknown_kind(self):
        with pytest.raises(mg.ModelError):
            mg.verify_lemma_identities("swap", 2)


class TestLemmaIdentities:
    @pytest.mark.parametrize("kind", ["id", "r"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residuals(self, kind, dim):
        rep = mg.verify_lemma_identities(kind, dim, samples=3000, seed=11,
                                         tolerance=1e-9)
        assert rep.passed, rep.as_dict()

    def test_zero_time_reduction(self, rng):
        # at s = 0 the conjugation identity collapses to c = c
        q, p = mg.random_batch(2, 1, rng, 0.1, 1.0)
        c = mg._c0(q, p, "id")
        inner = mg._c0(q, -(-p), "id")
        assert dist(c, inner) == 0.0


class TestHandle:
    def setup_method(self):
        self.nu = mg.ProfileFunction("admissible", epsilon=0.5, lam=2.0)

    def handle(self, xi, p, q):
        """Second and third factors (q2, p2, z) of the handle point with
        parameters (xi, p, q); the first factor is xi itself."""
        return mg._handle_batch(*xi, np.array([p]), np.array([q]), self.nu)

    def test_p_zero_reduces_to_flow_handle(self, rng):
        q, p = xi = mg.random_batch(2, 1, rng, 0.1, 0.4)
        q2, p2, z = self.handle(xi, 0.0, 0.3)
        direct = mg._flow(q, -p, self.nu(np.linalg.norm(p, axis=1)))
        assert dist((q2, p2), direct) < 1e-12
        assert z[0] == pytest.approx(0.3)

    def test_zero_fiber_flows_time_zero(self):
        xi = batch(unit(0), np.zeros(3))
        q2, p2, z = self.handle(xi, 0.2, 0.0)
        assert np.array_equal(q2, xi[0])
        assert np.array_equal(p2[0], np.zeros(3))
        assert z[0].imag == pytest.approx(-0.2)

    def test_domain_enforced(self, rng):
        xi = mg.random_batch(2, 1, rng, 0.4, 0.45)
        with pytest.raises(mg.ModelError):
            self.handle(xi, 0.4, 0.0)
        with pytest.raises(mg.ModelError):
            self.handle(batch(unit(0), np.zeros(3)), 0.0, 0.1)

    @pytest.mark.parametrize("kind", ["id", "r"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_symmetry(self, kind, dim):
        rep = mg.verify_handle_symmetry(kind, self.nu, dim, samples=3000,
                                        seed=13, tolerance=1e-9)
        assert rep.passed, rep.as_dict()


def recording(flow, slices):
    """The flow seam `flow`, appending (t, max b) of each call to
    `slices`, b being the accumulated flow time of the second factor."""
    def wrapped(q, p, t, nu0):
        q2, p2, b = flow(q, p, t, nu0)
        slices.append((t, float(np.max(b))))
        return q2, p2, b
    return wrapped


class TestSuspension:
    def setup_method(self):
        self.nu0 = mg.ProfileFunction("admissible", epsilon=0.5, lam=1.5)

    def test_nan_sample_fails(self, monkeypatch):
        # one NaN row per slice must survive the max over time slices
        c0 = mg._c0

        def poisoned(q, p, kind):
            q2, p2 = c0(q, p, kind)
            q2[-1] = np.nan
            return q2, p2

        monkeypatch.setattr(mg, "_c0", poisoned)
        rep = mg.verify_suspension_symmetry("id", self.nu0, 1, samples=200,
                                            seed=17, tolerance=1e-9)
        assert np.isnan(rep.residuals["triple"])
        assert not rep.passed

    def test_hamiltonian_vanishes_at_the_ends(self):
        n2 = np.asarray([0.05, 0.5, 1.3])
        for t in (0.0, 0.1, 0.9, 1.0):
            assert not np.any(mg._k_value(t, n2))
            assert not np.any(mg._k_speed(t, n2))
        assert mg._bump(0.5) == 1.0

    def test_speed_is_the_norm_derivative(self):
        n2 = np.asarray([0.05, 0.5, 1.3])
        h = 1e-6
        for t in (0.2, 0.5, 0.75):
            fd = (mg._k_value(t, n2 + h) - mg._k_value(t, n2 - h)) / (2 * h)
            assert np.max(np.abs(fd - mg._k_speed(t, n2))) < 1e-8

    @pytest.mark.parametrize("kind", ["id", "r"])
    def test_bump_closed_form(self, kind):
        rep = mg.verify_suspension_symmetry(kind, self.nu0, 2, samples=2000,
                                            seed=19, tolerance=1e-9)
        assert rep.passed, rep.as_dict()
        # K vanishes at the endpoints, so z stays real there
        assert rep.residuals["z"] < 1e-9
        assert rep.details["hamiltonian"] == "bump*n2^2"

    def test_bump_ode_oracle_path(self):
        slices = []
        rep = mg.verify_suspension_symmetry(
            "id", self.nu0, 1, samples=1000, seed=23, tolerance=1e-6,
            flow=recording(oracle_suspension_flow, slices))
        assert rep.passed, rep.as_dict()
        # b(1) is the whole integral of dK/dn2; an inner slice past the
        # start of the bump shows the ODE integrating a K that is on
        assert len(slices) == 20
        assert any(0.0 < t < 1.0 and b > 0.0 for t, b in slices)

    def test_ode_matches_closed_form(self, rng):
        q, p = mg.random_batch(2, 40, rng, 0.05, 0.4)
        a = mg._suspension_flow(q, p, 0.7, self.nu0)
        b = oracle_suspension_flow(q, p, 0.7, self.nu0)
        assert np.min(a[2]) > 0.0
        for x, y in zip(a, b):
            assert np.max(np.abs(x - y)) < 1e-6


class TestSplitting:
    @pytest.mark.parametrize("kind", ["id", "r"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_report(self, kind, dim):
        nu = mg.ProfileFunction("dehn", epsilon=0.5)
        rep = mg.verify_involution_splitting(kind, nu, dim, samples=2000,
                                             seed=29)
        assert rep.residuals["involution"] < 1e-10, rep.as_dict()
        assert rep.residuals["conjugation"] < 1e-8
        assert rep.residuals["antisymplectic_c"] < 1e-5
        assert rep.residuals["antisymplectic_ctilde"] < 1e-5


@pytest.mark.parametrize("eps", [1.0, 1e7])
def test_stretched_involution_fails(monkeypatch, eps):
    # the fiber residuals are divided by max(1, |p|); a c0* that stretches
    # p by 1.001 must still fail every check that uses it, at any epsilon
    nu = mg.ProfileFunction("admissible", epsilon=eps, lam=1.0)
    checks = {
        "handle": lambda: mg.verify_handle_symmetry(
            "id", nu, 2, samples=200, tolerance=1e-9),
        "suspension": lambda: mg.verify_suspension_symmetry(
            "id", nu, 2, samples=200, tolerance=1e-9),
        "splitting": lambda: mg.verify_involution_splitting(
            "id", nu, 2, samples=200, tolerance=1e-5),
    }
    for name, check in checks.items():
        assert check().passed, name
    c0 = mg._c0

    def stretched(q, p, kind):
        q2, p2 = c0(q, p, kind)
        return q2, 1.001 * p2

    monkeypatch.setattr(mg, "_c0", stretched)
    for name, check in checks.items():
        rep = check()
        assert rep.max_residual > 1e-4, (name, rep.as_dict())
        assert not rep.passed, name
