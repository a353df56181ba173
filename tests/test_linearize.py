"""First-order certificates: jacobians, contraction margins, basin radii."""

from dataclasses import replace

import numpy as np
import pytest

from lyapcert.dynsys import DynSystem, state_batched
from lyapcert.errors import InapplicableError
from lyapcert.frontend.report import jsonable
from lyapcert.linearize import (
    STABLE,
    UNSTABLE,
    certify_local_autonomous,
    certify_local_nonautonomous,
    numerical_jacobian,
    validate_basin,
)


def quadratic_drift():
    return DynSystem(dim=1, map_fn=lambda t, x: 0.5 * x + x**2, autonomous=True)


class TestJacobian:
    def test_linear_map_is_exact(self):
        A = np.array([[0.3, -0.2], [0.1, 0.6]])
        est = numerical_jacobian(lambda t, x: A @ x, x=np.zeros(2))
        assert np.allclose(est.A, A, atol=1e-9)
        assert est.error_estimate < 1e-9

    def test_accepts_system_and_uses_equilibrium(self):
        sys = DynSystem(
            dim=1,
            map_fn=lambda t, x: 0.5 * x + (x - 1.0) ** 2 + 0.5,
            autonomous=True,
            equilibrium=np.array([1.0]),
        )
        est = numerical_jacobian(sys)
        # d/dx [0.5x + (x-1)^2 - 0.5] at x = 1 is 0.5
        assert est.A[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_quadratic_curvature_error_estimate(self):
        est = numerical_jacobian(lambda t, x: x + np.sin(x), x=np.array([0.3]))
        assert est.A[0, 0] == pytest.approx(1.0 + np.cos(0.3), abs=1e-8)
        assert 0.0 <= est.error_estimate < 1e-4

    def test_step_scales_with_state(self):
        small = numerical_jacobian(lambda t, x: 0.5 * x, x=np.array([0.1]))
        large = numerical_jacobian(lambda t, x: 0.5 * x, x=np.array([1e6]))
        assert large.fd_step > small.fd_step

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_refused(self, bad):
        # max(1, nan) would pick the unit step and |inf| an infinite one,
        # returning a NaN Jacobian with no complaint
        with pytest.raises(ValueError, match=r"non-finite state x=\[0\.5, (nan|inf|-inf)\]"):
            numerical_jacobian(lambda t, x: 0.5 * x, x=np.array([0.5, bad]))

    def test_state_with_overflowing_norm_is_refused(self):
        # |x| overflows to inf: the step was inf and A = [[nan, 0], [0, nan]]
        with pytest.raises(ValueError, match=r"non-finite state x=\[1e\+200, 1e\+200\]"):
            numerical_jacobian(lambda t, x: 0.5 * x, x=np.array([1e200, 1e200]))
        batch = np.array([[0.5, 0.5], [1e200, -1e200]])
        with pytest.raises(ValueError, match=r"x=\[1e\+200, -1e\+200\]"):
            numerical_jacobian(lambda t, x: 0.5 * x, x=batch)


    def test_non_finite_map_value_is_refused(self):
        # x -> x*inf gave A = [[inf]] with a NaN error estimate and an inf - inf warning
        with pytest.raises(ValueError, match=r"non-finite map value .* at t=0, x=\[1\.0\]"):
            numerical_jacobian(lambda t, x: x * np.inf, x=np.array([1.0]))
        # the first sample of a batch whose perturbed points meet one, at its own time
        f = lambda t, x: np.where(x > 1.0, np.nan, 0.5 * x)
        with pytest.raises(ValueError, match=r"at t=7, x=\[1\.0\]"):
            numerical_jacobian(f, np.array([3, 7, 9]), np.array([[0.5], [1.0], [2.0]]))

    def test_batch_over_times_reads_each_sample_at_its_time(self):
        f = lambda t, x: (0.5 + 0.1 * t) * x
        est = numerical_jacobian(f, np.array([0, 3]), np.zeros((2, 1)))
        assert est.A[:, 0, 0] == pytest.approx([0.5, 0.8], abs=1e-9)
        sys = DynSystem(dim=1, map_fn=f, autonomous=False)
        assert numerical_jacobian(sys, np.array([0, 3])).A.tobytes() == est.A.tobytes()
        with pytest.raises(ValueError, match=r"times of shape \(2,\) for states of shape \(3, 1\)"):
            numerical_jacobian(f, np.array([0, 3]), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="times of shape"):
            numerical_jacobian(f, np.array([0, 3]), np.zeros(1))


class TestAutonomousCertificate:
    def test_contraction_margin_golden(self):
        cert = certify_local_autonomous(quadratic_drift())
        assert cert.verdict == STABLE
        assert cert.P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)
        # margin solves p2 g^2 + 2 p2 B g = q1 with B = 1 here
        assert cert.gamma_star == pytest.approx(np.sqrt(1.75) - 1.0, abs=1e-9)
        assert cert.delta_bar == pytest.approx(cert.gamma_star / cert.jacobian_lipschitz, rel=1e-12)

    def test_jacobian_lipschitz_close_to_truth(self):
        # d^2/dx^2 (0.5x + x^2) = 2, inflated by the sampling safety factor
        cert = certify_local_autonomous(quadratic_drift())
        assert 2.0 <= cert.jacobian_lipschitz <= 2.42

    def test_linear_map_gets_full_domain(self):
        sys = DynSystem(dim=1, map_fn=lambda t, x: 0.5 * x, autonomous=True)
        cert = certify_local_autonomous(sys, domain_radius=3.0)
        assert cert.delta_bar == pytest.approx(3.0)

    def test_non_normal_gain_clamp(self):
        # Schur but with spectral norm well above one: the linear gain
        # enters the margin equation instead of the unit clamp
        A = np.array([[0.5, 2.0], [0.0, 0.5]])
        sys = DynSystem(dim=2, map_fn=lambda t, x: A @ x + 0.1 * np.sin(x) ** 2)
        cert = certify_local_autonomous(sys)
        assert cert.verdict == STABLE
        B = np.linalg.norm(A, 2)
        assert B > 1.0
        expected = -B + np.sqrt(B**2 + cert.q1 / cert.p2)
        assert cert.gamma_star == pytest.approx(expected, rel=1e-6)
        assert validate_basin(sys, cert, trials=40).passed

    def test_unstable_verdict_with_witness(self):
        sys = DynSystem(dim=1, map_fn=lambda t, x: 2.0 * x + x**2, autonomous=True)
        cert = certify_local_autonomous(sys)
        assert cert.verdict == UNSTABLE
        assert cert.instability_P is not None
        assert cert.instability_gamma >= 1.0
        assert cert.delta_bar is None

    def test_infinite_map_value_is_refused_by_name(self):
        # the linear part read A = [[inf]], and classify_linear raised numpy's LinAlgError
        sys = DynSystem(dim=1, map_fn=lambda t, x: 0.5 * x + np.where(x > 1e-7, np.inf, 0.0), autonomous=True)
        with pytest.raises(ValueError, match=r"non-finite map value .* at t=0, x=\[0\.0\]"):
            certify_local_autonomous(sys)

    def test_unit_spectral_radius_inconclusive(self):
        sys = DynSystem(dim=1, map_fn=lambda t, x: x - x**3, autonomous=True)
        with pytest.raises(InapplicableError):
            certify_local_autonomous(sys)


class TestBasinValidation:
    def test_certified_radius_converges(self):
        sys = quadratic_drift()
        cert = certify_local_autonomous(sys)
        report = validate_basin(sys, cert, trials=60)
        assert report.passed
        assert report.samples_checked == 60

    def test_overinflated_radius_finds_witness(self):
        sys = quadratic_drift()
        cert = replace(certify_local_autonomous(sys), delta_bar=1.1)
        with np.errstate(over="ignore"):  # escaping trajectories blow up by design
            report = validate_basin(sys, cert, trials=60)
        assert not report.passed
        assert report.details["failures"] > 0

    def test_unstable_certificate_rejected(self):
        sys = DynSystem(dim=1, map_fn=lambda t, x: 2.0 * x + x**2, autonomous=True)
        cert = certify_local_autonomous(sys)
        with pytest.raises(ValueError):
            validate_basin(sys, cert)


class TestNonautonomousCertificate:
    def make_system(self):
        def step(t, x):
            a = 0.4 + 0.1 * (-1.0) ** t
            return a * x + 0.5 * x**2

        return DynSystem(dim=1, map_fn=step, autonomous=False)

    def test_certifies_with_time_varying_solution(self):
        sys = self.make_system()
        cert = certify_local_nonautonomous(sys)
        assert cert.verdict == STABLE
        assert cert.delta_bar is not None and cert.delta_bar > 0.0
        assert cert.envelope is not None
        # P(t) is supplied as a callable family with q1/p2 extracted
        assert cert.q1 > 0.0 and cert.p2 >= cert.q1

    def test_basin_holds_at_certified_radius(self):
        sys = self.make_system()
        cert = certify_local_nonautonomous(sys)
        assert validate_basin(sys, cert, trials=40).passed

    def test_marked_map_reads_the_family_in_one_call(self):
        calls = []

        def step(t, x):
            calls.append(np.shape(t))
            a = np.where(np.asarray(t) % 2 == 0, 0.5, 0.3)[..., None]
            return a * x + 0.5 * x * x

        plain = certify_local_nonautonomous(DynSystem(dim=1, map_fn=step, autonomous=False))
        sys = DynSystem(dim=1, map_fn=state_batched(step), autonomous=False)
        calls.clear()
        marked = certify_local_nonautonomous(sys)
        # the decay window's 32 Jacobians, at 4 points each, come from the first call
        assert calls[0] == (32 * 4,)
        assert jsonable(marked) == jsonable(plain)  # as the report writes it
        assert marked.P(5).tobytes() == plain.P(5).tobytes()

    def test_non_finite_jacobian_is_refused(self):
        # the decay fit read A(30) = [[inf]] as a NaN norm and dropped it:
        # exponentially_stable with delta_bar 1.0
        sys = DynSystem(dim=1, map_fn=lambda t, x: x * (np.inf if t == 30 else 0.5), autonomous=False)
        with pytest.raises(ValueError, match=r"non-finite map value .* at t=30, x=\[0\.0\]"):
            certify_local_nonautonomous(sys)
