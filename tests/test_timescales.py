"""Composite slow/fast certificates: coefficients, amplitude search, rates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lyapcert.averaging import AveragedCertificate, AveragingBudget
from lyapcert.certcheck import CandidateFunction
from lyapcert.converse import ConverseCertificate
from lyapcert.dynsys import BatchMap, SlowFastSamples, SlowFastSystem
from lyapcert.errors import CertificateNotFoundError, StageError
from lyapcert.timescales import (
    CoefficientRecord,
    EllConstants,
    _error_step,
    assemble_coefficients,
    certify_semiglobal,
    estimate_ell_constants,
    find_eps_r,
    q_matrix,
    validate_rate,
    verify_composite,
)


def golden_pair(epsilon=0.01):
    return SlowFastSystem(
        dim_x=1,
        dim_y=1,
        phi=lambda k, x, y: -x + y,
        varphi=lambda k, y, x: 0.5 * y,
        ystar=lambda x: np.zeros(1),
        epsilon=epsilon,
    )


def counting_pair(calls, marked):
    """The golden pair with maps that append their name to ``calls``,
    wrapped as ``BatchMap``s or plain."""
    wrap = BatchMap if marked else (lambda fn: fn)

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return wrap(call)

    return SlowFastSystem(
        dim_x=1,
        dim_y=1,
        phi=counted("phi", lambda k, x, y: -x + y),
        varphi=counted("varphi", lambda k, y, x: 0.5 * y),
        ystar=counted("ystar", lambda x: np.zeros(np.shape(x))),
    )


def fake_slow(a3, a4):
    budget = AveragingBudget(
        delta=1.0, T_delta=1, eps1=1.0, eps2=1.0, eps_delta=1.0,
        nu_at_budget=0.0, mu_at_budget=0.0,
    )
    return AveragedCertificate(
        base_constants=(1.0, 1.0, a3, a4), T_star=1, eps_c=1.0,
        a1=1.0, a2=1.0, a3=a3, a4=a4, growth_bound=1.0, delta=1.0,
        budget=budget, evaluator=None,
    )


def fake_fast(b3, b4, b5):
    return ConverseCertificate(
        kind="exponential", horizon=1, a1=1.0, a2=1.0, a3=b3, a4=b4, a5=b5,
    )


class TestErrorCoordinates:
    def test_substitution_with_trivial_manifold(self):
        sysf = golden_pair(epsilon=0.1)
        out = np.concatenate(_error_step(sysf, 0, np.array([2.0]), np.array([1.0]), sysf.epsilon))
        assert out.shape == (2,)
        # x+ = x + 0.1*(-x + y), y' just contracts
        assert out[0] == pytest.approx(1.9, rel=1e-14)
        assert out[1] == pytest.approx(0.5, rel=1e-14)

    def test_substitution_with_moving_manifold(self):
        # y tracks x; in error coordinates the fast part contracts by 0.45
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x + y,
            varphi=lambda k, y, x: 0.5 * y + 0.5 * x,
            ystar=lambda x: np.asarray(x, dtype=float),
            epsilon=0.05,
        )
        out = np.concatenate(_error_step(sysf, 0, np.array([2.0]), np.array([1.0]), sysf.epsilon))
        assert out[0] == pytest.approx(2.05, rel=1e-14)
        assert out[1] == pytest.approx(0.45, rel=1e-12)


class TestEllConstants:
    def test_golden_pair_moduli(self):
        ell = estimate_ell_constants(golden_pair(), r0=2.0, n_samples=64, seed=7)
        assert ell.l1 == pytest.approx(1.1, rel=1e-12)
        assert ell.l2 == pytest.approx(1.1, rel=1e-9)
        assert ell.l3 == pytest.approx(0.55, rel=1e-12)
        assert ell.l4 == 0.0  # the manifold never moves
        assert ell.r_tilde == 0.0
        assert ell.r_bar == ell.r0 == 2.0

    def test_degenerate_samples_rejected(self):
        samples = SlowFastSamples(k=[0], x=np.zeros((1, 1)), yerr=[[1.0]])
        with pytest.raises(ValueError, match="l1"):
            estimate_ell_constants(golden_pair(), r0=1.0, samples=samples)

    def test_nan_slow_field_raises(self):
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: np.full(1, np.nan) if x[0] == 1.0 else -0.5 * x + y,
            varphi=lambda k, y, x: 0.5 * y,
            ystar=lambda x: np.zeros(1),
        )
        samples = SlowFastSamples(k=[0] * 4, x=[[0.5], [-0.3], [1.0], [0.1]], yerr=[[0.2]] * 4)
        with pytest.raises(ValueError, match=r"k=0, x=\[1\.0\]"):
            estimate_ell_constants(sysf, r0=1.0, samples=samples)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            estimate_ell_constants(golden_pair(), r0=0.0)


class TestAssembleCoefficients:
    ELL = EllConstants(l1=1.0, l2=2.0, l3=0.5, l4=0.25, r_bar=1.0, r_tilde=0.5, r0=1.0)

    def test_hand_checked_record(self):
        rec = assemble_coefficients(fake_slow(2.0, 3.0), fake_fast(0.5, 1.0, 2.0), self.ELL)
        assert rec.vA1 == 2.0
        assert rec.vB1 == 12.0
        assert rec.vB2 == 12.0
        assert rec.vC1 == 12.0
        assert rec.wA1 == 0.5
        assert rec.wB1 == 2.75
        assert rec.wB2 == 2.0
        assert rec.wC1 == 0.5
        assert rec.wC2 == 5.5
        assert rec.wC3 == 2.0
        assert rec.parameter_lipschitz_verified

    def test_q_matrix_frozen_entries(self):
        rec = assemble_coefficients(fake_slow(2.0, 3.0), fake_fast(0.5, 1.0, 2.0), self.ELL)
        q = q_matrix(rec, 0.1)
        assert q[0, 0] == pytest.approx(-0.195, rel=1e-12)
        assert q[0, 1] == q[1, 0] == pytest.approx(0.8075, rel=1e-12)
        assert q[1, 1] == pytest.approx(0.19, rel=1e-12)

    def test_missing_state_modulus_rejected(self):
        with pytest.raises(ValueError):
            assemble_coefficients(fake_slow(2.0, 3.0), fake_fast(0.5, None, 2.0), self.ELL)

    def test_missing_parameter_modulus_drops_cross_terms(self):
        rec = assemble_coefficients(fake_slow(2.0, 3.0), fake_fast(0.5, 1.0, None), self.ELL)
        assert not rec.parameter_lipschitz_verified
        assert rec.wB1 == 2.0  # only the 2*b4*l1*l2*l3 part survives
        assert rec.wC2 == 4.0


class TestEpsSearch:
    def diagonal_record(self):
        return CoefficientRecord(
            vA1=1.0, vB1=0.0, vB2=0.0, vC1=1.0,
            wA1=0.0, wB1=0.0, wB2=0.0, wC1=1.0, wC2=1.0, wC3=0.0,
        )

    def test_diagonal_boundary_is_golden_ratio_root(self):
        # Q = diag(-eps, eps^2 + eps - 1) loses definiteness at (sqrt(5)-1)/2
        eps_r, ell_u = find_eps_r(self.diagonal_record())
        assert eps_r == pytest.approx((math.sqrt(5.0) - 1.0) / 4.0, rel=1e-13)
        assert ell_u == 1.0  # the slow diagonal is the slower eigenvalue throughout

    def test_diagonal_q_matrix(self):
        q = q_matrix(self.diagonal_record(), 0.1)
        assert np.allclose(q, np.diag([-0.1, -0.89]), atol=1e-15)

    def test_no_slow_decrease_rejected(self):
        rec = CoefficientRecord(
            vA1=0.0, vB1=0.0, vB2=0.0, vC1=1.0,
            wA1=0.0, wB1=0.0, wB2=0.0, wC1=1.0, wC2=1.0, wC3=0.0,
        )
        with pytest.raises(CertificateNotFoundError):
            find_eps_r(rec)

    def test_no_fast_decrease_rejected(self):
        rec = CoefficientRecord(
            vA1=1.0, vB1=0.0, vB2=0.0, vC1=1.0,
            wA1=0.0, wB1=0.0, wB2=0.0, wC1=0.0, wC2=1.0, wC3=0.0,
        )
        with pytest.raises(CertificateNotFoundError):
            find_eps_r(rec)

    def test_overwhelming_cross_term_rejected(self):
        # det < 0 already at the smallest probed amplitude
        rec = CoefficientRecord(
            vA1=1.0, vB1=1e6, vB2=0.0, vC1=1.0,
            wA1=0.0, wB1=0.0, wB2=0.0, wC1=1.0, wC2=0.0, wC3=0.0,
        )
        with pytest.raises(CertificateNotFoundError):
            find_eps_r(rec)


@pytest.fixture(scope="module")
def cert():
    return certify_semiglobal(golden_pair(), r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))


class TestSemiglobalPipeline:
    def test_composite_constants(self, cert):
        assert cert.alpha == 1.0
        assert cert.beta == pytest.approx(9.001354755802044, rel=1e-9)
        assert cert.r0 == pytest.approx(cert.beta, rel=1e-12)  # r = alpha = 1
        assert cert.C_r == pytest.approx(9.00135475580202, rel=1e-9)

    def test_amplitude_clipped_by_slow_budget(self, cert):
        assert cert.eps_r == cert.slow_cert.eps_c
        assert cert.eps_r < cert.eps_star / 2.0
        assert any("clipped" in n for n in cert.notes)

    def test_certified_rate_value(self, cert):
        assert cert.ell_U == pytest.approx(7.986916073997479, rel=1e-9)
        assert cert.gamma_r == pytest.approx(0.8873015552297101, rel=1e-9)
        assert cert.gamma_r == pytest.approx(cert.ell_U / cert.beta, rel=1e-12)
        assert cert.eps_star == pytest.approx(0.009113648158155416, rel=1e-9)

    def test_interaction_moduli(self, cert):
        assert cert.ell.l1 == pytest.approx(1.1, rel=1e-12)
        assert cert.ell.l3 == pytest.approx(0.55, rel=1e-12)
        assert cert.ell.l4 == 0.0
        assert cert.ell.r_bar == pytest.approx(cert.r0, rel=1e-12)

    def test_sampled_inequalities_hold(self, cert):
        reports = verify_composite(golden_pair(), cert, n_samples=300)
        names = [rep.condition for rep in reports]
        assert names == ["sandwich", "decrement_domination", "rate_realization"]
        for rep in reports:
            assert rep.passed, f"{rep.condition}: {rep.worst_margin}"
            assert rep.samples_checked == 300 * 4

    def test_monte_carlo_rate(self, cert):
        rep = validate_rate(golden_pair(), cert, trials=20, horizon=200)
        assert rep.condition == "certified_rate"
        assert rep.passed
        assert rep.samples_checked == 40  # two amplitudes within the certificate

    def test_each_trial_steps_horizon_times(self, cert):
        calls = []
        base = golden_pair()
        counting = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: calls.append(k) or base.phi(k, x, y),
            varphi=base.varphi,
            ystar=base.ystar,
        )
        rep = validate_rate(counting, cert, trials=3, horizon=7)
        assert len(calls) == len(rep.details["eps_used"]) * 3 * 7

    def test_every_amplitude_is_stepped_in_one_call(self, cert):
        calls = []
        pair = counting_pair(calls, marked=True)
        calls.clear()
        rep = validate_rate(pair, cert, trials=3, horizon=7)
        assert len(rep.details["eps_used"]) == 2
        assert calls.count("phi") == 7  # one step per k for both amplitudes, not one per amplitude
        rows = []

        @BatchMap
        def counted(k, x, yerr, eps):
            rows.append(len(x))
            return cert.evaluator(k, x, yerr, eps)

        calls.clear()
        verify_composite(pair, replace(cert, evaluator=counted), n_samples=5)
        # U, the step and U after it, each over 5 samples at 4 amplitudes
        assert rows == [20, 20] and calls.count("phi") == 1

    def test_out_of_certificate_amplitudes_skipped(self, cert):
        rep = validate_rate(golden_pair(), cert, eps_grid=(cert.eps_r * 2.0,), trials=5)
        assert rep.samples_checked == 0
        assert rep.details["eps_out_of_certificate"] == [cert.eps_r * 2.0]

    def test_evaluator_is_the_sum_of_parts(self, cert):
        x, yerr = np.array([0.3]), np.array([-0.2])
        eps = cert.eps_r / 2.0
        total = cert.evaluator(0, x, yerr, eps)
        parts = cert.slow_cert.evaluator(0, x, eps) + cert.fast_cert.evaluator(0, yerr, x)
        assert total == pytest.approx(parts, rel=1e-14)

    def test_nondecaying_fast_blames_envelope_stage(self):
        drifting = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x + y,
            varphi=lambda k, y, x: np.asarray(y, dtype=float),
            ystar=lambda x: np.zeros(1),
            epsilon=0.01,
        )
        with pytest.raises(StageError) as exc:
            certify_semiglobal(drifting, r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))
        assert exc.value.stage == "fast-envelope"

    def test_a_non_finite_growth_quotient_blames_the_sigma_stage(self):
        # |phi(2, x)| overflows in its norm while every window mean stays finite;
        # L is read from the sigma windows, so the sigma stage names it
        kicked = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: (1e156 if k == 2 else -1.0) * np.asarray(x, dtype=float) + y,
            varphi=lambda k, y, x: 0.5 * y,
            ystar=lambda x: np.zeros(1),
            epsilon=0.01,
        )
        with pytest.raises(StageError, match="non-finite growth quotient at t=2") as exc:
            certify_semiglobal(kicked, r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))
        assert exc.value.stage == "slow-sigma"


class TestFastEnvelopeSamples:
    """The fast-envelope hypothesis is checked at (x, y') as drawn, not swapped."""

    def test_unequal_dimensions_certify(self):
        pair = SlowFastSystem(
            dim_x=1,
            dim_y=2,
            phi=lambda k, x, y: -x + 0.3 * y[:1] - 0.3 * y[1:],
            varphi=lambda k, y, x: 0.5 * y,
            ystar=lambda x: np.zeros(2),
            epsilon=0.01,
        )
        cert = certify_semiglobal(pair, r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))
        assert cert.eps_r > 0.0 and cert.gamma_r > 0.0
        for rep in verify_composite(pair, cert, n_samples=40):
            assert rep.passed, f"{rep.condition}: {rep.worst_margin}"

    def test_equal_dimensions_check_the_slow_state_as_drawn(self):
        # The fast contraction 0.5 - 0.45*x is slowest at negative x.  At seed 0
        # the envelope is fitted down to x = -0.750; the 16 hypothesis samples
        # have slow states down to -0.738 (covered) and fast errors down to
        # -0.777 (not covered), so freezing y' in place of x failed this pair.
        pair = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x + y,
            varphi=lambda k, y, x: (0.5 - 0.45 * x) * y,
            ystar=lambda x: np.zeros(1),
            epsilon=0.01,
        )
        cert = certify_semiglobal(
            pair, r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)), seed=0
        )
        assert cert.eps_r > 0.0 and cert.gamma_r > 0.0


@pytest.fixture(scope="module")
def counted_cert():
    calls = []
    pair = counting_pair(calls, marked=True)
    return calls, pair, certify_semiglobal(pair, r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))


class TestPerRowAmplitude:
    """An (S,) array of amplitudes scales row i by eps[i], bit for bit as the
    scalar amplitude scales that row stepped alone; any other array is
    refused before a map is called."""

    @pytest.mark.parametrize("marked", [True, False])
    def test_each_row_steps_as_its_scalar_step(self, cert, marked):
        pair = counting_pair([], marked)
        k, eps = np.array([0, 1, 3]), np.array([1e-3, 2.5e-3, 7e-3])
        x, yerr = np.array([[0.4], [-0.7], [0.9]]), np.array([[0.2], [0.5], [-0.3]])
        rows = [(int(k[i]), x[i], yerr[i], float(eps[i])) for i in range(len(k))]
        for step in (pair.step, lambda *a: _error_step(pair, *a)):
            want = np.array([np.concatenate(step(*row)) for row in rows])
            assert np.hstack(step(k, x, yerr, eps)).tobytes() == want.tobytes()
        want = np.array([cert.evaluator(*row) for row in rows])
        assert cert.evaluator(k, x, yerr, eps).tobytes() == want.tobytes()
        slow = cert.slow_cert.evaluator
        want = np.array([slow(t, state, e) for t, state, _, e in rows])
        assert slow(k, x, eps).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "eps, x",
        [
            (np.full(4, 1e-3), np.full((3, 1), 0.5)),
            (np.full(1, 1e-3), np.full((3, 1), 0.5)),
            (np.full((3, 1), 1e-3), np.full((3, 1), 0.5)),
            (np.full(1, 1e-3), np.full(1, 0.5)),
        ],
        ids=["too-long", "length-1", "column", "one-state"],
    )
    def test_a_malformed_amplitude_is_refused_before_any_map_call(self, counted_cert, eps, x):
        calls, pair, cert = counted_cert
        k = np.arange(len(x)) if x.ndim == 2 else 0
        calls.clear()
        for call in (
            lambda: pair.step(k, x, x, eps),
            lambda: _error_step(pair, k, x, x, eps),
            lambda: cert.evaluator(k, x, x, eps),
            lambda: cert.slow_cert.evaluator(k, x, eps),
        ):
            with pytest.raises(ValueError, match="per-row amplitudes of shape"):
                call()
        assert calls == []
