"""Trajectory-sum certificates built from decay envelopes."""

from dataclasses import replace

import numpy as np
import pytest

from lyapcert.converse import (
    _fast_lipschitz,
    _fast_sample_set,
    build_exponential_converse,
    build_trajectory_converse,
    check_envelope_hypothesis,
    estimate_lipschitz,
    exponential_horizon,
    verify_converse,
)
from lyapcert.dynsys import (
    DynSystem,
    ExponentialEnvelope,
    SlowFastSamples,
    SlowFastSystem,
    fit_exponential_envelope,
    simulate,
    state_batched,
)
from lyapcert.errors import HypothesisViolationError
from lyapcert.rng import Rng


def scalar_half():
    return DynSystem(dim=1, map_fn=lambda t, x: 0.5 * x, autonomous=True)


def fitted_envelope(sys, points=(1.0, -0.7, 0.3), horizon=12):
    trajs = [simulate(sys, 0, np.array([v]), horizon) for v in points]
    return fit_exponential_envelope(trajs)


class TestLipschitzEstimate:
    def test_linear_difference_mode(self):
        pts = [np.array([v]) for v in (-1.0, -0.2, 0.4, 1.0)]
        L = estimate_lipschitz(lambda t, x: 0.5 * x, pts)
        assert L == pytest.approx(0.55, rel=1e-12)  # 0.5 with the 1.1 safety factor

    def test_times_are_swept(self):
        pts = [np.array([v]) for v in (0.5, 1.0)]
        fn = lambda t, x: (0.1 if t == 0 else 0.8) * x
        assert estimate_lipschitz(fn, pts, times=(0,)) == pytest.approx(0.11, rel=1e-12)
        assert estimate_lipschitz(fn, pts, times=(0, 1)) == pytest.approx(0.88, rel=1e-12)


def nan_at_one(t, x):
    """0.5 x everywhere except x = 1, where the map returns NaN."""
    x = np.asarray(x, dtype=float)
    return np.full_like(x, np.nan) if np.any(x == 1.0) else 0.5 * x


class TestLipschitzFailClosed:
    POINTS = [np.array([v]) for v in (-1.0, -0.2, 0.4, 1.0)]

    def test_nan_map_value_raises(self):
        with pytest.raises(ValueError, match=r"t=0, x=\[1\.0\]"):
            estimate_lipschitz(nan_at_one, self.POINTS)

    def test_infinite_map_value_raises(self):
        fn = lambda t, x: np.asarray(x, dtype=float) * (np.inf if t == 2 else 0.5)
        with pytest.raises(ValueError, match="t=2"):
            estimate_lipschitz(fn, self.POINTS, times=(0, 1, 2))

    def test_complex_map_raises(self):
        with pytest.raises(TypeError, match="complex128"):
            estimate_lipschitz(lambda t, x: (1 + 1j) * np.asarray(x), self.POINTS)

    def test_overflowing_quotient_raises(self):
        pts = [np.array([0.0]), np.array([1e-10])]
        fn = lambda t, x: np.array([1e300]) if x[0] else np.array([-1e300])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="difference quotient"):
            estimate_lipschitz(fn, pts)

    def test_fast_parameter_loop_raises_on_nan(self):
        # NaN only when the frozen slow state x > 0.5 is stepped at k = 0, which
        # the state modulus (sampled at each sample's own k) never does
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: np.full(1, np.nan) if k == 0 and x[0] > 0.5 else 0.5 * y,
            ystar=lambda x: np.zeros(1),
        )
        samples = SlowFastSamples(k=[0, 1], x=[[0.0], [0.9]], yerr=[[0.4], [-0.3]])
        env = ExponentialEnvelope(gain=1.0, rate=float(np.log(2.0)))
        with pytest.raises(ValueError, match="k=0"):
            build_exponential_converse(sysf, env, samples=samples)


def raising_at(bad_x, exc_x):
    """0.5 x, NaN at ``bad_x`` and RuntimeError at ``exc_x`` (either may be None)."""

    def fn(t, x):
        x = np.asarray(x, dtype=float)
        if exc_x is not None and x[0] == exc_x:
            raise RuntimeError("evaluated past the first non-finite value")
        return np.full_like(x, np.nan) if bad_x is not None and x[0] == bad_x else 0.5 * x

    return fn


class TestLipschitzFailClosedParity:
    """Which error is raised, and where, is fixed by the per-pair loop order:
    values of one time in point order, then pairs (i, j), i < j, row by row."""

    POINTS = TestLipschitzFailClosed.POINTS

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_value_in_point_order(self, bad):
        fn = lambda t, x: np.array([bad]) if x[0] in (-0.2, 1.0) else 0.5 * x
        with pytest.raises(ValueError) as err:
            estimate_lipschitz(fn, self.POINTS)
        assert str(err.value) == "non-finite map value at t=0, x=[-0.2]"

    def test_nan_separation_names_its_first_pair(self):
        points = [np.array([-1.0]), np.array([0.4]), np.array([np.nan])]
        with pytest.raises(ValueError) as err:
            estimate_lipschitz(lambda t, x: np.zeros(1), points)
        assert str(err.value) == (
            "non-finite difference quotient at t=0 between x=[-1.0] and x=[nan]"
        )

    def test_first_overflowing_pair_in_row_order(self):
        # |f_i - f_j|^2 overflows for the pairs (0, 3), (1, 2) and (1, 3);
        # row order meets (0, 3) first, column order would meet (1, 2)
        points = [np.array([v]) for v in (0.0, 1.0, 2.0, 3.0)]
        heights = {0.0: 0.0, 1.0: -1e154, 2.0: 0.5e154, 3.0: 1.5e154}
        fn = lambda t, x: np.array([heights[float(x[0])]])
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            estimate_lipschitz(fn, points)
        assert str(err.value) == (
            "non-finite difference quotient at t=0 between x=[0.0] and x=[3.0]"
        )

    def test_later_time_is_not_evaluated_after_a_non_finite_value(self):
        calls = []

        def fn(t, x):
            calls.append(t)
            if t == 1:
                raise RuntimeError("time 1 evaluated")
            return raising_at(0.4, None)(t, x)

        with pytest.raises(ValueError, match=r"^non-finite map value at t=0, x=\[0\.4\]$"):
            estimate_lipschitz(fn, self.POINTS, times=(0, 1))
        assert calls == [0] * len(self.POINTS)

    def test_map_call_sequence(self):
        calls = []

        def fn(t, x):
            calls.append((t, float(x[0])))
            return 0.5 * np.asarray(x, dtype=float)

        L = estimate_lipschitz(fn, self.POINTS, times=(3, 0, 2))
        assert calls == [(t, float(p[0])) for t in (3, 0, 2) for p in self.POINTS]
        assert L.hex() == "0x1.199999999999ap-1"

    def fast_pair(self, varphi):
        return SlowFastSystem(
            dim_x=1, dim_y=1, phi=lambda k, x, y: -x, varphi=varphi,
            ystar=lambda x: np.zeros(1),
        )

    def test_parameter_quotient_names_its_first_k_y_and_pair(self):
        # no sample's own row holds a NaN; pair (0, 1) has equal slow states and
        # y = 0 carries no weight, so the first quotient taken from a NaN row
        # (k=0, x=0.9) is at y = 0.4, before pair (0, 3) reaches (k=0, x=0.7)
        sysf = self.fast_pair(
            lambda k, y, x: np.full(1, np.nan) if k == 0 and x[0] > 0.5 else 0.5 * y
        )
        samples = SlowFastSamples(
            k=[0, 0, 1, 1], x=[[0.0], [0.0], [0.9], [0.7]], yerr=[[0.0], [0.4], [-0.3], [0.2]]
        )
        with pytest.raises(ValueError) as err:
            _fast_lipschitz(sysf, samples)
        assert str(err.value) == (
            "non-finite fast-map parameter quotient at k=0, y=[0.4], x1=[0.0], x2=[0.9]"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_row_is_reduced_before_the_next_row_is_evaluated(self, bad):
        # row 0 (x = 0.0) holds a non-finite value; evaluating row 1 (x = 0.9) raises
        def varphi(k, y, x):
            if x[0] == 0.9:
                raise RuntimeError("row 1 evaluated")
            return np.array([bad]) if y[0] == -0.3 else 0.5 * y

        samples = SlowFastSamples(k=[2, 1], x=[[0.0], [0.9]], yerr=[[0.4], [-0.3]])
        with pytest.raises(ValueError) as err:
            _fast_lipschitz(self.fast_pair(varphi), samples)
        assert str(err.value) == "non-finite map value at t=2, x=[-0.3]"


class TestTrajectoryConverseKind:
    def test_kind_and_start_follow_the_system(self):
        for autonomous in (True, False):
            sys = DynSystem(dim=1, map_fn=lambda t, x: (0.5 if t % 2 == 0 else 0.25) * x,
                            autonomous=autonomous)
            env = ExponentialEnvelope(gain=2.0, rate=float(np.log(2.0)))
            cert = build_trajectory_converse(sys, env)
            assert cert.kind == ("autonomous" if autonomous else "nonautonomous")
            x = np.array([1.0])
            # an autonomous sum always starts at t = 0; a nonautonomous one at k
            same = cert.evaluator(0, x, None) == cert.evaluator(1, x, None)
            assert same == autonomous


class TestAutonomous:
    def test_single_step_horizon_golden(self):
        sys = scalar_half()
        cert = build_trajectory_converse(sys, fitted_envelope(sys))
        assert cert.horizon == 1
        assert cert.a1 == 1.0
        assert cert.a2 == pytest.approx(1.0, abs=1e-12)
        assert cert.a3 == pytest.approx(0.75, abs=1e-12)
        # the sum over one step is just |x|^2
        assert cert.evaluator(0, np.array([2.0]), None) == pytest.approx(4.0)

    def test_realized_decrement_beats_half(self):
        sys = scalar_half()
        cert = build_trajectory_converse(sys, fitted_envelope(sys))
        for v in (1.0, -0.4, 0.05):
            x = np.array([v])
            delta = cert.evaluator(1, sys.step(0, x), None) - cert.evaluator(0, x, None)
            assert delta == pytest.approx(-0.75 * v * v, rel=1e-12)
            assert delta <= -0.5 * v * v

    def test_horizon_and_constants_from_inflated_envelope(self):
        # gain 2 envelope over the same dynamics forces a three-step sum
        sys = DynSystem(dim=1, map_fn=lambda t, x: 0.6 * x, autonomous=True)
        env = ExponentialEnvelope(gain=2.0, rate=np.log(1.0 / 0.6))
        cert = build_trajectory_converse(sys, env)
        assert cert.horizon == 3
        decay = 0.36
        assert cert.a2 == pytest.approx(4.0 * (1 - decay**3) / (1 - decay), rel=1e-12)
        assert cert.a3 == pytest.approx(1.0 - 4.0 * decay**3, rel=1e-12)
        assert cert.a3 >= 0.5

    def test_verification_reports_pass(self):
        sys = scalar_half()
        cert = build_trajectory_converse(sys, fitted_envelope(sys))
        (xs,) = Rng(123).draw(100, ("ball", 1, 1.0))
        reports = verify_converse(cert, np.zeros(100, dtype=int), xs, None)
        assert {r.condition for r in reports} >= {"uniform_bounds", "decrement"}
        assert all(r.passed for r in reports)

    def test_unrealizable_constants_are_caught(self):
        sys = scalar_half()
        cert = build_trajectory_converse(sys, fitted_envelope(sys))
        tightened = replace(cert, a3=0.9)  # true decrement is 0.75
        xs = np.array([[1.0], [0.5], [-0.3]])
        reports = verify_converse(tightened, np.zeros(3, dtype=int), xs, None)
        decrement = [r for r in reports if r.condition == "decrement"][0]
        assert not decrement.passed


class TestNonautonomous:
    def test_time_dependent_sum(self):
        sys = DynSystem(
            dim=1,
            map_fn=lambda t, x: (0.5 if t % 2 == 0 else 0.25) * x,
            autonomous=False,
        )
        trajs = [simulate(sys, t0, np.array([v]), 10) for t0 in (0, 1) for v in (1.0, -0.6)]
        env = fit_exponential_envelope(trajs)
        cert = build_trajectory_converse(sys, env)
        x = np.array([1.0])
        if cert.horizon >= 2:
            # the sum starting at an even time sees the 0.5 factor first
            assert cert.evaluator(0, x, None) != pytest.approx(cert.evaluator(1, x, None))
        ks, xs = Rng(5).draw(80, ("integer", 0, 3), ("ball", 1, 1.0))
        assert all(r.passed for r in verify_converse(cert, ks, xs, None))


class TestExponentialFast:
    def make_pair(self):
        return SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x + y,
            varphi=lambda k, y, x: 0.5 * y,
            ystar=lambda x: np.zeros(1),
        )

    def test_horizon_formula(self):
        assert exponential_horizon(1.0, 0.5) == 1
        assert exponential_horizon(2.0, 0.5) == 2
        assert exponential_horizon(1.0, 0.9) == 7  # 0.9^7 < 0.5 <= 0.9^6
        assert exponential_horizon(0.4, 0.5) == 1  # degenerate gain clamps

    def test_half_decrement_certificate(self):
        sysf = self.make_pair()
        env = ExponentialEnvelope(gain=1.0, rate=np.log(2.0))
        cert = build_exponential_converse(sysf, env)
        assert cert.horizon == 1
        assert cert.a3 == 0.5
        ks, yerrs, xs = Rng(17).draw(60, ("integer", 0, 2), ("ball", 1, 1.0), ("ball", 1, 1.0))
        assert all(r.passed for r in verify_converse(cert, ks, yerrs, xs))

    def test_parameter_modulus_detected(self):
        # fast contraction whose factor depends on the frozen slow state
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: (0.5 + 0.1 * x) * y,
            ystar=lambda x: np.zeros(1),
        )
        env = ExponentialEnvelope(gain=1.0, rate=np.log(1.0 / 0.7))
        cert = build_exponential_converse(sysf, env)
        assert cert.lipschitz_L2 == pytest.approx(0.11, rel=1e-9)

    def test_envelope_hypothesis_guard(self):
        sysf = self.make_pair()
        good = ExponentialEnvelope(gain=1.0, rate=np.log(2.0))
        samples = SlowFastSamples(k=[0], x=[[1.0]], yerr=[[0.5]])
        check_envelope_hypothesis(sysf, good, samples)  # no exception
        optimistic = ExponentialEnvelope(gain=1.0, rate=np.log(10.0))
        with pytest.raises(HypothesisViolationError):
            check_envelope_hypothesis(sysf, optimistic, samples)

    def test_envelope_hypothesis_names_the_first_failing_sample(self):
        # sample 0 leaves the envelope at offset 5, sample 1 already at offset 1;
        # the trajectories step together, but the report follows sample order
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: (0.5 + 0.45 * x) * y,
            ystar=lambda x: np.zeros(1),
        )
        env = ExponentialEnvelope(gain=1.5, rate=np.log(2.0))
        samples = SlowFastSamples(k=[2, 0], x=[[1.0 / 9.0], [1.0]], yerr=[[1.0], [1.0]])
        with pytest.raises(HypothesisViolationError, match="offset 5 from k=2"):
            check_envelope_hypothesis(sysf, env, samples, horizon=8)
        later = SlowFastSamples(*(field[1:] for field in samples))
        with pytest.raises(HypothesisViolationError, match="offset 1 from k=0"):
            check_envelope_hypothesis(sysf, env, later, horizon=8)

    def test_envelope_hypothesis_reads_samples_by_name(self):
        # the fast contraction weakens as x grows, so swapping x and y' flips the verdict
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: (0.5 + 0.4 * x) * y,
            ystar=lambda x: np.zeros(1),
        )
        env = ExponentialEnvelope(gain=1.0, rate=np.log(1.0 / 0.6))
        check_envelope_hypothesis(
            sysf, env, SlowFastSamples(k=[0], x=[[0.2]], yerr=[[0.9]])
        )  # contracts by 0.58 <= 0.6
        with pytest.raises(HypothesisViolationError, match="offset 1 from k=0"):
            check_envelope_hypothesis(
                sysf, env, SlowFastSamples(k=[0], x=[[0.9]], yerr=[[0.2]])
            )  # contracts by only 0.86

    def test_envelope_hypothesis_fails_closed_on_nan(self):
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: np.full(1, np.nan) if abs(y[0]) > 0.3 else 0.5 * y,
            ystar=lambda x: np.zeros(1),
        )
        env = ExponentialEnvelope(gain=1.0, rate=np.log(2.0))
        samples = SlowFastSamples(k=[0], x=[[0.2]], yerr=[[0.5]])
        with pytest.raises(HypothesisViolationError, match="offset 1 from k=0"):
            check_envelope_hypothesis(sysf, env, samples)

    def test_envelope_hypothesis_steps_horizon_minus_one_times(self):
        calls = []
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: calls.append(k) or 0.5 * y,
            ystar=lambda x: np.zeros(1),
        )
        calls.clear()  # drop the construction-time equilibrium probes
        env = ExponentialEnvelope(gain=1.0, rate=np.log(2.0))
        samples = SlowFastSamples(k=[2] * 3, x=[[0.1]] * 3, yerr=[[0.4]] * 3)
        check_envelope_hypothesis(sysf, env, samples, horizon=5)
        # the trajectories step together: every sample at offset 1, then at offset 2, ...
        assert calls == [k for k in (2, 3, 4, 5) for _ in range(3)]


class TestFastLipschitz:
    def counting_pair(self, varphi):
        calls = []
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x + y,
            varphi=lambda k, y, x: calls.append((k, x.tobytes(), y.tobytes())) or varphi(k, y, x),
            ystar=lambda x: np.zeros(1),
        )
        calls.clear()
        return sysf, calls

    def test_one_fast_map_evaluation_per_distinct_k_and_state(self):
        sysf, calls = self.counting_pair(lambda k, y, x: 0.5 * y)
        samples = _fast_sample_set(sysf, 1.0, 32, 0xFA57)
        L1, L2 = _fast_lipschitz(sysf, samples)
        # one row per sample per distinct k: each sample's own row first, in
        # sample order (L1 reads it), then the rows at the other k
        rows = list(zip(samples.k.tolist(), samples.x, samples.yerr))
        expected = [(k, x.tobytes(), y.tobytes()) for k, x, _ in rows for _, _, y in rows]
        for k in sorted(set(samples.k.tolist())):
            expected += [
                (k, x.tobytes(), y.tobytes())
                for k_x, x, _ in rows if k_x != k for _, _, y in rows
            ]
        assert calls == expected
        assert len(calls) == 4096
        assert L1.hex() == "0x1.199999999999ap-1"  # 0.5 with the 1.1 safety factor
        assert L2 == 0.0

    def test_parameter_modulus_matches_pairwise_definition(self):
        varphi = lambda k, y, x: (0.5 + 0.1 * (k + 1) * x) * y
        sysf, _ = self.counting_pair(varphi)
        samples = _fast_sample_set(sysf, 1.0, 12, 5)
        _, L2 = _fast_lipschitz(sysf, samples)
        ks, xs, ys = samples
        expected = max(
            abs(float((varphi(ks[i], y, xs[i]) - varphi(ks[i], y, xs[j]))[0]))
            / (abs(float(y[0])) * abs(float((xs[i] - xs[j])[0])))
            for i in range(len(ks))
            for j in range(i + 1, len(ks))
            for y in ys
        )
        assert L2 == pytest.approx(1.1 * expected, rel=1e-12)

    def test_sample_set_draws_k_then_fast_then_slow(self):
        sysf = SlowFastSystem(
            dim_x=2, dim_y=1, phi=lambda k, x, y: -x, varphi=lambda k, y, x: 0.5 * y,
            ystar=lambda x: np.zeros(1),
        )
        rng = Rng(41)
        expected = [(rng.integer(0, 3), rng.ball(1, 0.7), rng.ball(2, 0.7)) for _ in range(5)]
        samples = _fast_sample_set(sysf, 0.7, 5, 41)
        assert samples.x.shape == (5, 2) and samples.yerr.shape == (5, 1)
        for i, (k, yerr, x) in enumerate(expected):
            assert samples.k[i] == k
            assert np.array_equal(samples.yerr[i], yerr)
            assert np.array_equal(samples.x[i], x)
