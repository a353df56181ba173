"""Window averaging, deviation tables, drift budgets, lifted certificates."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lyapcert import averaging
from lyapcert.averaging import (
    WINDOW_ROWS,
    AveragedField,
    SigmaTable,
    budget_for_delta,
    build_averaged_lyapunov,
    check_drift_remainder,
    estimate_average,
    estimate_sigma,
    fit_slow_constants,
    mu,
    nu,
    _prefix_sums,
    _window_mean,
)
from lyapcert.certcheck import CandidateFunction
from lyapcert.dynsys import state_batched
from lyapcert.errors import BudgetInfeasibleError, HypothesisViolationError
from lyapcert.frontend.expressions import compile_map, parse_expression
from lyapcert.rng import Rng


def linear_field(k, x):
    return -np.asarray(x, dtype=float)


def alternating_field(k, x):
    x = np.asarray(x, dtype=float)
    return -x + ((-1.0) ** k) * x


PROBES = [np.array([1.0]), np.array([-0.5]), np.array([0.25])]


def fixed_average(phibar, probes):
    """An AveragedField on ``probes`` whose means are ``phibar`` at each
    probe, without a convergence probe."""
    probes = np.array(probes, dtype=float)
    means = np.array([phibar(p) for p in probes]).reshape(probes.shape)
    return AveragedField(phibar=phibar, probes=probes, means=means, T_used=8, convergence_gap=0.0)


def drift_samples(samples):
    """(k, x, T, eps) arrays from a list of (k, x, T, eps) samples."""
    k, x, T, eps = zip(*samples)
    return np.array(k), np.array(x), np.array(T), np.array(eps)


class TestEstimateAverage:
    def test_time_invariant_window_mean(self):
        avg = estimate_average(linear_field, PROBES)
        assert avg.T_used == 512
        # (T+1)/T copies of -x over a window of length T
        expected = -(513.0 / 512.0)
        assert avg.phibar(np.array([1.0]))[0] == pytest.approx(expected, rel=1e-14)
        assert avg.warning is None

    def test_alternating_drive_cancels_exactly(self):
        avg = estimate_average(alternating_field, PROBES)
        assert avg.phibar(np.array([2.0]))[0] == pytest.approx(-2.0, rel=1e-12)
        assert avg.convergence_gap < 1e-12

    def test_keeps_the_probes_and_their_window_means(self):
        probes = np.array([[1.0], [-0.5], [0.25]])
        avg = estimate_average(alternating_field, probes, T_max=16)
        assert avg.probes.tobytes() == probes.tobytes() and avg.probes is not probes
        assert avg.means.tobytes() == avg.phibar(probes).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            avg.means[0] = 0.0

    def test_probes_must_be_one_row_per_state(self):
        with pytest.raises(ValueError, match=r"\(P, n\) array, got shape \(3,\)"):
            estimate_average(linear_field, np.array([1.0, -0.5, 0.25]), T_max=8)

    def test_odd_horizon_rounds_up(self):
        avg = estimate_average(linear_field, PROBES, T_max=7)
        assert avg.T_used == 8

    def test_empty_probe_list_is_refused(self):
        # it reported convergence_gap 0.0, a convergence claim from no data
        with pytest.raises(ValueError, match="no probe states"):
            estimate_average(linear_field, [], T_max=8)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            estimate_average(linear_field, PROBES, T_max=3)

    def test_nonconvergent_field_warns(self):
        # sign flips at T_max/2, so full and half window means disagree
        def drifting(k, x):
            return (1.0 if k < 256 else -1.0) * np.asarray(x, dtype=float)

        avg = estimate_average(drifting, PROBES)
        assert avg.warning is not None
        assert avg.convergence_gap > 0.1

    def test_one_window_of_calls_per_probe(self):
        calls = []

        def counted(k, x):
            calls.append(k)
            return -np.asarray(x, dtype=float)

        estimate_average(counted, PROBES, T_max=64)
        # the half-window mean is a prefix of the full window: 3 * 65, not 3 * (65 + 33)
        assert len(calls) == 195
        assert calls == list(range(65)) * 3


class TestSigmaTable:
    def test_linear_field_deviation_closed_form(self):
        avg = estimate_average(linear_field, PROBES)
        table = estimate_sigma(linear_field, avg, [2, 8, 64])
        assert table.L == pytest.approx(1.1, rel=1e-12)
        # |sum - T*phibar| = |T - 512|/512 * |x| for the time-invariant field
        for T in (2, 8, 64):
            expected = (512.0 - T) / (512.0 * 1.1 * T)
            assert table.sigma(T) == pytest.approx(expected, rel=1e-12)

    def test_running_minimum_enforced(self):
        avg = fixed_average(lambda x: -x, [np.array([1.0])])

        def bumpy(k, x):
            # a large kick at k=6 lies in the T=4 windows from k=2, 3, not in any T=2 window
            return -np.asarray(x, dtype=float) * (1.0 + (10.0 if k == 6 else 0.0))

        table = estimate_sigma(bumpy, avg, [2, 4])
        assert table.L == pytest.approx(1.1, rel=1e-12)  # |phi(k, 1)| = 1 at k = 0..3
        assert table.raw_entries[2] == pytest.approx(0.5 / 1.1, rel=1e-12)
        assert table.raw_entries[4] == pytest.approx(11.0 / (4.0 * 1.1), rel=1e-12)
        assert table.entries[4] == table.entries[2] == pytest.approx(0.5 / 1.1, rel=1e-12)

    def test_zero_probes_skipped_and_all_zero_rejected(self):
        avg = fixed_average(lambda x: -x, [np.zeros(1), np.array([1.0])])
        table = estimate_sigma(linear_field, avg, [2])
        assert 2 in table.entries
        with pytest.raises(ValueError, match="all probes have zero state norm"):
            estimate_sigma(linear_field, fixed_average(lambda x: -x, [np.zeros(1)]), [2])

    def test_growth_bound_is_read_from_the_first_window_values(self):
        # |phi(k, x)| / |x| is 0.5 at k = 0, 2 and 3 at k = 1, 3; later times do not count
        def field(k, x):
            return np.asarray(x, dtype=float) * (-3.0 if k in (1, 3) else -0.5 if k < 4 else -40.0)

        table = estimate_sigma(field, fixed_average(lambda x: -x, [np.zeros(1)] + PROBES), [1, 2])
        assert table.L == pytest.approx(3.3, rel=1e-12)

    def test_untabulated_horizon_raises(self):
        table = SigmaTable(L=1.0, T_list=(2,), entries={2: 0.1}, raw_entries={2: 0.1})
        with pytest.raises(KeyError):
            table.sigma(4)


def nan_at_one(t, x):
    """0.5 x everywhere except x = 1, where the field is NaN."""
    x = np.asarray(x, dtype=float)
    return np.full_like(x, np.nan) if np.any(x == 1.0) else 0.5 * x


class TestGrowthBound:
    """The sigma table's L: 1.1 times the largest |phi(k, x)| / |x| over
    the first values of its windows, at k = 0..3 and every nonzero probe.
    A NaN or infinite quotient is refused by name, not skipped by ``max``."""

    POINTS = [np.array([v]) for v in (-1.0, -0.2, 0.4, 1.0)]

    def test_linear_field(self):
        avg = fixed_average(lambda x: -x, [np.array([v]) for v in (-1.0, 0.5, 2.0)])
        table = estimate_sigma(lambda t, x: -3.0 * np.asarray(x, dtype=float), avg, [1])
        assert table.L == pytest.approx(3.3, rel=1e-12)

    def test_nan_field_value_raises(self):
        with pytest.raises(ValueError, match=r"t=0, x=\[1\.0\]"):
            estimate_sigma(nan_at_one, fixed_average(lambda x: -x, self.POINTS), [1])

    def test_infinite_field_value_raises(self):
        fn = lambda t, x: np.asarray(x, dtype=float) * (np.inf if t == 2 else 0.5)
        with pytest.raises(ValueError, match="t=2"):
            estimate_sigma(fn, fixed_average(lambda x: -x, self.POINTS), [1])

    def test_complex_field_raises(self):
        with pytest.raises(TypeError, match="complex128"):
            estimate_sigma(lambda t, x: (1 + 1j) * np.asarray(x), fixed_average(lambda x: -x, self.POINTS), [1])

    def test_reads_the_windows_in_one_call_and_skips_the_origin(self):
        seen = []

        @state_batched
        def fn(t, x):
            seen.append((t.copy(), x.copy()))
            return -3.0 * x

        avg = fixed_average(lambda x: -x, [np.zeros(1)] + self.POINTS)
        assert estimate_sigma(fn, avg, [2]).L == pytest.approx(3.3)
        # the 3-value windows from k = 0..3 (k-major) of each nonzero point, in one call
        ((times, xs),) = seen
        assert times.tolist() == [k + j for k in range(4) for _ in self.POINTS for j in range(3)]
        assert xs.tolist() == [p.tolist() for _ in range(4) for p in self.POINTS for _ in range(3)]


class TestBatchedWindows:
    FIELD = [
        "-x[0] + 0.3*cos(1.5707963267948966*t)*x[0] + 0.7*(-1)^t*x[1]",
        "-x[1] + 0.45*sin(1.5707963267948966*t)*x[0] + tanh(0.1*t)*x[1]",
    ]
    PROBES = [np.array([0.3, -0.8]), np.array([1.1, 0.2]), np.array([-0.7, 0.45])]

    def test_batched_field_matches_the_sequential_loop_bit_for_bit(self):
        f = compile_map([parse_expression(src) for src in self.FIELD])
        batched, scalar = state_batched(f), (lambda k, x: f(k, x))
        a_b = estimate_average(batched, self.PROBES, T_max=64)
        a_s = estimate_average(scalar, self.PROBES, T_max=64)
        for p in self.PROBES:
            total = np.zeros(2)
            for k in range(65):
                total = total + f(k, p)
            assert a_b.phibar(p).tobytes() == a_s.phibar(p).tobytes() == (total / 64).tobytes()
        assert a_b.convergence_gap == a_s.convergence_gap
        assert a_b.means.tobytes() == a_s.means.tobytes() == a_b.phibar(np.array(self.PROBES)).tobytes()
        t_b = estimate_sigma(batched, a_b, [2, 8, 32])
        t_s = estimate_sigma(scalar, a_s, [2, 8, 32])
        assert t_b.L == t_s.L
        assert t_b.raw_entries == t_s.raw_entries and t_b.entries == t_s.entries

    def test_calls_hold_whole_windows_within_the_row_bound(self):
        f = compile_map([parse_expression(src) for src in self.FIELD])
        sizes = []

        @state_batched
        def counted(k, x):
            sizes.append(len(x))
            return f(k, x)

        rng = Rng(9)
        probes = [rng.ball(2, 1.0) for _ in range(20)]  # 20 windows of 513 rows
        avg = estimate_average(counted, probes, T_max=512)
        per_call = WINDOW_ROWS // 513
        assert sizes == [per_call * 513, (20 - per_call) * 513]
        want, gap = [], 0.0
        for p in probes:  # the per-window loop, summed from zero
            sums = np.cumsum(np.vstack([np.zeros(2)] + [f(k, p) for k in range(513)]), axis=0)
            want.append(sums)
            gap = max(gap, float(np.linalg.norm(sums[-1] / 512 - sums[257] / 256)))
        assert avg.convergence_gap == gap
        got = _prefix_sums(counted, np.zeros(20), np.array(probes), 513)
        assert got.tobytes() == np.array(want).tobytes()
        # a window longer than the bound is read alone
        sizes.clear()
        _prefix_sums(counted, [0, 1], np.array(probes[:2]), WINDOW_ROWS + 1)
        assert sizes == [WINDOW_ROWS + 1, WINDOW_ROWS + 1]

    @pytest.mark.parametrize("mark", [lambda f: f, state_batched], ids=["unmarked", "marked"])
    def test_complex_window_values_are_refused(self, mark):
        fn = mark(lambda t, x: (0.5 + 0.5j) * np.asarray(x))
        with pytest.raises(TypeError, match="complex"):
            estimate_average(fn, PROBES, T_max=8)
        with pytest.raises(TypeError, match="complex"):
            estimate_sigma(fn, fixed_average(lambda x: -x, PROBES), [2, 4])

    def test_sigma_raises_the_first_error_of_the_batched_windows(self):
        def field(k, x):
            if (k, float(x[0])) in ((10, 1.0), (2, 0.5)):
                raise ValueError(f"bad point k={k} x={float(x[0])}")
            return -np.asarray(x, dtype=float)

        avg = fixed_average(lambda x: -x, [np.array([1.0]), np.array([0.5])])
        # the windows from k = 0 are read first, probe after probe, each over
        # its 17 times, so the window of 1.0 reaches (10, 1.0) before that of
        # 0.5 reaches (2, 0.5)
        with pytest.raises(ValueError, match=r"k=10 x=1\.0"):
            estimate_sigma(field, avg, [2, 16])


class TestNonFiniteProbes:
    """A probe with a NaN or infinite entry, or a norm that overflows, is
    refused by name: it used to drop out of the convergence gap, of sigma
    and of c3 unseen."""

    BAD = [np.array([np.nan, 0.5]), np.array([np.inf, 0.0]), np.array([1e200, 1e200])]
    GOOD = [np.array([1.0, 0.0]), np.array([0.0, -0.5])]

    @staticmethod
    def named(x):
        return re.escape(f"non-finite probe state 1: x={x.tolist()}")

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "overflow"])
    def test_estimate_average(self, bad):
        with pytest.raises(ValueError, match=self.named(bad)):
            estimate_average(linear_field, [self.GOOD[0], bad, self.GOOD[1]], T_max=8)

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "overflow"])
    def test_before_any_field_call_and_alone(self, bad):
        # estimate_sigma and fit_slow_constants read the probes estimate_average kept
        calls = []

        def counted(k, x):
            calls.append(k)
            return linear_field(k, x)

        probes = [self.GOOD[0], bad, np.array([np.nan, np.nan])]
        with pytest.raises(ValueError, match=self.named(bad)):
            estimate_average(counted, probes, T_max=8)
        assert calls == []
        # only non-finite probes: named, not "all probes have zero state norm"
        # in sigma or c3 = inf from no data
        with pytest.raises(ValueError, match=re.escape(f"state 0: x={bad.tolist()}")):
            estimate_average(counted, [bad], T_max=8)

    @pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "overflow"])
    def test_no_field_holds_one(self, bad):
        # estimate_sigma and fit_slow_constants read avg.probes: a field built
        # directly, or replaced, on a non-finite probe is refused on construction
        probes = np.array([self.GOOD[0], bad, self.GOOD[1]])
        with pytest.raises(ValueError, match=self.named(bad)):
            fixed_average(lambda x: -x, probes)
        avg = estimate_average(linear_field, self.GOOD, T_max=8)
        with pytest.raises(ValueError, match=re.escape(f"state 0: x={bad.tolist()}")):
            replace(avg, probes=bad[None, :], means=bad[None, :])

    def test_the_field_keeps_its_own_finite_copies(self):
        probes = np.array(self.GOOD)
        avg = fixed_average(lambda x: -x, probes)
        probes[0] = np.nan  # the caller's array, not the field's
        assert np.isfinite(avg.probes).all() and avg.probes.tobytes() == np.array(self.GOOD).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            avg.probes[0] = np.nan
        with pytest.raises(ValueError, match=re.escape("probe means of shape (1, 2) for probes of shape (2, 2)")):
            replace(avg, means=avg.means[:1])
        with pytest.raises(ValueError, match=re.escape("must be a (P, n) array, got shape (2,)")):
            replace(avg, probes=self.GOOD[0], means=self.GOOD[0])


def field_with(value, at):
    """-x, with every entry replaced by ``value`` at the one time ``at``."""
    def field(k, x):
        out = -np.asarray(x, dtype=float)
        return np.full_like(out, value) if k == at else out

    return field


class TestNonFiniteFields:
    """A field that is NaN or infinite at one time of a window, or a
    non-finite growth bound, is refused by name: Python's ``max`` and
    ``min`` skip NaN, so it used to leave a zero gap, a zero sigma or an
    infinite c3 that passed."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_estimate_average(self, value):
        # t = 300 lies in the full window of 512 steps, not in its half
        with pytest.raises(ValueError, match="window mean of probe 0 is not finite at T=512"):
            estimate_average(field_with(value, 300), PROBES[:2])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_estimate_sigma(self, value):
        avg = fixed_average(lambda x: -x, PROBES[:2])
        # the window of probe 0 from k = 0 reaches t = 5 first at T = 8
        with pytest.raises(ValueError, match=r"deviation at probe 0 \(k=0, T=8\)"):
            estimate_sigma(field_with(value, 5), avg, [1, 2, 4, 8])
        # a window mean read over t = 5 spoils every horizon
        avg = fixed_average(_window_mean(field_with(value, 5), 8), PROBES[:2])
        with pytest.raises(ValueError, match=r"deviation at probe 0 \(k=0, T=1\)"):
            estimate_sigma(linear_field, avg, [1, 2, 4, 8])

    def test_a_deviation_names_its_probe_by_the_position_of_its_start(self, monkeypatch):
        # probes number k-major over every probe, the zero one included, by the
        # start's position in SIGMA_STARTS: start 4 at position 2, probe 2 of 3
        monkeypatch.setattr(averaging, "SIGMA_STARTS", (0, 2, 4, 6))
        avg = fixed_average(lambda x: -x, [np.zeros(1), np.array([1.0]), np.array([-0.5])])
        field = lambda k, x: np.asarray(x, dtype=float) * (math.nan if k == 5 and x[0] < 0 else -1.0)
        with pytest.raises(ValueError, match=r"deviation at probe 8 \(k=4, T=1\)"):
            estimate_sigma(field, avg, [1, 2])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_estimate_sigma_refuses_a_non_finite_growth_quotient(self, value):
        avg = fixed_average(lambda x: -x, PROBES[:1])
        with pytest.raises(ValueError, match=re.escape("non-finite growth quotient at t=2, x=[1.0]")):
            estimate_sigma(field_with(value, 2), avg, [1, 2])

    def test_estimate_sigma_refuses_a_zero_growth_bound(self):
        # phi vanishes at k = 0..3, so no window's first value bounds the growth
        avg = fixed_average(lambda x: -x, PROBES[:1])
        field = lambda k, x: (0.0 if k < 4 else -1.0) * np.asarray(x, dtype=float)
        with pytest.raises(ValueError, match="growth bound L must be positive and finite, got 0.0"):
            estimate_sigma(field, avg, [1, 2])
        # a norm of phi(k, x) past the float range is a non-finite quotient
        field = lambda k, x: (1e300 if k == 3 else -1.0) * np.asarray(x, dtype=float)
        with pytest.raises(ValueError, match=re.escape("non-finite growth quotient at t=3, x=[1.0]")):
            estimate_sigma(field, avg, [1, 2])

    def test_fit_slow_constants(self):
        avg = fixed_average(_window_mean(field_with(math.nan, 300), 512), PROBES)
        with pytest.raises(ValueError, match="at probe 0"):
            fit_slow_constants(CandidateFunction.quadratic(np.eye(1)), avg)
        # a sampled candidate that is NaN at one probe
        V = CandidateFunction(lambda t, x: math.nan if float(x[0]) == -0.5 else float(x @ x), dim=1)
        with pytest.raises(ValueError, match="at probe 1"):
            fit_slow_constants(V, fixed_average(lambda x: -x, PROBES))


class TestNuMu:
    def test_frozen_values(self):
        assert nu(2, 0.01, 2.0, 0.5) == pytest.approx(1.72, rel=1e-12)
        assert mu(2, 0.01, 2.0, 0.5) == pytest.approx(1.996768, rel=1e-12)

    def test_monotone_in_amplitude(self):
        values = [nu(4, e, 1.5, 0.2) for e in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert values == sorted(values)
        mus = [mu(4, e, 1.5, 0.2) for e in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert mus == sorted(mus)

    def test_huge_horizon_saturates_to_inf(self):
        assert nu(5000, 1.0, 2.0, 0.5) == np.inf
        assert mu(5000, 1.0, 2.0, 0.5) == np.inf

    def test_overflowing_second_order_term_saturates_to_inf(self):
        # nu is finite here, but (L + nu)^2 is past the float range; it raised OverflowError
        assert nu(200, 1.0, 10.0, 0.1) == pytest.approx(3.798e212, rel=1e-3)
        assert mu(200, 1.0, 10.0, 0.1) == math.inf
        assert mu(400, 1.0, 10.0, 0.1) == math.inf
        # a small enough amplitude keeps the term finite
        base = nu(200, 1e-300, 10.0, 0.1)
        assert mu(200, 1e-300, 10.0, 0.1) == base + 1e-300 * 200 * (10.0 + base) ** 2

    def test_sigma_term_dominates_at_zero_amplitude(self):
        assert nu(8, 0.0, 2.0, 0.3) == pytest.approx(0.6, rel=1e-12)


class TestBudget:
    def reciprocal_table(self):
        entries = {1: 1.0, 2: 0.5, 4: 0.25}
        return SigmaTable(L=2.0, T_list=(1, 2, 4), entries=entries, raw_entries=dict(entries))

    def test_golden_budget(self):
        b = budget_for_delta(1.0, self.reciprocal_table())
        assert b.T_delta == 4  # first horizon with sigma <= delta/4
        assert b.eps1 == pytest.approx(1.0 / 5184.0, rel=1e-12)
        # nu at (T=4, eps1) is 0.5 + 0.25 = 0.75, so the gain is (L + nu)^2
        assert b.eps2 == pytest.approx(1.0 / (2.0 * 4.0 * 2.75**2), rel=1e-12)
        assert b.eps_delta == b.eps1  # eps1 is the binding constraint here
        assert b.mu_at_budget <= b.delta * (1 + 1e-12)

    def test_infeasible_when_sigma_never_small(self):
        entries = {1: 1.0, 2: 0.9, 4: 0.8}
        table = SigmaTable(L=2.0, T_list=(1, 2, 4), entries=entries, raw_entries=dict(entries))
        with pytest.raises(BudgetInfeasibleError):
            budget_for_delta(1.0, table)

    def test_amplitude_never_exceeds_one(self):
        # both caps exceed 1 here, so the unit clamp binds
        entries = {1: 0.0}
        table = SigmaTable(L=0.1, T_list=(1,), entries=entries, raw_entries=dict(entries))
        b = budget_for_delta(0.4, table)
        assert b.eps1 > 1.0 and b.eps2 > 1.0
        assert b.eps_delta == 1.0


class TestDriftRemainder:
    def test_linear_field_within_bound(self):
        avg = estimate_average(linear_field, PROBES)
        table = estimate_sigma(linear_field, avg, [2, 4, 8])
        rng = Rng(31)
        samples = [
            (rng.integer(0, 3), rng.ball(1, 1.0), (2, 4, 8)[rng.integer(0, 2)], rng.uniform(0.001, 0.02))
            for _ in range(50)
        ]
        report = check_drift_remainder(linear_field, avg, table, *drift_samples(samples))
        assert report.passed
        assert report.condition == "drift_remainder"
        assert report.samples_checked == 50

    def test_wrong_average_is_flagged(self):
        # short window + tiny amplitude keep the allowance ~eps while a
        # sign-flipped average produces an O(eps) drift mismatch
        avg = estimate_average(linear_field, PROBES)
        wrong = replace(avg, phibar=lambda x: +np.asarray(x, dtype=float))
        table = estimate_sigma(linear_field, avg, [2])
        samples = [(0, np.array([1.0]), 2, 1e-4)]
        report = check_drift_remainder(linear_field, wrong, table, *drift_samples(samples))
        assert not report.passed
        assert report.worst_margin < 0

    def test_untabulated_horizon_raises_before_any_field_call(self):
        calls = []

        def counted(k, x):
            calls.append(k)
            return linear_field(k, x)

        avg = estimate_average(counted, PROBES, T_max=8)
        table = SigmaTable(L=1.1, T_list=(2,), entries={2: 0.1}, raw_entries={2: 0.1})
        samples = [(0, np.array([1.0]), 2, 0.01), (1, np.zeros(1), 4, 0.01), (1, np.array([0.5]), 4, 0.01)]
        calls.clear()
        with pytest.raises(KeyError, match="horizon 4 is not tabulated"):
            check_drift_remainder(counted, avg, table, *drift_samples(samples))
        assert calls == []  # neither the first sample's window nor its mean was read
        # a zero state is skipped before its horizon is looked up
        report = check_drift_remainder(counted, avg, table, *drift_samples(samples[:2]))
        assert report.samples_checked == 1

    def test_arguments_of_different_lengths_are_refused(self):
        avg = estimate_average(linear_field, PROBES, T_max=8)
        table = SigmaTable(L=1.1, T_list=(2,), entries={2: 0.1}, raw_entries={2: 0.1})
        k, x, T, eps = drift_samples([(0, np.array([1.0]), 2, 0.01), (1, np.array([0.5]), 2, 0.01)])
        with pytest.raises(ValueError, match="k 2, x 2, T 1, eps 2"):
            check_drift_remainder(linear_field, avg, table, k, x, T[:1], eps)
        # two one-dimensional states as a 1-D array: refused before any lookup or call
        calls = []

        def counted(t, x):
            calls.append(t)
            return linear_field(t, x)

        with pytest.raises(ValueError, match=re.escape("must be an (S, n) array, got shape (2,)")):
            check_drift_remainder(counted, replace(avg, phibar=calls.append), table, k, x[:, 0], T, eps)
        assert calls == []

    def test_worst_sample_is_reported(self):
        avg = estimate_average(linear_field, PROBES)
        table = estimate_sigma(linear_field, avg, [4])
        samples = [(1, np.array([0.5]), 4, 0.01), (0, np.array([-1.0]), 4, 0.015)]
        report = check_drift_remainder(linear_field, avg, table, *drift_samples(samples))
        assert report.worst_point is not None
        assert set(report.details["worst_sample"]) == {"T", "eps"}


class TestSlowConstants:
    def test_quadratic_constants_exact(self):
        avg = estimate_average(linear_field, PROBES)
        V = CandidateFunction.quadratic(np.eye(1))
        c1, c2, c3, c4 = fit_slow_constants(V, avg)
        assert c1 == 1.0 and c2 == 1.0
        # -grad V . phibar = 2 * (513/512) |x|^2
        assert c3 == pytest.approx(2.0 * 513.0 / 512.0, rel=1e-8)
        assert c4 == 2.0

    def test_expanding_average_rejected(self):
        expanding = fixed_average(lambda x: +np.asarray(x, dtype=float), PROBES)
        V = CandidateFunction.quadratic(np.eye(1))
        with pytest.raises(HypothesisViolationError):
            fit_slow_constants(V, expanding)


class TestLiftedCertificate:
    def build(self):
        avg = estimate_average(linear_field, PROBES)
        table = estimate_sigma(linear_field, avg, [1, 2, 4, 8, 16, 32, 64])
        V = CandidateFunction.quadratic(np.eye(1))
        constants = fit_slow_constants(V, avg)
        return V, constants, table, build_averaged_lyapunov(
            V, constants, linear_field, table, PROBES
        )

    def test_window_and_constants(self):
        _, (c1, c2, c3, c4), table, cert = self.build()
        delta = c3 / (2.0 * c4)
        # smallest tabulated horizon with sigma below a quarter of delta
        assert cert.T_star == 8
        assert table.sigma(8) <= delta / 4.0
        assert cert.delta == pytest.approx(delta, rel=1e-12)
        assert cert.a1 == c1
        growth = sum((1.0 + cert.eps_c * table.L) ** k for k in range(cert.T_star + 1))
        assert cert.a2 == pytest.approx(c2 * growth, rel=1e-12)
        assert cert.a3 == pytest.approx(cert.T_star * c3 / 2.0, rel=1e-12)
        assert cert.a4 == pytest.approx(
            (cert.T_star + 1) * c4 * (1.0 + cert.eps_c * table.L) ** (2 * cert.T_star),
            rel=1e-12,
        )

    def test_evaluator_steps_once_per_summed_state(self):
        V, constants, table, cert = self.build()
        calls = []

        def counted(k, x):
            calls.append(k)
            return linear_field(k, x)

        counted_cert = build_averaged_lyapunov(V, constants, counted, table, PROBES)
        x, eps = np.array([0.5]), cert.eps_c / 2.0
        assert counted_cert.evaluator(3, x, eps) == cert.evaluator(3, x, eps)
        # the window sum adds V at x(3), ..., x(3 + T*), reached in T* steps
        assert calls == list(range(3, 3 + cert.T_star))

    def test_evaluator_respects_sandwich(self):
        _, _, _, cert = self.build()
        rng = Rng(44)
        for _ in range(30):
            x = rng.ball(1, 1.0)
            n2 = float(x @ x)
            if n2 < 1e-12:
                continue
            value = cert.evaluator(0, x, cert.eps_c / 2.0)
            assert cert.a1 * n2 <= value * (1 + 1e-9)
            assert value <= cert.a2 * n2 * (1 + 1e-9)

    def test_decrement_along_true_dynamics(self):
        _, _, _, cert = self.build()
        eps = cert.eps_c / 2.0
        for v in (1.0, -0.5, 0.2):
            x = np.array([v])
            x_next = x + eps * linear_field(0, x)
            dv = cert.evaluator(1, x_next, eps) - cert.evaluator(0, x, eps)
            assert dv <= -eps * cert.a3 * float(x @ x) * (1 - 1e-9)
