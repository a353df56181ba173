"""System containers, simulation, envelope fitting, CSV export."""

import numpy as np
import pytest

from lyapcert.dynsys import (
    DynSystem,
    LinearTV,
    SlowFastSystem,
    Trajectory,
    fit_exponential_envelope,
    linear_part,
    sample_rows,
    simulate,
    state_batched,
    trajectory_to_csv,
    transitions,
)
from lyapcert.errors import (
    DivergenceError,
    InapplicableError,
    NotExponentiallyStableError,
)


def halving(t, x):
    return 0.5 * x


class TestDynSystem:
    def test_autonomous_roundtrip(self):
        sys = DynSystem(dim=2, map_fn=lambda t, x: 0.5 * x, autonomous=True)
        traj = simulate(sys, 0, np.array([1.0, -2.0]), 4)
        assert traj.states.shape == (5, 2)
        # re-applying the map reproduces the stored states bit-identically
        for i in range(4):
            assert np.array_equal(sys.map_fn(i, traj.states[i]), traj.states[i + 1])

    def test_declared_equilibrium_is_checked(self):
        with pytest.raises(ValueError):
            DynSystem(
                dim=1,
                map_fn=lambda t, x: 0.5 * x + 1.0,
                autonomous=True,
                equilibrium=np.array([0.0]),
            )

    def test_shifted_moves_equilibrium_to_origin(self):
        # fixed point of 0.5x + 1 is x* = 2
        sys = DynSystem(
            dim=1,
            map_fn=lambda t, x: 0.5 * x + 1.0,
            autonomous=True,
            equilibrium=np.array([2.0]),
        )
        shifted = sys.shifted()
        assert np.allclose(shifted.map_fn(0, np.zeros(1)), 0.0)
        assert np.allclose(shifted.map_fn(0, np.array([1.0])), 0.5)

    def test_divergence_reports_first_bad_step(self):
        sys = DynSystem(dim=1, map_fn=lambda t, x: 10.0 * x, autonomous=True)
        with pytest.raises(DivergenceError) as err:
            simulate(sys, 0, np.array([1.0]), 400)
        assert err.value.step > 0

    def test_nonautonomous_time_indexing(self):
        sys = DynSystem(
            dim=1,
            map_fn=lambda t, x: x * (0.5 if t % 2 == 0 else 0.25),
            autonomous=False,
        )
        traj = simulate(sys, 3, np.array([8.0]), 2)
        # x(4) = map(3, 8) = 2 (odd step), x(5) = map(4, 2) = 1 (even step)
        assert np.allclose(traj.states[:, 0], [8.0, 2.0, 1.0])
        assert traj.state(5)[0] == 1.0


class TestLinearPart:
    def test_columns_are_images_of_the_unit_vectors(self):
        A = np.array([[0.6, -0.3, 0.1], [0.3, 0.6, 0.0], [-0.2, 0.05, 0.9]])
        out = linear_part(lambda t, x: A @ x, 0, 3)
        cols = np.column_stack([A @ e - A @ np.zeros(3) for e in np.eye(3)])
        assert np.array_equal(out, cols)

    def test_time_varying_slice(self):
        out = linear_part(lambda t, x: (0.5 - 0.3 * (-1.0) ** t) * x, 1, 1)
        assert out[0, 0] == pytest.approx(0.8, rel=1e-15)

    @pytest.mark.parametrize(
        "fn, dim",
        [
            (lambda t, x: 0.5 * x + x**2, 1),  # secant through e_1 reads 1.5
            (lambda t, x: np.abs(x), 1),  # positively homogeneous, not linear
            (lambda t, x: 0.5 * x + 1.0, 1),  # affine
            (lambda t, x: np.array([x[0] * x[1], x[1]]), 2),  # cross term vanishes on e_i
        ],
    )
    def test_nonlinear_maps_are_refused(self, fn, dim):
        with pytest.raises(InapplicableError, match=r"t=3.*w = \["):
            linear_part(fn, 3, dim)

    def test_nan_image_is_refused(self):
        fn = lambda t, x: np.full(1, np.nan) if x[0] < 0 else 0.5 * x
        with pytest.raises(InapplicableError):
            linear_part(fn, 0, 1)


def phi(ltv, t, t0):
    """Phi(t, t0) from the transition kernel."""
    return transitions(ltv, [t0], t - t0)[0, -1]


class TestTransitions:
    def test_products_accumulate_left(self):
        mats = {0: np.array([[2.0]]), 1: np.array([[3.0]]), 2: np.array([[5.0]])}
        ltv = LinearTV(dim=1, matrix_fn=lambda t: mats[t % 3])
        assert phi(ltv, 0, 0)[0, 0] == 1.0
        assert phi(ltv, 2, 0)[0, 0] == 6.0  # A(1) A(0)
        assert phi(ltv, 3, 1)[0, 0] == 15.0  # A(2) A(1)
        # every start time in one call: row i holds Phi(t0[i] + k, t0[i])
        table = transitions(ltv, [0, 1], 2)
        assert table.shape == (2, 3, 1, 1)
        assert table[:, :, 0, 0].tolist() == [[1.0, 2.0, 6.0], [1.0, 3.0, 15.0]]

    def test_cocycle_identity(self):
        rngmats = [np.array([[0.3 * (-1) ** t, 0.1], [0.0, 0.2]]) for t in range(8)]
        ltv = LinearTV(dim=2, matrix_fn=lambda t: rngmats[t % 8])
        full = phi(ltv, 7, 0)
        split = phi(ltv, 7, 4) @ phi(ltv, 4, 0)
        assert np.allclose(full, split, rtol=1e-12, atol=0)

    def test_each_matrix_is_read_once(self):
        reads = []
        ltv = LinearTV(dim=1, matrix_fn=lambda t: reads.append(t) or np.array([[0.5 + 0.1 * t]]))
        first = transitions(ltv, [0], 5)
        assert np.array_equal(transitions(ltv, [0], 5), first)
        assert ltv.matrix(2)[0, 0] == 0.7
        assert reads == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            ltv.matrix(2)[0, 0] = 1.0  # the stored read is not writable

    def test_negative_horizon_is_refused(self):
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[0.5]]))
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            transitions(ltv, [3], -1)
        assert transitions(ltv, [3], 0).tolist() == [[[[1.0]]]]

    def test_overflowing_product_is_refused(self):
        # from t0=1 the product overflows at step 2, from t0=0 at step 3;
        # the first start in order is named
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[1e200 if t >= 1 else 1.0]]))
        with pytest.raises(ValueError, match=r"from t0=0 overflows at step 3"):
            transitions(ltv, [0, 1], 4)
        with pytest.raises(ValueError, match=r"from t0=1 overflows at step 2"):
            transitions(ltv, [1, 0], 4)


class TestLinearTVReads:
    def test_complex_matrix_is_refused(self):
        # was cast to its real part with a ComplexWarning
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[0.5 + 0.1j]]))
        with pytest.raises(TypeError, match="complex"):
            ltv.matrix(0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused_naming_t(self, bad):
        ltv = LinearTV(dim=2, matrix_fn=lambda t: np.array([[0.5, bad if t == 4 else 0.0], [0.0, 0.5]]))
        assert ltv.matrices([0, 1, 2, 3]).shape == (4, 2, 2)
        with pytest.raises(ValueError, match=r"A\(4\) has a NaN or infinite entry"):
            ltv.matrices([3, 4, 5])

    def test_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"A\(0\) has shape \(1, 2\)"):
            LinearTV(dim=2, matrix_fn=lambda t: np.zeros((1, 2))).matrix(0)
        marked = state_batched(lambda ts: np.zeros((len(ts) + 1, 2, 2)))
        with pytest.raises(ValueError, match="has shape"):
            LinearTV(dim=2, matrix_fn=marked).matrices([0, 1])


class TestEnvelopeFitting:
    def test_pure_geometric_is_exact(self):
        traj = Trajectory(0, np.array([[3.0 * 0.5**t] for t in range(10)]))
        env = fit_exponential_envelope([traj])
        assert env.gain == pytest.approx(1.0, abs=1e-12)
        assert env.rate == pytest.approx(np.log(2.0), abs=1e-12)

    def test_two_curve_domination(self):
        # slow curve with a transient bump sets both the rate and the gain
        fast = Trajectory(0, np.array([[0.5**t] for t in range(10)]))
        bumped = Trajectory(0, np.array([[1.0]] + [[2.0 * 0.6**t] for t in range(1, 10)]))
        env = fit_exponential_envelope([fast, bumped])
        assert env.gain == pytest.approx(2.0, abs=1e-12)
        assert env.rate == pytest.approx(np.log(1.0 / 0.6), abs=1e-12)

    def test_zero_trajectory_falls_back_to_rate_cap(self):
        traj = Trajectory(0, np.zeros((6, 1)))
        env = fit_exponential_envelope([traj])
        assert env.gain == 1.0
        assert env.rate == 50.0

    def test_bound_dominates_every_input_sample(self):
        rows = [[1.0], [0.9], [0.95], [0.5], [0.3], [0.31], [0.1], [0.05]]
        traj = Trajectory(0, np.array(rows))
        env = fit_exponential_envelope([traj])
        bound = env.bound(np.arange(len(rows)), 1.0)
        assert np.all(traj.norms() <= bound * (1 + 1e-12))

    def test_nondecaying_trajectory_rejected(self):
        traj = Trajectory(0, np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(NotExponentiallyStableError):
            fit_exponential_envelope([traj])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_is_refused(self, bad):
        # a NaN norm fails "norms > 0", so it once dropped out of the fit unseen
        traj = Trajectory(0, np.array([[1.0], [0.5], [bad], [0.125]]))
        with pytest.raises(NotExponentiallyStableError, match="non-finite state at step 2"):
            fit_exponential_envelope([traj])

    def test_gain_below_one_is_clamped(self):
        traj = Trajectory(0, np.array([[1.0], [0.1], [0.05]]))
        env = fit_exponential_envelope([traj])
        assert env.gain >= 1.0


class TestSlowFast:
    def test_manifold_consistency_enforced(self):
        with pytest.raises(ValueError):
            SlowFastSystem(
                dim_x=1,
                dim_y=1,
                phi=lambda k, x, y: -x,
                varphi=lambda k, y, x: 0.5 * y + 1.0,
                ystar=lambda x: np.zeros(1),  # not a fixed branch of varphi
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_manifold_is_refused(self, bad):
        # "residual > tol" is False for a NaN residual, so the branch once passed
        with pytest.raises(ValueError, match="ystar is not an equilibrium branch"):
            SlowFastSystem(
                dim_x=1,
                dim_y=1,
                phi=lambda k, x, y: -x,
                varphi=lambda k, y, x: 0.5 * y,
                ystar=lambda x: np.array([bad]),
            )

    def test_shifted_fast_error_coordinates(self):
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=1,
            phi=lambda k, x, y: -x,
            varphi=lambda k, y, x: 0.5 * y + 0.5 * x,
            ystar=lambda x: np.asarray(x, dtype=float),  # 0.5 y* + 0.5 x = x at y* = x
        )
        fast = sysf.shifted_fast(np.array([2.0]))
        assert np.allclose(fast(0, np.zeros(1)), 0.0)
        assert np.allclose(fast(0, np.array([1.0])), 0.5)

    def test_epsilon_range_enforced(self):
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                SlowFastSystem(
                    dim_x=1,
                    dim_y=1,
                    phi=lambda k, x, y: -x,
                    varphi=lambda k, y, x: 0.5 * y,
                    ystar=lambda x: np.zeros(1),
                    epsilon=bad,
                )


class TestCsv:
    def test_header_and_rows(self):
        sys = DynSystem(dim=2, map_fn=halving, autonomous=True)
        traj = simulate(sys, 0, np.array([8.0, 4.0]), 2)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x0,x1"
        assert lines[1] == "0,8.0,4.0"
        assert lines[2] == "1,4.0,2.0"
        assert lines[3] == "2,2.0,1.0"

    def test_roundtrip_full_precision(self):
        sys = DynSystem(dim=1, map_fn=lambda t, x: x / 3.0, autonomous=True)
        traj = simulate(sys, 0, np.array([1.0]), 3)
        text = trajectory_to_csv(traj)
        values = [float(line.split(",")[1]) for line in text.strip().split("\n")[1:]]
        assert values == [v[0] for v in traj.states.tolist()]


class TestComplexValues:
    """Every cast of a map's value to float refuses a complex one, as
    ``float`` does a Python complex, instead of dropping its imaginary part."""

    @staticmethod
    def spiral(t, x):
        return (0.5 + 0.5j) * np.asarray(x)

    @pytest.mark.parametrize("mark", [lambda f: f, state_batched], ids=["unmarked", "marked"])
    def test_sample_rows(self, mark):
        fn = mark(lambda t, x: self.spiral(t, x))
        with pytest.raises(TypeError, match="complex"):
            sample_rows(fn, 0, np.ones((3, 2)))
        with pytest.raises(TypeError, match="complex"):
            sample_rows(fn, 0, np.ones(2))

    def test_shifted_map_and_linear_part(self):
        def spiral_about_one(t, x):
            return 1.0 + (0.5 + 0.5j) * (np.asarray(x) - 1.0) if np.any(x != 1.0) else np.asarray(x)

        sys = DynSystem(dim=1, map_fn=spiral_about_one, equilibrium=np.ones(1))
        with pytest.raises(TypeError, match="complex"):
            sys.shifted().step(0, np.array([0.5]))
        with pytest.raises(TypeError, match="complex"):
            linear_part(self.spiral, 0, 2)
