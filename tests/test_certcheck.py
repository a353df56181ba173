"""Sampled verification of candidate functions on shell grids."""

import numpy as np
import pytest

from lyapcert.certcheck import (
    CandidateFunction,
    check_decrease,
    check_positive_definite,
    inject_eigendirections,
    shell_grid,
)
from lyapcert.dynsys import DynSystem, state_batched
from lyapcert.rng import Rng, low_discrepancy_directions


def contraction(dim=2, factor=0.5):
    return DynSystem(dim=dim, map_fn=lambda t, x: factor * x, autonomous=True)


class TestCandidateFunction:
    def test_quadratic_constructor_symmetrizes(self):
        V = CandidateFunction.quadratic(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # effective P is the symmetric part
        assert V(0, np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_nonvanishing_origin_rejected(self):
        with pytest.raises(ValueError):
            CandidateFunction(eval_fn=lambda t, x: float(x @ x) + 1.0, dim=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_origin_rejected(self, bad):
        # "abs(v0) > tol" is False for NaN, so V(t, 0) = NaN once passed
        with pytest.raises(ValueError, match="does not vanish at the origin"):
            CandidateFunction(eval_fn=lambda t, x: float(x @ x) + bad, dim=2)

    def test_call_coerces_input(self):
        V = CandidateFunction.quadratic(np.eye(2))
        assert V(0, [3.0, 4.0]) == pytest.approx(25.0)


class TestShellGrid:
    def test_radii_span_and_dedup(self):
        grid = shell_grid(3, 2.0, n_shells=5, n_directions=8)
        norms = np.linalg.norm(grid, axis=1)
        assert norms.max() == pytest.approx(2.0, rel=1e-12)
        assert norms.min() > 0.0
        assert grid.shape[1] == 3

    def test_point_count_and_shell_norms(self):
        grid = shell_grid(2, 1.0, n_shells=2, n_directions=4)
        assert grid.shape == (8, 2)
        norms = np.linalg.norm(grid, axis=1)
        assert set(np.round(norms, 12)) == {0.001, 1.0}

    @pytest.mark.parametrize("dim", [13, 48])
    def test_dimensions_past_twelve_give_unit_directions(self, dim):
        # the Halton bases once stopped at 12 primes: IndexError for dim >= 13
        grid = shell_grid(dim, 1.0)
        assert grid.shape == (12 * 32, dim)
        assert np.all(np.isfinite(grid))
        outer = grid[-32:]
        assert np.allclose(np.linalg.norm(outer, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert len({row.tobytes() for row in outer}) == 32

    def test_grid_is_writable_and_does_not_alias_the_shared_directions(self):
        grid = shell_grid(3, 1.0)
        dirs = low_discrepancy_directions(3, 32)
        assert grid.flags.writeable and not dirs.flags.writeable
        assert not np.shares_memory(grid, dirs)
        before = dirs.copy()
        grid[:] = 7.0
        assert np.array_equal(low_discrepancy_directions(3, 32), before)
        assert shell_grid(3, 1.0)[-32:].tobytes() == before.tobytes()


def old_inject_eigendirections(grid: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The list comprehension inject_eigendirections was built with, kept as
    the reference for its rows and their order."""
    norms = np.linalg.norm(grid, axis=1)
    norms = norms[norms > 0.0]
    radii = np.geomspace(norms.min(), norms.max(), 5)
    _, vecs = np.linalg.eigh(np.asarray(P, dtype=float))
    extra = [s * r * vecs[:, i] for i in range(vecs.shape[1]) for r in radii for s in (1.0, -1.0)]
    return np.vstack([grid, np.array(extra)])


class TestInjectEigendirections:
    @pytest.mark.parametrize("dim", [1, 2, 5, 13, 48])
    def test_matches_the_list_comprehension_byte_for_byte(self, dim):
        B = Rng(700 + dim).matrix(dim, dim)
        P = B @ B.T + np.eye(dim)
        grid = shell_grid(dim, 0.7)
        got = inject_eigendirections(grid, P)
        assert got.shape == (grid.shape[0] + 10 * dim, dim)
        assert got.tobytes() == old_inject_eigendirections(grid, P).tobytes()


class TestPositiveDefinite:
    def test_identity_quadratic_passes(self):
        V = CandidateFunction.quadratic(np.eye(2))
        rep = check_positive_definite(V, shell_grid(2, 1.0))
        assert rep.passed
        assert rep.worst_margin > 0.0
        assert rep.details["min_eig_P"] == pytest.approx(1.0)

    def test_indefinite_quadratic_fails(self):
        V = CandidateFunction.quadratic(np.diag([1.0, -1.0]))
        rep = check_positive_definite(V, shell_grid(2, 1.0))
        assert not rep.passed
        assert rep.worst_margin < 0.0


class TestDecrease:
    def test_contraction_passes_strict(self):
        V = CandidateFunction.quadratic(np.eye(2))
        rep = check_decrease(V, contraction(), shell_grid(2, 1.0), strict=True)
        assert rep.passed
        assert rep.condition == "strict_decrease"

    def test_expansion_fails(self):
        V = CandidateFunction.quadratic(np.eye(2))
        sys = DynSystem(dim=2, map_fn=lambda t, x: 1.5 * x, autonomous=True)
        rep = check_decrease(V, sys, shell_grid(2, 1.0))
        assert not rep.passed
        assert rep.worst_margin < 0.0

    def test_isometry_passes_nonstrict_only(self):
        V = CandidateFunction.quadratic(np.eye(2))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        sys = DynSystem(dim=2, map_fn=lambda t, x: rot @ x, autonomous=True)
        assert check_decrease(V, sys, shell_grid(2, 1.0)).passed
        assert not check_decrease(V, sys, shell_grid(2, 1.0), strict=True).passed


def complex_off_origin(t, x):
    """x'x, complex away from the origin (a real zero at it)."""
    x = np.asarray(x, dtype=float)
    return np.complex128(x @ x, 1.0) if np.any(x) else 0.0


@state_batched
def complex_batch(t, x):
    x = np.asarray(x, dtype=float)
    return np.sum(x * x, axis=-1) * (1.0 + 1.0j) if np.any(x) else 0.0


class TestComplexValuesAreRefused:
    """A complex value used to pass with only a ComplexWarning, its
    imaginary part dropped by the cast to float."""

    def test_complex_candidate_refused_at_construction(self):
        with pytest.raises(TypeError, match="complex"):
            CandidateFunction(eval_fn=lambda t, x: np.complex128(x @ x), dim=2)

    @pytest.mark.parametrize("fn", [complex_off_origin, complex_batch], ids=["unmarked", "marked"])
    def test_complex_candidate_fails_both_checks(self, fn):
        V = CandidateFunction(eval_fn=fn, dim=2)
        with pytest.raises(TypeError, match="complex"):
            check_positive_definite(V, shell_grid(2, 1.0))
        with pytest.raises(TypeError, match="complex"):
            check_decrease(V, contraction(), shell_grid(2, 1.0))
        with pytest.raises(TypeError, match="complex"):
            V(0, np.ones(2))

    def test_complex_map_refused_at_construction(self):
        with pytest.raises(TypeError, match="complex"):
            DynSystem(dim=2, map_fn=lambda t, x: (0.5 + 0.1j) * x)

    def test_complex_map_fails_decrease(self):
        def rotating(t, x):
            return (0.5 + 0.1j) * x if np.any(x) else 0.5 * x

        sys = DynSystem(dim=2, map_fn=rotating)
        V = CandidateFunction.quadratic(np.eye(2))
        with pytest.raises(TypeError, match="complex"):
            check_decrease(V, sys, shell_grid(2, 1.0))
        with pytest.raises(TypeError, match="complex"):
            sys.step(0, np.ones(2))
