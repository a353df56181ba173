"""Sampled verification of candidate functions on shell grids."""

import numpy as np
import pytest

from lyapcert import certcheck
from lyapcert.certcheck import (
    CandidateFunction,
    ConditionReport,
    check_decrease,
    check_positive_definite,
    shell_grid,
)
from lyapcert.dynsys import BatchMap, DynSystem
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


class TestFromSlack:
    def test_names_its_worst_point_as_time_and_state_copy(self):
        states = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        rep = ConditionReport.from_slack("demo", [0.5, -0.25, 0.1], np.array([4, 7, 9]), states)
        assert not rep.passed and rep.worst_margin == -0.25 and rep.samples_checked == 3
        t, x = rep.worst_point
        assert type(t) is int and t == 7
        assert x.tolist() == [0.0, 2.0]
        states[1] = 5.0
        assert x.tolist() == [0.0, 2.0]  # a copy, not a view of the caller's batch

    def test_an_empty_sample_set_fails(self):
        rep = ConditionReport.from_slack("demo", [], np.zeros(0, dtype=int), np.zeros((0, 2)))
        assert not rep.passed and rep.worst_point is None and rep.samples_checked == 0

    @pytest.mark.parametrize(
        "times, states",
        [([0, 1], np.zeros((3, 1))), ([0, 1, 2], np.zeros((2, 1))), ([0], np.zeros((1, 1)))],
        ids=["states", "times", "both"],
    )
    def test_times_or_states_of_another_length_are_refused(self, times, states):
        with pytest.raises(ValueError, match="slacks for"):
            ConditionReport.from_slack("demo", [0.1, 0.2], times, states)


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
    """The list comprehension the eigendirection rays were built with, kept
    as the reference for their rows and their order."""
    norms = np.linalg.norm(grid, axis=1)
    norms = norms[norms > 0.0]
    radii = np.geomspace(norms.min(), norms.max(), 5)
    _, vecs = np.linalg.eigh(np.asarray(P, dtype=float))
    extra = [s * r * vecs[:, i] for i in range(vecs.shape[1]) for r in radii for s in (1.0, -1.0)]
    return np.vstack([grid, np.array(extra)])


class TestEigendirectionRays:
    @pytest.mark.parametrize("dim", [1, 2, 5, 13, 48])
    def test_matches_the_list_comprehension_byte_for_byte(self, dim):
        B = Rng(700 + dim).matrix(dim, dim)
        P = B @ B.T + np.eye(dim)
        grid = shell_grid(dim, 0.7)
        got = certcheck._with_rays(grid, np.linalg.eigh(P)[1])
        assert got.shape == (grid.shape[0] + 10 * dim, dim)
        assert got.tobytes() == old_inject_eigendirections(grid, P).tobytes()


class TestOneEigendecompositionPerCandidate:
    def test_both_checks_share_one_eigh(self, monkeypatch):
        B = Rng(5).matrix(3, 3)
        V = CandidateFunction.quadratic(B @ B.T + np.eye(3))
        grid = shell_grid(3, 0.8)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(1) or eigh(a, *args))
        check_positive_definite(V, grid)
        check_decrease(V, contraction(3), grid, strict=True)
        assert len(calls) == 1
        monkeypatch.undo()
        assert certcheck._candidate_grid(V, grid).tobytes() == old_inject_eigendirections(grid, V.quadratic_P).tobytes()


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


@BatchMap
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
