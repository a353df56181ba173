"""Quadratic certificates for linear maps: direct, series, time-varying."""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lyapcert import stein
from lyapcert.dynsys import ExponentialEnvelope, LinearTV, transitions
from lyapcert.errors import (
    CertificateNotFoundError,
    DecayNotDetectedError,
    SeriesDivergenceError,
    SteinSolvabilityError,
)
from lyapcert.frontend.cli import run_command
from lyapcert.frontend.config import build_system, load_config
from lyapcert.frontend.report import jsonable
from lyapcert.rng import Rng
from lyapcert.stein import (
    TvLyapunov,
    classify_linear,
    instability_certificate,
    solve_stein_kron,
    solve_stein_series,
    verify_transition_decay,
)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestClassify:
    def test_strictly_stable_scalar(self):
        rep = classify_linear(np.array([[0.5]]))
        assert rep.schur and rep.solvable
        assert rep.spectral_radius == pytest.approx(0.5, abs=1e-14)

    def test_reciprocal_pair_not_solvable(self):
        rep = classify_linear(np.diag([2.0, 0.5]))
        assert not rep.schur
        assert not rep.solvable  # lambda_1 * lambda_2 = 1

    def test_unit_circle_semisimple_vs_defective(self):
        ok = classify_linear(rotation(0.7))
        bad = classify_linear(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert ok.marginal_multiplicity_ok
        assert not bad.marginal_multiplicity_ok

    def test_unstable_but_solvable(self):
        rep = classify_linear(np.array([[2.0]]))
        assert not rep.schur and rep.solvable


class TestGoldenSolutions:
    def test_stable_scalar_value(self):
        # P = q / (1 - a^2) = 1 / 0.75
        sol = solve_stein_kron(np.array([[0.5]]), np.array([[1.0]]))
        assert sol.P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert sol.positive_definite

    def test_unstable_scalar_value(self):
        sol = solve_stein_kron(np.array([[2.0]]), np.array([[1.0]]))
        assert sol.P[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert not sol.positive_definite

    def test_series_matches_kron(self):
        sol = solve_stein_series(np.array([[0.5]]), np.array([[1.0]]))
        assert sol.P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert sol.terms is not None and sol.terms > 1

    def test_decrement_identity_scalar(self):
        a, q = 0.5, 1.0
        P = solve_stein_kron(np.array([[a]]), np.array([[q]])).P[0, 0]
        for x in (1.0, -2.0, 0.3):
            dv = P * (a * x) ** 2 - P * x**2
            assert dv == pytest.approx(-q * x**2, abs=1e-10)

    def test_2d_residual(self):
        A = np.array([[0.4, 0.3], [0.0, 0.5]])
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        for sol in (solve_stein_kron(A, Q), solve_stein_series(A, Q)):
            res = np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, ord=np.inf)
            assert res <= 1e-9 * np.linalg.norm(Q, ord=np.inf)
            assert sol.positive_definite


class TestSolvability:
    def test_reciprocal_pair_raises(self):
        with pytest.raises(SteinSolvabilityError):
            solve_stein_kron(np.diag([2.0, 0.5]), np.eye(2))

    def test_unit_eigenvalue_raises(self):
        with pytest.raises(SteinSolvabilityError):
            solve_stein_kron(np.array([[1.0]]), np.array([[1.0]]))

    def test_series_needs_strict_stability(self):
        with pytest.raises(SeriesDivergenceError):
            solve_stein_series(np.array([[1.5]]), np.array([[1.0]]))

    def test_random_schur_families_always_solvable(self):
        rng = Rng(314)
        for trial in range(40):
            n = 2 + trial % 4
            M = rng.matrix(n, n)
            rho = max(abs(np.linalg.eigvals(M)))
            A = M * (0.85 / rho)
            sol = solve_stein_kron(A, np.eye(n))
            assert sol.positive_definite


class TestInstability:
    def test_direct_witness(self):
        P1, gamma = instability_certificate(np.array([[2.0]]))
        assert gamma == 1.0
        eigs = np.linalg.eigvalsh(P1)
        assert eigs.min() < 0  # V = -x' P1 x is positive somewhere

    def test_rescaled_witness_when_products_hit_one(self):
        # reciprocal spectrum: direct solve impossible, grid rescue needed
        A = np.diag([2.0, 0.5])
        P1, gamma = instability_certificate(A)
        assert gamma > 1.0
        assert np.linalg.eigvalsh(P1).min() < 0
        # the expansion inequality dV >= (gamma^2 - 1) V wherever V > 0
        V = lambda x: -x @ P1 @ x
        for x in (np.array([1.0, 0.0]), np.array([0.9, 0.1])):
            if V(x) > 0:
                assert V(A @ x) >= (gamma**2) * V(x) - 1e-9

    def test_stable_matrix_refused(self):
        with pytest.raises(CertificateNotFoundError):
            instability_certificate(np.array([[0.9]]))


class TestTimeVarying:
    def test_constant_scalar_envelope(self):
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[0.5]]))
        env = verify_transition_decay(ltv)
        assert env.gain == pytest.approx(1.0, abs=1e-9)
        assert env.rate == pytest.approx(np.log(2.0), abs=1e-9)
        assert env.uniform_bound == pytest.approx(1.0, abs=1e-12)

    def test_alternating_gain_rate(self):
        mats = (np.diag([0.2]), np.diag([0.8]))
        ltv = LinearTV(dim=1, matrix_fn=lambda t: mats[t % 2])
        env = verify_transition_decay(ltv)
        # per-two-step factor 0.16, so the per-step rate is ln(1/0.4)
        assert env.rate == pytest.approx(np.log(1.0 / 0.4), abs=1e-9)
        # the envelope dominates sampled transition norms pointwise
        prod = np.eye(1)
        for t in range(12):
            assert np.linalg.norm(prod) <= env.gain * np.exp(-env.rate * t) * (1 + 1e-9)
            prod = ltv.matrix_fn(t) @ prod

    def test_identity_has_no_decay(self):
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.eye(1))
        with pytest.raises(DecayNotDetectedError):
            verify_transition_decay(ltv)

    def test_first_start_that_does_not_decay_is_named(self):
        # the norms from t0 = 0 and 1 decay over 24 steps, those from 2, 3, 5
        # and 8 do not; the whole window is read, and t0 = 2 is named
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[0.1 if t < 3 else 1.2]]))
        with pytest.raises(DecayNotDetectedError, match="from t0=2 "):
            verify_transition_decay(ltv)

    def test_non_finite_matrix_is_refused(self):
        # NaN norms dropped out of the max and the fit: gain 1, uniform_bound 1
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[np.inf if t == 3 else 0.5]]))
        with pytest.raises(ValueError, match=r"A\(3\) has a NaN or infinite entry"):
            verify_transition_decay(ltv)

    def test_no_start_times_is_refused(self):
        # an envelope (gain 1, rate ln 2, uniform_bound 0) was fitted from no samples
        ltv = LinearTV(dim=1, matrix_fn=lambda t: np.array([[0.5]]))
        with pytest.raises(ValueError, match="at least one start time"):
            verify_transition_decay(ltv, t0_samples=())

    def test_tv_solution_satisfies_stepwise_identity(self):
        mats = (np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[0.2, 0.0], [0.1, 0.6]]))
        ltv = LinearTV(dim=2, matrix_fn=lambda t: mats[t % 2])
        env = verify_transition_decay(ltv)
        P = TvLyapunov(ltv, env)
        for t in range(6):
            A = ltv.matrix_fn(t)
            res = A.T @ P(t + 1) @ A - P(t) + np.eye(2)
            assert np.linalg.norm(res, ord=np.inf) < 1e-8
            eigs = np.linalg.eigvalsh(P(t))
            assert eigs.min() >= 1.0 - 1e-9  # P(t) >= Q = I termwise

    def test_periodic_coefficients_give_periodic_solution(self):
        mats = (np.array([[0.4]]), np.array([[0.7]]))
        ltv = LinearTV(dim=1, matrix_fn=lambda t: mats[t % 2])
        env = verify_transition_decay(ltv)
        P = TvLyapunov(ltv, env)
        assert P(0)[0, 0] == pytest.approx(P(2)[0, 0], rel=1e-8)
        assert P(1)[0, 0] == pytest.approx(P(3)[0, 0], rel=1e-8)


def old_tail_sum(ltv: LinearTV, envelope: ExponentialEnvelope, t: int) -> np.ndarray:
    """The per-t read TvLyapunov was built with, kept as the reference: Q = I
    bounded by its largest eigenvalue over t = 0..63, one transitions read
    for t, then Phi' Q Phi added term by term."""
    n = ltv.dim
    q2 = max(max(float(np.linalg.eigvalsh(np.eye(n))[-1]) for _ in range(64)), 1e-300)
    mass = q2 * envelope.gain**2 / (-math.expm1(-2.0 * envelope.rate) * stein.TV_TAIL_TOL)
    horizon = max(0, math.ceil(math.log(max(mass, 1.0)) / (2.0 * envelope.rate)))
    acc = np.zeros((n, n))
    for phi in transitions(ltv, [t], horizon)[0]:
        acc += phi.T @ np.asarray(np.eye(n), dtype=float) @ phi
    return 0.5 * (acc + acc.T)


class TestBatchedTailSum:
    """One call of a TvLyapunov reads every asked time from one transitions
    table, equal bit for bit to the per-t reads it replaced."""

    @pytest.mark.parametrize("n", [1, 3, 48])
    def test_batched_read_equals_the_per_t_reads(self, n):
        ltv = LinearTV(n, lambda t: Rng(n + 7919 * int(t)).matrix(n, n) / (2.0 * math.sqrt(n)))
        env = ExponentialEnvelope(1.5, 0.4)
        tv = TvLyapunov(ltv, env)
        times = [0, 3, 1, 3, 8]
        batch = tv(times)
        assert batch.shape == (len(times), n, n)
        for P, t in zip(batch, times):
            assert P.tobytes() == tv(t).tobytes() == old_tail_sum(ltv, env, t).tobytes()

    def test_one_transitions_read_per_call(self, monkeypatch):
        mats = (np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[0.2, 0.0], [0.1, 0.6]]))
        ltv = LinearTV(dim=2, matrix_fn=lambda t: mats[t % 2])
        tv = TvLyapunov(ltv, verify_transition_decay(ltv))
        starts = []
        monkeypatch.setattr(stein, "transitions", lambda ltv, t0, horizon: starts.append(np.ravel(t0).tolist())
                            or transitions(ltv, t0, horizon))
        tv(range(6))
        tv(np.array([2, 2]))
        tv(4)
        tv(4)  # no cache: a second read of a time reads it again
        assert starts == [[0, 1, 2, 3, 4, 5], [2, 2], [4], [4]]

    @pytest.mark.parametrize("doc", [
        json.loads((Path(__file__).parent.parent / "configs" / "alternating_gain.json").read_text()),
        {"kind": "linear_tv", "dims": {"x": 3}, "analyses": [{"command": "linear"}], "seed": 5,
         "map": {"x": ["(0.5-0.3*(-1)^t)*x[0]+0.2*x[1]", "0.1*cos(1.5707963267948966*t)*x[0]+0.4*x[1]",
                       "0.3*x[1]-0.25*x[2]"]}},
    ])
    def test_linear_reports_the_per_t_tail_sums(self, doc):
        report, code = run_command(doc, "linear", timestamp=False)
        assert code == 0
        samples = report["results"][1]["P_samples"]
        system = build_system(load_config(doc))
        env = verify_transition_decay(system)
        want = {str(t): jsonable(old_tail_sum(system, env, t)) for t in range(4)}
        assert json.dumps(samples) == json.dumps(want)


def schur_draw(seed: int, n: int, rho: float):
    """Gaussian matrix rescaled to spectral radius rho, and a Q = B B' + I."""
    rng = Rng(seed)
    M = rng.matrix(n, n)
    A = M * (rho / max(abs(np.linalg.eigvals(M))))
    B = rng.matrix(n, n)
    return A, B @ B.T + np.eye(n)


def is_power_of_two(k: int) -> bool:
    return k >= 1 and k & (k - 1) == 0


class TestSmithDoubling:
    @pytest.mark.parametrize("n", [2, 13, 48])
    @pytest.mark.parametrize("rho", [0.3, 0.99, 0.999])
    def test_agrees_with_kronecker(self, n, rho):
        A, Q = schur_draw(1000 + n, n, rho)
        series = solve_stein_series(A, Q)
        kron = solve_stein_kron(A, Q)
        assert float(np.abs(series.P - kron.P).max()) <= 1e-8  # sup norm over entries
        q_norm = float(np.linalg.norm(Q, "fro"))
        residual = float(np.linalg.norm(A.T @ series.P @ A - series.P + Q, "fro"))
        assert residual <= 1e-9 * q_norm
        assert series.positive_definite
        assert is_power_of_two(series.terms)

    @pytest.mark.parametrize("n, rho", [(1, 0.5), (3, 0.9), (6, 0.99)])
    @pytest.mark.parametrize("tol", [1e-1, 1e-5, 1e-12])
    def test_stops_at_first_power_of_two_and_residual_is_omitted_term(self, n, rho, tol):
        A, Q = schur_draw(2000 + n, n, rho)
        sol = solve_stein_series(A, Q, tol=tol)
        assert is_power_of_two(sol.terms)
        threshold = tol * (1.0 - rho) / (1.0 + rho)

        def omitted(k):
            Ak = np.linalg.matrix_power(A, k)
            return float(np.linalg.norm(Ak.T @ Q @ Ak, 2))

        assert omitted(sol.terms) <= threshold
        if sol.terms > 1:
            assert omitted(sol.terms // 2) > threshold
        scale = (1.0 + float(np.linalg.norm(A, 2)) ** 2) * float(np.linalg.norm(sol.P, 2))
        rounding = 64 * np.finfo(float).eps * scale
        assert abs(sol.residual - omitted(sol.terms)) <= rounding
        if tol >= 1e-2:
            # the omitted term sits far above rounding, so the match is not vacuous
            assert omitted(sol.terms) >= 100 * rounding

    def test_nilpotent_map_stops_after_exact_sum(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        sol = solve_stein_series(A, np.eye(2))
        assert sol.terms == 2
        assert sol.P.tobytes() == np.diag([1.0, 2.0]).tobytes()
        assert sol.residual == 0.0

    @pytest.mark.parametrize("A", [np.array([[1.5]]), rotation(0.7), np.array([[-1.0]])])
    def test_spectral_radius_at_least_one_diverges(self, A):
        with pytest.raises(SeriesDivergenceError):
            solve_stein_series(A, np.eye(A.shape[0]))

    def test_term_budget_is_enforced(self):
        A, Q = schur_draw(3003, 3, 0.99)
        with pytest.raises(SeriesDivergenceError, match="term budget"):
            solve_stein_series(A, Q, max_terms=4)
        needed = solve_stein_series(A, Q).terms
        assert solve_stein_series(A, Q, max_terms=needed).terms == needed
        with pytest.raises(SeriesDivergenceError, match="term budget"):
            solve_stein_series(A, Q, max_terms=needed - 1)


def exact_stein(A: np.ndarray, Q: np.ndarray) -> list:
    """The solution of A' P A - P = -Q in rationals, from the full n^2 x n^2 system.

    Every float is an exact rational, so this is the exact solution for the
    given floating-point A and Q, found without the symmetric fold.
    """
    n = A.shape[0]
    a = [[Fraction(float(v)) for v in row] for row in A]
    N = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [a[k][i] * a[l][j] - int((k, l) == (i, j)) for k in range(n) for l in range(n)]
            rows.append(row + [-Fraction(float(Q[i, j]))])
    for c in range(N):
        pivot = next(r for r in range(c, N) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(N):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [[rows[i * n + j][N] / rows[i * n + j][i * n + j] for j in range(n)] for i in range(n)]


def exact_error(P: np.ndarray, exact: list) -> tuple:
    """Largest entrywise |P - exact| and largest |exact|, both as floats."""
    n = P.shape[0]
    err = max(abs(Fraction(float(P[i, j])) - exact[i][j]) for i in range(n) for j in range(n))
    return float(err), float(max(abs(x) for row in exact for x in row))


def stein_case(kind: str, n: int):
    if kind == "non_normal":
        # eigenvalue 0.9 with large off-diagonal coupling: |P| about 1.7e6 at n = 3
        return 0.9 * np.eye(n) + np.triu(np.full((n, n), 3.0), 1), np.eye(n)
    return schur_draw(4000 + n, n, 0.8 if kind == "schur" else 1.7)


# benchmark job stein-n2-r0.99 of stein_dual_route at seed 612: cond(A) about 4e3,
# |P| about 1.1e4; the n^2 x n^2 solve was 8.9e-9 off the exact P here
SEED_612_A = np.array([[-1.4380974623765124, -0.34683989532791276],
                       [9.88060989387907, 2.4013888566955517]])
SEED_612_Q = np.array([[1.6354712783244487, -0.6802799491040824],
                       [-0.6802799491040824, 1.9110220458918172]])


class TestSymmetricSubspaceSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["schur", "expanding", "non_normal"])
    def test_matches_exact_rational_solution(self, n, kind):
        A, Q = stein_case(kind, n)
        err, scale = exact_error(solve_stein_kron(A, Q).P, exact_stein(A, Q))
        assert err <= 1e-13 * scale

    def test_ill_conditioned_benchmark_job(self):
        kron = solve_stein_kron(SEED_612_A, SEED_612_Q)
        series = solve_stein_series(SEED_612_A, SEED_612_Q)
        err, _ = exact_error(kron.P, exact_stein(SEED_612_A, SEED_612_Q))
        assert err <= 1e-9
        assert float(np.linalg.norm(kron.P - series.P, ord=np.inf)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 7, 13])
    @pytest.mark.parametrize("kind", ["schur", "expanding", "non_normal"])
    def test_solution_is_exactly_symmetric(self, n, kind):
        A, Q = stein_case(kind, n)
        P = solve_stein_kron(A, Q).P
        assert np.array_equal(P, P.T)

    def test_nonsymmetric_q_enters_through_its_symmetric_part(self):
        A, _ = schur_draw(4100, 5, 0.9)
        Q = Rng(4101).matrix(5, 5) + 5.0 * np.eye(5)
        sol = solve_stein_kron(A, Q)
        assert sol.method == "schur"
        assert np.array_equal(sol.P, sol.P.T)
        assert sol.P.tobytes() == solve_stein_kron(A, 0.5 * (Q + Q.T)).P.tobytes()

    def test_nonsymmetric_q_on_the_fallback(self):
        A = rotated_jordan(5, 0.5)
        Q = Rng(4101).matrix(5, 5) + 5.0 * np.eye(5)
        sol = solve_stein_kron(A, Q)
        assert sol.method == "kronecker"
        assert np.array_equal(sol.P, sol.P.T)
        assert sol.P.tobytes() == solve_stein_kron(A, 0.5 * (Q + Q.T)).P.tobytes()

    @pytest.mark.parametrize("n", [13, 24, 48])
    def test_agrees_with_doubling_at_large_n(self, n):
        A, Q = schur_draw(5000 + n, n, 0.99)
        P = solve_stein_kron(A, Q).P
        gap = float(np.abs(P - solve_stein_series(A, Q).P).max())
        assert gap <= 1e-12 * float(np.abs(P).max())


def rotated_jordan(n: int, lam: float) -> np.ndarray:
    """Q J Q' for the n x n Jordan block J of eigenvalue lam and a fixed
    orthogonal Q: its eigenvectors are nearly parallel, in no coordinate
    direction."""
    Q, _ = np.linalg.qr(Rng(900 + n).matrix(n, n))
    return Q @ (lam * np.eye(n) + np.eye(n, k=1)) @ Q.T


def backward_error(A: np.ndarray, P: np.ndarray, Q: np.ndarray) -> float:
    """|A' P A - P + Q|_F / ((|A|_F^2 + 1) |P|_F + |Q|_F): the normwise
    relative residual, which rounding alone keeps near 1e-16."""
    fro = np.linalg.norm
    return float(fro(A.T @ P @ A - P + Q) / ((fro(A) ** 2 + 1.0) * fro(P) + fro(Q)))


class TestSchurRoute:
    @pytest.mark.parametrize("n", [1, 2, 7, 13, 48])
    @pytest.mark.parametrize("kind", ["schur", "expanding"])
    def test_diagonalizable_draws_take_the_schur_route(self, n, kind):
        A, Q = stein_case(kind, n)
        sol = solve_stein_kron(A, Q)
        assert sol.method == "schur"
        assert float(np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, "fro")) <= 1e-9 * np.linalg.norm(Q, "fro")

    def test_ill_conditioned_benchmark_job_takes_the_schur_route(self):
        assert solve_stein_kron(SEED_612_A, SEED_612_Q).method == "schur"

    def test_scaled_rotation_takes_the_schur_route(self):
        # complex eigenvalues 0.95 e^(+-0.7i); A' A = 0.95^2 I, so P = I / (1 - 0.95^2)
        sol = solve_stein_kron(0.95 * rotation(0.7), np.eye(2))
        assert sol.method == "schur"
        assert np.abs(sol.P - np.eye(2) / (1.0 - 0.95**2)).max() <= 1e-13 / (1.0 - 0.95**2)

    @pytest.mark.parametrize("n", [5, 8, 12])
    @pytest.mark.parametrize("lam", [0.5, 0.9])
    def test_rotated_jordan_blocks_take_the_fallback(self, n, lam):
        A, Q = rotated_jordan(n, lam), np.eye(n)
        sol = solve_stein_kron(A, Q)
        assert sol.method == "kronecker"
        assert backward_error(A, sol.P, Q) <= 1e-14
        if lam == 0.5:
            # |P|_F <= 2e6 here; at lam = 0.9 it reaches 4e17, and rounding
            # alone puts the residual far above 1e-9 |Q|_F
            residual = float(np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, "fro"))
            assert residual <= 1e-9 * np.linalg.norm(Q, "fro")

    @pytest.mark.parametrize("n", [8, 12])
    def test_the_gate_keeps_jordan_blocks_off_the_schur_route(self, n, monkeypatch):
        A, Q = rotated_jordan(n, 0.9), np.eye(n)
        gated = solve_stein_kron(A, Q)
        monkeypatch.setattr(stein, "SCHUR_GATE", np.inf)
        ungated = solve_stein_kron(A, Q)
        assert (gated.method, ungated.method) == ("kronecker", "schur")
        assert ungated.residual > 1e3 * gated.residual


def real_spectrum(rng: np.random.Generator, n: int, kind: str, gap: float) -> list:
    """n eigenvalues closed under conjugation, about 60% of them in complex
    pairs.  Moduli lie in (0.05, 1 - gap) for "contracting" and in
    (1 + gap, 2) for "expanding".  "mixed" draws moduli r in (0.5, 1.5) and
    pairs r e^(i th) with (1 +- gap) / r e^(i th), so some products
    c_j conj(t_ii) of the Schur diagonal lie gap away from 1."""
    lams: list = []
    while len(lams) < n:
        th = rng.uniform(0.1, 3.0) if len(lams) + 2 <= n and rng.uniform() < 0.6 else 0.0
        width = 2 if th else 1
        if kind == "contracting":
            r = rng.uniform(0.05, 1.0 - gap)
        elif kind == "expanding":
            r = rng.uniform(1.0 + gap, 2.0)
        else:
            r = rng.uniform(0.5, 1.5)
        zs = [r * np.exp(1j * th)]
        if kind == "mixed" and len(lams) + 2 * width <= n:
            zs.append((1.0 + rng.choice([-1.0, 1.0]) * gap) / r * np.exp(1j * th))
        for z in zs:
            lams += [z, z.conjugate()] if th else [z.real]
    return lams


def shifted_case(seed: int, n: int, kind: str, gap: float):
    """(c, M) as the Schur route forms them for a real A = Q (D + N) Q' with
    the spectrum of :func:`real_spectrum` (D real block diagonal, N strictly
    upper triangular above its first superdiagonal): c the diagonal of
    T = triu(U^H A U) and M = T^H; None where the Schur gate refuses A."""
    rng = np.random.default_rng(seed)
    lams = real_spectrum(rng, n, kind, gap)
    D, i = np.zeros((n, n)), 0
    while i < n:
        z = complex(lams[i])
        if z.imag:
            D[i:i + 2, i:i + 2] = [[z.real, z.imag], [-z.imag, z.real]]
            i += 2
        else:
            D[i, i] = z.real
            i += 1
    N = np.triu(rng.standard_normal((n, n)), 2) * (0.5 / np.sqrt(n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ (D + N) @ Q.T
    form = stein._complex_schur(A, np.linalg.eig(A)[1])
    if form is None:
        return None
    T = form[1]
    return T.diagonal(), T.conj().T


def stack_norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of an (S, n, n) stack."""
    return np.linalg.norm(x, axis=(1, 2))


class TestShiftedInverses:
    """The n inverses (c_j M - I)^-1 of the Schur route against one batched
    ``np.linalg.inv`` of the same stack, as the route formed them before
    the recursive halving."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 64),
        kind=st.sampled_from(["contracting", "expanding", "mixed"]),
        gap=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_batched_lu_inverse(self, seed, n, kind, gap):
        case = shifted_case(seed, n, kind, gap)
        assume(case is not None)
        c, M = case
        shifted = c[:, None, None] * M - np.eye(n)
        lu = np.linalg.inv(shifted)
        halved = stein._shifted_inverses(c, M)
        if n <= stein.SHIFTED_INV_BLOCK:
            assert halved.tobytes() == lu.tobytes()
            return
        # relative gap within 1e-13, plus the forward-error scale n u kappa_F
        # of a backward-stable inverse, which grows where c_j conj(t_ii)
        # nears 1: at most 0.017 n u kappa_F over 3,277 such draws, n from 9 to 64
        kappa = stack_norms(shifted) * stack_norms(lu)
        bound = 1e-13 + n * np.finfo(float).eps * kappa
        assert (stack_norms(halved - lu) <= bound * stack_norms(lu)).all()
        # and each is an inverse to a normwise residual below n u (0.03 n u
        # at most over those draws)
        residual = stack_norms(shifted @ halved - np.eye(n))
        assert (residual <= n * np.finfo(float).eps * stack_norms(shifted) * stack_norms(halved)).all()

    @pytest.mark.parametrize("n", [40, 48])
    @pytest.mark.parametrize("rho", [0.3, 0.99])
    def test_criterion_one_at_large_n(self, n, rho):
        # the benchmark's criterion 1: residual at most 1e-9 |Q|_F on both
        # routes, and the sup-norm route gap at most 1e-8
        A, Q = schur_draw(6000 + n, n, rho)
        kron, series = solve_stein_kron(A, Q), solve_stein_series(A, Q)
        assert kron.method == "schur"
        for sol in (kron, series):
            residual = float(np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, "fro"))
            assert residual <= 1e-9 * float(np.linalg.norm(Q, "fro"))
        assert float(np.linalg.norm(kron.P - series.P, ord=np.inf)) <= 1e-8


@pytest.mark.parametrize("route", ["schur", "kronecker"])
def test_one_eigendecomposition_per_solve(route, monkeypatch):
    # the eigenvalues that decide solvability and the eigenvectors of the
    # Schur form come from one eig; no eigvals runs beside it
    A = stein_case("schur", 6)[0] if route == "schur" else rotated_jordan(6, 0.5)
    calls = []
    for name in ("eig", "eigvals"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, _name=name, _fn=original: calls.append(_name) or _fn(a)
        )
    assert solve_stein_kron(A, np.eye(6)).method == route
    assert calls == ["eig"]


def full_array_operator(A: np.ndarray):
    """The m x m operator of the Stein fallback built as whole arrays, with
    three m x m arrays alive at once, as it was before the row blocks."""
    n = A.shape[0]
    d = np.arange(n)
    iu, ju = np.triu_indices(n, 1)
    I, J = np.concatenate([d, iu]), np.concatenate([d, ju])
    AI, AJ = A.T[I], A.T[J]
    M = AI[:, I]
    M *= AJ[:, J]
    fold = AI[:, J[n:]]
    fold *= AJ[:, I[n:]]
    M[:, n:] += fold
    M[np.diag_indices(M.shape[0])] -= 1.0
    return M, I, J


class TestRowBlockedOperator:
    @pytest.mark.parametrize("n", [1, 2, 13, 48])
    @pytest.mark.parametrize("kind", ["schur", "expanding"])
    def test_matches_the_full_array_build(self, n, kind, monkeypatch):
        # at n = 48, m = 1176 rows end in a partial block
        assert n < 48 or (n * (n + 1) // 2) % stein.KRON_BLOCK_ROWS != 0
        A, Q = stein_case(kind, n)
        blocked, full = stein._stein_operator(A), full_array_operator(A)
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in full]
        # these inputs take the Schur route, so the fallback is called directly
        P = stein._solve_kronecker(A, Q)
        monkeypatch.setattr(stein, "_stein_operator", full_array_operator)
        assert P.tobytes() == stein._solve_kronecker(A, Q).tobytes()

    @pytest.mark.parametrize("n", [5, 12])
    def test_jordan_blocks_reach_the_fallback(self, n, monkeypatch):
        A, Q = rotated_jordan(n, 0.9), np.eye(n)
        P = solve_stein_kron(A, Q).P
        monkeypatch.setattr(stein, "_stein_operator", full_array_operator)
        assert P.tobytes() == stein._solve_kronecker(A, Q).tobytes()

    def test_peak_traced_memory_at_n48(self):
        # the fallback: the operator plus block temporaries; the full-array
        # build held three m x m arrays at once
        A, Q = stein_case("schur", 48)
        m = 48 * 49 // 2
        tracemalloc.start()
        try:
            stein._solve_kronecker(A, Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * m * m * 8

    def test_peak_traced_memory_of_the_schur_route_at_n48(self):
        # the n inverses of T[j, j] T^H - I, 16 n^3 bytes (1.8 MB), the
        # quarter-size blocks of the recursive halving, and n x n arrays;
        # the fallback holds 2.5 m^2 8 bytes (28 MB)
        A, Q = stein_case("schur", 48)
        tracemalloc.start()
        try:
            assert solve_stein_kron(A, Q).method == "schur"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * 48**3
