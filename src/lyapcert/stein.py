"""Quadratic Lyapunov machinery for linear systems.

Covers the discrete-time matrix equation  A' P A - P = -Q  through two
independent routes.  The direct route solves column by column on a complex
Schur form A = U T U^H taken from the eigenvectors, with one step of
iterative refinement; when that form is not backward stable on the input it
falls back to a dense solve for the n(n+1)/2 upper-triangle entries of the
symmetric P, also refined once.  The other route sums the matrix power
series by Smith's doubling (k doublings add up the first 2^k series terms,
the count a series solution reports as ``terms``).  Also
spectrum classification with the exact solvability dichotomy, instability
certificates built by rescaling, and the time-varying extension driven by
transition-matrix decay envelopes, read from ``dynsys.transitions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .dynsys import ExponentialEnvelope, LinearTV, transitions
from .errors import (
    CertificateNotFoundError,
    DecayNotDetectedError,
    SeriesDivergenceError,
    SteinSolvabilityError,
)

__all__ = [
    "SpectrumReport",
    "SteinSolution",
    "classify_linear",
    "solve_stein_kron",
    "solve_stein_series",
    "instability_certificate",
    "TvLyapunov",
    "verify_transition_decay",
]

TOL_MARGIN = 1e-9
MARGINAL_TOL = 1e-7
TV_TAIL_TOL = 1e-10
KRON_BLOCK_ROWS = 64  # operator rows the fallback of solve_stein_kron builds per block
SCHUR_GATE = 1e-13  # largest |tril(U^H A U, -1)|_F / max(1, |A|_F) the Schur route accepts


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue facts a quadratic certificate depends on.

    ``solvable`` is the pairwise condition lambda_i * lambda_j != 1, which
    is exactly when the matrix equation has a unique solution; ``schur``
    (all moduli < 1) is the strictly stronger property that also makes the
    solution positive definite.  ``marginal_multiplicity_ok`` is None when
    no eigenvalue sits on the unit circle, else whether every such
    eigenvalue has geometric multiplicity equal to its algebraic one.
    """

    eigenvalues: np.ndarray
    moduli: np.ndarray
    spectral_radius: float
    schur: bool
    solvable: bool
    marginal_multiplicity_ok: Optional[bool]


@dataclass(frozen=True)
class SteinSolution:
    P: np.ndarray
    # route taken: "schur" (triangular solve on a complex Schur form),
    # "kronecker" (its gated m x m fallback) or "series" (Smith doubling)
    method: str
    residual: float
    positive_definite: bool
    min_eig: float
    terms: Optional[int] = None
    notes: Tuple[str, ...] = ()


def _schur_solvable(w: np.ndarray) -> Tuple[bool, bool]:
    """The ``schur`` and ``solvable`` flags of :class:`SpectrumReport` for
    the eigenvalues ``w``."""
    schur = float(np.abs(w).max()) < 1.0 - TOL_MARGIN
    solvable = float(np.abs(np.multiply.outer(w, w) - 1.0).min()) > TOL_MARGIN
    return schur, solvable


def classify_linear(A: np.ndarray) -> SpectrumReport:
    A = np.asarray(A, dtype=float)
    w = np.linalg.eigvals(A)
    moduli = np.abs(w)
    rho = float(moduli.max())
    schur, solvable = _schur_solvable(w)

    marginal_ok: Optional[bool] = None
    on_circle = np.abs(moduli - 1.0) <= MARGINAL_TOL
    if np.any(on_circle):
        marginal_ok = True
        scale = max(1.0, float(np.linalg.norm(A, 2)))
        remaining = list(w[on_circle])
        while remaining:
            lam = remaining[0]
            cluster = [z for z in remaining if abs(z - lam) <= 1e-6 * scale]
            remaining = [z for z in remaining if abs(z - lam) > 1e-6 * scale]
            algebraic = len(cluster)
            svals = np.linalg.svd(A - lam * np.eye(A.shape[0]), compute_uv=False)
            geometric = int(np.sum(svals <= 1e-8 * scale))
            if geometric != algebraic:
                marginal_ok = False
    return SpectrumReport(
        eigenvalues=w,
        moduli=moduli,
        spectral_radius=rho,
        schur=schur,
        solvable=solvable,
        marginal_multiplicity_ok=marginal_ok,
    )


def _finalize(P: np.ndarray, A: np.ndarray, Q: np.ndarray, method: str, **kw) -> SteinSolution:
    P = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(A.T @ P @ A - P + Q, 2))
    eigs = np.linalg.eigvalsh(P)
    return SteinSolution(
        P=P,
        method=method,
        residual=residual,
        positive_definite=bool(eigs[0] > 0.0),
        min_eig=float(eigs[0]),
        **kw,
    )


def _symmetric(x: np.ndarray, I: np.ndarray, J: np.ndarray, n: int) -> np.ndarray:
    P = np.empty((n, n))
    P[I, J] = x
    P[J, I] = x
    return P


def _stein_operator(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m x m operator of :func:`solve_stein_kron` and its row pairs
    (I[r], J[r]), built in blocks of ``KRON_BLOCK_ROWS`` rows, each gathered
    and multiplied in place, so no m x m temporary is made."""
    n = A.shape[0]
    # pairs (i, j), i <= j, diagonal first: columns (k, k) take one product,
    # and the rest, M[:, n:], fold in the (l, k) column
    d = np.arange(n)
    iu, ju = np.triu_indices(n, 1)
    I, J = np.concatenate([d, iu]), np.concatenate([d, ju])
    # AI[r], AJ[r] are the columns A[:, i], A[:, j] of row pair r = (i, j)
    AI, AJ = A.T[I], A.T[J]
    m = len(I)
    M = np.empty((m, m))
    for r in range(0, m, KRON_BLOCK_ROWS):
        rows = slice(r, r + KRON_BLOCK_ROWS)
        ai, aj = AI[rows], AJ[rows]
        block = M[rows]
        np.take(ai, I, axis=1, out=block)
        block *= aj[:, J]
        fold = ai[:, J[n:]]
        fold *= aj[:, I[n:]]
        block[:, n:] += fold
    M[np.diag_indices(m)] -= 1.0
    return M, I, J


def _solve_kronecker(A: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """The fallback of :func:`solve_stein_kron`, for symmetric Qs.

    The unknowns are the m = n(n+1)/2 entries P[k, l], k <= l.  Row (i, j)
    and column (k, l), both with i <= j and k <= l, of the m x m operator
    are the rows of kron(A', A') with the (k, l) and (l, k) columns folded
    together, built straight from A:

        A[k, i] A[l, j] + [k != l] A[l, i] A[k, j] - [(i, j) == (k, l)].

    The solution is unpacked into an exactly symmetric P and refined once:
    the upper triangle of the residual  A' P A - P + Qs  is solved with the
    same operator, which numpy factors again, and the correction added.
    """
    n = A.shape[0]
    M, I, J = _stein_operator(A)
    P = _symmetric(np.linalg.solve(M, -Qs[I, J]), I, J, n)
    residual = A.T @ P @ A - P + Qs
    P += _symmetric(np.linalg.solve(M, -residual[I, J]), I, J, n)
    return P


def _complex_schur(A: np.ndarray, V: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A complex Schur form A = U T U^H from the eigenvectors V of A, or None.

    U is the unitary QR factor of the eigenvector matrix V = U R, so that
    U^H A U = R diag(w) R^-1 is upper triangular in exact arithmetic.  The
    part of the computed U^H A U below the diagonal is a backward error of
    the form: T = triu(U^H A U) is the exact Schur form of A + E with
    |E|_F = g.  When g exceeds ``SCHUR_GATE * max(1, |A|_F)`` (defective
    or nearly defective A, whose eigenvectors are nearly parallel) the form
    is refused.
    """
    U, _ = np.linalg.qr(V.astype(complex))
    H = U.conj().T @ A @ U
    if np.linalg.norm(np.tril(H, -1)) > SCHUR_GATE * max(1.0, float(np.linalg.norm(A))):
        return None
    return U, np.triu(H)


def _triangular_stein(U: np.ndarray, T: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of A' D A - D = -R for real R, on A = U T U^H.

    With X = U^H D U the equation reads T^H X T - X = -U^H R U.  Column j of
    it is  (T[j, j] T^H - I) X[:, j] = -(U^H R U)[:, j] - T^H X[:, :j] T[:j, j],
    so the columns follow one another, each a lower-triangular solve.  The n
    inverses of T[j, j] T^H - I are formed once, in one batched call, and
    serve every right side the returned solver is given.
    """
    n = T.shape[0]
    TH = T.conj().T
    shifted = T.diagonal()[:, None, None] * TH
    shifted -= np.eye(n)
    inverses = np.linalg.inv(shifted)
    UH = U.conj().T

    def solve(R: np.ndarray) -> np.ndarray:
        F = -(UH @ R @ U)
        X = np.empty((n, n), dtype=complex)
        for j in range(n):
            X[:, j] = inverses[j] @ (F[:, j] - TH @ (X[:, :j] @ T[:j, j]))
        return (U @ X @ UH).real

    return solve


def solve_stein_kron(A: np.ndarray, Q: np.ndarray) -> SteinSolution:
    """Direct solve of A' P A - P = -Q for the symmetric solution.

    Q enters through its symmetric part (the symmetric part of the full
    solution solves the equation with it).  One ``np.linalg.eig`` of A
    serves the whole solve: its eigenvalues give the pairwise condition
    and the note on positive definiteness, as in :func:`classify_linear`,
    and its eigenvectors the Schur form.

    *Schur route* (Bartels & Stewart, CACM 15, 1972, in the discrete-time
    form of Kitagawa, Int. J. Control 25, 1977).  A complex Schur form
    A = U T U^H is taken from the eigenvectors (see :func:`_complex_schur`),
    the triangular equation T^H X T - X = -U^H Q U is solved column by
    column, and P = Re(U X U^H).  P is refined once (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 12): the real residual
    A' P A - P + Q  is solved with the same U, T and triangular inverses,
    the correction added, and the sum symmetrized.  Cost: O(n^3) for
    the eigendecomposition, the QR factor and the column recursion, plus
    the n triangular inverses, O(n^4) flops formed once in one batched call;
    two n x n x n complex arrays alive at once (1.8 MB each at n = 48).

    *Gate.*  The Schur form is accepted only when the part of U^H A U below
    the diagonal has Frobenius norm at most ``SCHUR_GATE * max(1, |A|_F)``,
    1e-13: the backward error of the form, measured on the input itself.
    Otherwise (defective or nearly defective A, such as a rotated Jordan
    block) the solve falls back to the dense solve for the m = n(n+1)/2
    upper-triangle entries of P (:func:`_solve_kronecker`), also refined
    once.  Cost: O(n^6), two m x m factorizations of the same operator,
    about n^6 / 6 flops, and two m x m arrays alive at once, the operator
    and the solver's factored copy (22 MB at n = 48).

    ``method`` reports the route taken, ``"schur"`` or ``"kronecker"``.
    Needs the pairwise eigenvalue condition only; works for unstable
    matrices, in which case the solution exists but is not positive
    semidefinite.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    w, V = np.linalg.eig(A)
    stable, solvable = _schur_solvable(w)
    if not solvable:
        raise SteinSolvabilityError(
            "eigenvalue product hits 1; the equation has no unique solution"
        )
    Qs = 0.5 * (Q + Q.T)
    schur = _complex_schur(A, V)
    if schur is None:
        P, method = _solve_kronecker(A, Qs), "kronecker"
    else:
        solve = _triangular_stein(*schur)
        P = solve(Qs)
        P += solve(A.T @ P @ A - P + Qs)
        method = "schur"
    notes: Tuple[str, ...] = ()
    if not stable:
        notes = (
            "solution is unique under the pairwise eigenvalue condition, but "
            "positive definiteness additionally requires all moduli < 1",
        )
    return _finalize(P, A, Q, method, notes=notes)


def solve_stein_series(
    A: np.ndarray, Q: np.ndarray, tol: float = 1e-12, max_terms: int = 200_000
) -> SteinSolution:
    """Series solution  P = sum_t (A')^t Q A^t  for strictly stable A, by doubling.

    Smith's doubling (R. A. Smith, SIAM J. Appl. Math. 16, 1968): from
    P_0 = Q and A_0 = A, each step sets P_{k+1} = P_k + A_k' P_k A_k and
    A_{k+1} = A_k^2, so P_k is the partial sum of the first 2^k terms and
    A_k = A^(2^k).  ``terms`` reports that count, 2^k; the budget
    ``max_terms`` bounds it.  Doubling stops once the first omitted term
    T_k = A_k' Q A_k drops below ``tol * (1 - rho) / (1 + rho)`` in the
    spectral norm.  By the telescoping identity the final residual
    A' P_k A - P_k + Q equals T_k.  The tail P - P_k solves the same equation
    with Q replaced by T_k, so  |P - P_k| <= |T_k| * sum_t |A^t|^2, which is
    |T_k| / (1 - rho^2) when A is normal.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    report = classify_linear(A)
    if not report.schur:
        raise SeriesDivergenceError(
            f"series requires spectral radius < 1, got {report.spectral_radius:.6f}"
        )
    rho = report.spectral_radius
    threshold = tol * (1.0 - rho) / (1.0 + rho)
    P = Q.copy()
    Ak = A
    terms = 1
    while float(np.linalg.norm(Ak.T @ Q @ Ak, 2)) > threshold:
        P = P + Ak.T @ P @ Ak
        Ak = Ak @ Ak
        terms *= 2
        if terms > max_terms:
            raise SeriesDivergenceError("series did not meet tolerance within term budget")
    return _finalize(P, A, Q, "series", terms=terms)


def instability_certificate(
    A: np.ndarray,
    Q: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Quadratic witness of instability for spectral radius > 1.

    Returns ``(P1, gamma)`` such that V(x) = -x' P1 x is positive somewhere
    and increases along trajectories wherever it is positive.  When the
    pairwise eigenvalue condition already holds, gamma = 1 and P1 solves
    the equation for A directly; otherwise A is rescaled by a geometric
    grid of 32 gamma values in (1, spectral radius) until a solvable scaling that
    still has an expanding eigenvalue is found.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    Q = np.eye(n) if Q is None else np.asarray(Q, dtype=float)
    report = classify_linear(A)
    if report.spectral_radius <= 1.0 + TOL_MARGIN:
        raise CertificateNotFoundError(
            f"spectral radius {report.spectral_radius:.6f} does not exceed 1"
        )
    gamma = 1.0
    P1 = None
    if report.solvable:
        P1 = solve_stein_kron(A, Q).P
    else:
        grid = np.geomspace(1.0, report.spectral_radius, 34)[1:-1]
        for g in grid:
            scaled = classify_linear(A / g)
            if scaled.solvable and scaled.spectral_radius > 1.0 + TOL_MARGIN:
                gamma = float(g)
                P1 = solve_stein_kron(A / g, Q).P
                break
        if P1 is None:
            raise CertificateNotFoundError(
                "no rescaling on the grid restored the eigenvalue-product condition"
            )
    eigs, vecs = np.linalg.eigh(P1)
    if eigs[0] >= 0.0:
        raise CertificateNotFoundError("witness has no direction of positive V")
    # sampled guarantee: wherever V > 0 the map must increase V
    directions = [vecs[:, i] for i in range(n)]
    for i in range(2 * n):
        v = np.cos(0.7 + 1.3 * i) * vecs[:, 0] + np.sin(0.7 + 1.3 * i) * vecs[:, -1]
        directions.append(v / max(np.linalg.norm(v), 1e-12))
    for x in directions:
        value = -float(x @ P1 @ x)
        if value > TOL_MARGIN:
            ax = A @ x
            increase = -float(ax @ P1 @ ax) - value
            if increase <= 0.0:
                raise CertificateNotFoundError(
                    "sampled increase condition failed; witness rejected"
                )
    return P1, gamma


class TvLyapunov:
    """Tail-sum solution P(t) of  A(t)' P(t+1) A(t) - P(t) = -I.

    P(t) = sum_k Phi(t+k, t)' Phi(t+k, t), truncated at the horizon where
    the decay envelope, which must dominate the transition matrices (see
    :func:`verify_transition_decay`), drives the remaining mass below
    ``TV_TAIL_TOL``.  A call takes one t, giving P(t), or an array of
    times, giving one P per time; every time is read from one
    :func:`~lyapcert.dynsys.transitions` table.
    """

    def __init__(self, ltv: LinearTV, envelope: ExponentialEnvelope):
        self.ltv = ltv
        self.envelope = envelope
        lam = envelope.rate
        denom = -math.expm1(-2.0 * lam)  # 1 - exp(-2 lam)
        mass = envelope.gain**2 / (denom * TV_TAIL_TOL)
        self.horizon = max(0, math.ceil(math.log(max(mass, 1.0)) / (2.0 * lam)))

    def __call__(self, t) -> np.ndarray:
        table = transitions(self.ltv, t, self.horizon)
        eye = np.eye(self.ltv.dim)
        out = np.zeros((len(table), self.ltv.dim, self.ltv.dim))
        for acc, phis in zip(out, table):
            for phi in phis:
                acc += phi.T @ eye @ phi  # not phi.T @ phi: numpy's syrk rounds differently
            acc[:] = 0.5 * (acc + acc.T)
        return out if np.ndim(t) else out[0]


def verify_transition_decay(
    ltv: LinearTV,
    t0_samples: Sequence[int] = (0, 1, 2, 3, 5, 8),
    horizon: int = 24,
) -> ExponentialEnvelope:
    """Fit a uniform decay envelope over sampled transition matrices.

    For each starting time the spectral norms of Phi(t0+dt, t0) are
    measured over the horizon, all in one table; the envelope rate is the
    slowest fitted decay and the gain is inflated to dominate every sampled
    norm.  The largest sampled norm is reported as ``uniform_bound``.
    DecayNotDetectedError names the first start time, in order, whose norms
    do not decay; no start times raise ValueError.
    """
    if horizon < 2:
        raise ValueError("horizon too short to detect decay")
    if not len(t0_samples):
        raise ValueError("need at least one start time to fit a decay envelope")
    per_t0 = np.linalg.norm(transitions(ltv, t0_samples, horizon), 2, axis=(2, 3))
    decays = per_t0[:, -1] < per_t0[:, 0]
    if not decays.all():
        t0 = t0_samples[int(np.argmin(decays))]
        raise DecayNotDetectedError(f"transition norms from t0={t0} do not decay over the horizon")
    uniform_bound = float(per_t0.max())
    rates = []
    for norms in per_t0:
        mask = norms > 0.0
        ts = np.flatnonzero(mask).astype(float)
        if ts.size >= 2:
            slope = np.polyfit(ts, np.log(norms[mask]), 1)[0]
            if slope < 0.0:
                rates.append(-slope)
    if not rates:
        rates = [math.log(2.0)]  # dead-beat products: no positive tail to fit
    rate = float(min(rates))
    if rate <= 0.0:
        raise DecayNotDetectedError("fitted decay rate is not positive")
    log_k = 0.0
    for norms in per_t0:
        dts = np.arange(norms.size, dtype=float)
        mask = norms > 0.0
        log_k = max(log_k, float(np.max(np.log(norms[mask]) + rate * dts[mask])))
    return ExponentialEnvelope(
        gain=max(1.0, float(np.exp(log_k))),
        rate=rate,
        validity_radius=None,
        uniform_bound=uniform_bound,
    )
