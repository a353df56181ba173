"""Quadratic Lyapunov machinery for linear systems.

Covers the discrete-time matrix equation  A' P A - P = -Q  through two
independent routes: a dense solve for the n(n+1)/2 upper-triangle entries
of the symmetric P with one step of iterative refinement, and the matrix
power series summed by Smith's doubling (k doublings add up the first 2^k
series terms, the count a series solution reports as ``terms``).  Also
spectrum classification with the exact solvability dichotomy, instability
certificates built by rescaling, and the time-varying extension driven by
transition-matrix decay envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .dynsys import ExponentialEnvelope, LinearTV
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
    "solve_tv_lyapunov",
    "verify_transition_decay",
]

TOL_MARGIN = 1e-9
MARGINAL_TOL = 1e-7
TV_TAIL_TOL = 1e-10
KRON_BLOCK_ROWS = 64  # operator rows solve_stein_kron builds per block


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
    method: str  # "kronecker" (symmetric-subspace direct solve) | "series"
    residual: float
    positive_definite: bool
    min_eig: float
    terms: Optional[int] = None
    notes: Tuple[str, ...] = ()


def classify_linear(A: np.ndarray) -> SpectrumReport:
    A = np.asarray(A, dtype=float)
    w = np.linalg.eigvals(A)
    moduli = np.abs(w)
    rho = float(moduli.max())
    schur = rho < 1.0 - TOL_MARGIN
    pair_gap = np.abs(np.multiply.outer(w, w) - 1.0)
    solvable = float(pair_gap.min()) > TOL_MARGIN

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


def solve_stein_kron(A: np.ndarray, Q: np.ndarray) -> SteinSolution:
    """Direct solve of A' P A - P = -Q on the symmetric matrices.

    The unknowns are the m = n(n+1)/2 entries P[k, l], k <= l, of the
    symmetric solution, and Q enters through its symmetric part (the
    symmetric part of the full solution solves the equation with it).
    Row (i, j) and column (k, l), both with i <= j and k <= l, of the
    m x m operator are the rows of kron(A', A') with the (k, l) and (l, k)
    columns folded together, built straight from A:

        A[k, i] A[l, j] + [k != l] A[l, i] A[k, j] - [(i, j) == (k, l)].

    The solution is unpacked into an exactly symmetric P, then refined once
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 12): the upper triangle of the residual  A' P A - P + Q  is solved
    with the same operator and the correction added.  The refinement removes
    most of the error an ill-conditioned operator leaves in the first solve.

    Cost: two dense m x m solves, about n^6 / 6 flops, and at most two
    m x m arrays alive at once, the operator and the solver's factored
    copy (22 MB at n = 48), against 2 n^6 / 3 flops and two n^2 x n^2
    arrays (85 MB) for the full vectorized system.

    Needs the pairwise eigenvalue condition only; works for unstable
    matrices, in which case the solution exists but is not positive
    semidefinite.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    report = classify_linear(A)
    if not report.solvable:
        raise SteinSolvabilityError(
            "eigenvalue product hits 1; the equation has no unique solution"
        )
    n = A.shape[0]
    Qs = 0.5 * (Q + Q.T)
    M, I, J = _stein_operator(A)
    P = _symmetric(np.linalg.solve(M, -Qs[I, J]), I, J, n)
    residual = A.T @ P @ A - P + Qs
    P += _symmetric(np.linalg.solve(M, -residual[I, J]), I, J, n)
    notes: Tuple[str, ...] = ()
    if not report.schur:
        notes = (
            "solution is unique under the pairwise eigenvalue condition, but "
            "positive definiteness additionally requires all moduli < 1",
        )
    return _finalize(P, A, Q, "kronecker", notes=notes)


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
    """Lazily evaluated time-varying quadratic certificate P(t).

    Each P(t) is the transition-weighted tail sum truncated where the decay
    envelope drives the remaining mass below ``TV_TAIL_TOL``, with Q(t)
    bounded by its largest eigenvalue over t = 0..63.  Values are cached
    per t; recomputation is idempotent, so concurrent readers are
    safe.
    """

    def __init__(
        self,
        ltv: LinearTV,
        q_fn: Callable[[int], np.ndarray],
        envelope: ExponentialEnvelope,
    ):
        self.ltv = ltv
        self.q_fn = q_fn
        self.envelope = envelope
        q2 = 0.0
        for tau in range(64):
            q2 = max(q2, float(np.linalg.eigvalsh(np.asarray(q_fn(tau), dtype=float))[-1]))
        self.q2 = max(q2, 1e-300)
        lam = envelope.rate
        denom = -math.expm1(-2.0 * lam)  # 1 - exp(-2 lam)
        mass = self.q2 * envelope.gain**2 / (denom * TV_TAIL_TOL)
        self.horizon = max(0, math.ceil(math.log(max(mass, 1.0)) / (2.0 * lam)))
        self._cache: dict[int, np.ndarray] = {}

    def __call__(self, t: int) -> np.ndarray:
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        n = self.ltv.dim
        phi = np.eye(n)
        acc = np.zeros((n, n))
        for tau in range(t, t + self.horizon + 1):
            Qt = np.asarray(self.q_fn(tau), dtype=float)
            acc += phi.T @ Qt @ phi
            phi = self.ltv.matrix(tau) @ phi
        acc = 0.5 * (acc + acc.T)
        self._cache[t] = acc
        return acc


def solve_tv_lyapunov(
    ltv: LinearTV,
    q_fn: Callable[[int], np.ndarray],
    envelope: ExponentialEnvelope,
) -> TvLyapunov:
    """Tail-sum solution of  A(t)' P(t+1) A(t) - P(t) = -Q(t).

    ``envelope`` must dominate the transition matrices (see
    :func:`verify_transition_decay`); its constants set the truncation
    horizon from the tail estimate.
    """
    return TvLyapunov(ltv, q_fn, envelope)


def verify_transition_decay(
    ltv: LinearTV,
    t0_samples: Sequence[int] = (0, 1, 2, 3, 5, 8),
    horizon: int = 24,
) -> ExponentialEnvelope:
    """Fit a uniform decay envelope over sampled transition matrices.

    For each starting time the spectral norms of Phi(t0+dt, t0) are
    measured over the horizon; the envelope rate is the slowest fitted
    decay and the gain is inflated to dominate every sampled norm.  The
    largest sampled norm is reported as ``uniform_bound``.
    """
    if horizon < 2:
        raise ValueError("horizon too short to detect decay")
    per_t0 = []
    uniform_bound = 0.0
    for t0 in t0_samples:
        phi = np.eye(ltv.dim)
        norms = [1.0]
        for dt in range(1, horizon + 1):
            phi = ltv.matrix(t0 + dt - 1) @ phi
            norms.append(float(np.linalg.norm(phi, 2)))
        norms = np.array(norms)
        uniform_bound = max(uniform_bound, float(norms.max()))
        if norms[-1] >= norms[0]:
            raise DecayNotDetectedError(
                f"transition norms from t0={t0} do not decay over the horizon"
            )
        per_t0.append(norms)
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
