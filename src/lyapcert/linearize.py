"""First-order certificates: linearize at an equilibrium, then bound the rest.

For a map with a Schur linear part the quadratic form from the matrix
equation keeps decreasing under the full nonlinear dynamics inside a ball
whose radius is computed from the decrement margin and a sampled
Lipschitz constant of the Jacobian.  An expanding linear part yields an
instability witness instead; a spectral radius within margin of 1 is
reported as inconclusive rather than guessed.

:func:`numerical_jacobian` is the package's only finite-difference
Jacobian; a map that is exactly linear is read by ``dynsys.linear_part``
instead, which refuses nonlinear maps.  It takes one state or an (S, n)
batch of states, at one time or an (S,) array of times, and reads every
perturbed point of the batch in one map call, each sample's Jacobian
equal bit for bit to its one-state call; the nonautonomous certifier
reads its Jacobian family A(t) through it, all missing times in one call.  The autonomous and nonautonomous
certifiers share one radius computation (``_remainder_radius``), whose
sampled Lipschitz constant of the Jacobian reads a whole sample set's
Jacobians, at every time, with one map call.  :func:`validate_basin` steps every
trial together through ``dynsys.trajectories``, a window of steps at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .certcheck import ConditionReport
from .converse import estimate_lipschitz
from .dynsys import BatchMap, DynSystem, ExponentialEnvelope, LinearTV, batch_map, trajectories
from .dynsys import _row_norms
from .errors import InapplicableError
from .rng import Rng
from .stein import (
    SpectrumReport,
    TOL_MARGIN,
    TvLyapunov,
    classify_linear,
    instability_certificate,
    solve_stein_kron,
    verify_transition_decay,
)

__all__ = [
    "JacobianEstimate",
    "LocalCertificate",
    "numerical_jacobian",
    "certify_local_autonomous",
    "certify_local_nonautonomous",
    "validate_basin",
    "STABLE",
    "UNSTABLE",
    "BASIN_CONVERGENCE",
]

STABLE = "exponentially_stable"
UNSTABLE = "unstable"
BASIN_CONVERGENCE = "basin_convergence"

FD_BASE = 1e-6
LINEAR_TOL = 1e-12
T_SAMPLES = (0, 1, 2, 3, 5, 8)  # times a nonautonomous certificate samples
BASIN_MAX_STEPS = 10_000
BASIN_TOL = 1e-10
BASIN_WINDOW = 64  # steps per trajectories call, which bounds its state table

MapFn = Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class JacobianEstimate:
    """Central-difference Jacobian with a step-halving error estimate.

    ``A`` comes from the finer step; ``error_estimate`` is the largest
    entrywise gap between the two passes, an upper proxy for the
    truncation error actually committed.  The estimate of a batch of
    states holds an array with one entry per sample in every field.
    """

    A: np.ndarray
    fd_step: Union[float, np.ndarray]
    error_estimate: Union[float, np.ndarray]


@dataclass(frozen=True)
class LocalCertificate:
    """Outcome of linearization-based certification around an equilibrium.

    For the stable verdict, V(x) = (x-eq)' P (x-eq) decreases under the
    full dynamics for ``|x - eq| <= delta_bar``; ``gamma_star`` is the
    admissible relative remainder size and ``remainder_gain`` converts it
    into the radius (``delta_bar = gamma_star / remainder_gain`` before
    clipping to the declared domain).  For the unstable verdict,
    ``instability_P`` and ``instability_gamma`` witness growth of
    -x' P1 x near the origin and the ball-valid fields are None.
    """

    verdict: str
    equilibrium: np.ndarray
    jacobian: JacobianEstimate
    spectrum: Optional[SpectrumReport]
    Q: Union[np.ndarray, Callable[[int], np.ndarray], None] = None
    P: Union[np.ndarray, TvLyapunov, None] = None
    q1: Optional[float] = None
    p2: Optional[float] = None
    gamma_star: Optional[float] = None
    jacobian_lipschitz: Optional[float] = None
    remainder_gain: Optional[float] = None
    delta_bar: Optional[float] = None
    envelope: Optional[ExponentialEnvelope] = None
    instability_P: Optional[np.ndarray] = None
    instability_gamma: Optional[float] = None
    notes: Tuple[str, ...] = ()


def numerical_jacobian(
    sys_or_fn: Union[DynSystem, MapFn],
    t: int = 0,
    x: Optional[np.ndarray] = None,
) -> JacobianEstimate:
    """Jacobian of the map at (t, x) by two-pass central differences.

    The step is ``FD_BASE * max(1, |x|)``; a second pass at half the
    step supplies both the returned matrix and the error estimate.  ``x``
    is one state, or an (S, n) batch of states, whose estimate carries a
    leading sample axis in every field (``A`` is (S, m, n)), each sample
    equal bit for bit to its one-state estimate.  ``t`` is one time, or
    for a batch an (S,) array of sample times (another length raises
    ValueError); for a system ``x`` defaults to its equilibrium, at each
    time.  Every perturbed point of every sample is read in one map call,
    sample by sample, the coarse pass before the fine, column by column,
    x + h e_i before x - h e_i, so a plain map (adapted by
    :func:`~lyapcert.dynsys.batch_map`) is called in that order and a
    raising map raises for the first failing point in it.  A state with a
    NaN or infinite entry, or a norm that overflows, raises ValueError
    naming it, and so does a NaN or infinite map value, naming the first
    such sample's t and x.
    """
    if isinstance(sys_or_fn, DynSystem):
        fn: MapFn = sys_or_fn.map_fn
        if x is None:
            x = np.broadcast_to(sys_or_fn.equilibrium, np.shape(t) + (sys_or_fn.dim,))
    else:
        fn = batch_map(sys_or_fn)
        if x is None:
            raise ValueError("x is required when passing a bare map")
    x = np.asarray(x, dtype=float)
    states = x if x.ndim == 2 else x.reshape(1, -1)
    if np.ndim(t) and (x.ndim != 2 or np.shape(t) != (len(x),)):
        raise ValueError(f"times of shape {np.shape(t)} for states of shape {x.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = _row_norms(states)
    finite = np.isfinite(norms)
    if not finite.all():
        bad = states[int(np.argmin(finite))]
        raise ValueError(f"numerical Jacobian at a non-finite state x={bad.tolist()}")
    size, n = states.shape
    h = FD_BASE * np.maximum(1.0, norms)
    steps = np.stack([h, h / 2.0], axis=1)  # (S, pass)
    shift = steps[:, :, None, None] * np.eye(n)  # shift[s, pass, i] = steps[s, pass] * e_i
    base = states[:, None, None, :]
    points = np.stack([base + shift, base - shift], axis=3)  # (S, pass, i, hi/lo, n)
    times = np.repeat(t, 4 * n) if np.ndim(t) else t
    values = fn(times, points.reshape(-1, n)).reshape(size, 2, n, 2, -1)
    finite = np.isfinite(values).reshape(size, -1).all(axis=1)
    if not finite.all():
        s = int(np.argmin(finite))
        at = np.asarray(t)[s] if np.ndim(t) else t
        raise ValueError(
            f"non-finite map value in the numerical Jacobian at t={at}, x={states[s].tolist()}"
        )
    columns = (values[:, :, :, 0] - values[:, :, :, 1]) / (2.0 * steps[:, :, None, None])
    coarse = columns[:, 0].swapaxes(1, 2)
    fine = np.ascontiguousarray(columns[:, 1].swapaxes(1, 2))
    error = np.max(np.abs(fine - coarse), axis=(1, 2))
    if x.ndim == 2:
        return JacobianEstimate(A=fine, fd_step=steps[:, 1], error_estimate=error)
    return JacobianEstimate(A=fine[0], fd_step=float(steps[0, 1]), error_estimate=float(error[0]))


def _remainder_radius(
    shifted: DynSystem,
    dim: int,
    gamma_star: float,
    domain_radius: float,
    rng: Rng,
    count: int,
    times: Sequence[int],
) -> Tuple[float, float, float, Tuple[str, ...]]:
    """Jacobian Lipschitz constant L1, remainder gain and ball radius delta_bar.

    L1 is the sampled Lipschitz constant of x -> J(t, x) (Frobenius) of
    the ``shifted`` system's map over the domain, then over the first
    candidate ball gamma_star/(sqrt(n)*L1), the larger value kept;
    delta_bar is that ratio with the final L1, clipped to the domain.  A
    Jacobian constant within sampling tolerance gives the domain radius.
    """

    @BatchMap
    def vec_jac(t: int, x: np.ndarray) -> np.ndarray:
        return numerical_jacobian(shifted, t, x).A.reshape(np.shape(x)[:-1] + (-1,))

    def lipschitz(radius: float, tag: int) -> float:
        points = np.vstack([np.zeros(dim), rng.spawn(tag).draw(count, ("ball", dim, radius))[0]])
        return estimate_lipschitz(vec_jac, points, times=times)

    L1 = lipschitz(domain_radius, 1)
    if L1 <= LINEAR_TOL:
        return 0.0, 0.0, domain_radius, (
            "jacobian constant within sampling tolerance; domain radius used",
        )
    root_n = math.sqrt(dim)
    L1 = max(L1, lipschitz(min(gamma_star / (root_n * L1), domain_radius), 2))
    remainder_gain = root_n * L1
    return L1, remainder_gain, min(gamma_star / remainder_gain, domain_radius), ()


def certify_local_autonomous(
    sys: DynSystem,
    domain_radius: float = 1.0,
    seed: int = 0x10CA1,
) -> LocalCertificate:
    """Certify the equilibrium of an autonomous map by its linearization.

    Schur linear part: solve A'PA - P = -Q with Q = I for P, take
    gamma_star as the positive root of  p2*g^2 + 2*p2*B*g - q1 = 0  with
    B = max(1, |A|), and shrink the ball until the sampled remainder gain
    sqrt(n)*L1*|x| stays below gamma_star.  The Lipschitz constant is
    estimated twice (over the domain, then over the candidate ball, from
    64 draws each) and the larger value kept.  Expanding linear part:
    return an instability witness.  Spectral radius within margin of 1:
    raise InapplicableError.
    """
    if domain_radius <= 0.0:
        raise ValueError("domain_radius must be positive")
    shifted = sys.shifted()
    est = numerical_jacobian(shifted, 0)
    spectrum = classify_linear(est.A)
    eq = sys.equilibrium

    if spectrum.spectral_radius > 1.0 + TOL_MARGIN:
        P1, gamma = instability_certificate(est.A)
        return LocalCertificate(
            verdict=UNSTABLE,
            equilibrium=eq,
            jacobian=est,
            spectrum=spectrum,
            instability_P=P1,
            instability_gamma=gamma,
            notes=("linear part has an expanding eigenvalue",),
        )
    if not spectrum.schur:
        raise InapplicableError(
            "first-order test inconclusive: spectral radius "
            f"{spectrum.spectral_radius:.12f} is within margin of 1"
        )

    Q = np.eye(sys.dim)
    sol = solve_stein_kron(est.A, Q)
    q1 = 1.0  # the least eigenvalue of Q = I
    p2 = float(np.linalg.eigvalsh(sol.P)[-1])
    # the gain clamp covers maps with |A| > 1; for |A| <= 1 this is the
    # unit-gain root  -1 + sqrt(1 + q1/p2)
    B = max(1.0, float(np.linalg.norm(est.A, 2)))
    gamma_star = -B + math.sqrt(B * B + q1 / p2)

    L1, remainder_gain, delta_bar, notes = _remainder_radius(
        shifted, sys.dim, gamma_star, domain_radius, Rng(seed), 64, (0,)
    )
    return LocalCertificate(
        verdict=STABLE,
        equilibrium=eq,
        jacobian=est,
        spectrum=spectrum,
        Q=Q,
        P=sol.P,
        q1=q1,
        p2=p2,
        gamma_star=gamma_star,
        jacobian_lipschitz=L1,
        remainder_gain=remainder_gain,
        delta_bar=delta_bar,
        notes=tuple(sol.notes) + notes,
    )


def certify_local_nonautonomous(
    sys: DynSystem,
    domain_radius: float = 1.0,
    seed: int = 0x10CA2,
) -> LocalCertificate:
    """Certify a time-varying equilibrium via per-time linearizations.

    The Jacobian family A(t) must admit a uniform decay envelope (checked
    by transition-matrix fitting from the times ``T_SAMPLES``); P(t) then
    comes from the tail sum with Q(t) = I.  The Lipschitz constant of the
    Jacobian is sampled from 48 draws at the same times.  The ball radius
    solves  p2*(L*d)^2 + 2*p2*B_A*(L*d) - q1 = 0  with B_A the sampled
    bound on |A(t)| and L = sqrt(n)*L1 the remainder gain, so
    delta_bar = (-B_A + sqrt(B_A^2 + q1/p2)) / L.
    """
    if domain_radius <= 0.0:
        raise ValueError("domain_radius must be positive")
    shifted = sys.shifted()
    ltv = LinearTV(sys.dim, BatchMap(lambda times: numerical_jacobian(shifted, times).A))
    envelope = verify_transition_decay(ltv, t0_samples=T_SAMPLES)
    tvP = TvLyapunov(ltv, envelope)

    q1 = 1.0  # the least eigenvalue of Q(t) = I
    p2 = 0.0
    for P in tvP(T_SAMPLES):
        p2 = max(p2, float(np.linalg.eigvalsh(P)[-1]))
    B_A = float(np.linalg.norm(ltv.matrices(T_SAMPLES), 2, axis=(1, 2)).max())
    gamma_star = -B_A + math.sqrt(B_A * B_A + q1 / p2)

    L1, remainder_gain, delta_bar, notes = _remainder_radius(
        shifted, sys.dim, gamma_star, domain_radius, Rng(seed), 48, T_SAMPLES
    )
    return LocalCertificate(
        verdict=STABLE,
        equilibrium=sys.equilibrium,
        jacobian=numerical_jacobian(shifted, T_SAMPLES[0]),
        spectrum=None,
        Q=lambda t: np.eye(sys.dim),
        P=tvP,
        q1=q1,
        p2=p2,
        gamma_star=gamma_star,
        jacobian_lipschitz=L1,
        remainder_gain=remainder_gain,
        delta_bar=delta_bar,
        envelope=envelope,
        notes=notes,
    )


def validate_basin(
    sys: DynSystem,
    cert: LocalCertificate,
    trials: int = 100,
    seed: int = 0xBA51,
) -> ConditionReport:
    """Empirically drive random starts in the certified ball to the equilibrium.

    Each trial starts uniformly inside the delta_bar ball and must come
    within ``BASIN_TOL * delta_bar`` of the equilibrium inside
    ``BASIN_MAX_STEPS`` steps.  A trial's slack is (threshold - final distance) /
    delta_bar, and -inf when the trajectory diverges (see
    :func:`~lyapcert.dynsys.trajectories`); divergence or an exhausted
    budget fails the report with the offending start recorded, and
    ``divergence_step`` is the step of the last diverging trial.  The
    trials step together, ``BASIN_WINDOW`` steps per call; a trial leaves
    at the step it converges or diverges.
    """
    if cert.delta_bar is None:
        raise ValueError("certificate carries no ball radius (unstable verdict?)")
    delta = cert.delta_bar
    eq = np.asarray(cert.equilibrium, dtype=float)
    threshold = BASIN_TOL * delta
    (balls,) = Rng(seed).draw(max(0, trials), ("ball", sys.dim, delta))
    starts = eq + balls

    def settled(states: np.ndarray) -> np.ndarray:
        return _row_norms(states - eq) <= threshold

    converged_at = np.zeros(len(starts), dtype=int)  # 0: never converged
    diverged_at = np.zeros(len(starts), dtype=int)  # 0: never diverged
    err = np.empty(len(starts))  # distance at the step the trial stopped
    live, x, done = np.arange(len(starts)), starts, 0
    while live.size and done < BASIN_MAX_STEPS:
        length = min(BASIN_WINDOW, BASIN_MAX_STEPS - done)
        states, diverged = trajectories(sys.step, done, x, length, stop=settled)
        dist = _row_norms(states[:, 1:] - eq)  # NaN after the step a row leaves at
        hit = dist <= threshold
        first = hit.argmax(axis=1)
        converged = hit[np.arange(len(live)), first]
        gone = ~converged & (diverged > 0)
        err[live] = dist[:, -1]
        err[live[converged]] = dist[converged, first[converged]]
        err[live[gone]] = math.inf
        converged_at[live[converged]] = done + first[converged] + 1
        diverged_at[live[gone]] = done + diverged[gone]
        running = ~(converged | gone)
        live, x, done = live[running], states[running, -1], done + length
    details: dict = {"threshold": threshold, "max_steps": BASIN_MAX_STEPS}
    if diverged_at.any():
        details["divergence_step"] = int(diverged_at[np.flatnonzero(diverged_at)[-1]])
    details["failures"] = int(np.count_nonzero(converged_at == 0))
    details["longest_run"] = int(converged_at.max(initial=0))
    slack = (threshold - err) / delta
    return ConditionReport.from_slack(BASIN_CONVERGENCE, slack, np.zeros(len(starts)), starts, details)
