"""Composite certificates for slow/fast pairs via error coordinates.

The fast state is rewritten as y' = y - ystar(x).  A trajectory-sum
certificate W for the frozen fast dynamics and a window-sum certificate
V' for the averaged slow dynamics are added into U = V' + W, whose
one-step decrement is dominated by a 2x2 quadratic form Q_U(eps) in
(|x|, |y'|).  Negative definiteness of Q_U on an amplitude interval
yields a semiglobal exponential rate; sampled checks re-verify every
inequality the construction claims.

Every slow/fast sample set is one :class:`~lyapcert.dynsys.SlowFastSamples`
batch (k, x, yerr), read by field name from the draw to the report.
``_stacked_samples`` draws (x, y') from one joint ball; the fast-subsystem
sampler in ``converse`` draws x and y' from separate balls.
``_error_step`` is the one step of the pair in (x, y') coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .averaging import (
    AveragedCertificate,
    build_averaged_lyapunov,
    estimate_average,
    estimate_sigma,
    fit_slow_constants,
)
from .certcheck import CandidateFunction, ConditionReport, TOL_ABS, worst_index
from .converse import (
    ConverseCertificate,
    _first_min,
    build_exponential_converse,
    check_envelope_hypothesis,
)
from .dynsys import (
    SlowFastSamples,
    SlowFastSystem,
    Trajectory,
    _row_norms,
    _row_squares,
    fit_exponential_envelope,
    sample_rows,
    state_batched,
)
from .errors import CertificateNotFoundError, StageError
from .rng import Rng

__all__ = [
    "EllConstants",
    "CoefficientRecord",
    "CompositeCertificate",
    "estimate_ell_constants",
    "assemble_coefficients",
    "q_matrix",
    "find_eps_r",
    "certify_semiglobal",
    "verify_composite",
    "validate_rate",
    "SANDWICH",
    "DECREMENT_DOMINATION",
    "RATE_REALIZATION",
    "CERTIFIED_RATE",
]

SANDWICH = "sandwich"
DECREMENT_DOMINATION = "decrement_domination"
RATE_REALIZATION = "rate_realization"
CERTIFIED_RATE = "certified_rate"

ELL_SAFETY = 1.1
ELL_EPS_PROBE = 1e-3
DENOM_TOL = 1e-14
EPS_GRID_FLOOR = 1e-9


@dataclass(frozen=True)
class EllConstants:
    """Interaction moduli of the coupled pair over a ball.

    l1 bounds the frozen slow field |phi(k,x,ystar(x))| / |x|; l2 its
    sensitivity to the fast error; l3 the fast contraction toward the
    manifold; l4 the manifold displacement per unit slow step.  r_bar is
    the state bound the samples respected (the estimation ball radius r0)
    and r_tilde the largest sampled |ystar(x)|.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    r_bar: float
    r_tilde: float
    r0: float


@dataclass(frozen=True)
class CoefficientRecord:
    """Polynomial-in-eps coefficients of the 2x2 decrement form.

    Q_U(eps) = [[A_V+A_W, (B_V+B_W)/2], [., C_V+C_W]] with
    A_V = -eps*vA1, B_V = eps*vB1 + eps^2*vB2, C_V = eps^2*vC1,
    A_W = eps^2*wA1, B_W = eps*wB1 + eps^2*wB2,
    C_W = -wC1 + eps*wC2 + eps^2*wC3.
    """

    vA1: float
    vB1: float
    vB2: float
    vC1: float
    wA1: float
    wB1: float
    wB2: float
    wC1: float
    wC2: float
    wC3: float
    parameter_lipschitz_verified: bool = True


@dataclass(frozen=True)
class CompositeCertificate:
    """Joint slow/fast certificate U = V' + W with its decay data.

    For amplitudes eps in (0, eps_r), states started in the r-ball of
    (x, y') satisfy  alpha*|z|^2 <= U <= beta*|z|^2,  the decrement is
    dominated by Q_U(eps), and  |x(k)|^2 <= C_r*(1-eps*gamma_r)^k.
    ``evaluator`` has signature (k, x, yerr, eps).
    """

    r: float
    r0: float
    alpha: float
    beta: float
    slow_cert: AveragedCertificate
    fast_cert: ConverseCertificate
    ell: EllConstants
    coeffs: CoefficientRecord
    eps_star: float
    eps_r: float
    ell_U: float
    gamma_r: float
    C_r: float
    notes: Tuple[str, ...] = ()
    evaluator: Callable[[int, np.ndarray, np.ndarray, float], float] = None  # type: ignore


def _error_step(
    sysf: SlowFastSystem, k, x: np.ndarray, yerr: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One step of the coupled pair in (x, y') coordinates at amplitude eps,
    of one sample or of a batch (see :func:`~lyapcert.dynsys.sample_rows`)."""
    x = np.asarray(x, dtype=float)
    yerr = np.asarray(yerr, dtype=float)
    x_next, y_next = sysf.step(k, x, yerr + sample_rows(sysf.ystar, x), eps)
    return x_next, y_next - sample_rows(sysf.ystar, x_next)


def _stacked_samples(sysf: SlowFastSystem, radius: float, count: int, rng: Rng) -> SlowFastSamples:
    """``count`` samples with k in 0..3 and (x, y') drawn from one joint radius ball."""
    ks, zs = rng.draw(count, ("integer", 0, 3), ("ball", sysf.dim_x + sysf.dim_y, radius))
    return SlowFastSamples(ks, zs[:, : sysf.dim_x], zs[:, sysf.dim_x:])


def _ell_ratios(sysf: SlowFastSystem, samples: SlowFastSamples) -> dict:
    """Defining ratios of the four moduli on slow/fast samples.

    Samples whose denominator vanishes are skipped; the caller decides
    what an empty family means.  A NaN or infinite map value or ratio
    raises ValueError naming the first such sample, since a maximum would
    skip it.  Each map is called once over the samples it is needed at.
    """
    names = ("ystar_norm", "phi_norm", "l1", "l2", "l3", "l4")
    ratios: dict = {"l1": [], "l2": [], "l3": [], "l4": [], "ystar_norm": []}
    ks, x, yerr = samples
    if not len(ks):
        return ratios
    ys = sample_rows(sysf.ystar, x)
    nx, ny = _row_norms(x), _row_norms(yerr)
    phi_frozen = sample_rows(sysf.phi, ks, x, ys)
    phi_full = sample_rows(sysf.phi, ks, x, yerr + ys)
    nphi = _row_norms(phi_full)
    every = np.ones(len(ks), dtype=bool)
    found = {"ystar_norm": (every, _row_norms(ys)), "phi_norm": (every, nphi)}
    with np.errstate(all="ignore"):
        found["l1"] = (nx > DENOM_TOL, _row_norms(phi_frozen) / nx)
        live = ny > DENOM_TOL
        found["l2"] = (live, _row_norms(phi_full - phi_frozen) / ny)
        l3 = np.zeros(len(ks))
        if live.any():
            fast_next = sample_rows(sysf.varphi, ks[live], (yerr + ys)[live], x[live])
            l3[live] = _row_norms(fast_next - ys[live]) / ny[live]
        found["l3"] = (live, l3)
        moving = nphi > DENOM_TOL
        l4 = np.zeros(len(ks))
        if moving.any():
            shifted = sample_rows(sysf.ystar, x[moving] + ELL_EPS_PROBE * phi_full[moving])
            l4[moving] = _row_norms(shifted - ys[moving]) / (ELL_EPS_PROBE * nphi[moving])
        found["l4"] = (moving, l4)
    bad = np.zeros(len(ks), dtype=bool)
    for name in names:
        mask, value = found[name]
        bad |= mask & ~np.isfinite(value)
    if bad.any():
        i = int(np.argmax(bad))
        name = next(n for n in names if found[n][0][i] and not math.isfinite(found[n][1][i]))
        raise ValueError(
            f"non-finite {name} at k={ks[i]}, x={x[i].tolist()}, yerr={yerr[i].tolist()}"
        )
    for name in ratios:
        mask, value = found[name]
        ratios[name] = value[mask].tolist()
    return ratios


def estimate_ell_constants(
    sysf: SlowFastSystem,
    r0: float,
    samples: Optional[SlowFastSamples] = None,
    n_samples: int = 96,
    seed: int = 0x711,
) -> EllConstants:
    """Sampled interaction moduli over the r0-ball, inflated by ``ELL_SAFETY``.

    The manifold-displacement modulus l4 is probed at the small amplitude
    ``ELL_EPS_PROBE`` (the amplitude cancels in the ratio); samples where
    the full slow field vanishes carry a provably zero displacement and are skipped, so
    an empty l4 family collapses to zero.
    """
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    if samples is None:
        samples = _stacked_samples(sysf, r0, n_samples, Rng(seed))
    ratios = _ell_ratios(sysf, samples)
    for name in ("l1", "l2", "l3"):
        if not ratios[name]:
            raise ValueError(
                f"all samples excluded when estimating {name}; "
                "supply samples with nonzero state components"
            )
    l4 = ELL_SAFETY * max(ratios["l4"]) if ratios["l4"] else 0.0
    return EllConstants(
        l1=ELL_SAFETY * max(ratios["l1"]),
        l2=ELL_SAFETY * max(ratios["l2"]),
        l3=ELL_SAFETY * max(ratios["l3"]),
        l4=l4,
        r_bar=r0,
        r_tilde=max(ratios["ystar_norm"]),
        r0=r0,
    )


def assemble_coefficients(
    slow: AveragedCertificate,
    fast: ConverseCertificate,
    ell: EllConstants,
) -> CoefficientRecord:
    """Combine slow (a3, a4), fast (b3, b4, b5) and ell constants.

    When the fast certificate lacks the frozen-parameter modulus b5 its
    cross terms are dropped and the record is marked unverified so the
    caller can bound parameter sensitivity by direct sampling instead.
    """
    a3, a4 = slow.a3, slow.a4
    b3, b4 = fast.a3, fast.a4
    if b4 is None:
        raise ValueError("fast certificate lacks a state-Lipschitz modulus")
    if min(a3, a4, b3, b4) <= 0.0:
        raise ValueError("certificate constants must be positive")
    b5 = fast.a5
    verified = b5 is not None
    b5 = 0.0 if b5 is None else b5
    l1, l2, l3, l4 = ell.l1, ell.l2, ell.l3, ell.l4
    rr = ell.r_bar + ell.r_tilde
    return CoefficientRecord(
        vA1=a3,
        vB1=2.0 * a4 * l2,
        vB2=2.0 * a4 * l2 * l1,
        vC1=a4 * l2 ** 2,
        wA1=b4 * l1 ** 2 * l2 * l4,
        wB1=2.0 * b4 * l1 * l2 * l3 + b5 * l1 * l3 ** 2 * rr,
        wB2=2.0 * b4 * l1 * l2 ** 2 * l4,
        wC1=b3,
        wC2=2.0 * b4 * l2 ** 2 * l3 + b5 * l2 * l3 ** 2 * rr,
        wC3=b4 * l2 ** 3 * l4,
        parameter_lipschitz_verified=verified,
    )


def q_matrix(coeffs: CoefficientRecord, eps: float) -> np.ndarray:
    """The 2x2 decrement form Q_U(eps) acting on (|x|, |y'|)."""
    c = coeffs
    a_v = -eps * c.vA1
    b_v = eps * c.vB1 + eps ** 2 * c.vB2
    c_v = eps ** 2 * c.vC1
    a_w = eps ** 2 * c.wA1
    b_w = eps * c.wB1 + eps ** 2 * c.wB2
    c_w = -c.wC1 + eps * c.wC2 + eps ** 2 * c.wC3
    off = (b_v + b_w) / 2.0
    return np.array([[a_v + a_w, off], [off, c_v + c_w]])


def _negative_definite(coeffs: CoefficientRecord, eps: float) -> bool:
    q = q_matrix(coeffs, eps)
    return q[0, 0] < 0.0 and float(np.linalg.det(q)) > 0.0


def _ell_u(coeffs: CoefficientRecord, eps_r: float) -> float:
    """Conservative decrement-per-amplitude over the working grid.

    -lambda_max(Q_U(eps))/eps is evaluated on a geometric grid of 48
    amplitudes from eps_r/1000 to eps_r and the minimum kept, so
    Q_U(eps) <= -eps*ell_U*I holds at every probed amplitude.
    """
    worst = math.inf
    for eps in np.geomspace(eps_r * 1e-3, eps_r, 48):
        lam = float(np.linalg.eigvalsh(q_matrix(coeffs, float(eps)))[-1])
        worst = min(worst, -lam / float(eps))
    if worst <= 0.0:
        raise CertificateNotFoundError(
            f"decrement form is not uniformly negative below eps = {eps_r:.3e}"
        )
    return worst


def find_eps_r(coeffs: CoefficientRecord) -> Tuple[float, float]:
    """Largest certified amplitude (halved for safety) and its decrement rate.

    Scans a geometric grid of 120 amplitudes from ``EPS_GRID_FLOOR`` to 1
    for the negative-definiteness of Q_U, bisects the boundary 60 times to
    get eps*, and returns (eps_r, ell_U) with
    eps_r = eps*/2 and ell_U the grid minimum of -lambda_max(Q_U)/eps.
    """
    if coeffs.vA1 <= 0.0:
        raise CertificateNotFoundError("no decrease in the slow direction (vA1 <= 0)")
    if coeffs.wC1 <= 0.0:
        raise CertificateNotFoundError("no decrease in the fast direction (wC1 <= 0)")
    grid = np.geomspace(EPS_GRID_FLOOR, 1.0, 120)
    flags = [_negative_definite(coeffs, float(e)) for e in grid]
    if not flags[0]:
        raise CertificateNotFoundError(
            "decrement form is indefinite even at the smallest probed amplitude"
        )
    if all(flags):
        eps_star = float(grid[-1])
    else:
        first_bad = flags.index(False)
        lo, hi = float(grid[first_bad - 1]), float(grid[first_bad])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _negative_definite(coeffs, mid):
                lo = mid
            else:
                hi = mid
        eps_star = lo
    eps_r = eps_star / 2.0
    return eps_r, _ell_u(coeffs, eps_r)


def _fast_trajectories(sysf: SlowFastSystem, radius: float, rng: Rng, horizon: int) -> list:
    """Frozen fast trajectories: 4 slow states (the origin, then 3 ball
    draws), each with 4 fast errors from the ball started at
    k0 = (i + j) mod 3, from one ``fast_trajectories`` call; a diverged
    trajectory carries NaN, which the envelope fit refuses."""
    y = ("ball", sysf.dim_y, radius)
    (origin_ys,) = rng.draw(4, y)
    x, *ys = rng.draw(3, ("ball", sysf.dim_x, radius), y, y, y, y)  # row i: x, then its 4 y
    xs = np.repeat(np.vstack([np.zeros(sysf.dim_x), x]), 4, axis=0)
    starts = np.vstack([origin_ys, np.stack(ys, axis=1).reshape(-1, sysf.dim_y)])
    k0 = np.array([(i + j) % 3 for i in range(4) for j in range(4)])
    states, _ = sysf.fast_trajectories(k0, starts, xs, horizon)
    return [Trajectory(int(k), traj) for k, traj in zip(k0, states)]


def certify_semiglobal(
    sysf: SlowFastSystem,
    r: float,
    V_slow: CandidateFunction,
    seed: int = 2024,
) -> CompositeCertificate:
    """Full pipeline from a slow/fast pair to a composite rate certificate.

    Stages: fit a decay envelope for the frozen fast subsystem, build its
    trajectory-sum certificate, average the frozen slow field and build
    the window-sum certificate for V_slow, estimate interaction moduli
    over the ball r0 = r*beta/alpha, assemble Q_U, and search the
    admissible amplitude range.  The fast envelope is fitted on 4 x 4
    frozen trajectories of 24 steps; the slow field is averaged over 512
    steps at one probe array, 8 ball draws and the r-scaled unit vectors,
    which the averaged field keeps: sigma is tabulated at windows 1, 2, 4,
    ..., 64 with its growth bound read from the same windows (stage
    'slow-sigma'), and the slow constants from the kept means.  Any stage
    failure is re-raised tagged with the stage name.  The certified rate is
    gamma_r = ell_U / beta: dividing by the upper sandwich constant is what
    makes the pointwise inequality  dU <= -eps*gamma_r*U  follow from
    dU <= -eps*ell_U*|z|^2.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    rng = Rng(seed)
    notes: Tuple[str, ...] = ()

    def stage(name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    def fit_fast_envelope():
        trajs = _fast_trajectories(sysf, r, rng.spawn(1), 24)
        env = fit_exponential_envelope(trajs)
        hyp = _stacked_samples(sysf, r, 16, rng.spawn(2))
        check_envelope_hypothesis(sysf, env, hyp)
        return env

    env = stage("fast-envelope", fit_fast_envelope)
    fast = stage(
        "fast-converse",
        build_exponential_converse,
        sysf,
        env,
        radius=r,
        seed=rng.spawn(3).u64(),
    )

    @state_batched
    def phi1(k: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return sample_rows(sysf.phi, k, x, sample_rows(sysf.ystar, x))

    (balls,) = rng.spawn(4).draw(8, ("ball", sysf.dim_x, r))
    probes = np.vstack([balls, r * np.eye(sysf.dim_x)])

    avg = stage("slow-average", estimate_average, phi1, probes, 512)
    if avg.warning:
        notes += (avg.warning,)
    windows = (1, 2, 4, 8, 16, 32, 64)
    table = stage("slow-sigma", estimate_sigma, phi1, avg, windows)
    constants = stage("slow-constants", fit_slow_constants, V_slow, avg)
    slow = stage(
        "slow-certificate",
        build_averaged_lyapunov,
        V_slow,
        constants,
        phi1,
        table,
        avg.probes,
    )

    b1, b2 = fast.a1, fast.a2
    alpha = min(slow.a1, b1)
    beta = max(slow.a2, b2)
    r0 = r * beta / alpha
    ell = stage("ell-constants", estimate_ell_constants, sysf, r0, seed=rng.spawn(5).u64())
    coeffs = stage("coefficients", assemble_coefficients, slow, fast, ell)
    if not coeffs.parameter_lipschitz_verified:
        notes += ("frozen-parameter sensitivity bounded by direct sampling, not b5",)
    notes += (
        "fast-error cross terms use the manifold-displacement modulus l4",
        "state bound r_bar enforced by sampling within the r0 ball",
    )

    eps_r_raw, ell_U = stage("eps-search", find_eps_r, coeffs)
    eps_star = 2.0 * eps_r_raw
    eps_r = min(eps_r_raw, slow.eps_c)
    if eps_r < eps_r_raw:
        ell_U = stage("eps-search", _ell_u, coeffs, eps_r)
        notes += ("amplitude range clipped by the slow certificate's eps_c",)
    gamma_r = ell_U / beta
    C_r = (beta / alpha) * r ** 2

    @state_batched
    def evaluator(k: int, x: np.ndarray, yerr: np.ndarray, eps: float) -> float:
        total = sample_rows(slow.evaluator, k, x, eps) + sample_rows(fast.evaluator, k, yerr, x)
        return total if np.ndim(x) == 2 else float(total)

    return CompositeCertificate(
        r=r,
        r0=r0,
        alpha=alpha,
        beta=beta,
        slow_cert=slow,
        fast_cert=fast,
        ell=ell,
        coeffs=coeffs,
        eps_star=eps_star,
        eps_r=eps_r,
        ell_U=ell_U,
        gamma_r=gamma_r,
        C_r=C_r,
        notes=notes,
        evaluator=evaluator,
    )


def verify_composite(
    sysf: SlowFastSystem,
    cert: CompositeCertificate,
    n_samples: int = 1000,
    eps_values: Optional[Sequence[float]] = None,
    seed: int = 0x77E57,
) -> list:
    """Re-check the three composite inequalities on fresh samples.

    For each (k, x, y') in the r-ball and each amplitude below eps_r:
    the sandwich alpha*|z|^2 <= U <= beta*|z|^2, the domination
    dU <= (|x|,|y'|) Q_U(eps) (|x|,|y'|)' + tol, and the realized rate
    dU <= -eps*gamma_r*U + tol.  Each slack carries the tolerance TOL_ABS.
    At each amplitude, U, the step and U after it are each one call over
    every sample (see :func:`~lyapcert.dynsys.sample_rows`).
    """
    if eps_values is None:
        eps_values = np.geomspace(cert.eps_r / 8.0, cert.eps_r * (1.0 - 1e-9), 4)
    ks, x, yerr = _stacked_samples(sysf, cert.r, n_samples, Rng(seed))
    slack = {SANDWICH: [], DECREMENT_DOMINATION: [], RATE_REALIZATION: []}
    z2 = _row_squares(x) + _row_squares(yerr)
    zvec = np.column_stack([_row_norms(x), _row_norms(yerr)])
    rounds = [float(e) for e in eps_values] if len(ks) else []
    for eps in rounds:
        q = q_matrix(cert.coeffs, eps)
        u0 = sample_rows(cert.evaluator, ks, x, yerr, eps)
        slack[SANDWICH].append(_first_min(u0 - cert.alpha * z2, cert.beta * z2 - u0) + TOL_ABS)
        x1, yerr1 = _error_step(sysf, ks, x, yerr, eps)
        du = sample_rows(cert.evaluator, ks + 1, x1, yerr1, eps) - u0
        # zvec @ q @ zvec row by row: a stacked product makes the one-vector BLAS calls
        form = np.vecdot(np.matmul(zvec[:, None, :], q)[:, 0, :], zvec)
        slack[DECREMENT_DOMINATION].append(form + TOL_ABS - du)
        slack[RATE_REALIZATION].append(-eps * cert.gamma_r * u0 + TOL_ABS - du)
    # one (k, (x, y')) point per sample and amplitude, amplitude-major
    times, states = np.tile(ks, len(rounds)), np.tile(np.hstack([x, yerr]), (len(rounds), 1))

    details = {"eps_values": [float(e) for e in eps_values]}
    return [
        ConditionReport.from_slack(name, values, times, states, dict(details))
        for name, values in slack.items()
    ]


def validate_rate(
    sysf: SlowFastSystem,
    cert: CompositeCertificate,
    eps_grid: Optional[Sequence[float]] = None,
    trials: int = 100,
    horizon: int = 400,
    seed: int = 0x5A7E,
) -> ConditionReport:
    """Monte-Carlo check of |x(k)|^2 <= C_r*(1 - eps*gamma_r)^k.

    Trials start in the r-ball of (x, y'); amplitudes above eps_r are
    skipped and recorded as out-of-certificate rather than failures.  A
    trial's slack is its worst C_r*(1 - eps*gamma_r)^k + TOL_ABS - |x(k)|^2
    over the horizon, reported at that step.  The trials of one amplitude
    are stepped together, one batched step per k.
    """
    if eps_grid is None:
        eps_grid = (cert.eps_r / 4.0, cert.eps_r / 2.0)
    rng = Rng(seed)
    skipped = [float(e) for e in eps_grid if not (0.0 < e < cert.eps_r)]
    used = [float(e) for e in eps_grid if 0.0 < e < cert.eps_r]
    times, starts, slack = [], [], []
    for eps in used:
        if trials < 1:
            break
        (z,) = rng.draw(trials, ("ball", sysf.dim_x + sysf.dim_y, cert.r))
        x = z[:, : sysf.dim_x].copy()
        y = z[:, sysf.dim_x:] + sample_rows(sysf.ystar, x)
        decay = 1.0
        margins = np.empty((trials, horizon + 1))
        margins[:, 0] = cert.C_r * decay + TOL_ABS - _row_squares(x)
        for k in range(horizon):
            x, y = sysf.step(k, x, y, eps)
            decay *= 1.0 - eps * cert.gamma_r
            margins[:, k + 1] = cert.C_r * decay + TOL_ABS - _row_squares(x)
        for row in margins:
            k = worst_index(row)
            times.append(k)
            slack.append(float(row[k]))
        starts.extend(z)
    details = {"eps_used": used, "eps_out_of_certificate": skipped, "horizon": horizon}
    return ConditionReport.from_slack(CERTIFIED_RATE, slack, times, starts, details)
