"""Averaging analysis for weakly driven slow dynamics x+ = x + eps*phi(k, x).

The pipeline is: estimate the time-average of the field, tabulate the
deviation coefficient sigma(T) between windowed sums and the averaged
field, convert (sigma, L) into the one-pass drift bounds nu and mu, and
search the tabulated horizons for a budget (T_delta, eps_delta) meeting a
requested deviation delta.  A Lyapunov function for the averaged field is
then lifted to a window-summed certificate for the true dynamics.

Every averaging constant is sampled on one (P, n) array of probe states,
held with its window means in :class:`AveragedField`: sigma(T) and the
growth bound L are read from one table of windows at the start times
``SIGMA_STARTS`` of each nonzero probe, and the slow constants from the
stored means, so no probe's window is read twice.

Window sums run over T+1 integers (k through k+T inclusive) and are
compared against T times the averaged field; the one-term mismatch this
convention creates is deliberately absorbed into sigma(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .certcheck import CandidateFunction, ConditionReport, TOL_ABS, worst_index
from .converse import LIPSCHITZ_SAFETY
from .dynsys import _row_norms, _row_squares, sample_rows, state_batched
from .errors import BudgetInfeasibleError, HypothesisViolationError

__all__ = [
    "AveragedField",
    "SigmaTable",
    "AveragingBudget",
    "AveragedCertificate",
    "estimate_average",
    "estimate_sigma",
    "nu",
    "mu",
    "budget_for_delta",
    "check_drift_remainder",
    "fit_slow_constants",
    "build_averaged_lyapunov",
    "DRIFT_REMAINDER",
]

DRIFT_REMAINDER = "drift_remainder"
GRAD_STEP = 1e-6
HYPOTHESIS_RTOL = 1e-4
EPS1_FLOOR = 1e-300
MU_PROBES = 20
WINDOW_ROWS = 8192  # most window rows one sample_rows call reads, unless one window is longer
SIGMA_STARTS = (0, 1, 2, 3)  # start times of the sigma windows, whose first values give L

PhiFn = Callable[[int, np.ndarray], np.ndarray]


def _probe_array(probes) -> np.ndarray:
    """A read-only float copy of the (P, n) array of probe states; probes
    that are not a 2-D array, or the first whose norm is not finite, raise
    ValueError."""
    probes = np.array(probes, dtype=float)
    if probes.ndim != 2:
        raise ValueError(f"probe states must be a (P, n) array, got shape {probes.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused too
        bad = _first_non_finite(_row_norms(probes))
    if bad is not None:
        raise ValueError(f"non-finite probe state {bad[0]}: x={probes[bad[0]].tolist()}")
    probes.flags.writeable = False
    return probes


@dataclass(frozen=True, eq=False)
class AveragedField:
    """Time-average of a driving field, estimated on a set of probe states.

    ``probes`` is the read-only (P, n) array of probe states and ``means``
    the read-only (P, n) array of their window means ``(1/T_used) *
    sum_{k=0..T_used} phi(k, x)``; every averaging constant is sampled on
    these rows.  Both are copied on construction, and probes that are not
    a finite (P, n) array, or means of another shape, raise ValueError.
    ``phibar(x)`` is the same window mean at one state, or at each row of
    a ``state_batched`` (S, n) batch, computed afresh on each call.  The
    reported convergence gap compares the means against the half-window
    means of the probes.
    """

    phibar: Callable[[np.ndarray], np.ndarray]
    probes: np.ndarray
    means: np.ndarray
    T_used: int
    convergence_gap: float
    warning: Optional[str] = None

    def __post_init__(self):
        probes, means = _probe_array(self.probes), np.array(self.means, dtype=float)
        if means.shape != probes.shape:
            raise ValueError(f"probe means of shape {means.shape} for probes of shape {probes.shape}")
        means.flags.writeable = False
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "means", means)


@dataclass(frozen=True)
class SigmaTable:
    """Deviation coefficients sigma(T) with monotonicity enforced.

    ``entries`` maps each tabulated horizon to the running minimum of the
    sampled coefficients (the raw maxima are kept alongside); ``L`` is the
    growth bound |phi(k,x)| <= L |x| the table was normalized with.
    """

    L: float
    T_list: Tuple[int, ...]
    entries: dict
    raw_entries: dict = field(default_factory=dict)

    def sigma(self, T: int) -> float:
        if T not in self.entries:
            raise KeyError(f"horizon {T} is not tabulated (have {sorted(self.entries)})")
        return self.entries[T]


@dataclass(frozen=True)
class AveragingBudget:
    delta: float
    T_delta: int
    eps1: float
    eps2: float
    eps_delta: float
    nu_at_budget: float
    mu_at_budget: float


@dataclass(frozen=True)
class AveragedCertificate:
    """Window-summed Lyapunov data for the slowly driven system.

    The evaluator signature is ``(k, x, eps)``: the candidate depends on
    the drive amplitude through the simulated window.  Constants satisfy
    a1|x|^2 <= V'(k,x) <= a2|x|^2 and a decrement of -eps*a3*|x|^2 per
    step for eps in (0, eps_c).
    """

    base_constants: Tuple[float, float, float, float]
    T_star: int
    eps_c: float
    a1: float
    a2: float
    a3: float
    a4: float
    growth_bound: float
    delta: float
    budget: AveragingBudget
    evaluator: Callable[[int, np.ndarray, float], float] = None  # type: ignore


def _prefix_sums(phi: PhiFn, starts, xs, length: int) -> np.ndarray:
    """Running sums (S, length + 1, n) of phi(t, x) over the windows t = k ..
    k + length - 1 of the S starts k and states x of ``starts`` and
    ``xs``: entry [i, j] adds the first j values of window i.

    The windows are read in :func:`~lyapcert.dynsys.sample_rows` calls
    over whole windows, at most ``WINDOW_ROWS`` rows each.  ``np.cumsum``
    over a zero-prepended table adds in order from zero, as a loop would
    (``np.sum`` pairs terms and rounds differently).
    """
    starts = np.asarray(starts, dtype=int)
    xs = np.asarray(xs, dtype=float).reshape(len(starts), -1)
    table = np.zeros((len(xs), length + 1, xs.shape[1]))
    per_call = max(1, WINDOW_ROWS // length)
    for lo in range(0, len(xs), per_call):
        hi = min(lo + per_call, len(xs))
        times = (starts[lo:hi, None] + np.arange(length)).reshape(-1)
        rows = sample_rows(phi, times, np.repeat(xs[lo:hi], length, axis=0))
        table[lo:hi, 1:] = rows.reshape(hi - lo, length, -1)
    return np.cumsum(table, axis=1, out=table)


def _first_non_finite(values: np.ndarray) -> Optional[tuple]:
    """Index of the first NaN or infinite entry of ``values`` in C order, or None."""
    found = np.argwhere(~np.isfinite(values))
    return tuple(found[0].tolist()) if len(found) else None


def _window_mean(phi: PhiFn, T_max: int) -> Callable[[np.ndarray], np.ndarray]:
    """The window mean ``(1/T_max) * sum_{k=0..T_max} phi(k, x)`` at one
    state, or at each row of an (S, n) batch read in one
    :func:`_prefix_sums` call."""

    @state_batched
    def phibar(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rows = x if x.ndim == 2 else x.reshape(1, -1)
        means = _prefix_sums(phi, np.zeros(len(rows)), rows, T_max + 1)[:, -1] / T_max
        return means if x.ndim == 2 else means[0]

    return phibar


def estimate_average(
    phi: PhiFn,
    probes: np.ndarray,
    T_max: int = 512,
) -> AveragedField:
    """Window-mean estimate of the averaged field on the (P, n) array of
    probe states, with a convergence probe.

    ``T_max`` is rounded up to an even horizon so that period-2 drives
    cancel exactly.  The half-window mean of each probe is a prefix of its
    full window, so ``phi`` is evaluated T_max + 1 times per probe, the
    windows of every probe read together (see :func:`_prefix_sums`).  The
    returned field keeps a copy of the probes and their full window means.
    A gap between the two means over 1e-2 * (1 + |full mean|) sets the
    warning; an empty probe set, which would claim convergence from no
    data, probes that are not a 2-D array, a non-finite probe, or a probe
    whose full window mean is NaN or infinite, raises ValueError.
    """
    if T_max < 4:
        raise ValueError("T_max too short to average")
    if T_max % 2:
        T_max += 1
    if not len(probes):
        raise ValueError("no probe states to estimate the average on")
    probes = _probe_array(probes)  # refused before any field call
    sums = _prefix_sums(phi, np.zeros(len(probes)), probes, T_max + 1)
    means, halves = sums[:, -1] / T_max, sums[:, T_max // 2 + 1] / (T_max // 2)
    bad = _first_non_finite(means)  # the half window is a prefix of the full one
    if bad is not None:
        raise ValueError(f"window mean of probe {bad[0]} is not finite at T={T_max}: {means[bad[0]].tolist()}")
    gap = float(_row_norms(means - halves).max())
    scale = float(_row_norms(means).max())
    warning = None
    if gap > 1e-2 * (1.0 + scale):
        warning = (
            f"window means at T={T_max} and T={T_max // 2} differ by {gap:.3e}; "
            "the field may not be averageable"
        )
    return AveragedField(phibar=_window_mean(phi, T_max), probes=probes, means=means,
                         T_used=T_max, convergence_gap=gap, warning=warning)


def estimate_sigma(phi: PhiFn, avg: AveragedField, T_list: Sequence[int]) -> SigmaTable:
    """Tabulate the worst normalized deviation between window sums and
    T times the window mean, over the nonzero probes of ``avg``.

    Each nonzero probe x is read in one window of max(T) + 1 values from
    every start time k of ``SIGMA_STARTS`` (k-major), all in one
    :func:`_prefix_sums` table, and compared against the stored mean of x.
    The growth bound is L = ``LIPSCHITZ_SAFETY`` times the largest
    |phi(k, x)| / |x| over the first values of those windows.  Raw entries
    are per-horizon maxima of |sum - T*mean| / (T*L*|x|); the stored table
    applies a running minimum over increasing T so downstream formulas see
    a nonincreasing coefficient.  A non-finite growth quotient or
    deviation, an L that is not positive and finite, or probes that are
    all zero raise ValueError.
    """
    T_list = tuple(sorted(set(int(T) for T in T_list)))
    if not T_list or T_list[0] < 1:
        raise ValueError("horizons must be >= 1")
    norms = _row_norms(avg.probes)
    live = np.flatnonzero(norms >= 1e-14)
    if not len(live):
        raise ValueError("all probes have zero state norm")
    starts = np.repeat(SIGMA_STARTS, len(live))
    xs = np.tile(avg.probes[live], (len(SIGMA_STARTS), 1))
    nx = np.tile(norms[live], len(SIGMA_STARTS))
    table = _prefix_sums(phi, starts, xs, T_list[-1] + 1)
    with np.errstate(all="ignore"):  # the first non-finite quotient raises
        growth = _row_norms(table[:, 1]) / nx
    bad = _first_non_finite(growth)
    if bad is not None:
        raise ValueError(f"non-finite growth quotient at t={starts[bad[0]]}, x={xs[bad[0]].tolist()}")
    L = float(growth.max()) * LIPSCHITZ_SAFETY
    if not 0.0 < L < math.inf:
        raise ValueError(f"growth bound L must be positive and finite, got {L}")
    Ts = np.array(T_list)
    means = np.tile(avg.means[live], (len(SIGMA_STARTS), 1))
    with np.errstate(all="ignore"):  # an overflowing or NaN deviation is refused below
        deviations = _row_norms(table[:, Ts + 1] - Ts[:, None] * means[:, None, :])
        quotients = deviations / (Ts * L * nx[:, None])
    bad = _first_non_finite(deviations)
    if bad is not None:
        j, c = bad  # window j numbered k-major over every probe, zero ones included
        i = (j // len(live)) * len(avg.probes) + live[j % len(live)]
        raise ValueError(f"non-finite window deviation at probe {i} (k={starts[j]}, T={T_list[c]})")
    raw = dict(zip(T_list, quotients.max(axis=0).tolist()))
    entries: dict = {}
    running = math.inf
    for T in T_list:
        running = min(running, raw[T])
        entries[T] = running
    return SigmaTable(L=L, T_list=T_list, entries=entries, raw_entries=raw)


def nu(T: int, eps: float, L: float, sigma_T: float) -> float:
    """Per-window drift coefficient L*sigma + eps*L^2*T*(1+L)^T.

    The growth factor is formed in log space; horizons long enough to
    overflow saturate to inf rather than raising.
    """
    if T < 1:
        raise ValueError("window length must be >= 1")
    # summed term by term so subnormal amplitudes cannot underflow the log
    log_growth = (
        math.log(eps) + 2.0 * math.log(L) + math.log(T) + T * math.log1p(L)
        if eps > 0.0
        else -math.inf
    )
    if log_growth > 700.0:
        return math.inf
    growth = math.exp(log_growth) if eps > 0.0 else 0.0
    return L * sigma_T + growth


def mu(T: int, eps: float, L: float, sigma_T: float) -> float:
    """Second-order window deviation nu + eps*T*(L+nu)^2; like :func:`nu`,
    it saturates to inf rather than raise when a term overflows."""
    base = nu(T, eps, L, sigma_T)
    if not math.isfinite(base):
        return math.inf
    try:
        return base + eps * T * (L + base) ** 2
    except OverflowError:
        return math.inf


def budget_for_delta(delta: float, table: SigmaTable) -> AveragingBudget:
    """Pick the shortest tabulated horizon and amplitude meeting mu <= delta.

    T_delta is the first horizon with sigma(T) <= delta/4; eps1 caps the
    nu growth term at delta/4 and eps2 caps the second-order term at
    delta/2, with the squared drift gain (L + nu)^2 of :func:`mu`.  The
    budget is post-verified on a grid of amplitudes.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    L = table.L
    T_delta = next((T for T in table.T_list if table.entries[T] <= delta / 4.0), None)
    if T_delta is None:
        best = min(table.entries.values())
        raise BudgetInfeasibleError(
            f"no tabulated horizon reaches sigma <= {delta / 4.0:.3e} "
            f"(best sigma = {best:.3e}); extend the horizon table"
        )
    sigma_T = table.entries[T_delta]
    log_eps1 = math.log(delta / (4.0 * L * L * T_delta)) - T_delta * math.log1p(L)
    if log_eps1 < math.log(EPS1_FLOOR):
        raise BudgetInfeasibleError(
            f"first-order amplitude cap underflows at horizon {T_delta}"
        )
    eps1 = math.exp(log_eps1)
    gain = (L + nu(T_delta, eps1, L, sigma_T)) ** 2
    eps2 = delta / (2.0 * T_delta * gain)
    eps_delta = min(eps1, eps2, 1.0)
    for eps in np.linspace(eps_delta / MU_PROBES, eps_delta, MU_PROBES):
        achieved = mu(T_delta, float(eps), L, sigma_T)
        if achieved > delta * (1.0 + 1e-12):
            raise HypothesisViolationError(
                f"budget post-check failed: mu({T_delta}, {eps:.3e}) = "
                f"{achieved:.3e} exceeds delta = {delta:.3e}"
            )
    return AveragingBudget(
        delta=delta,
        T_delta=T_delta,
        eps1=eps1,
        eps2=eps2,
        eps_delta=eps_delta,
        nu_at_budget=nu(T_delta, eps_delta, L, sigma_T),
        mu_at_budget=mu(T_delta, eps_delta, L, sigma_T),
    )


def _window_states(phi: PhiFn, k, x: np.ndarray, eps: float, steps: int) -> list:
    """States x(k..k+steps) of x+ = x + eps*phi along one window, or along a
    batch of windows: x an (S, n) array with k an int or an (S,) array of
    start times, one ``sample_rows`` call per step."""
    states = [np.asarray(x, dtype=float)]
    for j in range(steps):
        states.append(states[-1] + eps * sample_rows(phi, k + j, states[-1]))
    return states


def check_drift_remainder(
    phi: PhiFn,
    avg: AveragedField,
    table: SigmaTable,
    k: Sequence[int],
    x: np.ndarray,
    T: Sequence[int],
    eps: Sequence[float],
) -> ConditionReport:
    """Check |x(k+T+1) - x - eps*T*phibar(x)| <= eps*T*nu*|x| on samples.

    Sample i starts at time ``k[i]`` from row i of the (S, n) array ``x``
    with window length ``T[i]`` and amplitude ``eps[i]``; states that are
    not a 2-D array, or arguments of different lengths, raise ValueError.
    Zero states are skipped; every other sample's window length must be
    tabulated in the sigma table, and is looked up before the field is
    called.  The kept samples' window means are read in one ``avg.phibar``
    call, then each window is stepped on its own.  The slack is the allowance minus the drift, plus TOL_ABS.
    """
    k, T, eps = np.asarray(k, dtype=int), np.asarray(T, dtype=int), np.asarray(eps, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"drift sample states must be an (S, n) array, got shape {x.shape}")
    if not len(k) == len(x) == len(T) == len(eps):
        raise ValueError(f"drift samples of different lengths: k {len(k)}, x {len(x)}, T {len(T)}, eps {len(eps)}")
    norms = _row_norms(x)
    kept = np.flatnonzero(norms >= 1e-14)
    xs, times = x[kept], k[kept]
    sigmas = [table.sigma(T_i) for T_i in T[kept].tolist()]
    means = sample_rows(avg.phibar, xs) if len(kept) else []
    params, slack = [], []
    for k_i, x_i, T_i, eps_i, nx, sigma_T, mean in zip(
        times.tolist(), xs, T[kept].tolist(), eps[kept].tolist(), norms[kept].tolist(), sigmas, means
    ):
        end = _window_states(phi, k_i, x_i, eps_i, T_i + 1)[-1]
        with np.errstate(over="ignore"):  # an overflowing drift is an infinite slack deficit
            drift = float(np.linalg.norm(end - x_i - eps_i * T_i * mean))
        allowance = eps_i * T_i * nu(T_i, eps_i, table.L, sigma_T) * nx
        params.append({"T": T_i, "eps": eps_i})
        slack.append(allowance - drift + TOL_ABS)
    i = worst_index(slack)
    details = {"L": table.L, "worst_sample": None if i is None else params[i]}
    return ConditionReport.from_slack(DRIFT_REMAINDER, slack, times, xs, details)


def fit_slow_constants(V: CandidateFunction, avg: AveragedField) -> Tuple[float, float, float, float]:
    """Sample (c1, c2, c3, c4) for V against the averaged field, at the
    nonzero probes of ``avg`` and their stored means.

    c1, c2 sandwich V between quadratics, c3 is the directional decrement
    of V along the mean, and c4 bounds the gradient norm relative to |x|.
    Quadratic candidates get exact c1, c2, c4 from the eigenvalues.  The
    central differences of the gradients are read in one V call per sign
    (and a sampled candidate's values in one more); a NaN or infinite
    sampled term raises ValueError naming its probe.
    """
    norms = _row_norms(avg.probes)
    live = np.flatnonzero(norms >= 1e-14)
    if not len(live):
        raise ValueError("no probe with nonzero norm")
    xs = avg.probes[live]
    step = GRAD_STEP * np.eye(xs.shape[1])  # row i of each probe's block moves coordinate i
    plus = sample_rows(V.eval_fn, 0, (xs[:, None, :] + step).reshape(-1, xs.shape[1]))
    minus = sample_rows(V.eval_fn, 0, (xs[:, None, :] - step).reshape(-1, xs.shape[1]))
    grads = (plus - minus).reshape(xs.shape) / (2.0 * GRAD_STEP)
    c3 = math.inf
    if V.quadratic_P is not None:
        eigs = np.linalg.eigvalsh(V.quadratic_P)
        c1, c2, c4 = float(eigs[0]), float(eigs[-1]), 2.0 * float(eigs[-1])
        values = [None] * len(xs)
    else:
        c1, c2, c4 = math.inf, 0.0, 0.0
        values = sample_rows(V.eval_fn, 0, xs).reshape(-1).tolist()
    for i, nx, grad, mean, value in zip(live.tolist(), norms[live].tolist(), grads, avg.means[live], values):
        terms = [-float(grad @ mean) / nx ** 2]
        if value is not None:
            terms += [value / nx ** 2, float(np.linalg.norm(grad)) / nx]
        if not all(map(math.isfinite, terms)):
            raise ValueError(f"non-finite decrement, value or gradient at probe {i}: {terms}")
        c3 = min(c3, terms[0])
        if value is not None:
            c1, c2, c4 = min(c1, terms[1]), max(c2, terms[1]), max(c4, terms[2])
    if c1 <= 0.0 or not math.isfinite(c2):
        raise HypothesisViolationError(
            f"candidate is not sandwiched by positive quadratics (c1={c1:.3e})"
        )
    if c3 <= 0.0:
        raise HypothesisViolationError(
            f"averaged field does not descend along the candidate (c3={c3:.3e})"
        )
    return c1, c2, c3, c4


def build_averaged_lyapunov(
    V: CandidateFunction,
    constants: Tuple[float, float, float, float],
    phi: PhiFn,
    table: SigmaTable,
    probes: Sequence[np.ndarray],
) -> AveragedCertificate:
    """Lift a Lyapunov function for the averaged field to the true dynamics.

    The certificate candidate is the window sum V'(k, x, eps) =
    sum_{k'=k..k+T*} V(x(k')) along the exact trajectory.  The deviation
    target is delta = c3/(2*c4) and T*, eps_c come from the sigma-table
    budget; the (a1..a4) constants bound and decrement the window sum for
    every eps in (0, eps_c).  The evaluator also takes a batch of samples
    (see :func:`~lyapcert.dynsys.sample_rows`).
    """
    c1, c2, c3, c4 = constants
    if min(c1, c2, c3, c4) <= 0.0:
        raise ValueError("slow constants must be positive")
    rows = np.asarray(probes, dtype=float).reshape(len(probes), -1)
    nx2 = _row_squares(rows)
    kept = ~(nx2 < 1e-28)
    values = sample_rows(V.eval_fn, 0, rows[kept]).reshape(-1).tolist() if kept.any() else []
    for n2, value in zip(nx2[kept].tolist(), values):
        if not (c1 * n2 * (1.0 - HYPOTHESIS_RTOL) <= value <= c2 * n2 * (1.0 + HYPOTHESIS_RTOL)):
            raise HypothesisViolationError(
                f"candidate leaves the declared sandwich at |x|={math.sqrt(n2):.3e}: "
                f"V={value:.6e} vs [{c1 * n2:.6e}, {c2 * n2:.6e}]"
            )
    L = table.L
    delta = c3 / (2.0 * c4)
    budget = budget_for_delta(delta, table)
    T_star = budget.T_delta
    eps_c = budget.eps_delta
    factor = 1.0 + eps_c * L
    a1 = c1
    a2 = c2 * sum(factor ** k for k in range(T_star + 1))
    a3 = T_star * c3 / 2.0
    a4 = (T_star + 1) * c4 * factor ** (2 * T_star)

    @state_batched
    def evaluator(k: int, x: np.ndarray, eps: float) -> float:
        x = np.asarray(x, dtype=float)
        k = k if isinstance(k, np.ndarray) else int(k)
        states = _window_states(phi, k, x, float(eps), T_star)
        total = sum(sample_rows(V.eval_fn, k + i, s) for i, s in enumerate(states))
        return total if x.ndim == 2 else float(total)

    return AveragedCertificate(
        base_constants=(c1, c2, c3, c4),
        T_star=T_star,
        eps_c=eps_c,
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        growth_bound=L,
        delta=delta,
        budget=budget,
        evaluator=evaluator,
    )
