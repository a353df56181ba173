"""Certificate constructions from decay data (converse route).

Given an exponential envelope certified from trajectories, these builders
assemble sum-along-trajectory candidate functions whose sandwich and
decrement constants come out in closed form, then re-verify the claimed
inequalities on fresh samples.  ``build_trajectory_converse`` serves both
autonomous and nonautonomous maps (it reads ``sys.autonomous``).
``build_exponential_converse`` serves the fast subsystem of a slow/fast
pair: it keeps the slow state frozen and works in shifted coordinates
y' = y - ystar(x), and its sample set and that of
``check_envelope_hypothesis`` is one :class:`~lyapcert.dynsys.SlowFastSamples`
batch, read by field name.  :func:`verify_converse` takes the (S,) times,
the (S, n) states and, for the fast kind, the (S, dim_x) frozen slow
states as arrays.  Every sampled Lipschitz modulus, in
:func:`estimate_lipschitz` and in the fast map's state and parameter
moduli, is read from one map call into one table and is the maximum of
one call of a vectorized pairwise-quotient kernel.  It raises on a NaN
or infinite map value or quotient rather than skip it: a raising map
first, then the first non-finite value, then the first non-finite
quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .certcheck import ConditionReport, TOL_ABS, TOL_REL
from .dynsys import (
    BatchMap,
    DynSystem,
    ExponentialEnvelope,
    SlowFastSamples,
    SlowFastSystem,
    _batch_fields,
    _row_norms,
    _row_squares,
    batch_map,
    real_array,
    simulate,
)
from .errors import HypothesisViolationError
from .rng import Rng

__all__ = [
    "ConverseCertificate",
    "estimate_lipschitz",
    "build_trajectory_converse",
    "build_exponential_converse",
    "exponential_horizon",
    "verify_converse",
    "BOUNDS",
    "DECREMENT",
    "STATE_LIPSCHITZ",
    "PARAMETER_LIPSCHITZ",
]

LIPSCHITZ_SAFETY = 1.1
_NO_PAIR = "no sample pair with nonzero separation"
_PAIR_BLOCK = 4096  # quotients held at once by _max_quotient

BOUNDS = "uniform_bounds"
DECREMENT = "decrement"
STATE_LIPSCHITZ = "state_lipschitz"
PARAMETER_LIPSCHITZ = "parameter_lipschitz"


@dataclass(frozen=True)
class ConverseCertificate:
    """Sum-along-trajectory certificate with its sandwich constants.

    The evaluator signature is ``(k, state, frozen_x)``; autonomous and
    nonautonomous certificates ignore ``frozen_x``.  Constants satisfy

        a1*|s|^2 <= W(k, s) <= a2*|s|^2
        W(k+1, next(s)) - W(k, s) <= -a3*|s|^2

    with optional state-Lipschitz (a4) and frozen-parameter-Lipschitz (a5)
    moduli.
    """

    kind: str  # autonomous | nonautonomous | exponential
    horizon: int
    a1: float
    a2: float
    a3: float
    a4: Optional[float] = None
    a5: Optional[float] = None
    evaluator: Callable[[int, np.ndarray, Optional[np.ndarray]], float] = None  # type: ignore
    step_fn: Callable[[int, np.ndarray, Optional[np.ndarray]], np.ndarray] = None  # type: ignore
    lipschitz_L1: Optional[float] = None
    lipschitz_L2: Optional[float] = None

    def __post_init__(self):
        _batch_fields(self, "evaluator", "step_fn")


def estimate_lipschitz(
    fn: Callable[[int, np.ndarray], np.ndarray],
    points: np.ndarray,
    times: Sequence[int] = (0,),
) -> float:
    """Sampled Lipschitz constant with a safety factor.

    Maximizes |f(t,x)-f(t,y)| / |x-y| over all pairs of rows of the (S, d)
    array ``points`` and the given times, inflated by ``LIPSCHITZ_SAFETY``
    because sampling can only underestimate.  Every value comes from one
    ``fn`` call over the times (as given; a single one as it is) repeated
    by the points, in (time, point) order, reduced by :func:`_modulus`: a
    NaN or infinite value or quotient raises ValueError naming t and the
    point, since a maximum would silently skip it.
    """
    fn, points = batch_map(fn), real_array(points)
    if not points.size:
        raise ValueError(_NO_PAIR)
    if points.ndim != 2:
        raise ValueError(f"points must be an (S, d) array, got shape {points.shape}")
    times = tuple(times)
    if not times:
        raise ValueError("times must hold at least one time")
    size = len(points)
    if len(times) == 1:
        values = fn(times[0], points)
    else:
        values = fn(np.repeat(np.array(times), size), np.tile(points, (len(times), 1)))
    return _modulus(points, values.reshape(len(times), size, -1), times)


def _modulus(points: np.ndarray, values: np.ndarray, times: Sequence) -> float:
    """Largest |v[c, i] - v[c, j]| / |points[i] - points[j]| times
    ``LIPSCHITZ_SAFETY``, given the (C, S, m) values ``v[c]`` of a map at
    time ``times[c]`` at the (S, d) ``points``, from one
    :func:`_max_quotient` call with the C maps as its columns.  ValueError
    names the first non-finite value, in (c, point) order, before any
    quotient, then the first non-finite quotient, or finds no pair."""
    finite = np.isfinite(values).all(axis=2).reshape(-1)
    if not finite.all():
        c, i = divmod(int(np.argmin(finite)), len(points))
        raise ValueError(f"non-finite map value at t={times[c]}, x={points[i].tolist()}")
    best = _max_quotient(
        points,
        values.transpose(1, 0, 2)[None],
        np.ones(len(values)),
        np.zeros(len(points), dtype=int),
        lambda i, j, c: (
            f"non-finite difference quotient at t={times[c]} between "
            f"x={points[i].tolist()} and x={points[j].tolist()}"
        ),
    )
    if best is None:
        raise ValueError(_NO_PAIR)
    return best * LIPSCHITZ_SAFETY


def _pair_blocks(size: int, width: int):
    """The pairs i < j of ``size`` rows in ``np.triu_indices`` order, as
    (i, j) index arrays over consecutive rows holding at most
    ``_PAIR_BLOCK`` pairs times ``width`` (or a single row)."""
    start = 0
    while start < size - 1:
        stop, count = start + 1, (size - 1 - start) * width
        while stop < size - 1 and count + (size - 1 - stop) * width <= _PAIR_BLOCK:
            count += (size - 1 - stop) * width
            stop += 1
        rows, cols = np.nonzero(np.arange(size) > np.arange(start, stop)[:, None])
        yield rows + start, cols
        start = stop


def _max_quotient(
    points: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    table_of_row: np.ndarray,
    describe: Callable[[int, int, int], str],
) -> Optional[float]:
    """Largest |v[i, c] - v[j, c]| / (weights[c] * |points[i] - points[j]|).

    ``points`` is (S, d); ``values`` is (K, S, C, m) and the pair (i, j)
    reads v = ``values[table_of_row[i]]``, one quotient per column c.
    Pairs i < j run in ``np.triu_indices`` order, a block of rows at a time
    (:func:`_pair_blocks`), columns in order within a pair; pairs under
    1e-14 apart and weights under 1e-14 are skipped.  Returns None when
    everything is skipped.  Floating-point warnings are silenced because
    the first non-finite quotient raises ``ValueError(describe(i, j, c))``.
    """
    width = len(weights)
    skip_column = weights < 1e-14
    best = None
    for rows, cols in _pair_blocks(len(points), width):
        tables = table_of_row[rows]
        with np.errstate(all="ignore"):
            dx = _row_norms(points[rows] - points[cols])
            ratio = _row_norms(values[tables, rows] - values[tables, cols]) / (weights * dx[:, None])
        keep = ~(dx < 1e-14)[:, None] & ~skip_column
        bad = keep & ~np.isfinite(ratio)
        if bad.any():
            pair, column = divmod(int(np.argmax(bad)), width)
            raise ValueError(describe(int(rows[pair]), int(cols[pair]), column))
        if keep.any():
            top = float(ratio[keep].max())
            best = top if best is None else max(best, top)
    return best


def build_trajectory_converse(
    sys: DynSystem,
    env: ExponentialEnvelope,
) -> ConverseCertificate:
    """V(t, x) = sum of squared norms along the forward trajectory from (t, x).

    The horizon is the smallest N making the tail loss at most 1/2, which
    pins a3 >= 1/2; a1 = 1 is immediate from the first summand.  For an
    autonomous map the sum starts at t = 0 whatever k is asked for and the
    state-Lipschitz modulus is sampled at t = 0 only; a nonautonomous map
    sums from k and is sampled at t = 0, 1, 2, 3.  The samples are 48 draws
    from the ball of the envelope's validity radius (radius 1 when the
    envelope is global).
    """
    sys = sys.shifted()
    # smallest N with gain^2 * exp(-2*rate*N) <= 1/2
    N = max(1, math.ceil(math.log(2.0 * env.gain**2) / (2.0 * env.rate)))
    decay = math.exp(-2.0 * env.rate)
    radius = env.validity_radius if env.validity_radius else 1.0
    (samples,) = Rng(0x5EED).draw(48, ("ball", sys.dim, radius))
    times = (0,) if sys.autonomous else (0, 1, 2, 3)
    L1 = estimate_lipschitz(sys.step, samples, times=times)
    a4 = sum(env.gain * math.exp(-env.rate * t) * L1**t for t in range(N))

    @BatchMap
    def evaluator(k: int, x: np.ndarray, frozen_x=None) -> np.ndarray:
        states = simulate(sys, 0 if sys.autonomous else k, x, N - 1)
        # each row's sum as np.sum over its contiguous (N, n) states
        return np.sum((states * states).reshape(states.shape[:-2] + (-1,)), axis=-1)

    return ConverseCertificate(
        kind="autonomous" if sys.autonomous else "nonautonomous",
        horizon=N,
        a1=1.0,
        a2=env.gain**2 * (1.0 - decay**N) / (1.0 - decay),
        a3=1.0 - env.gain**2 * decay**N,
        a4=a4,
        evaluator=evaluator,
        step_fn=BatchMap(lambda k, x, fx=None: sys.step(k, x)),
        lipschitz_L1=L1,
    )


def _fast_sample_set(
    sysf: SlowFastSystem, radius: float, count: int, seed: int
) -> SlowFastSamples:
    """``count`` samples with k in 0..3 and x, y' each drawn from the radius ball."""
    # y' is drawn before x: the order fixes report bytes
    ks, yerrs, xs = Rng(seed).draw(
        count, ("integer", 0, 3), ("ball", sysf.dim_y, radius), ("ball", sysf.dim_x, radius)
    )
    return SlowFastSamples(ks, xs, yerrs)


def _fast_lipschitz(sysf: SlowFastSystem, samples: SlowFastSamples) -> Tuple[float, float]:
    """State modulus L1 and parameter modulus L2 of the shifted fast map.

    L1 is the largest :func:`estimate_lipschitz` difference quotient over
    the fast states with each sample's slow state frozen at its own k; L2
    bounds |fast_x1(k, y) - fast_x2(k, y)| / (|y| |x1 - x2|) over sample
    pairs.  Both read one (K, S, S, dim_y) table, each frozen-x fast map
    once per distinct k and fast state, from one
    :meth:`~lyapcert.dynsys.SlowFastSystem._fast_error_step` call (ystar
    of every frozen state read in one call): each sample's own row in
    sample order, then the rows at the other k in (k, sample) order.  L1 is
    :func:`_modulus` of the own rows, with the samples as columns, L2 one
    :func:`_max_quotient` call; L1's errors are raised first.
    """
    xs, ys = samples.x, samples.yerr
    size = len(xs)
    if not size:
        raise ValueError(_NO_PAIR)
    ystars = sysf._frozen(xs)[1]
    ks = np.unique(samples.k)
    table_of_row = np.searchsorted(ks, samples.k)
    others, rest = np.nonzero(ks[:, None] != samples.k)
    tables = np.concatenate([table_of_row, others])
    rows = np.concatenate([np.arange(size), rest])
    values = np.empty((len(ks), size, size, sysf.dim_y))
    values[tables, rows] = sysf._fast_error_step(
        np.repeat(ks[tables], size),
        np.tile(ys, (len(rows), 1)),
        np.repeat(xs[rows], size, axis=0),
        np.repeat(ystars[rows], size, axis=0),
    ).reshape(len(rows), size, sysf.dim_y)
    l1 = _modulus(ys, values[table_of_row, np.arange(size)], samples.k)
    l2 = _max_quotient(xs, values, _row_norms(ys), table_of_row, lambda i, j, c: (
        f"non-finite fast-map parameter quotient at k={samples.k[i]}, y={ys[c].tolist()}, "
        f"x1={xs[i].tolist()}, x2={xs[j].tolist()}"
    ))
    # stays 0 for a single frozen slow state: parameter modulus unobservable
    return l1, (l2 or 0.0) * LIPSCHITZ_SAFETY


def _fast_certificate(
    sysf: SlowFastSystem, T: int, a3: float, kind: str, L1: float, L2: float
) -> ConverseCertificate:
    a2 = float(sum(L1 ** (2 * t) for t in range(T)))
    a5 = float(
        sum(
            2.0 * L2 * L1**tp * sum(L1**kp for kp in range(1, tp + 1))
            for tp in range(1, T)
        )
    )

    def frozen(yerr: np.ndarray, frozen_x: Optional[np.ndarray]) -> np.ndarray:
        return np.zeros(yerr.shape[:-1] + (sysf.dim_x,)) if frozen_x is None else np.asarray(frozen_x, dtype=float)

    @BatchMap
    def evaluator(k: int, yerr: np.ndarray, frozen_x: Optional[np.ndarray]) -> np.ndarray:
        y = np.asarray(yerr, dtype=float)
        rows = y.reshape(-1, sysf.dim_y)
        x = frozen(y, frozen_x).reshape(len(rows), sysf.dim_x)
        states, _ = sysf.fast_trajectories(k, rows, x, T - 1)
        # the running total |y(0)|^2 + |y(1)|^2 + ... of each row, in step order
        return np.cumsum(_row_squares(states), axis=1)[:, -1].reshape(y.shape[:-1])

    @BatchMap
    def step_fn(k: int, yerr: np.ndarray, frozen_x: Optional[np.ndarray]) -> np.ndarray:
        yerr = np.asarray(yerr, dtype=float)
        return sysf.shifted_fast(frozen(yerr, frozen_x))(k, yerr)

    return ConverseCertificate(
        kind=kind,
        horizon=T,
        a1=1.0,
        a2=a2,
        a3=a3,
        a4=a2,
        a5=a5,
        evaluator=evaluator,
        step_fn=step_fn,
        lipschitz_L1=L1,
        lipschitz_L2=L2,
    )


def exponential_horizon(gain: float, ratio: float) -> int:
    """Horizon making the squared envelope loss at least one half.

    Degenerate gains (2*gain <= 1) clamp to a single step.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    raw = math.ceil(-math.log(2.0 * gain) / math.log(ratio))
    return max(1, raw)


def build_exponential_converse(
    sysf: SlowFastSystem,
    env: ExponentialEnvelope,
    samples: Optional[SlowFastSamples] = None,
    radius: float = 1.0,
    seed: int = 0xFA57,
) -> ConverseCertificate:
    """Exponentially contracting fast subsystem, horizon from the envelope.

    With T chosen so gain*ratio^T <= 1/2 the decrement constant is a3=1/2.
    """
    T = exponential_horizon(env.gain, env.ratio)
    if samples is None:
        samples = _fast_sample_set(sysf, radius, 32, seed)
    L1, L2 = _fast_lipschitz(sysf, samples)
    return _fast_certificate(sysf, T, a3=0.5, kind="exponential", L1=L1, L2=L2)


def verify_converse(
    cert: ConverseCertificate,
    k: np.ndarray,
    states: np.ndarray,
    frozen_x: Optional[np.ndarray],
) -> list:
    """Re-check the certificate inequalities on fresh samples.

    Sample i is the time ``k[i]`` and the state ``states[i]`` (an (S,) and
    an (S, n) array); ``frozen_x`` is None for the slow-system kinds and
    the (S, dim_x) frozen slow states for the fast kind (the ``x`` of a
    :class:`~lyapcert.dynsys.SlowFastSamples` whose ``yerr`` are the
    states).  Produces bounds, decrement and state-Lipschitz reports, plus
    the frozen-parameter report when a5 is available; consecutive samples
    are paired for the Lipschitz checks.  Each slack is the room left under
    the claimed bound plus its tolerance.  The evaluator and the step map
    take every sample in one call per quantity.
    """
    ks = np.asarray(k, dtype=int)
    states = np.asarray(states, dtype=float)
    frozen = None if frozen_x is None else np.asarray(frozen_x, dtype=float)
    if not len(ks):
        names = (BOUNDS, DECREMENT) + ((STATE_LIPSCHITZ,) if cert.a4 is not None else ())
        return [ConditionReport.from_slack(name, [], ks, states) for name in names]
    values = cert.evaluator(ks, states, frozen)
    n2 = _row_squares(states)
    tol = TOL_ABS + TOL_REL * np.abs(values)
    bounds = _first_min(values - cert.a1 * n2, cert.a2 * n2 - values) + tol
    stepped = cert.step_fn(ks, states, frozen)
    delta = cert.evaluator(ks + 1, stepped, frozen) - values
    decrement = tol - (delta + cert.a3 * n2)
    reports = [
        ConditionReport.from_slack(BOUNDS, bounds, ks, states),
        ConditionReport.from_slack(DECREMENT, decrement, ks, states),
    ]

    def lipschitz_slack(gap: np.ndarray, bound: np.ndarray) -> np.ndarray:
        return TOL_ABS + TOL_REL * _first_max(np.abs(gap), np.abs(bound)) - (gap - bound)

    # consecutive samples pair up: each leading sample with the one after it
    lead, after = slice(None, -1), slice(1, None)
    if cert.a4 is not None:
        held = None if frozen is None else frozen[lead]
        gap = np.abs(values[lead] - cert.evaluator(ks[lead], states[after], held))
        norms = _row_norms(states)
        bound = cert.a4 * _row_norms(states[lead] - states[after]) * (norms[lead] + norms[after])
        slack = lipschitz_slack(gap, bound)
        reports.append(ConditionReport.from_slack(STATE_LIPSCHITZ, slack, ks[lead], states[lead]))

    if cert.a5 is not None and frozen is not None:
        moved = cert.evaluator(ks[lead], states[lead], frozen[after])
        bound = cert.a5 * n2[lead] * _row_norms(frozen[lead] - frozen[after])
        slack = lipschitz_slack(np.abs(values[lead] - moved), bound)
        reports.append(ConditionReport.from_slack(PARAMETER_LIPSCHITZ, slack, ks[lead], states[lead]))

    return reports


def _first_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's ``min(a, b)`` elementwise: b only where b < a, so a NaN in b is passed over."""
    return np.where(b < a, b, a)


def _first_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's ``max(a, b)`` elementwise: b only where b > a."""
    return np.where(b > a, b, a)


def check_envelope_hypothesis(
    sysf: SlowFastSystem,
    env: ExponentialEnvelope,
    samples: SlowFastSamples,
    horizon: int = 12,
) -> None:
    """Raise unless the envelope dominates sampled shifted-fast trajectories.

    Each trajectory starts at the sample's fast error with its slow state
    frozen and is checked at offsets 0..horizon-1.  A NaN or infinite
    state, or a diverged one (see :func:`~lyapcert.dynsys.trajectories`),
    fails like a violation: HypothesisViolationError names k and the
    offset of the first sample, in sample order, that leaves the envelope,
    at its first offset.  Every sample is stepped over the whole horizon
    in one :meth:`~lyapcert.dynsys.SlowFastSystem.fast_trajectories` call.
    """
    if not len(samples.k) or horizon < 1:
        return
    states, _ = sysf.fast_trajectories(samples.k, samples.yerr, samples.x, horizon - 1)
    decay = np.array([math.exp(-env.rate * t) for t in range(horizon)])
    bound = env.gain * _row_norms(samples.yerr)[:, None] * decay + TOL_ABS
    outside = ~(_row_norms(states) <= bound)
    if outside.any():
        failed, offset = divmod(int(np.argmax(outside)), horizon)  # row-major: sample, then offset
        raise HypothesisViolationError(
            f"envelope violated at offset {offset} from k={samples.k[failed]}"
        )
