"""Discrete-time system containers, simulation, and envelope fitting.

Systems are maps ``x(t+1) = f(t, x(t))``; autonomous systems simply ignore
``t``.  Every analysis in the library works in coordinates where the
equilibrium of interest sits at the origin, so the containers validate the
declared equilibrium at construction and expose a shifted view.

Consumers read a map over a batch of samples with :func:`sample_rows`,
which calls a map marked by :func:`state_batched` once and loops any other
callable; a window of times is a batch whose rows share one state.  Every
trajectory comes from :func:`trajectories`, one :func:`sample_rows` call
per step over a batch of starts, with one divergence rule;
:func:`simulate` adds the raise.  Every transition product of a
:class:`LinearTV` comes from :func:`transitions`, one batched ``@`` per
step over a batch of start times.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DivergenceError, InapplicableError, NotExponentiallyStableError

__all__ = [
    "DynSystem",
    "LinearTV",
    "Trajectory",
    "ExponentialEnvelope",
    "SlowFastSystem",
    "SlowFastSample",
    "simulate",
    "trajectories",
    "transitions",
    "linear_part",
    "state_batched",
    "sample_rows",
    "real_array",
    "fit_exponential_envelope",
    "trajectory_to_csv",
]

DIVERGENCE_LIMIT = 1e12
EQUILIBRIUM_TOL = 1e-9
LINEAR_TOL = 1e-9
LAMBDA_MAX = 50.0

MapFn = Callable[[int, np.ndarray], np.ndarray]
_FLOAT = np.dtype(float)


def real_array(x) -> np.ndarray:
    """``x`` as a float array.  A complex value raises TypeError, as
    ``float`` does for a Python complex, instead of losing its imaginary
    part to the cast."""
    a = np.asarray(x)
    if a.dtype is _FLOAT:
        return a
    if a.dtype.kind == "c":
        raise TypeError(f"a {a.dtype} value where a real one is needed")
    return a.astype(float)


def _row_squares(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row along the last axis, each
    bit-identical to ``v @ v`` of that row ``v``.

    ``v @ v`` is one BLAS dot over a contiguous vector; ``np.vecdot`` over
    contiguous rows makes the same dot per row.  ``np.linalg.norm(...,
    axis=-1)`` and dots over strided rows round differently, so the rows
    are made contiguous first.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    return np.vecdot(rows, rows)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row along the last axis, each bit-identical to
    ``np.linalg.norm`` of that row, which is ``sqrt(v @ v)``."""
    return np.sqrt(_row_squares(rows))


def _as_vector(x, dim: int) -> np.ndarray:
    v = real_array(x).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"expected vector of length {dim}, got shape {v.shape}")
    return v


def _as_states(x, dim: int, like: np.ndarray) -> np.ndarray:
    """``x`` as one state of length ``dim`` when ``like`` is one state, else
    as one such row per row of the batch ``like``."""
    if like.ndim < 2:
        return _as_vector(x, dim)
    v = real_array(x)
    if v.shape != (len(like), dim):
        raise ValueError(f"expected {len(like)} rows of length {dim}, got shape {v.shape}")
    return v


def state_batched(fn: Callable) -> Callable:
    """Mark ``fn`` as taking a batch of samples in one call (see
    :func:`sample_rows`), returning one row per sample equal bit for bit
    to the per-sample calls (the maps ``build_system`` compiles from
    expressions, and the slow/fast steps built on them)."""
    fn.state_batched = True
    return fn


def sample_rows(fn: Callable, *args) -> np.ndarray:
    """``fn(*args)`` as a float array, with one row per sample for a batch.

    A call is a batch of S samples when an argument is a 2-D array (S
    states as rows).  Every array argument then runs over the samples
    along its first axis: an (S,) array of times, an (S, n) array of
    states.  The other arguments (a scalar time, an amplitude, None) are
    shared, so a state shared by every sample is passed broadcast to
    (S, n).  A map marked by :func:`state_batched` is called once with the
    batch; any other callable once per sample, in sample order, with
    Python scalars for the entries of 1-D arrays.  A call without a 2-D
    argument is the one call ``fn(*args)``.  A complex value raises
    TypeError (see :func:`real_array`).
    """
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            size = len(a)
            break
    else:
        return real_array(fn(*args))
    if getattr(fn, "state_batched", False):
        return real_array(fn(*args))
    columns = []
    for a in args:
        if not isinstance(a, np.ndarray) or a.ndim == 0:
            columns.append(itertools.repeat(a, size))
            continue
        if len(a) != size:
            raise ValueError(f"batch arguments of different lengths {len(a)} and {size}")
        columns.append(a.tolist() if a.ndim == 1 else a)
    return np.array([real_array(fn(*sample)) for sample in zip(*columns)])


@dataclass(frozen=True)
class DynSystem:
    """A discrete-time map with a declared equilibrium.

    ``map_fn(t, x)`` must return the next state.  The declared equilibrium
    is checked to ``EQUILIBRIUM_TOL`` on a handful of times at construction.
    """

    dim: int
    map_fn: MapFn
    autonomous: bool = True
    equilibrium: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        eq = self.equilibrium
        eq = np.zeros(self.dim) if eq is None else _as_vector(eq, self.dim)
        object.__setattr__(self, "equilibrium", eq)
        times = (0,) if self.autonomous else (0, 1, 2, 5)
        for t in times:
            image = _as_vector(self.map_fn(t, eq), self.dim)
            if not np.all(np.isfinite(image)) or np.linalg.norm(image - eq) > EQUILIBRIUM_TOL:
                raise ValueError(
                    f"declared equilibrium is not fixed by the map at t={t} "
                    f"(moved by {np.linalg.norm(image - eq):.3e})"
                )

    @state_batched
    def step(self, t: int, x: np.ndarray) -> np.ndarray:
        """The next state of one state, or of each row of an (S, n) batch at
        a scalar t or an (S,) array of times (see :func:`sample_rows`)."""
        x = np.asarray(x, dtype=float)
        return _as_states(sample_rows(self.map_fn, t, x), self.dim, x)

    def shifted(self) -> "DynSystem":
        """Same dynamics in coordinates where the equilibrium is the origin.

        The shifted map keeps the :func:`state_batched` mark of ``map_fn``.
        """
        if not np.any(self.equilibrium):
            return self
        eq = self.equilibrium

        def shifted_map(t: int, u: np.ndarray) -> np.ndarray:
            return real_array(self.map_fn(t, u + eq)) - eq

        if getattr(self.map_fn, "state_batched", False):
            state_batched(shifted_map)
        return DynSystem(self.dim, shifted_map, self.autonomous, np.zeros(self.dim))


@dataclass(frozen=True)
class LinearTV:
    """Time-varying linear system ``x(t+1) = A(t) x(t)``.

    Every A(t) is read through :meth:`matrices`, once per t on each
    instance: the missing times in one call with their array when
    ``matrix_fn`` is marked by :func:`state_batched` (it returns their
    stack), else one t at a time, in first-read order.  Each read is checked
    once: a complex A(t) raises TypeError (see :func:`real_array`), a wrong
    shape or a NaN or infinite entry ValueError naming t.
    """

    dim: int
    matrix_fn: Callable[[int], np.ndarray]
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def matrices(self, times) -> np.ndarray:
        """A(t) at each t of ``times``, as a read-only (len(times), n, n) stack."""
        times = np.asarray(times, dtype=int).reshape(-1).tolist()
        missing = [t for t in dict.fromkeys(times) if t not in self._matrices]
        if missing and getattr(self.matrix_fn, "state_batched", False):
            read = real_array(self.matrix_fn(np.array(missing)))
            if read.shape[:1] != (len(missing),):
                raise ValueError(f"A at {len(missing)} times has shape {read.shape}")
        else:
            read = map(self.matrix_fn, missing)
        shape = (self.dim, self.dim)
        for t, A in zip(missing, read):
            A = np.array(real_array(A))
            if A.shape != shape:
                raise ValueError(f"A({t}) has shape {A.shape}, expected {shape}")
            if not np.isfinite(A).all():
                raise ValueError(f"A({t}) has a NaN or infinite entry")
            self._matrices[t] = A
        stack = np.array([self._matrices[t] for t in times]).reshape((-1,) + shape)
        stack.setflags(write=False)
        return stack

    def matrix(self, t: int) -> np.ndarray:
        return self.matrices([t])[0]

    def system(self) -> DynSystem:
        return DynSystem(
            self.dim,
            lambda t, x: self.matrix(t) @ x,
            autonomous=False,
            equilibrium=np.zeros(self.dim),
        )


@dataclass(frozen=True)
class Trajectory:
    """States ``x(t0), x(t0+1), ..., x(t0+horizon)`` as rows."""

    t0: int
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", np.atleast_2d(np.asarray(self.states, dtype=float)))

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def state(self, t: int) -> np.ndarray:
        return self.states[t - self.t0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


@dataclass(frozen=True)
class ExponentialEnvelope:
    """Decay bound ``|x(t)| <= gain * |x(t0)| * exp(-rate * (t - t0))``.

    ``gain`` is also written C and ``exp(-rate)`` is the per-step ratio rho.
    ``validity_radius`` is the radius of initial conditions the fit covered
    (None for globally valid, e.g. linear dynamics).
    """

    gain: float
    rate: float
    validity_radius: Optional[float] = None
    uniform_bound: Optional[float] = None

    def __post_init__(self):
        if not (self.gain >= 1.0):
            raise ValueError(f"envelope gain must be >= 1, got {self.gain}")
        if not (self.rate > 0.0):
            raise ValueError(f"envelope rate must be positive, got {self.rate}")
        if self.validity_radius is not None and not (self.validity_radius > 0.0):
            raise ValueError("validity radius must be positive when given")

    @property
    def ratio(self) -> float:
        """Per-step contraction factor rho = exp(-rate)."""
        return float(np.exp(-self.rate))

    def bound(self, dt, initial_norm: float = 1.0) -> np.ndarray:
        return self.gain * initial_norm * np.exp(-self.rate * np.asarray(dt, dtype=float))


@dataclass(frozen=True)
class SlowFastSystem:
    """Coupled pair  x(k+1) = x(k) + eps*phi(k, x, y),  y(k+1) = varphi(k, y, x).

    ``ystar`` maps each frozen slow state to the fast equilibrium branch;
    it must satisfy ystar(x) = varphi(k, ystar(x), x), which is sampled at
    construction on a deterministic probe set.
    """

    dim_x: int
    dim_y: int
    phi: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    varphi: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    ystar: Callable[[np.ndarray], np.ndarray]
    epsilon: float = 1e-2

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        probes = [np.zeros(self.dim_x)]
        for e in np.eye(self.dim_x):
            probes.extend([0.3 * e, -0.7 * e])
        for k in (0, 1, 3):
            for x in probes:
                ys = _as_vector(self.ystar(x), self.dim_y)
                image = _as_vector(self.varphi(k, ys, x), self.dim_y)
                with np.errstate(invalid="ignore"):
                    residual = np.linalg.norm(image - ys)
                if not residual <= EQUILIBRIUM_TOL:  # fails closed on a NaN residual
                    raise ValueError(
                        f"ystar is not an equilibrium branch of the fast map at "
                        f"k={k} (residual {residual:.3e})"
                    )

    @state_batched
    def step(
        self, k: int, x: np.ndarray, y: np.ndarray, eps: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One coupled step (x + eps*phi(k, x, y), varphi(k, y, x)) at amplitude eps,
        of one pair or of a batch (see :func:`sample_rows`)."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        x_next = x + eps * sample_rows(self.phi, k, x, y)
        return x_next, sample_rows(self.varphi, k, y, x)

    def shifted_fast(self, x: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
        """Fast map in error coordinates y' = y - ystar(x), slow state frozen.

        ``x`` is one slow state, or an (S, dim_x) batch frozen row by row.
        The map takes one fast error, or an (S, dim_y) batch of them, at a
        scalar k or an (S,) array of k (see :func:`sample_rows`).
        """
        x, ys = self._frozen(x)

        @state_batched
        def fast(k: int, yerr: np.ndarray) -> np.ndarray:
            yerr = np.asarray(yerr, dtype=float)
            frozen = np.broadcast_to(x, yerr.shape[:-1] + x.shape[-1:]) if x.ndim < yerr.ndim else x
            return self._fast_error_step(k, yerr, frozen, ys)

        return fast

    def fast_trajectories(self, k0, yerr: np.ndarray, x: np.ndarray, horizon: int):
        """:func:`trajectories` of the :meth:`shifted_fast` map from the
        (S, dim_y) fast errors ``yerr`` at k0, row i with its slow state
        frozen at row i of the (S, dim_x) batch ``x``."""
        x, ys = self._frozen(_as_states(x, self.dim_x, real_array(yerr)))
        return trajectories(self._fast_error_step, k0, yerr, horizon, x, ys)

    def _frozen(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """One slow state or an (S, dim_x) batch, and ystar of it."""
        x = np.asarray(x, dtype=float)
        x = _as_states(x, self.dim_x, x)
        return x, _as_states(sample_rows(self.ystar, x), self.dim_y, x)

    @state_batched
    def _fast_error_step(self, k, yerr: np.ndarray, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """varphi(k, y' + ys, x) - ys: the next fast error at the frozen slow
        state x, given ys = ystar(x), for one sample or a batch."""
        return _as_states(sample_rows(self.varphi, k, yerr + ys, x), self.dim_y, yerr) - ys


class SlowFastSample(NamedTuple):
    """One slow/fast sample: time k, slow state x, fast error y' = y - ystar(x).

    Every slow/fast sampler returns these and every consumer reads the
    fields by name, so the two states cannot be taken in the wrong order.
    """

    k: int
    x: np.ndarray
    yerr: np.ndarray


def trajectories(
    step: Callable, t0, x0: np.ndarray, horizon: int, *rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """States (S, horizon + 1, n) of ``step`` from the rows of ``x0``, and
    the step each row diverged at (0 if none).

    Row i starts at ``t0`` (a scalar) or ``t0[i]``; row i of each of
    ``rows`` goes with it.  Each step is one ``sample_rows(step, t, x,
    *rows)`` call over the live rows, so a marked map is called once and
    any other callable once per live row.  A row diverges at its first state
    that is non-finite or has norm above ``DIVERGENCE_LIMIT``; it leaves the
    live rows there, and its states from that step on are NaN.
    """
    x = real_array(x0)
    times = np.asarray(t0, dtype=int) if np.ndim(t0) else t0
    states = np.full((len(x), horizon + 1) + x.shape[1:], np.nan)
    states[:, 0] = x
    diverged = np.zeros(len(x), dtype=int)
    live = slice(None)  # every row, until one diverges
    for j in range(horizon):
        if not len(x):
            break
        x = sample_rows(step, times + j, x, *rows)
        kept = _row_norms(x) <= DIVERGENCE_LIMIT  # False on a NaN or infinite entry
        if not kept.all():
            live = np.arange(len(states))[live]
            diverged[live[~kept]] = j + 1
            live, x, rows = live[kept], x[kept], tuple(a[kept] for a in rows)
            if np.ndim(times):
                times = times[kept]
        states[live, j + 1] = x
    return states, diverged


def _simulated_states(sys: DynSystem, t0, x0, horizon: int) -> np.ndarray:
    """:func:`trajectories` of ``sys`` from one state or the rows of a batch,
    raising :class:`DivergenceError` for the first row that diverged."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    x = real_array(x0)
    starts = _as_states(x, sys.dim, x) if x.ndim == 2 else _as_vector(x, sys.dim)[None]
    states, diverged = trajectories(sys.step, t0, starts, horizon)
    bad = np.flatnonzero(diverged)
    if bad.size:
        i = int(bad[0])
        step, start = int(diverged[i]), int(np.broadcast_to(t0, diverged.shape)[i])
        raise DivergenceError(f"trajectory diverged at step {step} (t={start + step})", step=step)
    return states


def simulate(sys: DynSystem, t0, x0, horizon: int):
    """Iterate the map for ``horizon`` steps from one state, or from the
    rows of an (S, n) batch started at ``t0`` or at an (S,) array of times.

    Returns a :class:`Trajectory`, or for a batch a list of one per row.
    :class:`DivergenceError` names the first row, in row order, whose state
    went non-finite or exceeded ``DIVERGENCE_LIMIT`` in norm (see
    :func:`trajectories`), with that step's index and time.
    """
    states = _simulated_states(sys, t0, x0, horizon)
    if np.ndim(x0) < 2:
        return Trajectory(t0=t0, states=states[0])
    starts = np.broadcast_to(t0, len(states)).tolist()
    return [Trajectory(t0=start, states=row) for start, row in zip(starts, states)]


def transitions(ltv: LinearTV, t0, horizon: int) -> np.ndarray:
    """Phi(t0[i] + k, t0[i]) = A(t0[i] + k - 1) ... A(t0[i]) for each start
    time t0[i] and k = 0..horizon, as an (S, horizon + 1, n, n) array.

    One :meth:`LinearTV.matrices` read, then one batched ``@`` per step, each
    product bit for bit its own 2-D ``@``.  ValueError names the first start,
    and its step, whose product overflows.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    starts = np.asarray(t0, dtype=int).reshape(-1)
    n = ltv.dim
    A = ltv.matrices(starts[:, None] + np.arange(horizon)).reshape(len(starts), horizon, n, n)
    phi = np.empty((len(starts), horizon + 1, n, n))
    phi[:, 0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for k in range(horizon):
            phi[:, k + 1] = A[:, k] @ phi[:, k]
    finite = np.isfinite(phi).all(axis=(2, 3))
    if not finite.all():
        i, k = np.argwhere(~finite)[0]
        raise ValueError(f"transition product from t0={starts[i]} overflows at step {k}")
    return phi


def linear_part(map_fn: MapFn, t: int, dim: int) -> np.ndarray:
    """Matrix A(t) of a homogeneous linear map, columns f(t, e_i) - f(t, 0).

    If f(t, 0) or f(t, w) - A w, at one fixed non-basis point w, exceeds
    LINEAR_TOL*(1 + |A||w|) in norm (or is NaN), InapplicableError names t
    and w: a nonlinear or affine map is refused rather than read as its
    secant through the unit vectors.
    """
    base = real_array(map_fn(t, np.zeros(dim)))
    A = np.column_stack([real_array(map_fn(t, e)) - base for e in np.eye(dim)])
    w = (-1.0) ** np.arange(1, dim + 1) * (0.5 + np.arange(dim) / (2.0 * dim))
    tol = LINEAR_TOL * (1.0 + float(np.linalg.norm(A)) * float(np.linalg.norm(w)))
    residual = real_array(map_fn(t, w)) - A @ w
    off = float(np.maximum(np.linalg.norm(base), np.linalg.norm(residual)))  # keeps NaN
    if not off <= tol:
        raise InapplicableError(
            f"map is not homogeneous linear in the state at t={t}: |f(t,0)| or "
            f"|f(t,w) - A w| is {off:.3e} at w = {w.tolist()} (tolerance {tol:.1e})"
        )
    return A


def fit_exponential_envelope(
    trajectories: Sequence[Trajectory],
) -> ExponentialEnvelope:
    """Fit a single dominating envelope over a family of decaying trajectories.

    Per-trajectory decay rates come from least squares on log-norms; the
    envelope rate is the slowest of these and the gain is then inflated by
    the worst pointwise ratio, so the returned bound is a true majorant of
    every sample.  Identically-zero trajectories are admissible and fall
    back to ``LAMBDA_MAX``.  A NaN or infinite state raises
    :class:`NotExponentiallyStableError`: no envelope is fitted around it.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    rates = []
    for traj in trajectories:
        norms = traj.norms()
        if not np.all(np.isfinite(norms)):
            step = int(np.argmax(~np.isfinite(norms)))
            raise NotExponentiallyStableError(
                f"trajectory from t0={traj.t0} has a non-finite state at step {step}"
            )
        if norms[0] == 0.0:
            if np.any(norms > 0.0):
                raise NotExponentiallyStableError("trajectory leaves the origin")
            continue
        if norms[-1] >= norms[0]:
            raise NotExponentiallyStableError(
                f"trajectory does not decay (|x({traj.horizon})| >= |x(0)|)"
            )
        mask = norms > 0.0
        mask[0] = False  # the anchor's log-ratio is 0 by construction; it only biases the fit
        ts = np.flatnonzero(mask).astype(float)
        logs = np.log(norms[mask] / norms[0])
        if ts.size >= 2:
            slope = np.polyfit(ts, logs, 1)[0]
            if slope < 0.0:
                rates.append(-slope)
            else:
                # non-monotone fit; endpoint rate is still strictly positive here
                last = int(ts[-1])
                rates.append(-logs[-1] / last / 2.0)
        elif ts.size == 1 and logs[0] < 0.0:
            rates.append(-float(logs[0]) / float(ts[0]))
    rate = min(min(rates) if rates else LAMBDA_MAX, LAMBDA_MAX)
    # inflate the gain in log space so the bound dominates every sample
    log_k = 0.0
    radius = 0.0
    for traj in trajectories:
        norms = traj.norms()
        if norms[0] == 0.0:
            continue
        radius = max(radius, norms[0])
        dts = np.arange(norms.size, dtype=float)
        positive = norms > 0.0
        ratios = np.log(norms[positive] / norms[0]) + rate * dts[positive]
        if ratios.size:
            log_k = max(log_k, float(ratios.max()))
    gain = float(np.exp(log_k))
    return ExponentialEnvelope(
        gain=max(gain, 1.0), rate=rate, validity_radius=radius if radius > 0 else None
    )


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with header ``t,x0,...,x{n-1}``, one row per step, full precision."""
    n = traj.states.shape[1]
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x{i}" for i in range(n)) + "\n")
    for j, row in enumerate(traj.states):
        buf.write(str(traj.t0 + j) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()
