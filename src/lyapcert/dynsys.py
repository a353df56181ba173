"""Discrete-time system containers, simulation, and envelope fitting.

Systems are maps ``x(t+1) = f(t, x(t))``; autonomous systems simply ignore
``t``.  Every analysis in the library works in coordinates where the
equilibrium of interest sits at the origin, so the containers validate the
declared equilibrium at construction and expose a shifted view.

Every map inside the library takes a batch of samples in one call (see
:class:`BatchMap`).  A plain callable is adapted once, by
:func:`batch_map`, where it enters: in the constructors of the classes
that hold a map and in the public functions that take one.  Every
trajectory comes from :func:`trajectories`, one map call per step over a
batch of starts with per-row horizons, with one divergence rule;
:func:`simulate` adds the raise.  Its (S, H + 1, n) state table
is the one trajectory type: :func:`fit_exponential_envelope` fits from
it and :func:`trajectory_to_csv` writes one row of it.  Every transition
product of a :class:`LinearTV` comes from :func:`transitions`, one
batched ``@`` per step over a batch of start times.  A slow/fast sample
set is one :class:`SlowFastSamples` batch of arrays, from the draw to the
report.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DivergenceError, InapplicableError, NotExponentiallyStableError

__all__ = [
    "DynSystem",
    "LinearTV",
    "ExponentialEnvelope",
    "SlowFastSystem",
    "SlowFastSamples",
    "simulate",
    "trajectories",
    "transitions",
    "linear_part",
    "BatchMap",
    "batch_map",
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


def _amplitudes(eps, x):
    """``eps`` ready to scale the rows of ``x``: a scalar as it is, or an
    (S,) array of per-row amplitudes for an (S, n) batch as an (S, 1)
    column, so row i is scaled by ``eps[i]`` exactly as a scalar would
    scale it.  An array of another shape (a length-1 array against a
    larger batch included, which numpy would broadcast), or an array given
    with one state, raises ValueError."""
    if np.ndim(eps) == 0:
        return eps
    eps = real_array(eps)
    if np.ndim(x) != 2:
        raise ValueError(f"per-row amplitudes of shape {eps.shape} given with one state")
    if eps.shape != (len(x),):
        raise ValueError(f"per-row amplitudes of shape {eps.shape} for a batch of {len(x)} rows")
    return eps[:, None]


class BatchMap:
    """A map over a batch of samples in one call, the library's one map protocol.

    A call with a 2-D argument is S samples: array arguments run along
    their first axis ((S,) times, (S, n) states), the others are shared,
    and row i of the float result (see :func:`real_array`) is bit for bit
    the one-sample call; a :class:`LinearTV` matrix map takes (S,) times.
    On a method it binds as a function does.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, *args) -> np.ndarray:
        return real_array(self.fn(*args))

    def __get__(self, obj, owner=None):
        return self if obj is None else BatchMap(self.fn.__get__(obj, owner))


def batch_map(fn: Callable, batch_ndim: int = 2) -> BatchMap:
    """``fn`` as a :class:`BatchMap`: a BatchMap as it is, any other
    callable called once per sample, in sample order.  A call is a batch
    when an argument has ``batch_ndim`` dimensions (1 for a map of time
    alone); array arguments then give Python scalars for 1-D entries and
    must share one length (else ValueError), the others are shared."""
    if isinstance(fn, BatchMap):
        return fn

    def each_sample(*args):
        size = next((len(a) for a in args if isinstance(a, np.ndarray) and a.ndim == batch_ndim), None)
        if size is None:
            return fn(*args)
        columns = []
        for a in args:
            if not isinstance(a, np.ndarray) or a.ndim == 0:
                columns.append(itertools.repeat(a, size))
                continue
            if len(a) != size:
                raise ValueError(f"batch arguments of different lengths {len(a)} and {size}")
            columns.append(a.tolist() if a.ndim == 1 else a)
        return np.array([real_array(fn(*sample)) for sample in zip(*columns)])

    return BatchMap(each_sample)


def _batch_fields(obj, *names: str) -> None:
    """Each named map field of the frozen dataclass ``obj`` as its :func:`batch_map` (None stays)."""
    for name in names:
        if getattr(obj, name) is not None:
            object.__setattr__(obj, name, batch_map(getattr(obj, name)))


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
        _batch_fields(self, "map_fn")
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

    @BatchMap
    def step(self, t: int, x: np.ndarray) -> np.ndarray:
        """The next state of one state, or of each row of an (S, n) batch at
        a scalar t or an (S,) array of times (see :class:`BatchMap`)."""
        x = np.asarray(x, dtype=float)
        return _as_states(self.map_fn(t, x), self.dim, x)

    def shifted(self) -> "DynSystem":
        """Same dynamics in coordinates where the equilibrium is the origin."""
        if not np.any(self.equilibrium):
            return self
        eq = self.equilibrium
        shifted_map = BatchMap(lambda t, u: self.map_fn(t, u + eq) - eq)
        return DynSystem(self.dim, shifted_map, self.autonomous, np.zeros(self.dim))


@dataclass(frozen=True)
class LinearTV:
    """Time-varying linear system ``x(t+1) = A(t) x(t)``.

    Every A(t) is read through :meth:`matrices`, once per t on each
    instance: the missing times in one ``matrix_fn`` call with their array
    (a plain ``matrix_fn(t)`` one t at a time, in first-read order).  Each
    read is checked once: a complex A(t) raises TypeError (see
    :func:`real_array`), a wrong shape or a NaN or infinite entry
    ValueError naming t.
    """

    dim: int
    matrix_fn: Callable[[int], np.ndarray]
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix_fn", batch_map(self.matrix_fn, 1))

    def matrices(self, times) -> np.ndarray:
        """A(t) at each t of ``times``, as a read-only (len(times), n, n) stack."""
        times = np.asarray(times, dtype=int).reshape(-1).tolist()
        missing = [t for t in dict.fromkeys(times) if t not in self._matrices]
        read = self.matrix_fn(np.array(missing)) if missing else ()
        if np.shape(read)[:1] != (len(missing),):
            raise ValueError(f"A at {len(missing)} times has shape {np.shape(read)}")
        shape = (self.dim, self.dim)
        for t, A in zip(missing, read):
            A = np.array(A)
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
        # a map of one state: A(t) @ X of a batch would be wrong, so the
        # constructor calls it once per row
        return DynSystem(
            self.dim,
            lambda t, x: self.matrix(t) @ x,
            autonomous=False,
            equilibrium=np.zeros(self.dim),
        )


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
        _batch_fields(self, "phi", "varphi", "ystar")
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

    def step(
        self, k: int, x: np.ndarray, y: np.ndarray, eps: float | np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One coupled step (x + eps*phi(k, x, y), varphi(k, y, x)) of one pair
        or of a batch (see :class:`BatchMap`), at the amplitude eps, or for
        a batch at an (S,) array of per-row amplitudes (see
        :func:`_amplitudes`, which refuses a malformed one before any map
        call)."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return x + _amplitudes(eps, x) * self.phi(k, x, y), self.varphi(k, y, x)

    @BatchMap
    def stacked_step(self, k, z: np.ndarray, eps: float | np.ndarray) -> np.ndarray:
        """:meth:`step` of the stacked state z = (x, y), one state or a batch."""
        z = np.asarray(z, dtype=float)
        return np.concatenate(self.step(k, z[..., : self.dim_x], z[..., self.dim_x:], eps), axis=-1)

    def system(self) -> DynSystem:
        """:meth:`stacked_step` at ``epsilon``, with equilibrium (0, ystar(0))."""
        eq = np.concatenate(self._frozen(np.zeros(self.dim_x)))
        map_fn = BatchMap(lambda k, z: self.stacked_step(k, z, self.epsilon))
        return DynSystem(self.dim_x + self.dim_y, map_fn, autonomous=False, equilibrium=eq)

    def shifted_fast(self, x: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
        """Fast map in error coordinates y' = y - ystar(x), slow state frozen.

        ``x`` is one slow state, or an (S, dim_x) batch frozen row by row.
        The map takes one fast error, or an (S, dim_y) batch of them, at a
        scalar k or an (S,) array of k (see :class:`BatchMap`).
        """
        x, ys = self._frozen(x)

        @BatchMap
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
        x = _as_states(x, self.dim_x, np.asarray(x))
        return x, _as_states(self.ystar(x), self.dim_y, x)

    @BatchMap
    def _fast_error_step(self, k, yerr: np.ndarray, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """varphi(k, y' + ys, x) - ys: the next fast error at the frozen slow
        state x, given ys = ystar(x), for one sample or a batch."""
        return _as_states(self.varphi(k, yerr + ys, x), self.dim_y, yerr) - ys


class _SlowFastFields(NamedTuple):
    k: np.ndarray
    x: np.ndarray
    yerr: np.ndarray


class SlowFastSamples(_SlowFastFields):
    """A slow/fast sample set as one batch: times k (S,), slow states x
    (S, dim_x) and fast errors y' = y - ystar(x) (S, dim_y), row i one
    sample.

    Every slow/fast sampler returns one and every consumer reads the
    fields by name, so the two states cannot be taken in the wrong order.
    The fields are held as C-contiguous arrays; ValueError refuses a state
    array that is not 2-D and fields of different lengths.
    """

    __slots__ = ()

    def __new__(cls, k, x, yerr):
        k = np.array(k, dtype=int).reshape(-1)
        x, yerr = (np.ascontiguousarray(real_array(a)) for a in (x, yerr))
        if x.ndim != 2 or yerr.ndim != 2:
            raise ValueError(f"x and yerr must be 2-D, got shapes {x.shape} and {yerr.shape}")
        if not len(k) == len(x) == len(yerr):
            raise ValueError(f"{len(k)} times, {len(x)} slow states and {len(yerr)} fast errors")
        return super().__new__(cls, k, x, yerr)


def _step_counts(horizon, size: Optional[int] = None) -> np.ndarray:
    """``horizon`` as an int array: one step count, or (size,) ones if ``size`` is given."""
    counts = np.asarray(horizon)
    if counts.dtype.kind not in "iu" or not (counts >= 0).all() or counts.shape not in ((), (size,)):
        per_row = "" if size is None else f" or {size} of them"
        raise ValueError(f"horizon must be a nonnegative int{per_row}, got {horizon!r}")
    return counts


def trajectories(
    step: Callable, t0, x0: np.ndarray, horizon, *rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """States (S, H + 1, n) of ``step`` from the rows of ``x0``, and the step
    each row diverged at (0 if none).

    ``horizon`` is H steps, or (S,) per-row counts with largest H, a
    malformed one refused (ValueError) before any map call.  Row i starts
    at ``t0`` or ``t0[i]``; row i of each of ``rows`` (such as an
    amplitude) goes with it.  Each step is one ``step(t, x, *rows)`` call
    over the live rows.  A row leaves them after its own count, or where
    it diverges: at its first state that is non-finite or has norm above
    ``DIVERGENCE_LIMIT``.  Its later states are NaN.
    """
    step, x = batch_map(step), real_array(x0)
    counts = _step_counts(horizon, len(x))
    length = int(counts.max(initial=0))
    ends = np.array(np.broadcast_to(counts, len(x)))  # each live row's count, cut short where it diverges
    times = np.asarray(t0, dtype=int) if np.ndim(t0) else t0
    states = np.full((len(x), length + 1) + x.shape[1:], np.nan)
    states[:, 0] = x
    diverged = np.zeros(len(x), dtype=int)
    live = slice(None)  # every row, until one leaves
    exit_at = int(ends.min(initial=length))  # the next step a row leaves at
    for j in range(length):
        if j == exit_at:
            kept = ends > j
            live, x, ends = np.arange(len(states))[live][kept], x[kept], ends[kept]
            rows, times = tuple(a[kept] for a in rows), times[kept] if np.ndim(times) else times
            exit_at = int(ends.min(initial=length))
        if not len(x):
            break
        x = step(times + j, x, *rows)
        states[live, j + 1] = x
        norms = _row_norms(x)
        if not norms.max() <= DIVERGENCE_LIMIT:  # one NaN-safe test; the mask only on a failure
            gone = ~(norms <= DIVERGENCE_LIMIT)  # True on a NaN or infinite entry
            first = np.arange(len(states))[live][gone]
            states[first, j + 1], diverged[first] = np.nan, j + 1
            ends[gone] = exit_at = j + 1  # so it leaves before the next step
    return states, diverged


def simulate(sys: DynSystem, t0, x0, horizon) -> np.ndarray:
    """Iterate the map for ``horizon`` steps from one state, or from the
    rows of an (S, n) batch started at ``t0`` or at an (S,) array of times.

    Returns the :func:`trajectories` states: (H + 1, n) for one state,
    (S, H + 1, n) for a batch.  :class:`DivergenceError` names the first
    row, in row order, whose state went non-finite or exceeded
    ``DIVERGENCE_LIMIT`` in norm, with that step's index and time.
    """
    x = real_array(x0)
    starts = _as_states(x, sys.dim, x) if x.ndim == 2 else _as_vector(x, sys.dim)[None]
    states, diverged = trajectories(sys.step, t0, starts, horizon)
    bad = np.flatnonzero(diverged)
    if bad.size:
        i = int(bad[0])
        step, start = int(diverged[i]), int(np.broadcast_to(t0, diverged.shape)[i])
        raise DivergenceError(f"trajectory diverged at step {step} (t={start + step})", step=step)
    return states if x.ndim == 2 else states[0]


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
    map_fn = batch_map(map_fn)
    base = map_fn(t, np.zeros(dim))
    A = np.column_stack([map_fn(t, e) - base for e in np.eye(dim)])
    w = (-1.0) ** np.arange(1, dim + 1) * (0.5 + np.arange(dim) / (2.0 * dim))
    tol = LINEAR_TOL * (1.0 + float(np.linalg.norm(A)) * float(np.linalg.norm(w)))
    residual = map_fn(t, w) - A @ w
    off = float(np.maximum(np.linalg.norm(base), np.linalg.norm(residual)))  # keeps NaN
    if not off <= tol:
        raise InapplicableError(
            f"map is not homogeneous linear in the state at t={t}: |f(t,0)| or "
            f"|f(t,w) - A w| is {off:.3e} at w = {w.tolist()} (tolerance {tol:.1e})"
        )
    return A


def fit_exponential_envelope(states: np.ndarray, t0=0) -> ExponentialEnvelope:
    """Fit a single dominating envelope over the (S, H + 1, n) states of S
    decaying trajectories, row i started at ``t0`` or ``t0[i]`` (read only
    to name a refused row).

    Per-trajectory decay rates come from least squares on log-norms; the
    envelope rate is the slowest of these and the gain is then inflated by
    the worst pointwise ratio, so the returned bound is a true majorant of
    every sample.  Identically-zero trajectories are admissible and fall
    back to ``LAMBDA_MAX``.  The first refused row, in row order, raises
    :class:`NotExponentiallyStableError`: a NaN or infinite state (no
    envelope is fitted around it), a row leaving the origin, or a row that
    does not decay: whose last positive norm after the start is not below
    its first.
    """
    states = real_array(states)
    if states.ndim != 3 or not states.shape[0] or not states.shape[1]:
        raise ValueError(f"need an (S, H+1, n) table of at least one trajectory, got {states.shape}")
    norms = np.linalg.norm(states, axis=-1)
    rates = []
    for i, row in enumerate(norms):
        if not np.all(np.isfinite(row)):
            step = int(np.argmax(~np.isfinite(row)))
            start = int(np.broadcast_to(t0, len(norms))[i])
            raise NotExponentiallyStableError(
                f"trajectory from t0={start} has a non-finite state at step {step}"
            )
        if row[0] == 0.0:
            if np.any(row > 0.0):
                raise NotExponentiallyStableError("trajectory leaves the origin")
            continue
        mask = row > 0.0
        mask[0] = False  # the anchor's log-ratio is 0 by construction; it only biases the fit
        ts = np.flatnonzero(mask)
        if ts.size and row[ts[-1]] >= row[0]:  # the last positive norm: a zero one says nothing
            raise NotExponentiallyStableError(
                f"trajectory does not decay (|x({ts[-1]})| >= |x(0)|)"
            )
        ts = ts.astype(float)
        logs = np.log(row[mask] / row[0])
        if ts.size >= 2:
            slope = np.polyfit(ts, logs, 1)[0]
            if slope < 0.0:
                rates.append(-slope)
            else:
                # non-monotone fit; endpoint rate is still strictly positive here
                last = int(ts[-1])
                rates.append(-logs[-1] / last / 2.0)
        elif ts.size == 1:
            rates.append(-float(logs[0]) / float(ts[0]))
    rate = min(min(rates) if rates else LAMBDA_MAX, LAMBDA_MAX)
    # inflate the gain in log space so the bound dominates every sample; an
    # identically-zero row has no positive norm and adds nothing
    first = np.broadcast_to(norms[:, :1], norms.shape)
    positive = norms > 0.0
    dts = np.broadcast_to(np.arange(norms.shape[1], dtype=float), norms.shape)
    ratios = np.log(norms[positive] / first[positive]) + rate * dts[positive]
    gain = float(np.exp(ratios.max(initial=0.0)))
    radius = float(first[:, 0].max())
    return ExponentialEnvelope(
        gain=max(gain, 1.0), rate=rate, validity_radius=radius if radius > 0 else None
    )


def trajectory_to_csv(t0: int, states: np.ndarray) -> str:
    """CSV with header ``t,x0,...,x{n-1}`` and row j the time t0 + j and the
    (H + 1, n) ``states[j]``, full precision."""
    states = real_array(states)
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x{i}" for i in range(states.shape[1])) + "\n")
    for j, row in enumerate(states.tolist()):
        buf.write(str(t0 + j) + "," + ",".join(map(repr, row)) + "\n")
    return buf.getvalue()
