"""Sampled verification of candidate certificate functions.

Every check here produces *sampled evidence* on an explicit grid, never a
proof: the grid covers concentric shells (geometrically spaced radii) times
low-discrepancy directions, and quadratic candidates additionally get their
eigendirections injected so sign defects cannot hide between samples.

``check_positive_definite`` and ``check_decrease`` read every sample in
one batch: an (S,) array of times and an (S, n) array of states, taken
through :func:`~lyapcert.dynsys.sample_rows`.  A candidate or map marked
``state_batched`` (``CandidateFunction.quadratic`` is) is called once per
quantity; any other callable once per sample, in sample order.  Each
batched value equals the one-sample call bit for bit, and the slacks are
formed with the same floating-point operations as one sample at a time.

Every per-sample check in the package reduces through
:meth:`ConditionReport.from_slack`.  A check computes one slack per
sample with its tolerance already folded in, so the slack is >= 0 exactly
where the inequality held (> 0 for the strict ``pos_def`` and
``strict_decrease`` conditions).  The reduction fails closed: an empty
sample set, or any NaN or infinite slack, fails the report.  A report's
``worst_margin`` is therefore >= 0 exactly when it passed.  A complex
value from a candidate or a map raises TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .dynsys import DynSystem, real_array, sample_rows, state_batched
from .rng import low_discrepancy_directions

__all__ = [
    "CandidateFunction",
    "ConditionReport",
    "worst_index",
    "shell_grid",
    "inject_eigendirections",
    "check_positive_definite",
    "check_decrease",
    "POS_DEF",
    "DECREASE",
    "STRICT_DECREASE",
]

TOL_ABS = 1e-9
TOL_REL = 1e-9

POS_DEF = "pos_def"
DECREASE = "decrease"
STRICT_DECREASE = "strict_decrease"


@dataclass(frozen=True)
class CandidateFunction:
    """Scalar candidate V(t, x); autonomous candidates ignore t.

    ``quadratic_P`` marks candidates of the form x' P x, unlocking exact
    eigenvalue information in several checks.  V(t, 0) = 0 is sampled at
    construction.  A complex value raises TypeError.
    """

    eval_fn: Callable[[int, np.ndarray], float]
    dim: int
    quadratic_P: Optional[np.ndarray] = None
    time_dependent: bool = False

    def __post_init__(self):
        times = (0, 1, 3) if self.time_dependent else (0,)
        origin = np.zeros(self.dim)
        for t in times:
            v0 = self(t, origin)
            if not abs(v0) <= TOL_ABS:
                raise ValueError(f"candidate does not vanish at the origin: V({t},0)={v0!r}")

    def __call__(self, t: int, x: np.ndarray) -> float:
        return float(real_array(self.eval_fn(t, np.asarray(x, dtype=float))))

    @classmethod
    def quadratic(cls, P: np.ndarray) -> "CandidateFunction":
        """x' P x for the symmetric part P; ``eval_fn`` also takes an (S, n)
        batch of states, one value per row, each equal bit for bit to the
        one-state call (a stacked product makes the same BLAS calls)."""
        P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)

        @state_batched
        def form(t, x) -> float:
            if isinstance(x, np.ndarray) and x.ndim == 2:
                x = np.ascontiguousarray(x, dtype=float)
                return np.vecdot(np.matmul(x[:, None, :], P)[:, 0, :], x)
            return float(x @ P @ x)

        return cls(eval_fn=form, dim=P.shape[0], quadratic_P=P)


def worst_index(slack: Sequence[float]) -> Optional[int]:
    """Index of the sample a report names: the first non-finite slack,
    else the first minimum; None for an empty sample set."""
    slack = np.asarray(slack, dtype=float)
    if slack.size == 0:
        return None
    bad = np.flatnonzero(~np.isfinite(slack))
    return int(bad[0]) if bad.size else int(np.argmin(slack))


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    worst_margin: float
    worst_point: Optional[Tuple[int, np.ndarray]]
    samples_checked: int
    details: dict = field(default_factory=dict)

    @classmethod
    def from_slack(
        cls,
        condition: str,
        slack: Sequence[float],
        points: Sequence[Tuple[int, np.ndarray]],
        details: Optional[dict] = None,
    ) -> "ConditionReport":
        """Reduce per-sample slacks (tolerance folded in) to one report.

        ``points[i]`` is the ``(t, x)`` sample behind ``slack[i]``.  The
        report passes when every slack is finite and >= 0 (> 0 for
        ``pos_def`` and ``strict_decrease``) on a nonempty sample set.  It
        names the first non-finite sample if there is one, with margin
        -inf for a -inf slack and NaN otherwise, else the first minimum.
        An empty sample set fails with a NaN margin.
        """
        slack = np.asarray(slack, dtype=float).reshape(-1)
        if slack.size != len(points):
            raise ValueError(f"{slack.size} slacks for {len(points)} sample points")
        details = {} if details is None else details
        i = worst_index(slack)
        if i is None:
            return cls(condition, False, math.nan, None, 0, details)
        margin = float(slack[i])
        if not math.isfinite(margin):
            margin = -math.inf if margin == -math.inf else math.nan
            passed = False
        elif condition in (POS_DEF, STRICT_DECREASE):
            passed = margin > 0.0
        else:
            passed = margin >= 0.0
        return cls(condition, passed, margin, points[i], int(slack.size), details)


def shell_grid(
    dim: int,
    radius: float,
    n_shells: int = 12,
    n_directions: int = 32,
) -> np.ndarray:
    """Concentric-shell sample set: geometric radii from radius/1000 to
    radius times quasi-uniform directions."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    radii = np.geomspace(radius * 1e-3, radius, n_shells)
    dirs = low_discrepancy_directions(dim, n_directions)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)


def inject_eigendirections(grid: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Append +-eigenvector rays of a quadratic form at several grid radii."""
    norms = np.linalg.norm(grid, axis=1)
    norms = norms[norms > 0.0]
    if norms.size == 0:
        raise ValueError("grid has no nonzero points")
    radii = np.geomspace(norms.min(), norms.max(), 5)
    _, vecs = np.linalg.eigh(np.asarray(P, dtype=float))
    # rows ordered by eigenvector, then radius, then sign: (s r) v
    coefficients = (radii[:, None] * np.array([1.0, -1.0])).ravel()
    extra = coefficients[None, :, None] * vecs.T[:, None, :]
    return np.vstack([grid, extra.reshape(-1, vecs.shape[0])])


def _candidate_grid(V: CandidateFunction, grid: np.ndarray) -> np.ndarray:
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if V.quadratic_P is not None:
        grid = inject_eigendirections(grid, V.quadratic_P)
    return grid


def _times(V: CandidateFunction, sys: Optional[DynSystem]) -> Tuple[int, ...]:
    if V.time_dependent or (sys is not None and not sys.autonomous):
        return (0, 1, 2, 3)
    return (0,)


def _nonzero_samples(grid: np.ndarray, times: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Times (S,) and states (S, n) of every nonzero grid row at every time,
    t-major: all rows at the first time, then all at the next."""
    rows = grid[np.any(grid, axis=1)]
    return np.repeat(np.asarray(times, dtype=int), len(rows)), np.tile(rows, (len(times), 1))


def _report(condition: str, slack, T: np.ndarray, X: np.ndarray, details=None) -> ConditionReport:
    return ConditionReport.from_slack(condition, slack, list(zip(T.tolist(), X)), details)


def check_positive_definite(V: CandidateFunction, grid: np.ndarray) -> ConditionReport:
    """Sampled positivity of V away from the origin; the slack is V itself."""
    grid = _candidate_grid(V, grid)
    T, X = _nonzero_samples(grid, _times(V, None))
    details = {}
    if V.quadratic_P is not None:
        details["min_eig_P"] = float(np.linalg.eigvalsh(V.quadratic_P)[0])
    slack = sample_rows(V.eval_fn, T, X) if len(T) else []
    return _report(POS_DEF, slack, T, X, details)


def check_decrease(
    V: CandidateFunction,
    sys: DynSystem,
    grid: np.ndarray,
    strict: bool = False,
) -> ConditionReport:
    """Sampled one-step decrease of V along the map.

    The slack is tol - Delta V for the non-strict check, which accepts
    increments up to the margin tolerance, and -tol - Delta V for the
    strict one, which needs the increment to clear the tolerance on the
    negative side.  The tolerance is TOL_ABS + TOL_REL |V(t, x)|.
    """
    grid = _candidate_grid(V, grid)
    T, X = _nonzero_samples(grid, _times(V, sys))
    condition = STRICT_DECREASE if strict else DECREASE
    if not len(T):
        return _report(condition, [], T, X)
    sign = -1.0 if strict else 1.0
    value = sample_rows(V.eval_fn, T, X)
    after = sample_rows(V.eval_fn, T + 1, sample_rows(sys.step, T, X))
    slack = sign * (TOL_ABS + TOL_REL * np.abs(value)) - (after - value)
    return _report(condition, slack, T, X)
