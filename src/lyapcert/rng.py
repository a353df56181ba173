"""Deterministic counter-based sampling.

All randomized sampling in the library flows through :class:`Rng`, a
splitmix64 generator.  The output at counter ``i`` is a pure function of
``(seed, i)``, so identical seeds reproduce identical sample streams on
any platform; frozen test vectors pin the exact bit patterns.

The scalar methods (``integer``, ``uniform``, ``ball``, ...) are the
reference.  :meth:`Rng.draw` draws many rows of them at once from uint64
word arrays and gives the same values, bit for bit, with the counter left
where the scalar calls in the same order would leave it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dynsys import _row_norms

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _unit(words: np.ndarray) -> np.ndarray:
    """The 53-bit doubles in [0, 1) of ``uniform`` for an array of words."""
    return (words >> np.uint64(11)).astype(float) * 2.0**-53


def _check_ball(dim: int, radius: float) -> None:
    if dim < 1:
        raise ValueError(f"ball dimension must be at least 1, got {dim}")
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ValueError(f"ball radius must be finite and non-negative, got {radius}")


def _check_integer(low: int, high: int) -> None:
    if high < low:
        raise ValueError(f"integer range is empty: high {high} < low {low}")


def _width(part: tuple) -> int:
    """Words one scalar draw of ``part`` takes when nothing is rejected."""
    kind = part[0]
    if kind == "integer":
        _check_integer(*part[1:])
        return 1
    if kind == "uniform":
        return 1
    if kind == "ball":
        _check_ball(*part[1:])
        return 2 * part[1] + 1
    raise ValueError(f"unknown draw part {kind!r}")


class Rng:
    """splitmix64 stream: ``output(i) = mix(seed + (i+1)*GAMMA)``."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def at(self, index: int) -> int:
        """64-bit output at an absolute counter position (stateless)."""
        state = (self.seed + ((index + 1) * _GAMMA)) & _MASK
        return _mix(state)

    def u64(self) -> int:
        value = self.at(self._counter)
        self._counter += 1
        return value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # 53-bit mantissa in [0, 1)
        u = (self.u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def normal(self) -> float:
        # Box-Muller; clamp u1 away from zero so log stays finite
        u1 = max((self.u64() >> 11) * 2.0**-53, 2.0**-53)
        u2 = (self.u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] (inclusive)."""
        _check_integer(low, high)
        span = high - low + 1
        return low + self.u64() % span

    def vector(self, dim: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(dim)])

    def sphere(self, dim: int) -> np.ndarray:
        """Uniform direction on the unit sphere."""
        if dim < 1:
            raise ValueError(f"sphere dimension must be at least 1, got {dim}")
        while True:
            v = self.vector(dim)
            n = float(np.linalg.norm(v))
            if n > 1e-12:
                return v / n

    def ball(self, dim: int, radius: float = 1.0) -> np.ndarray:
        """Uniform point in the solid ball of the given radius."""
        _check_ball(dim, radius)
        direction = self.sphere(dim)
        r = radius * self.uniform() ** (1.0 / dim)
        return direction * r

    def words(self, start: int, count: int) -> np.ndarray:
        """``at(start), ..., at(start + count - 1)`` as one uint64 array
        (stateless); uint64 arithmetic wraps exactly as ``_MASK`` does."""
        u64 = np.uint64
        index = np.arange(1, count + 1, dtype=u64) + u64(start)
        z = u64(self.seed) + index * u64(_GAMMA)
        z = (z ^ (z >> u64(30))) * u64(_M1)
        z = (z ^ (z >> u64(27))) * u64(_M2)
        return z ^ (z >> u64(31))

    def draw(self, count: int, *parts: tuple) -> list:
        """``count`` rows of scalar draws, each row the ``parts`` in order.

        A part is ``("integer", low, high)``, ``("uniform", low, high)`` or
        ``("ball", dim, radius)``.  One value per part comes back: a list of
        Python numbers for an integer or uniform part, a ``(count, dim)``
        array for a ball part.  Row after row, the values and the final
        counter are exactly those of calling :meth:`integer`,
        :meth:`uniform` and :meth:`ball` in that order.  A row with a
        rejected sphere draw (norm <= 1e-12) is drawn by those scalar
        methods, and the batch resumes after it.
        """
        if count < 0:
            raise ValueError(f"draw count must be non-negative, got {count}")
        widths = [_width(part) for part in parts]
        chunks, row = [], 0
        while True:
            values, kept = self._rows(count - row, parts, widths)
            chunks.append(values)
            row += kept
            if row == count:
                break
            replayed = [getattr(self, part[0])(*part[1:]) for part in parts]
            chunks.append([[v] if np.ndim(v) == 0 else v[None] for v in replayed])
            row += 1
        if len(chunks) == 1:
            return chunks[0]
        return [
            np.concatenate(column) if part[0] == "ball" else [v for c in column for v in c]
            for part, column in zip(parts, zip(*chunks))
        ]

    def _rows(self, count: int, parts: tuple, widths: list) -> tuple:
        """The values of :meth:`draw` for up to ``count`` rows from the
        counter on, cut before the first row with a rejected sphere draw;
        the counter moves past the rows kept, which are also returned.

        The words of all rows are hashed and scaled at once; ``math.log``,
        ``math.cos`` and the ``1/dim`` power stay scalar, since numpy's
        versions may round differently.
        """
        width = sum(widths)
        words = self.words(self._counter, count * width).reshape(count, width)
        units = _unit(words)
        accepted = np.ones(count, dtype=bool)
        values, col = [], 0
        for part, n_words in zip(parts, widths):
            kind, *args = part
            if kind == "integer":
                low, high = args
                values.append([low + word % (high - low + 1) for word in words[:, col].tolist()])
            elif kind == "uniform":
                low, high = args
                with np.errstate(all="ignore"):  # as quiet as float arithmetic
                    values.append((low + (high - low) * units[:, col]).tolist())
            else:
                dim, radius = args
                u1 = np.maximum(units[:, col : col + 2 * dim : 2], 2.0**-53)
                angle = 2.0 * math.pi * units[:, col + 1 : col + 2 * dim : 2]
                log_u1 = np.array([math.log(u) for u in u1.ravel().tolist()])
                cos = np.array([math.cos(a) for a in angle.ravel().tolist()])
                gauss = np.sqrt(-2.0 * log_u1.reshape(u1.shape)) * cos.reshape(u1.shape)
                norms = _row_norms(gauss)
                accepted &= norms > 1e-12
                power = 1.0 / dim
                r = radius * np.array([u**power for u in units[:, col + n_words - 1].tolist()])
                values.append(gauss / norms[:, None] * r[:, None])
            col += n_words
        kept = count if accepted.all() else int(np.argmin(accepted))
        self._counter += kept * width
        return [v[:kept] for v in values], kept

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return np.array([[self.normal() for _ in range(cols)] for _ in range(rows)])

    def spawn(self, tag: int) -> "Rng":
        """Independent substream keyed by a fixed tag (order-insensitive)."""
        return Rng(self.at((tag << 20) + 0xA5A5A5))


def halton(index: int, base: int) -> float:
    """Van der Corput radical inverse; bases should be small primes."""
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _first_primes(k: int) -> tuple[int, ...]:
    """The first ``k`` primes, by trial division over the primes found so far."""
    primes = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def low_discrepancy_directions(dim: int, count: int) -> np.ndarray:
    """Quasi-uniform unit directions from Halton points.

    Pairs of Halton coordinates go through Box-Muller, giving a smooth
    deterministic covering of the sphere that avoids clustering.  Coordinate
    pair p uses the primes 2p and 2p + 1 (counting from 0) as bases, so any
    dimension has its own distinct bases.  Each (dim, count) table is built
    once and shared, so it is returned read-only.
    """
    # a plain function in front of the memo, so the per-layer tracer of
    # perfbench, which wraps module functions, still sees the rng layer
    return _direction_table(dim, count)


@functools.lru_cache(maxsize=64)  # a process uses a few (dim, count) pairs
def _direction_table(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        signs = np.ones((count, 1))
        signs[1::2, 0] = -1.0
        signs.flags.writeable = False
        return signs
    n_pairs = (dim + 1) // 2
    primes = _first_primes(2 * n_pairs)
    dirs = np.empty((count, dim))
    for i in range(count):
        gauss = []
        for p in range(n_pairs):
            u1 = min(max(halton(i + 1, primes[2 * p]), 2.0**-53), 1.0 - 2.0**-53)
            u2 = halton(i + 1, primes[2 * p + 1])
            radius = math.sqrt(-2.0 * math.log(u1))
            gauss.append(radius * math.cos(2.0 * math.pi * u2))
            gauss.append(radius * math.sin(2.0 * math.pi * u2))
        v = np.array(gauss[:dim])
        n = float(np.linalg.norm(v))
        if n < 1e-9:  # Halton never lands exactly at the origin in practice
            v = np.zeros(dim)
            v[i % dim] = 1.0
            n = 1.0
        dirs[i] = v / n
    dirs.flags.writeable = False
    return dirs
