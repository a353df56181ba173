"""Deterministic counter-based sampling.

All randomized sampling in the library flows through :class:`Rng`, a
splitmix64 generator.  The output at counter ``i`` is a pure function of
``(seed, i)``, so identical seeds reproduce identical sample streams on
any platform; frozen test vectors pin the exact bit patterns.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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
        span = high - low + 1
        return low + self.u64() % span

    def vector(self, dim: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(dim)])

    def sphere(self, dim: int) -> np.ndarray:
        """Uniform direction on the unit sphere."""
        while True:
            v = self.vector(dim)
            n = float(np.linalg.norm(v))
            if n > 1e-12:
                return v / n

    def ball(self, dim: int, radius: float = 1.0) -> np.ndarray:
        """Uniform point in the solid ball of the given radius."""
        direction = self.sphere(dim)
        r = radius * self.uniform() ** (1.0 / dim)
        return direction * r

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
    dimension has its own distinct bases.
    """
    if dim == 1:
        signs = np.ones((count, 1))
        signs[1::2, 0] = -1.0
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
    return dirs
