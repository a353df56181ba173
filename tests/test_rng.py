"""Counter-based generator: frozen vectors, determinism, stream independence."""

import math

import numpy as np
import pytest

from lyapcert.rng import Rng, _first_primes, halton, low_discrepancy_directions


class TestFrozenVectors:
    def test_seed_zero_word_stream(self):
        # reference outputs of the 64-bit mixer for seed 0
        r = Rng(0)
        assert r.at(0) == 0xE220A8397B1DCDAF
        assert r.at(1) == 0x6E789E6AA1B965F4

    def test_seed_1234567_word_stream(self):
        r = Rng(1234567)
        assert r.at(0) == 0x599ED017FB08FC85
        assert r.at(1) == 0x2C73F08458540FA5

    def test_seed_42_double_stream(self):
        r = Rng(42)
        expected = [0.7415648787718233, 0.1599103928769201, 0.27860113025513866]
        got = [r.uniform(0.0, 1.0) for _ in range(3)]
        assert got == expected

    def test_u64_matches_at(self):
        r1, r2 = Rng(99), Rng(99)
        assert [r1.u64() for _ in range(5)] == [r2.at(i) for i in range(5)]


class TestDeterminism:
    def test_replay_is_identical(self):
        a, b = Rng(2024), Rng(2024)
        for _ in range(50):
            assert a.u64() == b.u64()
        assert np.array_equal(Rng(7).ball(3, 2.0), Rng(7).ball(3, 2.0))

    def test_at_is_stateless(self):
        r = Rng(13)
        v = r.at(10)
        r.u64()
        r.uniform()
        assert r.at(10) == v

    def test_spawn_streams_are_decoupled(self):
        base = Rng(5)
        s1 = base.spawn(1)
        s2 = base.spawn(2)
        xs1 = [s1.u64() for _ in range(20)]
        xs2 = [s2.u64() for _ in range(20)]
        assert xs1 != xs2
        # spawning again from a fresh base replays the same child stream
        replay = Rng(5).spawn(1)
        assert [replay.u64() for _ in range(20)] == xs1

    def test_distinct_seeds_differ(self):
        assert Rng(0).u64() != Rng(1).u64()


class TestDistributions:
    def test_uniform_respects_bounds(self):
        r = Rng(3)
        xs = [r.uniform(-2.0, 5.0) for _ in range(500)]
        assert all(-2.0 <= v < 5.0 for v in xs)
        assert abs(np.mean(xs) - 1.5) < 0.3

    def test_integer_inclusive_range(self):
        r = Rng(8)
        xs = [r.integer(2, 4) for _ in range(300)]
        assert set(xs) == {2, 3, 4}

    def test_ball_stays_inside_radius(self):
        r = Rng(11)
        for _ in range(200):
            v = r.ball(4, 0.7)
            assert np.linalg.norm(v) <= 0.7 + 1e-12

    def test_sphere_has_unit_norm(self):
        r = Rng(12)
        for dim in (1, 2, 5):
            v = r.sphere(dim)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_normal_moments(self):
        r = Rng(21)
        xs = np.array([r.normal() for _ in range(4000)])
        assert abs(xs.mean()) < 0.1
        assert abs(xs.std() - 1.0) < 0.1

    def test_vector_and_matrix_shapes(self):
        r = Rng(17)
        assert r.vector(6).shape == (6,)
        assert r.matrix(2, 3).shape == (2, 3)


def test_seed_wraps_to_64_bits():
    assert Rng(-1).u64() == Rng(2**64 - 1).u64()
    assert Rng(2**64 + 5).u64() == Rng(5).u64()


# The Halton bases before they were generated on demand; directions for every
# dimension these covered must not move.
OLD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def old_low_discrepancy_directions(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        signs = np.ones((count, 1))
        signs[1::2, 0] = -1.0
        return signs
    n_pairs = (dim + 1) // 2
    dirs = np.empty((count, dim))
    for i in range(count):
        gauss = []
        for p in range(n_pairs):
            u1 = min(max(halton(i + 1, OLD_PRIMES[2 * p]), 2.0**-53), 1.0 - 2.0**-53)
            u2 = halton(i + 1, OLD_PRIMES[2 * p + 1])
            radius = math.sqrt(-2.0 * math.log(u1))
            gauss.append(radius * math.cos(2.0 * math.pi * u2))
            gauss.append(radius * math.sin(2.0 * math.pi * u2))
        v = np.array(gauss[:dim])
        n = float(np.linalg.norm(v))
        if n < 1e-9:
            v = np.zeros(dim)
            v[i % dim] = 1.0
            n = 1.0
        dirs[i] = v / n
    return dirs


class TestLowDiscrepancyDirections:
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_dimensions_up_to_twelve_are_unchanged(self, dim):
        got = low_discrepancy_directions(dim, 32)
        assert got.tobytes() == old_low_discrepancy_directions(dim, 32).tobytes()

    @pytest.mark.parametrize("dim", [13, 14, 48, 49])
    def test_dimensions_past_twelve_give_distinct_unit_directions(self, dim):
        dirs = low_discrepancy_directions(dim, 32)
        assert dirs.shape == (32, dim)
        assert np.all(np.isfinite(dirs))
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert len({row.tobytes() for row in dirs}) == 32

    @pytest.mark.parametrize("dim", [1, 2, 13])
    def test_each_table_is_built_once_and_read_only(self, dim):
        dirs = low_discrepancy_directions(dim, 32)
        assert low_discrepancy_directions(dim, 32) is dirs
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
        assert low_discrepancy_directions(dim, 16).tobytes() == dirs[:16].tobytes()

    def test_first_primes(self):
        assert _first_primes(12) == OLD_PRIMES
        primes = _first_primes(48)
        assert len(primes) == 48 and primes[-1] == 223
        assert all(all(p % q for q in primes[:i]) for i, p in enumerate(primes))
