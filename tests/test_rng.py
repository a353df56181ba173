"""Counter-based generator: frozen vectors, determinism, stream independence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestFrozenDraws:
    """Exact draws of the scalar methods, which every batched draw must keep."""

    BALLS = {
        1: ["0x1.cd7cfe4d22577p-2"],
        2: ["0x1.3009fc4908a62p-2", "0x1.9928521e27894p-2"],
        3: ["0x1.19d5a827d0c66p-2", "0x1.7b46b0ff95e6bp-2", "0x1.15d5841d1a1c1p-1"],
        13: [
            "0x1.b5d4712ca2e79p-4", "0x1.269a449c343c2p-3", "0x1.af9d70a913f1cp-3",
            "-0x1.6b5456b225e09p-5", "-0x1.944aeca3cb978p-4", "-0x1.6d168f39455abp-4",
            "0x1.6444c5b9d2dccp-3", "-0x1.080674c137178p-2", "0x1.a6ebe15e0d885p-4",
            "0x1.55769de694e44p-2", "0x1.2547e055f3ccdp-3", "0x1.3757a1df5d32fp-2",
            "-0x1.aa8b871ddb843p-7",
        ],
    }

    @pytest.mark.parametrize("dim", sorted(BALLS))
    def test_ball(self, dim):
        r = Rng(601)
        assert [v.hex() for v in r.ball(dim, 0.75)] == self.BALLS[dim]
        assert r._counter == 2 * dim + 1
        (row,) = Rng(601).draw(1, ("ball", dim, 0.75))
        assert [v.hex() for v in row[0]] == self.BALLS[dim]

    def test_integer_and_uniform_stream(self):
        r = Rng(602)
        assert [r.integer(0, 3) for _ in range(8)] == [1, 2, 0, 1, 0, 0, 2, 3]
        assert [r.uniform(-2.0, 5.0).hex() for _ in range(3)] == [
            "0x1.3bff5cf9b1465p+2", "-0x1.b9c47a648f946p+0", "0x1.6647942383460p-1",
        ]
        assert r.integer(-5, 2**40) == 1081225479538
        assert r._counter == 12


def scalar_rows(rng, count, parts):
    """The reference for ``Rng.draw``: the scalar methods, row after row."""
    out = [[] for _ in parts]
    for _ in range(count):
        for values, (kind, *args) in zip(out, parts):
            values.append(getattr(rng, kind)(*args))
    return out


def assert_same_draws(parts, expected, got):
    for (kind, *args), want, have in zip(parts, expected, got):
        if kind == "ball":
            assert have.shape == (len(want), args[0])
            assert have.tobytes() == np.array(want).reshape(have.shape).tobytes()
        else:
            assert [v.hex() if isinstance(v, float) else v for v in have] == [
                v.hex() if isinstance(v, float) else v for v in want
            ]
            assert [type(v) for v in have] == [type(v) for v in want]


# every row layout the package draws with
LAYOUTS = {
    "ball": lambda d, r: [("ball", d, r)],
    "integer-ball": lambda d, r: [("integer", 0, 3), ("ball", d, r)],
    "integer-ball-ball": lambda d, r: [("integer", 0, 3), ("ball", d, r), ("ball", d + 1, r)],
    "integer-integer-ball-uniform": lambda d, r: [
        ("integer", 0, 4), ("integer", 0, 3), ("ball", d, r), ("uniform", 0.0, r),
    ],
}


class TestDrawKernel:
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(0, 40),
        layout=st.sampled_from(sorted(LAYOUTS)),
        dim=st.integers(1, 13),
        radius=st.floats(0.0, 10.0),
        skip=st.integers(0, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_scalar_loop(self, seed, count, layout, dim, radius, skip):
        parts = LAYOUTS[layout](dim, radius)
        batched, scalar = Rng(seed), Rng(seed)
        for r in (batched, scalar):  # start off the first word
            for _ in range(skip):
                r.u64()
        got = batched.draw(count, *parts)
        assert_same_draws(parts, scalar_rows(scalar, count, parts), got)
        assert batched._counter == scalar._counter
        assert batched.u64() == scalar.u64()

    def test_words_match_at(self):
        r = Rng(2**64 - 3)
        assert r.words(5, 7).tolist() == [r.at(i) for i in range(5, 12)]
        assert r.words(0, 0).shape == (0,)

    def test_rejected_row_is_replayed_by_the_scalar_methods(self):
        # words whose Box-Muller pair is sqrt(-2 log(1 - 2**-53)) * cos(pi/2),
        # about 9e-25, so the first sphere draw of row 2 has norm <= 1e-12
        parts = [("integer", 0, 3), ("ball", 3, 1.0)]
        width = 1 + 7
        u1_word, u2_word = ((1 << 53) - 1) << 11, 1 << 62
        start = 2 * width + 1
        forced = {start + i: (u1_word, u2_word)[i % 2] for i in range(6)}

        class Forced(Rng):
            """The word source with row 2's first sphere draw substituted."""

            scalar_balls = 0

            def at(self, index):
                return forced.get(index, super().at(index))

            def words(self, start, count):
                w = super().words(start, count)
                for index, word in forced.items():
                    if start <= index < start + count:
                        w[index - start] = word
                return w

            def ball(self, dim, radius=1.0):
                self.scalar_balls += 1
                return super().ball(dim, radius)

        batched, scalar = Forced(31), Forced(31)
        got = batched.draw(6, *parts)
        expected = scalar_rows(scalar, 6, parts)
        assert_same_draws(parts, expected, got)
        assert batched.scalar_balls == 1  # only the rejected row ran the scalar methods
        assert batched._counter == scalar._counter == 6 * width + 6
        assert np.all(np.isfinite(got[1])) and np.linalg.norm(got[1][2]) <= 1.0


class TestFailClosed:
    @pytest.mark.parametrize("dim", [0, -1])
    def test_empty_dimension_is_refused(self, dim):
        r = Rng(1)
        with pytest.raises(ValueError):
            r.ball(dim, 1.0)
        with pytest.raises(ValueError):
            r.sphere(dim)
        with pytest.raises(ValueError):
            r.draw(3, ("ball", dim, 1.0))
        assert r._counter == 0

    @pytest.mark.parametrize("radius", [-0.5, math.nan, math.inf, -math.inf])
    def test_bad_radius_is_refused(self, radius):
        r = Rng(1)
        with pytest.raises(ValueError):
            r.ball(2, radius)
        with pytest.raises(ValueError):
            r.draw(3, ("integer", 0, 3), ("ball", 2, radius))
        assert r._counter == 0

    @pytest.mark.parametrize("low, high", [(5, 2), (3, 2)])
    def test_empty_integer_range_is_refused(self, low, high):
        r = Rng(1)
        with pytest.raises(ValueError):
            r.integer(low, high)
        with pytest.raises(ValueError):
            r.draw(2, ("integer", low, high))
        assert r._counter == 0

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError):
            Rng(1).draw(-1, ("ball", 2, 1.0))

    def test_zero_radius_and_zero_count_are_allowed(self):
        assert np.array_equal(Rng(1).ball(2, 0.0), np.zeros(2))
        ks, balls = Rng(1).draw(0, ("integer", 0, 3), ("ball", 2, 1.0))
        assert ks == [] and balls.shape == (0, 2)


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
