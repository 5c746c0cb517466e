"""Seeded RNG discipline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng


class TestGenerator:
    def test_default_seed_reproducible(self):
        a = rng.generator().random(8)
        b = rng.generator().random(8)
        assert np.array_equal(a, b)

    def test_explicit_seed(self):
        a = rng.generator(7).random(4)
        b = rng.generator(7).random(4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(rng.generator(1).random(4), rng.generator(2).random(4))


class TestDeriveSeed:
    def test_stable(self):
        assert rng.derive_seed(42, "monitor") == rng.derive_seed(42, "monitor")

    def test_label_sensitivity(self):
        assert rng.derive_seed(42, "a") != rng.derive_seed(42, "b")

    def test_root_sensitivity(self):
        assert rng.derive_seed(1, "a") != rng.derive_seed(2, "a")

    def test_non_negative(self):
        for label in ("x", "y", "a/b/c"):
            assert rng.derive_seed(123456, label) >= 0


class TestChildGenerator:
    def test_independent_streams(self):
        a = rng.child_generator(0, "one").random(16)
        b = rng.child_generator(0, "two").random(16)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a = rng.child_generator(5, "app/kmeans").random(16)
        b = rng.child_generator(5, "app/kmeans").random(16)
        assert np.array_equal(a, b)


#: One draw: ("lognormal", mean, sigma) or ("normal", loc, scale).
_DRAWS = st.tuples(
    st.sampled_from(["lognormal", "normal"]),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0),
)


class TestNormalStream:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        pattern=st.lists(_DRAWS, min_size=1, max_size=24),
        count=st.integers(
            min_value=2 * rng.NormalStream.BLOCK + 1,
            max_value=3 * rng.NormalStream.BLOCK + 7,
        ),
    )
    def test_equals_generator_draw_for_draw(self, seed, pattern, count):
        """``count`` interleaved draws cycling through ``pattern`` cross at
        least two block boundaries and equal a fresh generator's scalar
        draws from the same seed bit for bit."""
        stream = rng.NormalStream(rng.generator(seed))
        reference = rng.generator(seed)
        for index in range(count):
            kind, a, b = pattern[index % len(pattern)]
            if kind == "lognormal":
                got, want = stream.lognormal(a, b), reference.lognormal(mean=a, sigma=b)
            else:
                got, want = stream.normal(a, b), reference.normal(loc=a, scale=b)
            assert float(got).hex() == float(want).hex()

    def test_draws_whole_blocks(self):
        generator = rng.generator(3)
        stream = rng.NormalStream(generator)
        stream.normal(0.0, 1.0)
        after_one = generator.bit_generator.state
        for _ in range(rng.NormalStream.BLOCK - 1):
            stream.normal(0.0, 1.0)
        assert generator.bit_generator.state == after_one
        stream.normal(0.0, 1.0)
        assert generator.bit_generator.state != after_one
