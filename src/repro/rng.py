"""Seeded random-number discipline.

Every stochastic component in the reproduction draws from a
:class:`numpy.random.Generator` derived from an explicit seed, so that any
experiment is replayable bit-for-bit.  Components never touch global numpy
random state.

The helpers here derive independent child generators from a root seed and a
string label (e.g. ``"monitor/nginx"``), so adding a new consumer never
perturbs the streams of existing ones.  :class:`NormalStream` serves a
generator's normal and lognormal draws from blocks, for loops that take
one draw at a time.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

DEFAULT_SEED = 0x517A  # arbitrary but fixed project-wide default


def generator(seed: int | None = None) -> np.random.Generator:
    """Return a fresh generator for ``seed`` (project default if ``None``)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable child seed from ``root_seed`` and a string ``label``."""
    return (root_seed ^ zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF


def child_generator(root_seed: int, label: str) -> np.random.Generator:
    """Return an independent generator keyed by ``(root_seed, label)``."""
    return np.random.default_rng(derive_seed(root_seed, label))


class NormalStream:
    """A generator's ``normal``/``lognormal`` draws, taken in blocks.

    ``Generator.standard_normal(size)`` fills its array with the same
    ziggurat routine a scalar draw uses, and numpy's ``normal`` and
    ``lognormal`` are ``loc + scale * z`` and ``exp(mean + sigma * z)`` of
    one such draw.  So the values and their order equal calling the
    wrapped generator's ``normal``/``lognormal`` one at a time, while
    numpy is called once per block instead of once per draw.
    """

    BLOCK = 256

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        self._draws = iter(())

    def _refill(self) -> float:
        self._draws = iter(self._generator.standard_normal(self.BLOCK).tolist())
        return next(self._draws)

    def normal(self, loc: float, scale: float) -> float:
        z = next(self._draws, None)
        if z is None:
            z = self._refill()
        return loc + scale * z

    def lognormal(self, mean: float, sigma: float) -> float:
        z = next(self._draws, None)
        if z is None:
            z = self._refill()
        return math.exp(mean + sigma * z)
