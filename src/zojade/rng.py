"""Deterministic pseudo-random numbers with a portable bit-level spec.

All randomness in this package flows through :class:`Xoshiro256`, a
xoshiro256** generator whose four 64-bit words are expanded from a single
integer seed with splitmix64.  The exact recipe, so that other
implementations can reproduce the streams bit for bit:

* seeding: ``state[i] = splitmix64_next()`` for i = 0..3, where the
  splitmix64 state starts at ``seed mod 2**64``;
* 64-bit output: the xoshiro256** scrambler
  ``rotl(s1 * 5, 7) * 9`` followed by the standard state transition;
* doubles in [0, 1): the top 53 bits, ``(u64 >> 11) * 2**-53``;
* standard normals: Box-Muller, each call consumes exactly two doubles
  (u1, u2) and returns ``sqrt(-2 ln u1) * cos(2 pi u2)``; a zero u1 is
  replaced by 2**-53.  No caching of the sine branch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import INT, require

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """Return the first `count` outputs of splitmix64 started at `seed`."""
    out = []
    state = seed & _MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** generator seeded through splitmix64.  Every seed a builder
    or run draws with passes here, so this is where it is checked: a Python
    int of any size (a bool or numpy integer is rejected)."""

    def __init__(self, seed: int):
        require(INT, seed=seed)
        self._s = splitmix64_stream(seed, 4)

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """One standard normal draw (consumes two uniforms)."""
        u1 = self.uniform()
        if u1 == 0.0:
            u1 = 2.0**-53
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, *shape: int) -> np.ndarray:
        """Array of standard normals with the given shape, row-major order."""
        return _fill(self.normal, shape)

    def uniforms(self, *shape: int) -> np.ndarray:
        """Array of doubles in [0, 1) with the given shape, row-major order."""
        return _fill(self.uniform, shape)


#: draws converted per block, so that a large array never exists as a list of floats
_BLOCK = 4096


def _fill(draw, shape: tuple) -> np.ndarray:
    flat = np.empty(math.prod(shape))
    for start in range(0, flat.size, _BLOCK):
        flat[start : start + _BLOCK] = [draw() for _ in range(min(_BLOCK, flat.size - start))]
    return flat.reshape(shape)
