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

Implementation note: large arrays are drawn on lanes, not one output at a
time.  The transition is linear over GF(2), so lane j can start at the
state ``_K * j`` steps ahead and all lanes can step together as numpy
``uint64`` arrays; laid end to end, the lanes give exactly the stream the
spec above defines, and the generator is left in the state the scalar path
would reach.  The spec does not depend on this.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import INT, require

_MASK64 = 0xFFFFFFFFFFFFFFFF
_UNIT = 2.0**-53
_TAU = 2.0 * math.pi


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


def _gauss(u1: float, u2: float) -> float:
    if u1 == 0.0:
        u1 = _UNIT
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TAU * u2)


class Xoshiro256:
    """xoshiro256** generator seeded through splitmix64.  Every seed a builder
    or run draws with passes here, so this is where it is checked: a Python
    int of any size (a bool or numpy integer is rejected)."""

    def __init__(self, seed: int):
        require(INT, seed=seed)
        self._s = splitmix64_stream(seed, 4)

    def next_u64(self) -> int:
        return self._u64s(1)[0]

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * _UNIT

    def normal(self) -> float:
        """One standard normal draw (consumes two uniforms)."""
        return _gauss(self.uniform(), self.uniform())

    def normals(self, *shape: int) -> np.ndarray:
        """Array of standard normals with the given shape, row-major order."""
        return self._fill(shape, 2)

    def uniforms(self, *shape: int) -> np.ndarray:
        """Array of doubles in [0, 1) with the given shape, row-major order."""
        return self._fill(shape, 1)

    def _u64s(self, count: int) -> list[int]:
        """The next `count` outputs of the xoshiro256** step, with the state in locals."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(count):
            x = (s1 * 5) & _MASK64
            append((((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s0 ^= s3
            s1 ^= s2
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return out

    def _fill(self, shape: tuple, per: int) -> np.ndarray:
        """Array of `shape` whose elements consume `per` outputs each: the head
        on lanes when the array is large, the rest one step at a time."""
        flat = np.empty(math.prod(shape))
        head = 0
        if flat.size * per >= _LANE_CUTOFF:
            lanes = flat.size * per // _K
            head = lanes * _K // per
            self._s = _lane_fill(self._s, flat[:head].reshape(lanes, _K // per), per)
        for start in range(head, flat.size, _BLOCK):
            doubles = [(x >> 11) * _UNIT for x in self._u64s(per * min(_BLOCK, flat.size - start))]
            if per == 2:
                doubles = list(map(_gauss, doubles[::2], doubles[1::2]))
            flat[start : start + len(doubles)] = doubles
        return flat.reshape(shape)


#: draws converted per block, so that a large array never exists as a list of floats
_BLOCK = 4096
#: outputs per lane; even, so that a normal's two uniforms come from one lane
_K = 512
#: arrays that consume at least this many outputs are drawn on lanes; the
#: scalar loop is faster below about 7,000 outputs (16 lanes here)
_LANE_CUTOFF = 8192


def _step(s: np.ndarray, t: np.ndarray) -> None:
    """Advance each column of the (4, lanes) uint64 state `s` by one transition;
    `t` is scratch of one row."""
    np.left_shift(s[1], 17, out=t)
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[:2] ^= s[3:1:-1]  # s0 ^= s3, s1 ^= s2
    s[2] ^= t
    np.right_shift(s[3], 19, out=t)
    s[3] <<= 45
    s[3] |= t


def _pack(words) -> int:
    """The four state words as one int, word i in bits 64i to 64i + 63."""
    return words[0] | words[1] << 64 | words[2] << 128 | words[3] << 192


@functools.cache
def _jump_columns() -> tuple[int, ...]:
    """Column b of the transition to the power _K: the state that _K steps
    reach from the state whose only set bit is bit b, packed by `_pack`."""
    s = np.zeros((4, 256), np.uint64)
    bit = np.arange(256, dtype=np.uint64)
    s[bit // 64, bit] = 1 << bit % 64
    t = np.empty(256, np.uint64)
    for _ in range(_K):
        _step(s, t)
    return tuple(map(_pack, zip(*s.tolist())))


def _jump(state: int, columns: tuple[int, ...]) -> int:
    """The packed state _K steps after the packed `state`."""
    out = 0
    for column, bit in zip(columns, reversed(f"{state:0256b}")):
        if bit == "1":
            out ^= column
    return out


def _lane_fill(state: list[int], out: np.ndarray, per: int) -> list[int]:
    """Fill `out`, of shape (lanes, _K // per), with the stream after `state`:
    row j with outputs j*_K to (j+1)*_K - 1, each element from `per` outputs
    (a double, or a normal from two).  Returns the state after the last row."""
    lanes = out.shape[0]
    columns = _jump_columns()
    starts = [_pack(state)]
    for _ in range(lanes - 1):
        starts.append(_jump(starts[-1], columns))
    s = np.array([[start >> 64 * i & _MASK64 for start in starts] for i in range(4)], np.uint64)
    t = np.empty(lanes, np.uint64)
    # steps per chunk: even, and about _BLOCK outputs over all lanes
    chunk = max(2, _BLOCK // lanes) & ~1
    rows = np.empty((chunk, lanes), np.uint64)
    for first in range(0, _K, chunk):
        steps = min(chunk, _K - first)
        for i in range(steps):
            rows[i] = s[1]
            _step(s, t)
        x = rows[:steps] * 5
        x = (x << 7 | x >> 57) * 9
        doubles = (x >> 11).astype(np.float64) * _UNIT
        if per == 2:
            doubles = _gauss_array(doubles[::2], doubles[1::2])
        out[:, first // per : (first + steps) // per] = doubles.T
    return s[:, -1].tolist()


def _gauss_array(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """`_gauss` elementwise.  log and cos are libm's, one element at a time,
    because numpy's vectorised log and cos differ from it in the last bit;
    sqrt and the products are correctly rounded in both, so numpy's are used."""
    u1[u1 == 0.0] = _UNIT
    size = u1.size
    log = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, size)
    cos = np.fromiter(map(math.cos, (_TAU * u2).ravel().tolist()), np.float64, size)
    return (np.sqrt(-2.0 * log) * cos).reshape(u1.shape)
