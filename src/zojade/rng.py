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
would reach.  Lane 0 starts at the state, and the starts of lanes 2**m to
2**(m + 1) - 1 are those of lanes 0 to 2**m - 1 times the transition to the
power ``_K * 2**m``, all in one numpy pass through a table of that matrix's
images of every 4-bit chunk of a state (jump-ahead as a matrix power over
GF(2), as in Haramoto et al., INFORMS J. Computing 20(3), 2008).
Box-Muller's log and cosine must be libm's, the functions ``math.log`` and
``math.cos`` call, bit for bit; numpy's SIMD log differs from it in the last
bit on a few uniforms in a thousand.  So each runs as numpy's ufunc over the
array read back to front, where numpy calls libm once per element, in C, if
a one-time probe finds that equal to libm, and as ``math`` mapped over the
array otherwise.  The spec does not depend on any of this.
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
#: outputs per lane; even, so that a normal's two uniforms come from one lane.
#: A lane fill takes _K numpy steps whatever the lane count, so shorter lanes
#: fill an array in fewer steps, and with the lane starts doubled from lane 0
#: their count costs little: on a shared 2-vCPU AVX-512 Xeon, 10,000 uniforms
#: took 2.1-3.5 ms at 256 against 3.7-7.4 ms at 512, and 250,000 normals
#: 16.2-22.7 ms against 19.2-25.0 ms (medians of 30 draws, 6 in 3 processes)
_K = 256
#: nibble positions, one a row: nibble p of value v is row 64 v + p of the
#: flat table in `_apply`
_NIBBLES = np.arange(64)[:, None]
#: arrays that consume at least this many outputs are drawn on lanes; the
#: scalar loop is faster below about 2,300 (normals) to 2,600 (uniforms)
#: outputs, 9 to 10 lanes here (the least of 60 alternating draws of each
#: path at each multiple of 256 outputs, 2 processes, the same Xeon)
_LANE_CUTOFF = 2560
#: arguments of the one-time check of a path to libm's log or cosine
_PROBE = 4096
#: function -> s such that the probe's arguments are s * u, u in [0, 1), as
#: Box-Muller's are
_PROBE_SCALE = {"log": 1.0, "cos": _TAU}


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


@functools.cache
def _power_images(m: int) -> np.ndarray:
    """(256, 4) uint64 whose row b is the state that _K * 2**m steps reach
    from the state whose only set bit is bit b, word i in column i: the
    columns of the transition to that power.  Level 0 steps the 256 unit
    states _K times; a higher power is the square of the one below, its
    images mapped by it."""
    if m:
        below = _power_images(m - 1)
        return _apply(below, below)
    s = np.zeros((4, 256), np.uint64)
    bit = np.arange(256, dtype=np.uint64)
    s[bit // 64, bit] = 1 << bit % 64
    t = np.empty(256, np.uint64)
    for _ in range(_K):
        _step(s, t)
    return s.T.copy()


def _apply(images: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The (count, 4) states, word i in column i, mapped by the matrix whose
    unit-bit images are `images`: the XOR of the images of each state's 64
    nibbles, gathered for up to 64 states at a time by one `take`, so that a
    gather holds 128 KiB whatever the count."""
    # table[v, p]: the image of nibble value v in bits 4p to 4p + 3
    table = np.zeros((16, 64, 4), np.uint64)
    bits = images.reshape(64, 4, 4)
    for b in range(4):
        np.bitwise_xor(table[: 1 << b], bits[:, b], out=table[1 << b : 2 << b])
    flat = table.reshape(1024, 4)
    # byte k of a state in little-endian order holds nibbles 2k (low) and 2k + 1 (high)
    data = states.astype("<u8", copy=False).view(np.uint8)
    out = np.empty(states.shape, np.uint64)
    for first in range(0, len(states), 64):
        byte = data[first : first + 64].T
        index = np.empty((64, byte.shape[1]), np.intp)  # row p: nibble p's table rows
        index[0::2] = byte & 15
        index[1::2] = byte >> 4
        index <<= 6
        index += _NIBBLES
        np.bitwise_xor.reduce(flat.take(index, axis=0), axis=0, out=out[first : first + 64])
    return out


def _lane_starts(state: list[int], lanes: int) -> np.ndarray:
    """(lanes, 4) little-endian uint64 whose row j is the state _K * j steps
    after `state`, word i in column i: row 0 is `state`, and rows 2**m to
    2**(m + 1) - 1 are rows 0 to 2**m - 1 mapped by `_power_images(m)`."""
    starts = np.empty((lanes, 4), "<u8")
    starts[0] = state
    done = 1
    while done < lanes:
        count = min(done, lanes - done)
        starts[done : done + count] = _apply(_power_images(done.bit_length() - 1), starts[:count])
        done += count
    return starts


def _lane_fill(state: list[int], out: np.ndarray, per: int) -> list[int]:
    """Fill `out`, of shape (lanes, _K // per), with the stream after `state`:
    row j with outputs j*_K to (j+1)*_K - 1, each element from `per` outputs
    (a double, or a normal from two).  Returns the state after the last row."""
    lanes = out.shape[0]
    s = _lane_starts(state, lanes).T.astype(np.uint64, order="C")
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
    """`_gauss` elementwise on two arrays of one shape.  The log and the cosine
    are libm's, each through the path that `_libm_choice` picks, applied to 1-D
    contiguous arrays as in its probe; sqrt and the products are correctly
    rounded in numpy as in math, so numpy's are used."""
    shape = u1.shape
    u1, u2 = u1.ravel(), u2.ravel()
    u1[u1 == 0.0] = _UNIT
    choice = _libm_choice()
    log, cos = choice["log"][1], choice["cos"][1]
    return (np.sqrt(-2.0 * log(u1)) * cos(_TAU * u2)).reshape(shape)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """The scalar math function `fn` mapped over the 1-D array `x`."""
    return np.fromiter(map(fn, x.tolist()), np.float64, x.size)


def _libm_paths(name: str) -> dict:
    """label -> a way to apply the math module's function `name` to a 1-D
    float64 array, the faster first: numpy's ufunc over the array read back
    to front, where numpy (2.4) runs no SIMD kernel and calls the C library's
    function per element, the one the math module calls; and the math
    function mapped over the array, which is libm by construction."""
    ufunc = getattr(np, name)
    return {"backward": lambda x: ufunc(x[::-1])[::-1],
            "map": functools.partial(_libm, getattr(math, name))}


def _agrees_with_libm(paths: dict) -> dict:
    """name -> whether `paths[name]`, applied to a 1-D float64 array, equals
    the math module's function `name` bit for bit at the _PROBE arguments
    _PROBE_SCALE[name] * u, for u the first _PROBE doubles of seed 0's stream.
    The uniforms are drawn 512 at a time, once for all the paths, so the
    probe allocates little."""
    agree = dict.fromkeys(paths, True)
    gen = Xoshiro256(0)
    for _ in range(_PROBE // 512):
        u = gen.uniforms(512)
        for name in [name for name in paths if agree[name]]:
            x = _PROBE_SCALE[name] * u
            agree[name] = paths[name](x).tobytes() == _libm(getattr(math, name), x).tobytes()
    return agree


@functools.cache
def _libm_choice() -> dict:
    """name -> (label, path) for Box-Muller's log and cos: "backward" where
    it equals the math function on the probe arguments, else "map", checked
    once per process for both functions at once.  A kernel that differs from
    libm on a share p of the arguments passes with probability
    (1 - p)**4096: about 4e-8 for numpy's AVX-512 log (17 of the 4,096
    uniforms), 2% for p = 0.1%."""
    paths = {name: _libm_paths(name) for name in _PROBE_SCALE}
    agree = _agrees_with_libm({name: p["backward"] for name, p in paths.items()})
    labels = {name: "backward" if agree[name] else "map" for name in paths}
    return {name: (label, paths[name][label]) for name, label in labels.items()}
