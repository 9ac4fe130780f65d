import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zojade import Xoshiro256, rng, splitmix64_stream


def test_splitmix64_reference_vector():
    # first output of the reference implementation for seed 0
    assert splitmix64_stream(0, 1)[0] == 0xE220A8397B1DCDAF


def test_streams_deterministic_and_seed_sensitive():
    a = Xoshiro256(42)
    b = Xoshiro256(42)
    c = Xoshiro256(43)
    seq_a = [a.next_u64() for _ in range(16)]
    seq_b = [b.next_u64() for _ in range(16)]
    seq_c = [c.next_u64() for _ in range(16)]
    assert seq_a == seq_b
    assert seq_a != seq_c
    assert all(0 <= v < 2**64 for v in seq_a)


def test_uniform_range_and_moments():
    rng = Xoshiro256(7)
    draws = rng.uniforms(20_000)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    rng = Xoshiro256(8)
    draws = rng.normals(20_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.03


def test_array_shapes():
    rng = Xoshiro256(9)
    assert rng.normals(3, 4).shape == (3, 4)
    assert rng.uniforms(5).shape == (5,)
    # row-major fill: the flat draw order matches the scalar draw order
    again = Xoshiro256(9)
    flat = [again.normal() for _ in range(12)]
    assert np.array_equal(np.array(flat).reshape(3, 4), Xoshiro256(9).normals(3, 4))


def test_arrays_spanning_several_blocks_follow_the_scalar_stream():
    # 8193 normals and 8197 uniforms: two full 4096-draw blocks and a partial one each
    a, b = Xoshiro256(4), Xoshiro256(4)
    normals = a.normals(3, 2731, 1)
    assert normals.tobytes() == np.array([b.normal() for _ in range(8193)]).tobytes()
    uniforms = a.uniforms(8197)
    assert uniforms.tobytes() == np.array([b.uniform() for _ in range(8197)]).tobytes()
    assert a.next_u64() == b.next_u64()
    assert Xoshiro256(4).normals().shape == ()


# --- the published generator and the lane path ---------------------------------------

# First outputs of Blackman & Vigna's public-domain reference C code
# (xoshiro256** 1.0, its state seeded by four splitmix64 outputs), compiled
# with gcc: outputs 0-2, then outputs 8190-8193.  -7 seeds as 2**64 - 7.
_REFERENCE = {
    0: ([0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0],
        [0x21B4E01F1DCB4B29, 0xED1441724E918C0E, 0x4AC1A717ED914C34, 0x659589F7120F77E9]),
    42: ([0x15780B2E0C2EC716, 0x6104D9866D113A7E, 0xAE17533239E499A1],
         [0xAE56D15C19B099D3, 0x1347C0901ECB6E67, 0x1DF5640A4AF9429B, 0xAF3C6A7C1DC669DB]),
    2**64 - 1: ([0x8F5520D52A7EAD08, 0xC476A018CAA1802D, 0x81DE31C0D260469E],
                [0x09BE957D80C96CB9, 0x2A174482FE3BED10, 0x863CECCAA969BA34, 0x58BDDC0AA7E294C1]),
    -7: ([0xF305399B3B63F2C2, 0xD693DD0A37AE5BDC, 0x736E8338A3F226B9],
         [0x86CF9063E533FEC2, 0xD468FCB231B3C7D3, 0x3224E8AFAFFAB2FE, 0x28621610CB063946]),
}


@pytest.mark.parametrize("seed", list(_REFERENCE))
def test_outputs_match_the_reference_implementation(seed):
    first, later = _REFERENCE[seed]
    scalar = Xoshiro256(seed)
    assert [scalar.next_u64() for _ in range(3)] == first
    # 8194 uniforms: outputs 0-8191 come from lanes, 8192 and 8193 after them
    assert 8194 >= rng._LANE_CUTOFF and 8192 % rng._K == 0
    doubles = Xoshiro256(seed).uniforms(8194)
    expected = [(x >> 11) * 2.0**-53 for x in first + later]
    assert doubles[[0, 1, 2, 8190, 8191, 8192, 8193]].tolist() == expected


def test_jump_columns_equal_k_scalar_steps():
    # each column from its unit state, and whole jumps through the table from
    # seeded states
    columns = rng._jump_columns()
    assert [rng._jump(1 << b) for b in range(256)] == list(columns)
    states = [[1 << b % 64 if i == b // 64 else 0 for i in range(4)] for b in range(256)]
    states += [splitmix64_stream(seed, 4) for seed in (1, -5, 2**64 + 3)]
    for state in states:
        gen = Xoshiro256(0)
        gen._s = list(state)
        for _ in range(rng._K):
            gen.next_u64()
        assert rng._jump(rng._pack(state)) == rng._pack(gen._s)


def _words(packed: int) -> list[int]:
    return [packed >> 64 * i & 2**64 - 1 for i in range(4)]


def test_each_doubling_power_maps_states_as_its_serial_jumps_do():
    # T^(_K 2^m) from seeded states for every m up to 10, and for m = 6, the
    # first doubling level, from every unit state too
    for seed in (1, -5, 2**64 + 3):
        state = rng._pack(splitmix64_stream(seed, 4))
        jumped = state
        for jumps in range(1, 2**10 + 1):
            jumped = rng._jump(jumped)
            if jumps & jumps - 1 == 0:
                images = rng._power_images(jumps.bit_length() - 1)
                mapped = rng._apply(images, np.array([_words(state)], np.uint64))
                assert rng._pack(mapped[0].tolist()) == jumped
    jumped = []
    for b in range(256):
        state = 1 << b
        for _ in range(2**6):
            state = rng._jump(state)
        jumped.append(state)
    units = np.array([_words(1 << b) for b in range(256)], np.uint64)
    assert list(map(rng._pack, rng._apply(rng._power_images(6), units).tolist())) == jumped


@pytest.mark.parametrize("per", [1, 2])
def test_draws_across_the_doubling_levels_equal_the_scalar_stream(per):
    # the serial starts alone below 128 lanes, then one doubling level more at
    # each power of two; 1,953 lanes is scale_n200's instance draw
    for lanes in (63, 64, 65, 127, 128, 129, 255, 256, 257, 1953):
        gen, ref = Xoshiro256(lanes), Xoshiro256(lanes)
        out = (gen.uniforms if per == 1 else gen.normals)(lanes * rng._K // per)
        doubles = [(x >> 11) * 2.0**-53 for x in ref._u64s(lanes * rng._K)]
        if per == 2:
            doubles = list(map(rng._gauss, doubles[::2], doubles[1::2]))
        assert out.tobytes() == np.array(doubles).tobytes(), lanes
        assert gen.next_u64() == ref.next_u64()


_CUTOFF, _K = rng._LANE_CUTOFF, rng._K


@st.composite
def _draws(draw):
    """(outputs per element, shape): 1 for uniforms, 2 for normals; shape None
    for one scalar draw."""
    per = draw(st.sampled_from([1, 2]))
    edges = [count // per + step for count in (_CUTOFF, 17 * _K) for step in (-1, 0, 1)]
    shape = draw(st.one_of(
        st.sampled_from([None, (), (0,), (3, 0, 2)]),
        st.sampled_from(edges).map(lambda count: (count,)),
        st.integers(1, 2 * _CUTOFF // per).map(lambda count: (count,)),
        st.lists(st.integers(1, 24), min_size=2, max_size=3).map(tuple),
    ))
    return per, shape


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, -1, 2**64, 2**64 + 1, 2**100]), st.integers(-2**70, 2**70)),
    draws=st.lists(_draws(), min_size=1, max_size=4),
)
@example(seed=0, draws=[(2, (_CUTOFF // 2 + 1,)), (1, None), (1, (17 * _K + 1,)), (2, None)])
@example(seed=-3, draws=[(1, (_CUTOFF,)), (2, (17 * _K // 2 - 1,)), (2, (4, 0))])
@example(seed=2**64 + 9, draws=[(2, (20, 21, 22)), (1, (_CUTOFF - 1,)), (2, ())])
def test_array_draws_equal_the_scalar_stream(seed, draws):
    gen, ref = Xoshiro256(seed), Xoshiro256(seed)
    for per, shape in draws:
        scalar = ref.uniform if per == 1 else ref.normal
        if shape is None:
            value = gen.uniform() if per == 1 else gen.normal()
            assert np.float64(value).tobytes() == np.float64(scalar()).tobytes()
            continue
        out = (gen.uniforms if per == 1 else gen.normals)(*shape)
        expected = np.array([scalar() for _ in range(math.prod(shape))]).reshape(shape)
        assert out.shape == shape and out.tobytes() == expected.tobytes()
    assert gen.next_u64() == ref.next_u64()


def test_a_draw_of_200_lanes_equals_the_scalar_stream():
    # lane starts 199 table jumps deep, then a tail of 37 scalar steps
    gen, ref = Xoshiro256(11), Xoshiro256(11)
    out = gen.uniforms(200 * _K + 37)
    assert out.tobytes() == np.array([ref.uniform() for _ in range(out.size)]).tobytes()
    assert gen.next_u64() == ref.next_u64()


@pytest.mark.parametrize("name", ["log", "cos"])
@pytest.mark.parametrize("label", ["backward", "map"])
def test_every_libm_path_the_probe_passes_gives_the_scalar_normals(monkeypatch, name, label):
    path = rng._libm_paths(name)[label]
    if not rng._agrees_with_libm({name: path})[name]:
        pytest.skip(f"the probe rejects the {label} {name} on this host")
    chosen = rng._libm_choice()
    monkeypatch.setattr(rng, "_libm_choice", lambda: {**chosen, name: (label, path)})
    gen, ref = Xoshiro256(6), Xoshiro256(6)
    out = gen.normals(64 * _K // 2 + 3)  # 64 lanes and a tail
    assert out.tobytes() == np.array([ref.normal() for _ in range(out.size)]).tobytes()


def test_the_libm_probe_sees_a_kernel_that_differs_in_the_last_bit():
    # positive control: a cosine one ulp off on every argument whose low ten
    # bits are zero (5 of the 4,096 probe arguments) fails the probe
    def cos_off(x):
        c = np.cos(x)
        return np.where(x.view(np.uint64) % 1024 == 0, np.nextafter(c, 2.0), c)

    assert rng._agrees_with_libm({"cos": cos_off}) == {"cos": False}


def test_the_libm_probe_sees_numpys_simd_log():
    # positive control: numpy's AVX-512 log differs from libm on about 0.4% of
    # uniforms; under a dispatch whose log is libm's there is nothing to see.
    # The cosine, probed on the same uniforms, is judged on its own
    u = Xoshiro256(12).uniforms(2**16)
    if np.log(u).tobytes() == rng._libm(math.log, u).tobytes():
        pytest.skip("numpy's float64 log is libm's on this host")
    cos = rng._libm_paths("cos")["map"]
    assert rng._agrees_with_libm({"log": np.log, "cos": cos}) == {"log": False, "cos": True}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="numpy's X86_V3 and X86_V4 targets exist on x86-64 only")
def test_a_draw_under_numpys_x86_v3_dispatch_equals_the_in_process_draw():
    # numpy's AVX2 kernels in place of its AVX-512 ones: the normals keep their
    # bytes whichever log and cosine paths the probe picks there
    script = (
        "import hashlib, json; from zojade import Xoshiro256, rng; "
        "out = Xoshiro256(5).normals(40, 25, 33); c = rng._libm_choice(); "
        "print(json.dumps([hashlib.sha256(out.tobytes()).hexdigest(), c['log'][0], c['cos'][0]]))"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=str(Path(rng.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    digest, log, cos = json.loads(done.stdout)
    print(f"X86_V3 dispatch: the log takes the {log} path, the cosine the {cos} path")
    # 33,000 normals: 257 lanes, three doubling levels, and a tail of 104
    assert digest == hashlib.sha256(Xoshiro256(5).normals(40, 25, 33).tobytes()).hexdigest()


def test_lane_box_muller_replaces_a_zero_u1_like_the_scalar_one():
    u1 = np.array([[0.0, 2.0**-53], [0.5, 1.0 - 2.0**-53]])
    u2 = np.array([[0.25, 0.0], [0.75, 1.0 - 2.0**-53]])
    expected = [[rng._gauss(a, b) for a, b in zip(*rows)] for rows in zip(u1, u2)]
    assert rng._gauss_array(u1, u2).tolist() == expected


def test_a_large_draw_allocates_little_beyond_its_output():
    # scale_n200's instance draw: the lanes' temporaries stay near one block
    rng._libm_choice.cache_clear()  # the one-time libm probe is measured in every order
    rng._power_images.cache_clear()  # and so are the doubling powers
    tracemalloc.start()
    try:
        out = Xoshiro256(5).normals(200, 25, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2**19
