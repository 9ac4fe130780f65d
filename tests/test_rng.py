import numpy as np

from zojade import Xoshiro256, splitmix64_stream


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
