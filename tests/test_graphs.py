import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zojade import (
    ConfigurationError,
    Xoshiro256,
    adjacency,
    check_weights,
    metropolis_hastings,
    spectral_gap,
    topology_from_spec,
)


def _edges(graph):
    """The graph's edge set as (i, j) pairs with i < j, read off its adjacency."""
    return set(map(tuple, np.argwhere(np.triu(graph)).tolist()))


def test_path3_weights_match_hand_computation():
    # degrees (1, 2, 1): edge weights 1/(1+2) = 1/3, diagonals absorb the rest
    P = metropolis_hastings(topology_from_spec("path", 3))
    expected = np.array(
        [
            [2.0 / 3.0, 1.0 / 3.0, 0.0],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [0.0, 1.0 / 3.0, 2.0 / 3.0],
        ]
    )
    assert np.max(np.abs(P - expected)) < 1e-15


def test_single_node_is_identity():
    P = metropolis_hastings(topology_from_spec("complete", 1))
    assert P.shape == (1, 1)
    assert P[0, 0] == 1.0


def test_complete_two_nodes_is_half_everywhere():
    P = metropolis_hastings(topology_from_spec("complete", 2))
    assert np.array_equal(P, np.full((2, 2), 0.5))


@pytest.mark.parametrize("name", ["complete", "ring", "path", "grid"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 31, 50])
def test_weights_invariants_all_topologies(name, n):
    graph = topology_from_spec(name, n)
    W = metropolis_hastings(graph)
    assert check_weights(W, graph) == []
    assert np.array_equal(W, W.T)
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(W.sum(axis=0) - 1.0)) <= 1e-12
    # support matches edges plus the diagonal
    edges = _edges(graph)
    for i in range(n):
        for j in range(n):
            if i != j and (min(i, j), max(i, j)) not in edges:
                assert W[i, j] == 0.0


def test_weights_invariants_random_graphs():
    rng = Xoshiro256(123)
    for _ in range(40):
        n = 2 + int(rng.uniform() * 30)
        p = 0.15 + 0.7 * rng.uniform()
        graph = topology_from_spec("erdos_renyi", n, p=p, seed=int(rng.uniform() * 1e9))
        P = metropolis_hastings(graph)
        assert check_weights(P, graph) == []
        assert spectral_gap(P) < 1.0


def test_spectral_gap_examples():
    single = metropolis_hastings(topology_from_spec("complete", 1))
    assert spectral_gap(single) == 0.0
    pair = metropolis_hastings(topology_from_spec("complete", 2))
    assert abs(spectral_gap(pair)) <= 1e-10
    path3 = metropolis_hastings(topology_from_spec("path", 3))
    assert abs(spectral_gap(path3) - 2.0 / 3.0) <= 1e-9


def test_spectral_gap_exact_on_slowly_mixing_ring():
    # slow mixing (1 - gap is about 3e-4) is where an iterative eigenvalue
    # search that stops early falls visibly short of the true gap
    P = metropolis_hastings(topology_from_spec("ring", 200))
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(P)))
    assert abs(magnitudes[-1] - 1.0) <= 1e-12
    assert abs(spectral_gap(P) - magnitudes[-2]) <= 1e-12


def test_repeated_averaging_contracts_at_gap_rate():
    graph = topology_from_spec("erdos_renyi", 15, p=0.25, seed=99)
    P = metropolis_hastings(graph)
    gap = spectral_gap(P)
    rng = Xoshiro256(5)
    x = rng.normals(15)
    mean = x.mean()
    base = np.linalg.norm(x - mean)
    for k in range(1, 101):
        x = P @ x
        assert np.linalg.norm(x - mean) <= gap**k * base + 1e-9


def test_graph_rejects_self_loops_and_bad_indices():
    with pytest.raises(ConfigurationError):
        adjacency(3, [(1, 1)])
    with pytest.raises(ConfigurationError):
        adjacency(3, [(0, 3)])
    with pytest.raises(ConfigurationError):
        adjacency(3, [(-1, 2)])


@pytest.mark.parametrize(
    "edges",
    [[(0.7, 1), (1, 2.9)], [(True, 2), (0, 2)], np.array([[0, 1], [1, 2]], dtype=float)],
    ids=["float", "bool_in_list", "float_array"],
)
def test_graph_rejects_non_integer_indices(edges):
    # np.asarray(edges, dtype=int) used to truncate these to a valid edge set
    with pytest.raises(ConfigurationError, match="^edges must be an array of integers"):
        adjacency(3, edges)


def test_graph_rejects_disconnected():
    with pytest.raises(ConfigurationError):
        adjacency(4, [(0, 1), (2, 3)])
    with pytest.raises(ConfigurationError):
        adjacency(2, [])


def test_ring_and_complete_shapes():
    ring = topology_from_spec("ring", 4)
    assert _edges(ring) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    complete = topology_from_spec("complete", 3)
    assert len(_edges(complete)) == 3


def test_erdos_renyi_deterministic():
    a = topology_from_spec("erdos_renyi", 20, p=0.3, seed=7)
    b = topology_from_spec("erdos_renyi", 20, p=0.3, seed=7)
    assert np.array_equal(a, b)


def test_erdos_renyi_gives_up_when_never_connected():
    # p = 0 is rejected before drawing; a vanishing p still never connects
    with pytest.raises(ConfigurationError, match="1000 retries"):
        topology_from_spec("erdos_renyi", 5, p=1e-9, seed=1)


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, float("nan")])
def test_erdos_renyi_rejects_p_outside_unit_interval_before_drawing(p):
    # before, p = 0 spent 1000 redraws and p = 1.5 built the complete graph
    with pytest.raises(ConfigurationError, match=r"p must be a number in \(0, 1\]"):
        topology_from_spec("erdos_renyi", 30, p=p, seed=1)


def test_unknown_topology_rejected():
    with pytest.raises(ConfigurationError):
        topology_from_spec("torus", 4)


def test_corrupted_matrix_flagged():
    bad = metropolis_hastings(topology_from_spec("ring", 4))
    bad[0, 0] += 0.1  # row sum becomes 1.1
    problems = check_weights(bad)
    assert any("row sums" in p for p in problems)


def test_check_weights_names_asymmetry_and_negative_entries():
    W = metropolis_hastings(topology_from_spec("path", 3))
    skewed = W.copy()
    skewed[0, 1] += 1e-3  # row 0 and column 1 now sum to 1.001
    assert check_weights(skewed) == ["weights are not exactly symmetric",
                                     "row sums off by 1.000e-03", "column sums off by 1.000e-03"]
    negative = W + np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    assert negative[0, 1] < 0.0
    assert check_weights(negative) == [f"negative entry {negative[0, 1]:.3e}"]


def test_adjacency_holds_the_edge_set():
    graph = adjacency(4, [(1, 0), (0, 1), (2, 1), (3, 2)])
    expected = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (1, 2), (2, 3)]:
        expected[i, j] = expected[j, i] = True
    assert np.array_equal(graph, expected)
    # the edges are an init-only argument: no second copy of the edge set
    assert not hasattr(graph, "edges")


def test_support_mismatch_flagged():
    ring = metropolis_hastings(topology_from_spec("ring", 5))
    # the path graph lacks the ring's closing edge (0, 4)
    assert check_weights(ring, topology_from_spec("path", 5)) == [
        "positive weight on non-edge (0,4)"
    ]
    problems = check_weights(ring, topology_from_spec("complete", 5))
    assert problems == [
        "nonpositive weight on edge (0,2)",
        "nonpositive weight on edge (0,3)",
        "nonpositive weight on edge (1,3)",
        "nonpositive weight on edge (1,4)",
        "nonpositive weight on edge (2,4)",
    ]
    assert check_weights(ring, topology_from_spec("ring", 4)) == [
        "graph has n=4, weights have n=5"
    ]


def _reference_erdos_renyi(n, p, seed):
    """Edges of the first connected draw of one rng.uniform() per pair i < j in
    row-major order, or None when 1000 draws never connect."""
    rng = Xoshiro256(seed)
    for _ in range(1000):
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < p}
        seen, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for v in {j for i, j in edges if i == u} | {i for i, j in edges if j == u}:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return frozenset(edges)
    return None


def _reference_weights(graph):
    """Metropolis-Hastings weights built one edge at a time."""
    n = len(graph)
    edges = _edges(graph)
    deg = [sum(k in edge for edge in edges) for k in range(n)]
    W = np.zeros((n, n))
    for i, j in sorted(edges):
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        W[i, i] = 1.0 - W[i, :].sum()
    return W


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**40),
)
@example(n=1, p=0.5, seed=3)
@example(n=6, p=1e-9, seed=1)  # never connected
def test_erdos_renyi_and_weights_match_per_pair_reference(n, p, seed):
    expected = _reference_erdos_renyi(n, p, seed)
    if expected is None:
        with pytest.raises(ConfigurationError, match="1000 retries"):
            topology_from_spec("erdos_renyi", n, p=p, seed=seed)
        return
    graph = topology_from_spec("erdos_renyi", n, p=p, seed=seed)
    assert _edges(graph) == expected
    weights = metropolis_hastings(graph)
    assert weights.tobytes() == _reference_weights(graph).tobytes()


def _reference_grid(n):
    cols = max(1, int(round(np.sqrt(n))))
    edges = set()
    for k in range(n):
        if k % cols + 1 < cols and k + 1 < n:
            edges.add((k, k + 1))
        if k + cols < n:
            edges.add((k, k + cols))
    return edges


#: name -> the topology's edge set built one pair at a time
_REFERENCE_EDGES = {
    "complete": lambda n: {(i, j) for i in range(n) for j in range(i + 1, n)},
    "ring": lambda n: {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n) if n > 1},
    "path": lambda n: {(i, i + 1) for i in range(n - 1)},
    "grid": _reference_grid,
}


@pytest.mark.parametrize("name", ["complete", "ring", "path", "grid"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 10, 50])
def test_named_topology_weights_match_per_edge_reference(name, n):
    graph = topology_from_spec(name, n)
    assert _edges(graph) == _REFERENCE_EDGES[name](n)
    weights = metropolis_hastings(graph)
    assert weights.tobytes() == _reference_weights(graph).tobytes()


def test_topology_takes_only_its_own_parameters():
    # the same keys the config rejects for each name
    with pytest.raises(ConfigurationError, match=r"topology\[ring\]: unknown keys \['p'\]"):
        topology_from_spec("ring", 4, p=0.5)
    with pytest.raises(ConfigurationError, match=r"unknown keys \['p', 'seed'\]"):
        topology_from_spec("grid", 4, p=0.5, seed=1)
    with pytest.raises(ConfigurationError,
                       match=r"^topology\[erdos_renyi\]: missing required keys \['seed'\]$"):
        topology_from_spec("erdos_renyi", 4, p=0.5)
    # None is a value like any other, not "not given"
    with pytest.raises(ConfigurationError, match=r"^topology\[ring\]: unknown keys \['p'\]$"):
        topology_from_spec("ring", 4, p=None)
