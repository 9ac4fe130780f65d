"""Network topologies and their doubly stochastic consensus weights.

A graph is an undirected, connected communication network over agents
0..n-1, held as its boolean (n, n) adjacency array, which
:func:`adjacency` builds from an edge list and checks.
:func:`metropolis_hastings` turns it into the (n, n) array of symmetric,
doubly stochastic mixing weights whose off-diagonal entry for an edge
(i, j) is ``1 / (1 + max(deg_i, deg_j))`` and whose diagonal absorbs the
residual so that every row sums to one by construction.  (The lazy
variant, which halves the off-diagonal weights, is not used.)
:data:`TOPOLOGIES` defines every named topology: its builder and the kind
of each of its parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import INT, INTS, POS_INT, PROB, ConfigurationError, check_entry, require
from .rng import Xoshiro256


def adjacency(n: int, edges) -> np.ndarray:
    """The boolean n x n adjacency array of the undirected connected graph on
    nodes 0..n-1 with the edge set `edges`, an (m, 2) array-like of node
    pairs, in either order and possibly repeated."""
    require(POS_INT, n=n)
    require(INTS, edges=edges)
    pairs = np.asarray(edges, dtype=int).reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        raise ConfigurationError(f"self-loop at node {pairs[loops][0, 0]}")
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        edge = tuple(pairs[outside][0].tolist())
        raise ConfigurationError(f"edge {edge} out of range for n={n}")
    A = np.zeros((n, n), dtype=bool)
    A[pairs[:, 0], pairs[:, 1]] = A[pairs[:, 1], pairs[:, 0]] = True
    # reachability sweep from node 0, one frontier of neighbours at a time
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = A[frontier].any(axis=0) & ~reached
        reached |= frontier
    if not reached.all():
        raise ConfigurationError("graph is not connected")
    return A


def check_weights(W: np.ndarray, A: np.ndarray | None = None) -> list:
    """Return a list of the invariant violations of mixing weights `W`
    (empty when valid).

    Checks symmetry (exact), row and column sums within 1e-12 of one,
    nonnegative entries, and, when the adjacency array `A` is given, that
    off-diagonal support matches it.
    """
    problems = []
    if not np.array_equal(W, W.T):
        problems.append("weights are not exactly symmetric")
    row = W.sum(axis=1)
    col = W.sum(axis=0)
    if np.max(np.abs(row - 1.0)) > 1e-12:
        problems.append(f"row sums off by {np.max(np.abs(row - 1.0)):.3e}")
    if np.max(np.abs(col - 1.0)) > 1e-12:
        problems.append(f"column sums off by {np.max(np.abs(col - 1.0)):.3e}")
    if np.min(W) < 0.0:
        problems.append(f"negative entry {np.min(W):.3e}")
    if A is not None:
        if A.shape != W.shape:
            return problems + [f"graph has n={len(A)}, weights have n={len(W)}"]
        wrong = np.triu(((W > 0.0) & ~A) | (A & (W <= 0.0)), 1)
        for i, j in np.argwhere(wrong):
            kind = "nonpositive weight on edge" if A[i, j] else "positive weight on non-edge"
            problems.append(f"{kind} ({i},{j})")
    return problems


def metropolis_hastings(A: np.ndarray) -> np.ndarray:
    """Build the Metropolis-Hastings mixing weights of a connected graph with
    adjacency array `A`.

    Off-diagonal entries are ``1 / (1 + max(deg_i, deg_j))`` on edges and
    zero elsewhere; each diagonal entry is the residual ``1 - sum of the
    row's off-diagonal entries``, which pins the row sums (and by symmetry
    the column sums) to one without a separate correction step.
    """
    deg = A.sum(axis=1)
    W = np.where(A, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    problems = check_weights(W, A)
    if problems:
        raise ConfigurationError("invalid consensus matrix: " + "; ".join(problems))
    return W


def spectral_gap(P: np.ndarray) -> float:
    """Second-largest eigenvalue magnitude (SLEM) of mixing weights P.

    Subtracting the averaging matrix J/n removes the eigenvalue 1 of the
    all-ones eigenvector and leaves the rest of the spectrum of the
    symmetric P, so the SLEM is the largest eigenvalue magnitude of
    P - J/n, computed exactly by a symmetric eigensolver.  For a 1x1
    matrix P - J/n is zero and so is the gap.
    """
    return float(np.max(np.abs(np.linalg.eigvalsh(P - 1.0 / len(P)))))


def _complete(n: int) -> np.ndarray:
    return adjacency(n, np.transpose(np.triu_indices(n, 1)))


def _ring(n: int) -> np.ndarray:
    i = np.arange(n if n > 2 else n - 1)  # up to two nodes the ring is the path
    return adjacency(n, np.transpose([i, (i + 1) % n]))


def _path(n: int) -> np.ndarray:
    i = np.arange(n - 1)
    return adjacency(n, np.transpose([i, i + 1]))


def _grid(n: int) -> np.ndarray:
    # Near-square lattice of rows of `cols` nodes; the last row may be partial.
    cols = max(1, int(round(np.sqrt(n))))
    k = np.arange(n)
    right = k[(k % cols + 1 < cols) & (k + 1 < n)]
    down = k[k + cols < n]
    return adjacency(n, np.transpose([np.r_[right, down], np.r_[right + 1, down + cols]]))


def _erdos_renyi(n: int, p: float, seed: int) -> np.ndarray:
    # one uniform per pair i < j, drawn in row-major order
    rng = Xoshiro256(seed)
    rows, cols = np.triu_indices(n, 1)
    for _ in range(1000):
        keep = rng.uniforms(len(rows)) < p
        try:
            return adjacency(n, np.transpose([rows[keep], cols[keep]]))
        except ConfigurationError:
            continue
    raise ConfigurationError(
        f"erdos_renyi(n={n}, p={p}, seed={seed}) failed to produce a connected "
        "graph in 1000 retries"
    )


#: topology name -> (builder, the kind of each of its parameters, all required)
TOPOLOGIES = {
    "complete": (_complete, {"n": POS_INT}),
    "ring": (_ring, {"n": POS_INT}),
    "path": (_path, {"n": POS_INT}),
    "grid": (_grid, {"n": POS_INT}),
    "erdos_renyi": (_erdos_renyi, {"n": POS_INT, "p": PROB, "seed": INT}),
}


def topology_from_spec(name: str, n: int, **params) -> np.ndarray:
    """Build the adjacency array of a topology of TOPOLOGIES deterministically.

    The parameters, n among them, are checked as a config's topology entry
    is, so that entry passes straight through.  The erdos_renyi family
    redraws until the sample is connected, giving up after 1000 attempts.
    """
    if name not in sorted(TOPOLOGIES):  # a list, so that no name needs to be hashable
        raise ConfigurationError(f"unknown topology '{name}'")
    build, kinds = TOPOLOGIES[name]
    check_entry(params | {"n": n}, kinds, f"topology[{name}]")
    return build(n, **params)
