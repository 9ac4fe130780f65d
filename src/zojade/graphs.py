"""Network topologies and their doubly stochastic consensus weights.

A :class:`Graph` is an undirected, connected communication network over
agents 0..n-1.  :func:`metropolis_hastings` turns it into a symmetric,
doubly stochastic mixing matrix whose off-diagonal entry for an edge
(i, j) is ``1 / (1 + max(deg_i, deg_j))`` and whose diagonal absorbs the
residual so that every row sums to one by construction.  (The lazy
variant, which halves the off-diagonal weights, is not used.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import POS_INT, PROB, ConfigurationError, require
from .rng import Xoshiro256


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..n-1, edges stored as (i, j) with i < j.

    `adjacency` is the boolean n x n array of the same edge set; every
    consumer of the graph reads it.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require(POS_INT, n=self.n)
        pairs = np.array(list(self.edges), dtype=int).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ConfigurationError(f"self-loop at node {pairs[loops][0, 0]}")
        outside = ((pairs < 0) | (pairs >= self.n)).any(axis=1)
        if outside.any():
            edge = tuple(pairs[outside][0].tolist())
            raise ConfigurationError(f"edge {edge} out of range for n={self.n}")
        A = np.zeros((self.n, self.n), dtype=bool)
        A[pairs[:, 0], pairs[:, 1]] = A[pairs[:, 1], pairs[:, 0]] = True
        rows, cols = np.nonzero(np.triu(A))
        object.__setattr__(self, "edges", frozenset(zip(rows.tolist(), cols.tolist())))
        object.__setattr__(self, "adjacency", A)
        # reachability sweep from node 0, one frontier of neighbours at a time
        reached = np.zeros(self.n, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = A[frontier].any(axis=0) & ~reached
            reached |= frontier
        if not reached.all():
            raise ConfigurationError("graph is not connected")


@dataclass(frozen=True)
class ConsensusMatrix:
    """Dense symmetric doubly stochastic mixing weights over a graph."""

    n: int
    weights: np.ndarray

    def check(self, graph: Graph | None = None) -> list:
        """Return a list of invariant violations (empty when valid).

        Checks symmetry (exact), row and column sums within 1e-12 of one,
        nonnegative entries, and, when `graph` is given, that off-diagonal
        support matches the edge set.
        """
        problems = []
        W = self.weights
        if W.shape != (self.n, self.n):
            return [f"shape {W.shape} does not match n={self.n}"]
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
        if graph is not None:
            A = graph.adjacency
            if A.shape != W.shape:
                return problems + [f"graph has n={graph.n}, weights have n={self.n}"]
            wrong = np.triu(((W > 0.0) & ~A) | (A & (W <= 0.0)), 1)
            for i, j in np.argwhere(wrong):
                kind = "nonpositive weight on edge" if A[i, j] else "positive weight on non-edge"
                problems.append(f"{kind} ({i},{j})")
        return problems


def metropolis_hastings(graph: Graph) -> ConsensusMatrix:
    """Build the Metropolis-Hastings mixing matrix of a connected graph.

    Off-diagonal entries are ``1 / (1 + max(deg_i, deg_j))`` on edges and
    zero elsewhere; each diagonal entry is the residual ``1 - sum of the
    row's off-diagonal entries``, which pins the row sums (and by symmetry
    the column sums) to one without a separate correction step.
    """
    A = graph.adjacency
    deg = A.sum(axis=1)
    W = np.where(A, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    matrix = ConsensusMatrix(n=graph.n, weights=W)
    problems = matrix.check(graph)
    if problems:
        raise ConfigurationError("invalid consensus matrix: " + "; ".join(problems))
    return matrix


def spectral_gap(P: ConsensusMatrix) -> float:
    """Second-largest eigenvalue magnitude (SLEM) of a consensus matrix.

    Subtracting the averaging matrix J/n removes the eigenvalue 1 of the
    all-ones eigenvector and leaves the rest of the spectrum of the
    symmetric P, so the SLEM is the largest eigenvalue magnitude of
    P - J/n, computed exactly by a symmetric eigensolver.  For a 1x1
    matrix P - J/n is zero and so is the gap.
    """
    deflated = P.weights - np.full((P.n, P.n), 1.0 / P.n)
    return float(np.max(np.abs(np.linalg.eigvalsh(deflated))))


def _ring_edges(n: int) -> set:
    if n == 1:
        return set()
    if n == 2:
        return {(0, 1)}
    return {(i, (i + 1) % n) for i in range(n)}


def _path_edges(n: int) -> set:
    return {(i, i + 1) for i in range(n - 1)}


def _complete_edges(n: int) -> set:
    return {(i, j) for i in range(n) for j in range(i + 1, n)}


def _grid_edges(n: int) -> set:
    # Near-square lattice; the last row may be partial.
    cols = max(1, int(round(np.sqrt(n))))
    edges = set()
    for k in range(n):
        r, c = divmod(k, cols)
        if c + 1 < cols and k + 1 < n:
            edges.add((k, k + 1))
        if k + cols < n:
            edges.add((k, k + cols))
    return edges


def _erdos_renyi(n: int, p: float, seed: int) -> Graph:
    # one uniform per pair i < j, drawn in row-major order
    rng = Xoshiro256(seed)
    rows, cols = np.triu_indices(n, 1)
    for _ in range(1000):
        keep = rng.uniforms(len(rows)) < p
        try:
            return Graph(n=n, edges=frozenset(zip(rows[keep].tolist(), cols[keep].tolist())))
        except ConfigurationError:
            continue
    raise ConfigurationError(
        f"erdos_renyi(n={n}, p={p}, seed={seed}) failed to produce a connected "
        "graph in 1000 retries"
    )


def topology_from_spec(name: str, n: int, p: float | None = None, seed: int | None = None) -> Graph:
    """Build a named topology deterministically.

    Supported names: complete, ring, path, grid, erdos_renyi.  The
    erdos_renyi family requires `p` in (0, 1] and `seed` and redraws until
    the sample is connected, giving up after 1000 attempts.
    """
    require(POS_INT, n=n)
    if name == "complete":
        return Graph(n=n, edges=frozenset(_complete_edges(n)))
    if name == "ring":
        return Graph(n=n, edges=frozenset(_ring_edges(n)))
    if name == "path":
        return Graph(n=n, edges=frozenset(_path_edges(n)))
    if name == "grid":
        return Graph(n=n, edges=frozenset(_grid_edges(n)))
    if name == "erdos_renyi":
        if p is None or seed is None:
            raise ConfigurationError("erdos_renyi topology requires 'p' and 'seed'")
        require(PROB, p=p)
        return _erdos_renyi(n, p, seed)
    raise ConfigurationError(f"unknown topology '{name}'")
