"""Weighted connectivity graphs and node-level metrics.

A graph is built from a set of trial covariances: edge weights are the
absolute values of the element-wise mean covariance with the diagonal
zeroed. Metrics are weighted throughout: Onnela clustering with weights
scaled by the global maximum, participation against modules found by
greedy modularity maximization (Newman 2004), local efficiency over
inverse-weight path lengths (Latora & Marchiori 2001), and plain node
strength. `node_metrics` gives a graph's four metrics as name -> per-node
values, in `METRICS` order. Everything is dense numpy: Floyd-Warshall for
shortest paths, one argmax over the gain matrix per merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _keep


def assign_modules(weights: np.ndarray) -> np.ndarray:
    """Greedy agglomerative modularity maximization (Newman).

    Starts from singleton communities and repeatedly merges the pair with
    the largest modularity gain while a strictly positive gain exists.
    Each merge keeps the smaller community index, so a community is
    labelled by its lowest node. Ties resolve to the first pair in
    row-major order, so the outcome is deterministic. Module ids are
    relabeled by first node.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    total = float(weights.sum())
    membership = np.arange(n)
    if total <= 0.0:
        return membership

    # community-pair weight fractions and community strength fractions
    e = weights / total
    a = e.sum(axis=1)
    active = np.ones(n, dtype=bool)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)

    while True:
        gain = 2.0 * (e - np.outer(a, a))
        gain[~(upper & active & active[:, None])] = 0.0
        ci, cj = divmod(int(np.argmax(gain)), n)
        if not gain[ci, cj] > 0.0:
            break
        e[ci, :] += e[cj, :]
        e[:, ci] += e[:, cj]
        a[ci] += a[cj]
        active[cj] = False
        membership[membership == cj] = ci

    # lowest-node labels are ascending in first appearance
    return np.unique(membership, return_inverse=True)[1]


@dataclass(frozen=True)
class ConnectivityGraph:
    """Undirected weighted graph over named nodes.

    weights is finite and symmetric with non-negative entries and a zero
    diagonal; modules assigns every node a community id, by default
    `assign_modules` of the weights once they are checked.
    """

    node_names: tuple[str, ...]
    weights: np.ndarray
    modules: np.ndarray | None = None

    def __post_init__(self):
        names = tuple(self.node_names)
        object.__setattr__(self, "node_names", names)
        w = _keep(self, "weights", self.weights)
        n = len(names)
        if w.shape != (n, n):
            raise ValueError(
                f"weights must be {n}x{n} for {n} nodes, got {w.shape}")
        if not np.isfinite(w).all():
            i, j = np.argwhere(~np.isfinite(w))[0]
            raise ValueError(f"weights must be finite, got {w[i, j]} between "
                             f"{names[i]!r} and {names[j]!r}")
        if not np.allclose(w, w.T, rtol=0.0,
                           atol=1e-12 * max(1.0, w.max(initial=0.0))):
            raise ValueError("weights must be symmetric")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal must be zero")
        m = _keep(self, "modules", assign_modules(w) if self.modules is None
                  else self.modules, dtype=int)
        if m.shape != (n,):
            raise ValueError("one module id per node is required")

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def to_dict(self) -> dict:
        return {"node_names": list(self.node_names),
                "weights": self.weights.tolist(),
                "modules": self.modules.tolist()}


def build_graph(covariances, node_names) -> ConnectivityGraph:
    """Graph from a (k, n, n) stack of trial covariances: |mean
    covariance|, zero diagonal.

    Modules are assigned by greedy modularity maximization on the
    resulting weights, once `ConnectivityGraph` has checked them.
    """
    covs = np.asarray(covariances, dtype=np.float64)
    if not len(covs):
        raise ValueError("need at least one covariance")
    mean = covs.mean(axis=0)
    w = np.abs(0.5 * (mean + mean.T))
    np.fill_diagonal(w, 0.0)
    return ConnectivityGraph(tuple(node_names), w)


def node_strength(g: ConnectivityGraph) -> np.ndarray:
    """Sum of incident edge weights per node."""
    return g.weights.sum(axis=1)


def clustering_coefficient(g: ConnectivityGraph) -> np.ndarray:
    """Weighted clustering (Onnela): geometric mean of triangle weights.

    Weights are first scaled by the global maximum, so every value lands
    in [0, 1]. Nodes with fewer than two neighbors score 0.
    """
    w = g.weights
    out = np.zeros(g.n_nodes)
    w_max = float(w.max(initial=0.0))
    if w_max <= 0.0:
        return out
    w_hat = np.cbrt(w / w_max)
    degrees = (w > 0.0).sum(axis=1)
    # sum over ordered neighbor pairs of the triangle geometric means
    cycles = np.diag(w_hat @ w_hat @ w_hat)
    return np.divide(cycles, degrees * (degrees - 1), out=out,
                     where=degrees >= 2)


# libm's pow, as in a float64's `** 2`: x * x and np.power round some apart
_pow = np.frompyfunc(math.pow, 2, 1)


def participation_coefficient(g: ConnectivityGraph) -> np.ndarray:
    """1 - sum over modules of (strength into module / strength)^2.

    Nodes with zero strength score 0. The squares are added in ascending
    module id order.
    """
    s = node_strength(g)
    has = s > 0.0
    frac = np.zeros(np.count_nonzero(has))
    for m in np.unique(g.modules):
        # a C-order block, whose rows numpy sums as it sums each row alone
        into = g.weights[np.ix_(has, g.modules == m)].sum(axis=1)
        frac += _pow(into / s[has], 2.0).astype(np.float64)
    out = np.zeros(g.n_nodes)
    out[has] = 1.0 - frac
    return out


def local_efficiency(g: ConnectivityGraph) -> np.ndarray:
    """Mean inverse shortest path between neighbors, within their subgraph.

    For each node, take the subgraph induced by its neighbors (the node
    itself excluded), measure shortest paths with edge length 1/weight by
    Floyd-Warshall, and average 1/distance over all neighbor pairs;
    unreachable pairs have distance inf and so contribute 0. Nodes with
    fewer than two neighbors score 0.

    Nodes with equally many neighbors share Floyd-Warshall passes over
    their stacked subgraphs (neighbors in ascending order), a stack at
    most 2**16 distances (512 KiB) so that it stays in cache: the cost is
    the sum over nodes of neighbors^3, as one pass per node would be.
    """
    w = g.weights
    adjacent = w > 0.0
    degrees = adjacent.sum(axis=1)
    out = np.zeros(g.n_nodes)
    for k in np.unique(degrees[degrees >= 2]).tolist():
        nodes = np.flatnonzero(degrees == k)
        step = max(1, 2 ** 16 // (k * k))
        for rows in (nodes[i:i + step] for i in range(0, len(nodes), step)):
            nb = np.nonzero(adjacent[rows])[1].reshape(-1, k)
            sub = w[nb[:, :, None], nb[:, None, :]]
            dist = np.divide(1.0, sub, out=np.full_like(sub, np.inf),
                             where=sub > 0.0)
            for via in range(k):
                np.minimum(dist, dist[:, :, via, None] + dist[:, None, via],
                           out=dist)
            # each node's pairs as a row of one C-order array (`take` keeps
            # that order, indexing does not): numpy sums each row as it
            # would sum that row alone
            pairs = np.take(dist.reshape(len(rows), -1),
                            np.flatnonzero(~np.tri(k, dtype=bool)), axis=1)
            out[rows] = (1.0 / pairs).mean(axis=1)
    return out


# metric name -> per-node function, in node-metric table order
METRICS = {"clustering": clustering_coefficient,
           "participation": participation_coefficient,
           "local_efficiency": local_efficiency,
           "strength": node_strength}


def node_metrics(g: ConnectivityGraph) -> dict[str, np.ndarray]:
    """Metric name -> per-node values, in `METRICS` order."""
    return {name: metric(g) for name, metric in METRICS.items()}


def separability(a: dict[str, np.ndarray],
                 b: dict[str, np.ndarray]) -> dict[str, float]:
    """Mean absolute per-node difference of each metric between two
    graphs' `node_metrics`, which must list the same nodes in order."""
    return {name: float(np.mean(np.abs(a[name] - b[name])))
            for name in METRICS}
