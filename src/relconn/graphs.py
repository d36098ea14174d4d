"""Weighted connectivity graphs and node-level metrics.

A graph is built from a set of trial covariances: edge weights are the
absolute values of the element-wise mean covariance with the diagonal
zeroed. Metrics are weighted throughout: Onnela clustering with weights
scaled by the global maximum, participation against modules found by
greedy modularity maximization, local efficiency over inverse-weight path
lengths, and plain node strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

METRIC_NAMES = ("clustering", "participation", "local_efficiency", "strength")


def assign_modules(weights: np.ndarray) -> np.ndarray:
    """Greedy agglomerative modularity maximization (Newman).

    Starts from singleton communities and repeatedly merges the pair with
    the largest modularity gain while a strictly positive gain exists.
    Pairs are scanned in ascending index order and only a strictly larger
    gain replaces the incumbent, so ties resolve to the lowest indices and
    the outcome is deterministic. Module ids are relabeled by first node.
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
    active = list(range(n))

    while len(active) > 1:
        best_gain = 0.0
        best_pair = None
        for ii, ci in enumerate(active):
            for cj in active[ii + 1:]:
                gain = 2.0 * (e[ci, cj] - a[ci] * a[cj])
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (ci, cj)
        if best_pair is None:
            break
        ci, cj = best_pair
        e[ci, :] += e[cj, :]
        e[:, ci] += e[:, cj]
        a[ci] += a[cj]
        active.remove(cj)
        membership[membership == cj] = ci

    # stable relabel: module ids in order of first appearance
    ids = {}
    out = np.empty(n, dtype=int)
    for i, c in enumerate(membership):
        if c not in ids:
            ids[c] = len(ids)
        out[i] = ids[c]
    return out


@dataclass(frozen=True)
class ConnectivityGraph:
    """Undirected weighted graph over named nodes.

    weights is symmetric with non-negative entries and a zero diagonal;
    modules assigns every node a community id.
    """

    node_names: tuple[str, ...]
    weights: np.ndarray
    modules: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "node_names", tuple(self.node_names))
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        m = np.ascontiguousarray(self.modules, dtype=int)
        w.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "modules", m)
        n = len(self.node_names)
        if w.shape != (n, n):
            raise ValueError(
                f"weights must be {n}x{n} for {n} nodes, got {w.shape}")
        if not np.allclose(w, w.T, rtol=0.0, atol=1e-12 * max(1.0, w.max(initial=0.0))):
            raise ValueError("weights must be symmetric")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal must be zero")
        if m.shape != (n,):
            raise ValueError("one module id per node is required")

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def to_dict(self) -> dict:
        return {"node_names": list(self.node_names),
                "weights": self.weights.tolist(),
                "modules": self.modules.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ConnectivityGraph":
        return cls(tuple(d["node_names"]),
                   np.array(d["weights"], dtype=np.float64),
                   np.array(d["modules"], dtype=int))


def build_graph(covariances, node_names) -> ConnectivityGraph:
    """Graph from a (k, n, n) stack of trial covariances: |mean
    covariance|, zero diagonal.

    Modules are assigned by greedy modularity maximization on the
    resulting weights.
    """
    covs = np.asarray(covariances, dtype=np.float64)
    if not len(covs):
        raise ValueError("need at least one covariance")
    mean = covs.mean(axis=0)
    w = np.abs(0.5 * (mean + mean.T))
    np.fill_diagonal(w, 0.0)
    return ConnectivityGraph(tuple(node_names), w, assign_modules(w))


def node_strength(g: ConnectivityGraph) -> np.ndarray:
    """Sum of incident edge weights per node."""
    return g.weights.sum(axis=1)


def clustering_coefficient(g: ConnectivityGraph) -> np.ndarray:
    """Weighted clustering (Onnela): geometric mean of triangle weights.

    Weights are first scaled by the global maximum, so every value lands
    in [0, 1]. Nodes with fewer than two neighbors score 0.
    """
    w = g.weights
    n = g.n_nodes
    w_max = float(w.max(initial=0.0))
    out = np.zeros(n)
    if w_max <= 0.0:
        return out
    w_hat = np.cbrt(w / w_max)
    degrees = (w > 0.0).sum(axis=1)
    # sum over ordered neighbor pairs of the triangle geometric means
    cycles = np.diag(w_hat @ w_hat @ w_hat)
    for i in range(n):
        k = int(degrees[i])
        if k >= 2:
            out[i] = cycles[i] / (k * (k - 1))
    return out


def participation_coefficient(g: ConnectivityGraph) -> np.ndarray:
    """1 - sum over modules of (strength into module / strength)^2.

    Nodes with zero strength score 0.
    """
    s = node_strength(g)
    out = np.zeros(g.n_nodes)
    for i in range(g.n_nodes):
        if s[i] <= 0.0:
            continue
        frac = 0.0
        for m in np.unique(g.modules):
            s_im = float(g.weights[i, g.modules == m].sum())
            frac += (s_im / s[i]) ** 2
        out[i] = 1.0 - frac
    return out


def _pairwise_shortest(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest path lengths with edge length 1/weight."""
    n = weights.shape[0]
    rows, cols = np.nonzero(weights)
    lengths = 1.0 / weights[rows, cols]
    graph = csr_matrix((lengths, (rows, cols)), shape=(n, n))
    return dijkstra(graph, directed=False)


def local_efficiency(g: ConnectivityGraph) -> np.ndarray:
    """Mean inverse shortest path between neighbors, within their subgraph.

    For each node, take the subgraph induced by its neighbors (the node
    itself excluded), measure shortest paths with edge length 1/weight,
    and average 1/distance over all neighbor pairs; unreachable pairs
    contribute 0. Nodes with fewer than two neighbors score 0.
    """
    w = g.weights
    out = np.zeros(g.n_nodes)
    for i in range(g.n_nodes):
        nb = np.flatnonzero(w[i] > 0.0)
        if nb.size < 2:
            continue
        sub = w[np.ix_(nb, nb)]
        dist = _pairwise_shortest(sub)
        iu = np.triu_indices(nb.size, 1)
        inv = np.zeros(iu[0].size)
        reachable = np.isfinite(dist[iu])
        inv[reachable] = 1.0 / dist[iu][reachable]
        out[i] = float(inv.mean())
    return out


@dataclass(frozen=True)
class NodeMetrics:
    """The four node-level metrics for one graph, aligned to node order."""

    node_names: tuple[str, ...]
    clustering: np.ndarray
    participation: np.ndarray
    local_efficiency: np.ndarray
    strength: np.ndarray

    @classmethod
    def from_graph(cls, g: ConnectivityGraph) -> "NodeMetrics":
        return cls(g.node_names,
                   clustering_coefficient(g),
                   participation_coefficient(g),
                   local_efficiency(g),
                   node_strength(g))

    def by_name(self) -> dict[str, np.ndarray]:
        return {"clustering": self.clustering,
                "participation": self.participation,
                "local_efficiency": self.local_efficiency,
                "strength": self.strength}


def top_edges(g: ConnectivityGraph, fraction: float) -> ConnectivityGraph:
    """Keep only the strongest edges, zeroing the rest.

    Retains the top ceil(fraction * n_edges) weights among strictly
    positive edges; ties at the cutoff are all kept, so slightly more
    edges may survive. Modules are recomputed on the filtered graph.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    iu = np.triu_indices(g.n_nodes, 1)
    vals = g.weights[iu]
    positive = vals[vals > 0.0]
    if positive.size == 0:
        return ConnectivityGraph(g.node_names, g.weights.copy(),
                                 assign_modules(g.weights))
    n_keep = int(np.ceil(fraction * positive.size))
    cutoff = np.sort(positive)[::-1][n_keep - 1]
    w = np.where(g.weights >= cutoff, g.weights, 0.0)
    np.fill_diagonal(w, 0.0)
    return ConnectivityGraph(g.node_names, w, assign_modules(w))


def separability(a: NodeMetrics, b: NodeMetrics) -> dict[str, float]:
    """Mean absolute per-node difference of each metric between two graphs."""
    if a.node_names != b.node_names:
        raise ValueError("metric tables cover different node sets")
    left = a.by_name()
    right = b.by_name()
    return {name: float(np.mean(np.abs(left[name] - right[name])))
            for name in METRIC_NAMES}
