"""Loop-based reference implementations of the weighted graph metrics.

Deliberately slow and literal: triple loops, explicit Floyd-Warshall,
from-scratch community sums. The package implementations are vectorized
numpy (a Floyd-Warshall pass per pivot, a gain-matrix argmax per merge);
the tests require the two routes to agree to near machine precision on
batches of random graphs.

The `*_per_node` functions compute the same metrics with numpy one node
at a time: a Floyd-Warshall per neighbor subgraph, a sum per node and
module, a Python float accumulating the squares. The package's stacked
metrics must give their bytes exactly, so the graph artifacts keep theirs.
"""

import numpy as np


def strength_ref(w):
    n = w.shape[0]
    return np.array([sum(w[i, j] for j in range(n)) for i in range(n)])


def clustering_ref(w):
    """Onnela clustering: geometric mean of triangle weights over w_max."""
    n = w.shape[0]
    out = np.zeros(n)
    w_max = float(w.max()) if n else 0.0
    if w_max <= 0.0:
        return out
    for i in range(n):
        nb = [j for j in range(n) if w[i, j] > 0.0]
        k = len(nb)
        if k < 2:
            continue
        total = 0.0
        for j in nb:
            for h in nb:
                if j == h:
                    continue
                total += ((w[i, j] / w_max) * (w[i, h] / w_max)
                          * (w[j, h] / w_max)) ** (1.0 / 3.0)
        out[i] = total / (k * (k - 1))
    return out


def floyd_warshall_ref(lengths):
    d = np.array(lengths, dtype=float)
    n = d.shape[0]
    for via in range(n):
        for i in range(n):
            for j in range(n):
                alt = d[i, via] + d[via, j]
                if alt < d[i, j]:
                    d[i, j] = alt
    return d


def local_efficiency_ref(w):
    """Mean inverse neighbor-to-neighbor distance inside the neighbor subgraph."""
    n = w.shape[0]
    out = np.zeros(n)
    for i in range(n):
        nb = [j for j in range(n) if w[i, j] > 0.0]
        m = len(nb)
        if m < 2:
            continue
        lengths = np.full((m, m), np.inf)
        np.fill_diagonal(lengths, 0.0)
        for a in range(m):
            for b in range(m):
                if a != b and w[nb[a], nb[b]] > 0.0:
                    lengths[a, b] = 1.0 / w[nb[a], nb[b]]
        dist = floyd_warshall_ref(lengths)
        vals = []
        for a in range(m):
            for b in range(a + 1, m):
                vals.append(0.0 if np.isinf(dist[a, b]) else 1.0 / dist[a, b])
        out[i] = float(np.mean(vals))
    return out


def participation_ref(w, modules):
    n = w.shape[0]
    s = strength_ref(w)
    out = np.zeros(n)
    for i in range(n):
        if s[i] <= 0.0:
            continue
        acc = 0.0
        for m in sorted(set(int(x) for x in modules)):
            into = sum(w[i, j] for j in range(n) if modules[j] == m)
            acc += (into / s[i]) ** 2
        out[i] = 1.0 - acc
    return out


def greedy_modules_ref(w):
    """Greedy modularity merging with all sums recomputed from scratch.

    Same merge rule as the package (largest strictly positive gain, first
    pair in ascending scan order wins), but every gain is evaluated
    directly from the original weight matrix instead of an incrementally
    updated community matrix. Returns labels in order of first appearance.
    """
    n = w.shape[0]
    total = float(w.sum())
    if total <= 0.0:
        return np.arange(n)
    comms = [[i] for i in range(n)]

    def gain(a, b):
        between = sum(w[i, j] for i in comms[a] for j in comms[b])
        sa = sum(w[i, j] for i in comms[a] for j in range(n))
        sb = sum(w[i, j] for i in comms[b] for j in range(n))
        return 2.0 * (between / total - (sa / total) * (sb / total))

    while len(comms) > 1:
        best, pair = 0.0, None
        for a in range(len(comms)):
            for b in range(a + 1, len(comms)):
                g = gain(a, b)
                if g > best:
                    best, pair = g, (a, b)
        if pair is None:
            break
        a, b = pair
        comms[a] = comms[a] + comms[b]
        del comms[b]

    labels = np.empty(n, dtype=int)
    comms.sort(key=min)
    for idx, members in enumerate(comms):
        for node in members:
            labels[node] = idx
    return labels


def clustering_per_node(w):
    n = w.shape[0]
    w_max = float(w.max(initial=0.0))
    out = np.zeros(n)
    if w_max <= 0.0:
        return out
    w_hat = np.cbrt(w / w_max)
    degrees = (w > 0.0).sum(axis=1)
    cycles = np.diag(w_hat @ w_hat @ w_hat)
    for i in range(n):
        k = int(degrees[i])
        if k >= 2:
            out[i] = cycles[i] / (k * (k - 1))
    return out


def participation_per_node(w, modules):
    s = w.sum(axis=1)
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        if s[i] <= 0.0:
            continue
        frac = 0.0
        for m in np.unique(modules):
            s_im = float(w[i, modules == m].sum())
            frac += (s_im / s[i]) ** 2
        out[i] = 1.0 - frac
    return out


def local_efficiency_per_node(w):
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        nb = np.flatnonzero(w[i] > 0.0)
        if nb.size < 2:
            continue
        sub = w[np.ix_(nb, nb)]
        dist = np.divide(1.0, sub, out=np.full_like(sub, np.inf),
                         where=sub > 0.0)
        for via in range(nb.size):
            np.minimum(dist, dist[:, via, None] + dist[via], out=dist)
        out[i] = float((1.0 / dist[np.triu_indices(nb.size, 1)]).mean())
    return out
