"""Graph metrics against loop-based references and hand-worked cases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import shortest_path

import graph_oracle as ref
from relconn.graphs import (METRICS, ConnectivityGraph, assign_modules,
                            build_graph, clustering_coefficient,
                            local_efficiency, node_metrics, node_strength,
                            participation_coefficient, separability)


def random_weights(rng, n, density=0.6):
    w = rng.uniform(0.1, 2.0, (n, n))
    mask = rng.uniform(size=(n, n)) < density
    w = np.where(mask, w, 0.0)
    w = np.triu(w, 1)
    w = w + w.T
    return w


def graph_from(w, modules=None):
    names = tuple(f"n{i}" for i in range(w.shape[0]))
    mods = assign_modules(w) if modules is None else np.asarray(modules)
    return ConnectivityGraph(names, w, mods)


def ring(n, weight=1.0):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = weight
    return w


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ConnectivityGraph(("a", "b"), w, np.zeros(2, dtype=int))

    def test_negative_rejected(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            ConnectivityGraph(("a", "b"), w, np.zeros(2, dtype=int))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            ConnectivityGraph(("a", "b"), np.eye(2), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_first(self, bad):
        # symmetric in its non-finite entries: named as non-finite, not
        # as asymmetric, and never reaching the metrics
        w = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match=f"weights must be finite, got "
                                             f"{bad} between 'a' and 'b'"):
            ConnectivityGraph(("a", "b"), w, np.zeros(2, dtype=int))

    def test_non_finite_covariance_rejected_before_modules(self):
        # modules would divide by an infinite total weight first
        covs = np.eye(3)[None].repeat(2, axis=0)
        covs[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="got inf between 'a' and 'c'"):
            build_graph(covs, ("a", "b", "c"))

    def test_module_length_checked(self):
        with pytest.raises(ValueError, match="module"):
            ConnectivityGraph(("a", "b"), np.zeros((2, 2)),
                              np.zeros(3, dtype=int))


class TestAssignModules:
    def test_two_components(self):
        # two disjoint edges merge into two communities
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert assign_modules(w).tolist() == [0, 0, 1, 1]

    def test_ring_of_four(self):
        # merging (0,1) kills the gain of (0,2) and (0,3); (2,3) still
        # gains, and the final cross-pair gain is exactly zero, so the
        # greedy pass stops at two opposite pairs
        assert assign_modules(ring(4)).tolist() == [0, 0, 1, 1]

    def test_tie_goes_to_lowest_pair(self):
        # the unit path 1-3-2-4-0 merges {0,4}, then {1,3}; node 2 then
        # gains exactly 1/16 from joining either, and the lowest pair
        # (community 0, node 2) wins
        w = np.zeros((5, 5))
        for i, j in ((1, 3), (3, 2), (2, 4), (4, 0)):
            w[i, j] = w[j, i] = 1.0
        assert assign_modules(w).tolist() == [0, 1, 0, 1, 0]

    def test_empty_graph(self):
        assert assign_modules(np.zeros((5, 5))).tolist() == [0, 1, 2, 3, 4]

    def test_two_blocks(self):
        rng = np.random.default_rng(0)
        n = 8
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                same = (i < 4) == (j < 4)
                w[i, j] = w[j, i] = (rng.uniform(0.8, 1.0) if same
                                     else rng.uniform(0.0, 0.05))
        labels = assign_modules(w)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = random_weights(rng, int(rng.integers(3, 9)))
            assert assign_modules(w).tolist() == ref.greedy_modules_ref(
                w).tolist()


class TestMetricHandValues:
    def test_triangle_equal_weights(self):
        # unit triangle: every normalized weight is 1 and every shortest
        # path has length 1, so clustering and efficiency are exactly 1
        w = np.full((3, 3), 1.0)
        np.fill_diagonal(w, 0.0)
        g = graph_from(w)
        assert_allclose(clustering_coefficient(g), 1.0)
        assert_allclose(local_efficiency(g), 1.0)
        assert_allclose(node_strength(g), 2.0)

    def test_triangle_weight_scale_in_efficiency(self):
        # doubling all weights halves path lengths: efficiency doubles,
        # clustering is scale-free through the w/max(w) normalization
        w = np.full((3, 3), 2.0)
        np.fill_diagonal(w, 0.0)
        g = graph_from(w)
        assert_allclose(clustering_coefficient(g), 1.0)
        assert_allclose(local_efficiency(g), 2.0)
        assert_allclose(node_strength(g), 4.0)

    def test_path_has_no_triangles(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        g = graph_from(w)
        assert_allclose(clustering_coefficient(g), 0.0)

    def test_unbalanced_triangle(self):
        # node 0 sees its neighbors joined by the weak 0.5 edge: the
        # shortest path between them has length 2, efficiency 0.5;
        # nodes 1 and 2 see a direct unit edge
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[0, 2] = w[2, 0] = 1.0
        w[1, 2] = w[2, 1] = 0.5
        g = graph_from(w)
        assert_allclose(local_efficiency(g), [0.5, 1.0, 1.0])
        # Onnela: every node has one triangle of weight (1 * 1 * 0.5)^(1/3)
        c = (0.5) ** (1.0 / 3.0)
        assert_allclose(clustering_coefficient(g), c)

    def test_participation_hand_case(self):
        # node 0: strength 2, half into each module: 1 - 2 * 0.25 = 0.5
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[0, 2] = w[2, 0] = 1.0
        modules = [0, 0, 1, 1]
        g = graph_from(w, modules)
        assert_allclose(participation_coefficient(g), [0.5, 0.0, 0.0, 0.0])

    def test_isolated_nodes_score_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = graph_from(w)
        assert clustering_coefficient(g)[2] == 0.0
        assert local_efficiency(g)[2] == 0.0
        assert participation_coefficient(g)[2] == 0.0
        assert node_strength(g)[2] == 0.0


class TestMetricsAgainstReference:
    def test_random_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            w = random_weights(rng, n, density=float(rng.uniform(0.2, 1.0)))
            g = graph_from(w)
            assert_allclose(node_strength(g), ref.strength_ref(w), atol=1e-10)
            assert_allclose(clustering_coefficient(g),
                            ref.clustering_ref(w), atol=1e-10)
            assert_allclose(local_efficiency(g),
                            ref.local_efficiency_ref(w), atol=1e-10)
            assert_allclose(participation_coefficient(g),
                            ref.participation_ref(w, g.modules), atol=1e-10)

    def test_disconnected_components(self):
        w = np.zeros((6, 6))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 0.5
        w[0, 2] = w[2, 0] = 0.25
        w[4, 5] = w[5, 4] = 2.0
        g = graph_from(w)
        assert_allclose(local_efficiency(g), ref.local_efficiency_ref(w),
                        atol=1e-12)
        assert_allclose(clustering_coefficient(g), ref.clustering_ref(w),
                        atol=1e-12)


class TestBuildGraph:
    def test_absolute_mean_with_zero_diagonal(self):
        covs = [np.array([[2.0, -1.0], [-1.0, 3.0]]),
                np.array([[4.0, 3.0], [3.0, 1.0]])]
        g = build_graph(covs, ("a", "b"))
        assert_allclose(g.weights, [[0.0, 1.0], [1.0, 0.0]])

    def test_accepts_a_stack(self):
        covs = np.diag([1.0, 2.0])[None]
        g = build_graph(covs, ("a", "b"))
        assert_allclose(g.weights, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_graph([], ("a",))


class TestSeparability:
    def test_mean_absolute_difference(self):
        m1 = {"clustering": np.array([1.0, 0.0]),
              "participation": np.array([0.5, 0.5]),
              "local_efficiency": np.array([0.2, 0.4]),
              "strength": np.array([3.0, 1.0])}
        m2 = {"clustering": np.array([0.0, 1.0]),
              "participation": np.array([0.5, 0.5]),
              "local_efficiency": np.array([0.2, 0.1]),
              "strength": np.array([1.0, 2.0])}
        out = separability(m1, m2)
        assert out["clustering"] == pytest.approx(1.0)
        assert out["participation"] == pytest.approx(0.0)
        assert out["local_efficiency"] == pytest.approx(0.15)
        assert out["strength"] == pytest.approx(1.5)

    def test_from_graph_matches_functions(self):
        rng = np.random.default_rng(3)
        w = random_weights(rng, 5)
        g = graph_from(w)
        m = node_metrics(g)
        assert list(m) == ["clustering", "participation",
                           "local_efficiency", "strength"]
        assert np.array_equal(m["clustering"], clustering_coefficient(g))
        assert np.array_equal(m["participation"],
                              participation_coefficient(g))
        assert np.array_equal(m["local_efficiency"], local_efficiency(g))
        assert np.array_equal(m["strength"], node_strength(g))


def dijkstra_local_efficiency(w):
    """Local efficiency through scipy's shortest paths: an algorithm
    independent of the package's Floyd-Warshall, fast enough for the
    64-node graphs the loop oracle cannot reach."""
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        nb = np.flatnonzero(w[i] > 0.0)
        if nb.size < 2:
            continue
        sub = w[np.ix_(nb, nb)]
        # dense input: a zero length is a missing edge
        lengths = np.divide(1.0, sub, out=np.zeros_like(sub), where=sub > 0.0)
        dist = shortest_path(lengths, directed=False)
        out[i] = np.mean(1.0 / dist[np.triu_indices(nb.size, 1)])
    return out


random_graphs = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
                     density=st.floats(0.1, 1.0))


class TestMetricProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(**random_graphs, k=st.integers(-30, 30), ties=st.booleans())
    def test_power_of_two_scaling_is_exact(self, seed, n, density, k, ties):
        rng = np.random.default_rng(seed)
        w = random_weights(rng, n, density)
        if ties:
            w = np.round(w)
        g, g2 = graph_from(w), graph_from(w * 2.0 ** k)
        assert np.array_equal(g2.modules, g.modules)
        for metric in (clustering_coefficient, participation_coefficient):
            assert np.array_equal(metric(g2), metric(g))
        for metric in (node_strength, local_efficiency):
            assert np.array_equal(metric(g2), metric(g) * 2.0 ** k)

    @settings(max_examples=60, deadline=None, database=None)
    @given(**random_graphs)
    def test_node_permutation_permutes_metrics(self, seed, n, density):
        rng = np.random.default_rng(seed)
        w = random_weights(rng, n, density)
        perm = rng.permutation(n)
        g, gp = graph_from(w), graph_from(w[np.ix_(perm, perm)])
        for metric in (node_strength, clustering_coefficient,
                       local_efficiency):
            assert_allclose(metric(gp), metric(g)[perm], rtol=1e-12, atol=0.0)

    @settings(max_examples=20, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([22, 64]),
           density=st.floats(0.05, 1.0))
    def test_local_efficiency_matches_dijkstra(self, seed, n, density):
        w = random_weights(np.random.default_rng(seed), n, density)
        assert_allclose(local_efficiency(graph_from(w)),
                        dijkstra_local_efficiency(w), rtol=1e-12, atol=0.0)


class TestStackedMetricsExact:
    """The stacked metrics give exactly the bytes of the per-node numpy
    versions (`graph_oracle.*_per_node`), so graph artifacts keep theirs."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 64),
           density=st.floats(0.0, 1.0), scale=st.integers(-8, 8),
           isolated=st.integers(0, 3), leaves=st.integers(0, 3),
           own_modules=st.booleans())
    def test_same_bytes_as_per_node(self, seed, n, density, scale, isolated,
                                    leaves, own_modules):
        rng = np.random.default_rng(seed)
        w = random_weights(rng, n, density) * 10.0 ** scale
        # isolated nodes first, then nodes left with a single neighbor
        nodes = rng.permutation(n)
        for k, i in enumerate(nodes[:isolated + leaves]):
            w[i] = w[:, i] = 0.0
            if k >= isolated:
                j = (i + 1 + rng.integers(n - 1)) % n
                w[i, j] = w[j, i] = rng.uniform(0.1, 2.0)
        # arbitrary, unordered module ids as well as assigned ones
        modules = rng.integers(-3, 5, n) if own_modules else None
        g = graph_from(w, modules)
        assert (clustering_coefficient(g).tobytes()
                == ref.clustering_per_node(w).tobytes())
        assert (participation_coefficient(g).tobytes()
                == ref.participation_per_node(w, g.modules).tobytes())
        assert (local_efficiency(g).tobytes()
                == ref.local_efficiency_per_node(w).tobytes())

    @pytest.mark.parametrize("shape", ["hub_and_leaves", "dense"])
    def test_degree_extremes(self, shape):
        # a hub of degree 63 with leaves of degree 1 and 2 (one pass per
        # neighbor count), and 64 nodes of degree 63 (a stack of 64
        # subgraphs, cut into passes of at most 2**16 distances)
        rng = np.random.default_rng(7)
        if shape == "dense":
            w = random_weights(rng, 64, 1.0)
        else:
            w = np.zeros((64, 64))
            w[0, 1:] = w[1:, 0] = rng.uniform(0.1, 2.0, 63)
            for i in range(1, 63, 2):
                w[i, i + 1] = w[i + 1, i] = rng.uniform(0.1, 2.0)
        assert (local_efficiency(graph_from(w)).tobytes()
                == ref.local_efficiency_per_node(w).tobytes())

    @pytest.mark.parametrize("n", [0, 1])
    def test_graphs_of_no_or_one_node(self, n):
        w = np.zeros((n, n))
        g = ConnectivityGraph(tuple(f"n{i}" for i in range(n)), w)
        for metric in METRICS.values():
            assert metric(g).tobytes() == np.zeros(n).tobytes()
