"""Graph metrics against loop-based references and hand-worked cases."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import graph_oracle as ref
from relconn.graphs import (ConnectivityGraph, NodeMetrics, assign_modules,
                            build_graph, clustering_coefficient,
                            local_efficiency, node_strength,
                            participation_coefficient, separability,
                            top_edges)


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

    def test_module_length_checked(self):
        with pytest.raises(ValueError, match="module"):
            ConnectivityGraph(("a", "b"), np.zeros((2, 2)),
                              np.zeros(3, dtype=int))

    def test_dict_round_trip(self):
        g = graph_from(ring(4))
        back = ConnectivityGraph.from_dict(g.to_dict())
        assert back.node_names == g.node_names
        assert np.array_equal(back.weights, g.weights)
        assert np.array_equal(back.modules, g.modules)


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


class TestTopEdges:
    def weights(self):
        w = np.zeros((4, 4))
        vals = {(0, 1): 4.0, (0, 2): 3.0, (0, 3): 2.0,
                (1, 2): 1.0, (1, 3): 0.5, (2, 3): 0.25}
        for (i, j), v in vals.items():
            w[i, j] = w[j, i] = v
        return w

    def test_keeps_ceil_fraction(self):
        g = graph_from(self.weights())
        kept = top_edges(g, 0.5)
        # ceil(0.5 * 6) = 3 strongest edges survive
        iu = np.triu_indices(4, 1)
        assert int(np.count_nonzero(kept.weights[iu])) == 3
        assert kept.weights[0, 1] == 4.0
        assert kept.weights[2, 3] == 0.0

    def test_ties_at_cutoff_survive(self):
        w = self.weights()
        w[1, 2] = w[2, 1] = 2.0  # duplicate the cutoff weight
        kept = top_edges(graph_from(w), 0.5)
        iu = np.triu_indices(4, 1)
        assert int(np.count_nonzero(kept.weights[iu])) == 4

    def test_fraction_one_keeps_everything(self):
        g = graph_from(self.weights())
        kept = top_edges(g, 1.0)
        assert np.array_equal(kept.weights, g.weights)

    def test_fraction_validated(self):
        g = graph_from(self.weights())
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                top_edges(g, bad)

    def test_modules_recomputed(self):
        # dropping the weak bridge splits the graph into two communities
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        w[1, 2] = w[2, 1] = 0.1
        g = graph_from(w)
        kept = top_edges(g, 0.5)
        assert kept.weights[1, 2] == 0.0
        assert kept.modules.tolist() == [0, 0, 1, 1]

    def test_all_zero_graph_passthrough(self):
        g = graph_from(np.zeros((3, 3)))
        kept = top_edges(g, 0.5)
        assert_allclose(kept.weights, 0.0)


class TestSeparability:
    def test_mean_absolute_difference(self):
        names = ("a", "b")
        m1 = NodeMetrics(names, np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                         np.array([0.2, 0.4]), np.array([3.0, 1.0]))
        m2 = NodeMetrics(names, np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                         np.array([0.2, 0.1]), np.array([1.0, 2.0]))
        out = separability(m1, m2)
        assert out["clustering"] == pytest.approx(1.0)
        assert out["participation"] == pytest.approx(0.0)
        assert out["local_efficiency"] == pytest.approx(0.15)
        assert out["strength"] == pytest.approx(1.5)

    def test_node_mismatch_rejected(self):
        m1 = NodeMetrics(("a",), np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros(1))
        m2 = NodeMetrics(("b",), np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros(1))
        with pytest.raises(ValueError, match="different node sets"):
            separability(m1, m2)

    def test_from_graph_matches_functions(self):
        rng = np.random.default_rng(3)
        w = random_weights(rng, 5)
        g = graph_from(w)
        m = NodeMetrics.from_graph(g)
        assert np.array_equal(m.clustering, clustering_coefficient(g))
        assert np.array_equal(m.participation, participation_coefficient(g))
        assert np.array_equal(m.local_efficiency, local_efficiency(g))
        assert np.array_equal(m.strength, node_strength(g))
