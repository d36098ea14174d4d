"""SPD geometry: matrix functions, the tangent map, and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import logm

from relconn import geometry
from relconn.errors import NumericError
from relconn.geometry import (ReferencePoint, SpdMatrix, inv_sqrtm,
                              logeuclidean_distance, logeuclidean_mean,
                              matrix_exp, matrix_log, shrink_covariance,
                              tangent_map, vectorize_symmetric)


def random_spd(rng, n, spread=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.exp(spread * rng.uniform(-1, 1, n))) @ q.T


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError, match="symmetric"):
            SpdMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NumericError, match="positive definite"):
            SpdMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_symmetrizes_roundoff(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        m = SpdMatrix(a)
        assert np.array_equal(m.values, m.values.T)
        assert not m.values.flags.writeable
        assert m.dim == 2


class TestMatrixFunctions:
    def test_log_diagonal_exact(self):
        # log of diag(1, e^2) is diag(0, 2)
        out = matrix_log(np.diag([1.0, np.e ** 2]))
        assert_allclose(out, np.diag([0.0, 2.0]), atol=1e-14)

    def test_log_matches_scipy_logm(self):
        # scipy computes the log by Schur-Parlett, an independent route
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = random_spd(rng, 5)
            assert_allclose(matrix_log(a), logm(a), atol=1e-10)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_spd(rng, 6)
            back = matrix_exp(matrix_log(a)).values
            assert_allclose(back, a, rtol=1e-10, atol=1e-12)

    def test_inv_sqrtm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_spd(rng, 4)
            s = inv_sqrtm(a)
            assert_allclose(s @ a @ s, np.eye(4), atol=1e-10)

    def test_log_rejects_fully_negative(self):
        with pytest.raises(NumericError, match="no positive part"):
            matrix_log(-np.eye(3))


class TestEigenvalueFloor:
    def test_singular_input_is_clamped(self):
        # eigenvalues of [[2, 4], [4, 8]] are 0 and 10; the 0 gets floored
        out = matrix_log(np.array([[2.0, 4.0], [4.0, 8.0]]))
        w = np.linalg.eigvalsh(out)
        # floored eigenvalue becomes log(1e-12 * 10)
        assert_allclose(w[0], np.log(1e-11), rtol=1e-10)
        assert_allclose(w[1], np.log(10.0), rtol=1e-10)

    def test_healthy_input_unchanged(self):
        # 1e-11 sits above the floor of 1e-12 * 2
        d = np.array([1e-11, 1.0, 2.0])
        assert_allclose(np.diag(matrix_log(np.diag(d))), np.log(d),
                        rtol=1e-12)


class TestDistance:
    def test_hand_value(self):
        # log(e I) - log(I) = I, Frobenius norm sqrt(2)
        d = logeuclidean_distance(np.diag([np.e, np.e]), np.eye(2))
        assert d == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (random_spd(rng, 4) for _ in range(3))
            dab = logeuclidean_distance(a, b)
            assert dab >= 0.0
            assert logeuclidean_distance(b, a) == pytest.approx(dab, rel=1e-12)
            assert logeuclidean_distance(a, a) == pytest.approx(0.0, abs=1e-10)
            assert dab <= (logeuclidean_distance(a, c)
                           + logeuclidean_distance(c, b) + 1e-10)

    def test_inversion_and_scaling_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            d = logeuclidean_distance(a, b)
            ai, bi = np.linalg.inv(a), np.linalg.inv(b)
            assert logeuclidean_distance(ai, bi) == pytest.approx(d, rel=1e-8)
            assert logeuclidean_distance(5.0 * a, 5.0 * b) == pytest.approx(
                d, rel=1e-8)


class TestMean:
    def test_diagonal_mean_is_geometric(self):
        mean = logeuclidean_mean([np.diag([1.0, 8.0]), np.diag([4.0, 2.0])])
        assert_allclose(mean.values, np.diag([2.0, 4.0]), rtol=1e-12)

    def test_single_and_repeated_input(self):
        a = np.diag([3.0, 5.0])
        assert_allclose(logeuclidean_mean([a]).values, a, rtol=1e-12)
        assert_allclose(logeuclidean_mean([a, a, a]).values, a, rtol=1e-12)

    def test_minimizes_squared_distances(self):
        rng = np.random.default_rng(9)
        mats = [random_spd(rng, 3) for _ in range(5)]
        mean = logeuclidean_mean(mats).values

        def cost(m):
            return sum(logeuclidean_distance(m, x) ** 2 for x in mats)

        base = cost(mean)
        for _ in range(25):
            bump = rng.standard_normal((3, 3)) * 0.05
            candidate = matrix_exp(
                matrix_log(mean) + 0.5 * (bump + bump.T)).values
            assert cost(candidate) >= base - 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            logeuclidean_mean([])

    def test_single_matrix_rejected(self):
        # one (n, n) matrix is not a stack of n rows
        with pytest.raises(ValueError, match="stack"):
            logeuclidean_mean(np.eye(3))


class TestVectorize:
    def test_hand_value(self):
        out = vectorize_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert_allclose(out, [1.0, 2.0 * np.sqrt(2.0), 3.0], rtol=1e-15)

    def test_norm_equals_frobenius(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            s = rng.standard_normal((5, 5))
            s = 0.5 * (s + s.T)
            assert np.linalg.norm(vectorize_symmetric(s)) == pytest.approx(
                np.linalg.norm(s), rel=1e-12)

    def test_length(self):
        assert vectorize_symmetric(np.eye(6)).shape == (21,)


class TestReferencePoint:
    def test_from_mean_caches_inverse_sqrt(self):
        rng = np.random.default_rng(11)
        a = SpdMatrix(random_spd(rng, 4))
        ref = ReferencePoint.from_mean(a)
        assert_allclose(ref.inv_sqrt @ a.values @ ref.inv_sqrt, np.eye(4),
                        atol=1e-10)

    def test_wrong_inverse_sqrt_rejected(self):
        a = SpdMatrix(np.diag([2.0, 3.0]))
        with pytest.raises(NumericError, match="check failed"):
            ReferencePoint(a, np.eye(2))

    def test_from_covariances(self):
        mats = [np.diag([1.0, 8.0]), np.diag([4.0, 2.0])]
        ref = ReferencePoint.from_covariances(mats)
        assert_allclose(ref.mean.values, np.diag([2.0, 4.0]), rtol=1e-12)


class TestTangentMap:
    def test_reference_maps_to_zero(self):
        rng = np.random.default_rng(12)
        a = SpdMatrix(random_spd(rng, 5))
        ref = ReferencePoint.from_mean(a)
        assert_allclose(tangent_map(ref, a.values), 0.0, atol=1e-10)

    def test_identity_reference_hand_value(self):
        ref = ReferencePoint.from_mean(SpdMatrix(np.eye(2)))
        s = tangent_map(ref, np.diag([np.e ** 2, np.e ** 4]))
        assert_allclose(s, [2.0, 0.0, 4.0], atol=1e-12)

    def test_isometry_at_reference(self):
        # vector distances equal Frobenius distances of whitened logs
        rng = np.random.default_rng(13)
        ref = ReferencePoint.from_mean(SpdMatrix(random_spd(rng, 4)))
        for _ in range(25):
            a, b = random_spd(rng, 4), random_spd(rng, 4)
            va = tangent_map(ref, a)
            vb = tangent_map(ref, b)
            wa = matrix_log(ref.inv_sqrt @ a @ ref.inv_sqrt)
            wb = matrix_log(ref.inv_sqrt @ b @ ref.inv_sqrt)
            assert np.linalg.norm(va - vb) == pytest.approx(
                np.linalg.norm(wa - wb), rel=1e-10)

    def test_dimension_mismatch(self):
        ref = ReferencePoint.from_mean(SpdMatrix(np.eye(3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            tangent_map(ref, np.eye(4))

    def test_feature_length(self):
        ref = ReferencePoint.from_mean(SpdMatrix(np.eye(6)))
        assert tangent_map(ref, 2.0 * np.eye(6)).shape == (21,)


class TestShrinkage:
    def test_hand_value(self):
        out = shrink_covariance(np.array([[2.0, 0.0], [0.0, 0.0]]), 0.5)
        assert_allclose(out, [[1.5, 0.0], [0.0, 0.5]], rtol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(14)
        s = random_spd(rng, 5)
        out = shrink_covariance(s, 0.3)
        assert np.trace(out) == pytest.approx(np.trace(s), rel=1e-12)

    def test_default_gamma_tiny(self):
        s = np.diag([1.0, 2.0])
        assert_allclose(shrink_covariance(s), s, rtol=1e-5)
        assert not np.array_equal(shrink_covariance(s), s)


def spd_stack(seed, k, n, log10_cond, n_tiny=0):
    """k random n x n SPD matrices with condition numbers up to
    10**log10_cond and random overall scale; the n_tiny smallest
    eigenvalues of each sit below the eigenvalue floor."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = 10.0 ** (-log10_cond * rng.uniform(0.0, 1.0, n))
        eigs[0] = 1.0
        eigs[1:1 + n_tiny] = 10.0 ** -rng.uniform(13.0, 15.0, n_tiny)
        m = (q * (eigs * 10.0 ** rng.uniform(-3.0, 3.0))) @ q.T
        out.append(0.5 * (m + m.T))
    return np.array(out)


def assert_rows_close(stacked, looped, rel=1e-12):
    for s, ref in zip(stacked, looped):
        scale = max(float(np.linalg.norm(ref)), 1e-300)
        assert np.linalg.norm(s - ref) <= rel * scale


stacks = dict(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 12),
              n=st.integers(1, 6), log10_cond=st.floats(0.0, 10.0))


class TestStackedGeometry:
    """The stacked log and tangent map against a loop over single
    matrices."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(**stacks)
    def test_matrix_log_stack_matches_loop(self, seed, k, n, log10_cond):
        mats = spd_stack(seed, k, n, log10_cond)
        stacked = matrix_log(mats)
        assert stacked.shape == (k, n, n)
        assert_rows_close(stacked, [matrix_log(m) for m in mats])

    @settings(max_examples=60, deadline=None, database=None)
    @given(**stacks)
    def test_tangent_map_stack_matches_loop(self, seed, k, n, log10_cond):
        mats = spd_stack(seed, k, n, log10_cond)
        # a reference as conditioned as a mean of shrunk covariances; the
        # stack itself spans the full conditioning range
        ref = ReferencePoint.from_mean(
            SpdMatrix(random_spd(np.random.default_rng(seed), n)))
        stacked = tangent_map(ref, mats)
        assert stacked.shape == (k, n * (n + 1) // 2)
        assert_rows_close(stacked, [tangent_map(ref, m) for m in mats])

    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 12),
           n=st.integers(2, 6), data=st.data())
    def test_floor_applies_per_matrix(self, seed, k, n, data):
        n_tiny = data.draw(st.integers(1, n - 1))
        mats = spd_stack(seed, k, n, 6.0, n_tiny)
        stacked = matrix_log(mats)
        assert_rows_close(stacked, [matrix_log(m) for m in mats])
        # the tiny eigenvalues of each matrix sit at its own floor
        for m, log_m in zip(mats, stacked):
            floor = np.log(geometry.EIG_CLAMP_REL * np.linalg.eigvalsh(m)[-1])
            w = np.linalg.eigvalsh(log_m)
            assert np.count_nonzero(np.abs(w - floor) < 1e-6) == n_tiny

    def test_stack_errors_name_the_matrix(self):
        mats = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]])
        with pytest.raises(NumericError, match="matrix 1: .*not symmetric"):
            matrix_log(mats)
        with pytest.raises(NumericError, match="matrix 0: .*no positive"):
            matrix_log([-np.eye(2), np.eye(2)])
        with pytest.raises(NumericError, match="non-finite"):
            matrix_log(np.full((2, 2), np.nan))

    def test_stack_shape_checked(self):
        for bad in (np.ones(3), np.ones((2, 2, 3)), np.ones((1, 2, 2, 2))):
            with pytest.raises(NumericError, match="stack"):
                matrix_log(bad)
        ref = ReferencePoint.from_mean(SpdMatrix(np.eye(3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            tangent_map(ref, [np.eye(2)])
        with pytest.raises(NumericError, match="square matrix"):
            SpdMatrix(np.eye(2)[None])
