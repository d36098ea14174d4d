"""Spatial filter fitting: analytic cases, planted recovery, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from relconn import csp
from relconn.classify import stratified_folds
from relconn.csp import (SpatialFilterBank, class_mean_covariances, fit_csp,
                         fold_banks, select_channels, trial_covariances)
from relconn.data import ScatterSet, TrialSet
from relconn.errors import NumericError
from relconn.geometry import shrink_covariance


def scatter_set(samples, labels=None, ids=None):
    """Scatter matrices of a list of same-shaped channels x samples trials."""
    n = len(samples)
    labels = np.arange(n) % 2 if labels is None else labels
    ids = np.arange(n) if ids is None else ids
    n_ch = np.shape(samples[0])[0]
    return ScatterSet.from_trials(TrialSet(
        np.stack(samples), labels, ids, tuple(f"c{i}" for i in range(n_ch)),
        100.0))


def trialset_from_samples(per_class_samples):
    """Build a set from lists of per-class sample matrices."""
    samples = [x for group in per_class_samples for x in group]
    labels = [label for label, group in enumerate(per_class_samples)
              for _ in group]
    return scatter_set(samples, labels)


def exact_cov_samples(cov, n_samples, rng):
    """Samples whose covariance X X' equals n_samples * cov exactly."""
    q, _ = np.linalg.qr(rng.standard_normal((n_samples, cov.shape[0])))
    return np.linalg.cholesky(cov) @ (np.sqrt(n_samples) * q.T)


class TestBankValidation:
    def good(self):
        return dict(w=np.eye(2), patterns=np.eye(2),
                    eigenvalues=np.array([0.8, 0.2]))

    def test_round_trip(self):
        bank = SpatialFilterBank(**self.good())
        back = SpatialFilterBank.from_dict(bank.to_dict())
        assert np.array_equal(bank.w, back.w)
        assert np.array_equal(bank.patterns, back.patterns)
        assert np.array_equal(bank.eigenvalues, back.eigenvalues)

    def test_odd_filter_count(self):
        with pytest.raises(ValueError, match="even"):
            SpatialFilterBank(np.ones((3, 4)), np.ones((4, 3)),
                              np.array([0.9, 0.5, 0.1]))

    def test_more_filters_than_channels(self):
        with pytest.raises(ValueError, match="exceeds"):
            SpatialFilterBank(np.ones((4, 2)), np.ones((2, 4)),
                              np.array([0.9, 0.6, 0.4, 0.1]))

    def test_eigenvalues_sorted(self):
        args = self.good()
        args["eigenvalues"] = np.array([0.2, 0.8])
        with pytest.raises(ValueError, match="descending"):
            SpatialFilterBank(**args)

    def test_eigenvalues_in_unit_interval(self):
        args = self.good()
        args["eigenvalues"] = np.array([1.5, 0.2])
        with pytest.raises(ValueError, match="0, 1"):
            SpatialFilterBank(**args)

    def test_pattern_shape(self):
        args = self.good()
        args["patterns"] = np.ones((3, 2))
        with pytest.raises(ValueError, match="patterns"):
            SpatialFilterBank(**args)


class TestClassMeans:
    def test_unit_trace(self):
        rng = np.random.default_rng(0)
        ts = trialset_from_samples([
            [rng.standard_normal((3, 40)) for _ in range(4)],
            [rng.standard_normal((3, 40)) for _ in range(4)]])
        m0, m1 = class_mean_covariances(ts)
        assert np.trace(m0.values) == pytest.approx(1.0, rel=1e-12)
        assert np.trace(m1.values) == pytest.approx(1.0, rel=1e-12)

    def test_needs_two_trials_per_class(self):
        rng = np.random.default_rng(1)
        ts = trialset_from_samples([
            [rng.standard_normal((3, 40)) for _ in range(3)],
            [rng.standard_normal((3, 40))]])
        with pytest.raises(ValueError, match="class 1 has 1"):
            class_mean_covariances(ts)


class TestClassSums:
    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_channels=st.integers(2, 8),
           data=st.data())
    def test_equal_the_gathered_sum_bit_for_bit(self, seed, n_channels,
                                                data):
        # added one row at a time in the given order, a class's sum is
        # bit for bit the one np.sum over the gathered, normalized rows
        n = data.draw(st.integers(129, 300))
        rows = np.array(data.draw(st.permutations(range(n))))
        rows = rows[:data.draw(st.integers(129, n))]
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, n_channels, n_channels))
             * 10.0 ** rng.uniform(-4, 4, (n, 1, 1)))
        train = ScatterSet(x @ np.swapaxes(x, 1, 2), 10,
                           rng.integers(0, 2, n), np.arange(n),
                           tuple(f"c{i}" for i in range(n_channels)))
        tr = np.trace(train.matrices, axis1=1, axis2=2)

        # the gather-and-sum formula: rows in class order, then one sum
        labels = train.labels[rows]
        ordered = rows[np.argsort(labels, kind="stable")]
        normalized = train.matrices[ordered]
        normalized /= tr[ordered, None, None]
        n0 = len(rows) - int(np.count_nonzero(labels))

        sums, counts = csp._class_sums(train, tr, rows)
        assert counts == [n0, len(rows) - n0]
        assert np.array_equal(sums[0], normalized[:n0].sum(axis=0))
        assert np.array_equal(sums[1], normalized[n0:].sum(axis=0))


class TestAnalyticTwoChannel:
    def build(self):
        # class 0 trials have covariance diag(2, 1), class 1 the mirror;
        # trace-normalized means are diag(2, 1)/3 and diag(1, 2)/3, whose
        # sum is the identity, so the eigenvalues are 2/3 and 1/3
        c0 = np.diag([np.sqrt(2.0), 1.0])
        c1 = np.diag([1.0, np.sqrt(2.0)])
        return trialset_from_samples([[c0, c0], [c1, c1]])

    def test_eigenvalues(self):
        bank = fit_csp(self.build(), 2)
        assert_allclose(bank.eigenvalues, [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)

    def test_filters_axis_aligned(self):
        bank = fit_csp(self.build(), 2)
        # each filter picks out one channel
        for row in bank.w:
            assert np.min(np.abs(row)) < 1e-8 * np.max(np.abs(row))
        # first filter favors channel 0 (the high-variance one for class 0)
        assert np.argmax(np.abs(bank.w[0])) == 0
        assert np.argmax(np.abs(bank.w[1])) == 1


class TestFitInvariants:
    def make(self, seed, n_ch=5, n_trials=6, n_samples=50):
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(2):
            cov = np.diag(rng.uniform(0.5, 3.0, n_ch))
            mix = rng.standard_normal((n_ch, n_ch))
            sets.append([mix @ exact_cov_samples(cov, n_samples, rng)
                         for _ in range(n_trials)])
        return trialset_from_samples(sets)

    def test_whitening_and_diagonalization(self):
        for seed in range(5):
            ts = self.make(seed)
            bank = fit_csp(ts, 4)
            m0, m1 = class_mean_covariances(ts)
            composite = m0.values + m1.values
            # kept filters are orthonormal under the composite mean and
            # simultaneously diagonalize both class means
            assert_allclose(bank.w @ composite @ bank.w.T, np.eye(4),
                            atol=1e-10)
            p0 = bank.w @ m0.values @ bank.w.T
            assert_allclose(p0, np.diag(bank.eigenvalues), atol=1e-10)
            p1 = bank.w @ m1.values @ bank.w.T
            assert_allclose(p1, np.diag(1.0 - bank.eigenvalues), atol=1e-10)

    def test_label_swap_complements_eigenvalues(self):
        ts = self.make(11)
        swapped = ScatterSet(ts.matrices, ts.n_samples, 1 - ts.labels, ts.ids,
                             ts.channel_names)
        lam = fit_csp(ts, 4).eigenvalues
        lam_swapped = fit_csp(swapped, 4).eigenvalues
        # same filters picked from the opposite ends of the spectrum
        assert_allclose(np.sort(lam), np.sort(1.0 - lam_swapped), atol=1e-10)

    def test_argument_validation(self):
        ts = self.make(2, n_ch=4)
        with pytest.raises(ValueError, match="even"):
            fit_csp(ts, 3)
        with pytest.raises(ValueError, match="exceeds"):
            fit_csp(ts, 6)


class TestPlantedRecovery:
    def test_filters_recover_unmixing(self):
        rng = np.random.default_rng(21)
        n_ch = 4
        mixing = rng.standard_normal((n_ch, n_ch))
        d0 = np.diag(np.geomspace(8.0, 0.5, n_ch))
        d1 = np.diag(np.geomspace(8.0, 0.5, n_ch)[::-1])
        sets = []
        for d in (d0, d1):
            cov = mixing @ d @ mixing.T
            sets.append([exact_cov_samples(cov, 64, rng) for _ in range(2)])
        bank = fit_csp(trialset_from_samples(sets), n_ch)

        unmixing = np.linalg.inv(mixing)
        for row in bank.w:
            cosines = [abs(row @ u) / (np.linalg.norm(row) * np.linalg.norm(u))
                       for u in unmixing]
            assert max(cosines) > 0.999


def assert_same_bank(got, expected):
    assert np.array_equal(got.w, expected.w)
    assert np.array_equal(got.patterns, expected.patterns)
    assert np.array_equal(got.eigenvalues, expected.eigenvalues)


def random_scatter_set(n_channels, n_per_class, seed):
    """Full-rank scatter matrices of trials whose power spans two orders of
    magnitude, the classes shuffled."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    x = rng.standard_normal((n, n_channels, 2 * n_channels))
    x *= rng.uniform(0.5, 50.0, (n, 1, 1))
    return ScatterSet(x @ np.swapaxes(x, 1, 2), x.shape[2],
                      rng.permutation(np.arange(n) % 2), np.arange(n),
                      tuple(f"c{i}" for i in range(n_channels)))


class TestFoldBanks:
    """`fold_banks` on folds that partition the rows: one pass over the
    folds, each fold's means downdated from their sum."""

    @pytest.mark.parametrize("folds", [
        [np.arange(0, 14), np.arange(12, 24)],
        [np.arange(0, 12), np.arange(12, 23)],
        [],
        [np.arange(24), np.array([], dtype=int)],
    ], ids=["overlap", "row-left-out", "no-folds", "empty-fold"])
    def test_folds_must_partition_the_rows(self, folds):
        ts = random_scatter_set(4, 12, seed=0)
        with pytest.raises(ValueError, match="folds must partition the 24 "
                                             "rows: each row in exactly one "
                                             "fold, and no fold empty"):
            fold_banks(ts, folds, 2)

    def test_folds_as_lists_equal_folds_as_arrays(self):
        ts = random_scatter_set(4, 12, seed=1)
        folds = stratified_folds(ts.labels, 3, seed=1)
        got = fold_banks(ts, [rows.tolist() for rows in folds], 2)
        expected = fold_banks(ts, folds, 2)
        assert len(got) == len(expected) == 3
        for a, b in zip(got, expected):
            assert_same_bank(a, b)

    @pytest.mark.parametrize("n_channels, n_per_class, k", [
        (6, 30, 5), (22, 60, 10), (64, 280, 10)])
    def test_downdated_means_match_the_complements_own(
            self, monkeypatch, n_channels, n_per_class, k):
        ts = random_scatter_set(n_channels, n_per_class, seed=n_channels)
        folds = stratified_folds(ts.labels, k, seed=42)
        fold_means = []
        real_bank = csp._bank

        def recording_bank(mean0, mean1, n_filters):
            fold_means.append((mean0.values, mean1.values))
            return real_bank(mean0, mean1, n_filters)

        monkeypatch.setattr(csp, "_bank", recording_bank)
        fold_banks(ts, folds, 2)
        assert len(fold_means) == k
        for held_out, means in zip(folds, fold_means):
            own = class_mean_covariances(
                ts.subset(np.delete(np.arange(len(ts)), held_out)))
            for got, expected in zip(means, own):
                assert_allclose(got, expected.values, rtol=0.0,
                                atol=1e-13 * np.abs(expected.values).max())


class TestProjectAndCovariance:
    @staticmethod
    def shrunk(z):
        """Reference: covariance of the projected samples z, as computed
        before scatter matrices, symmetrized and shrunk."""
        cov = z @ z.T / (z.shape[1] - 1)
        return shrink_covariance(0.5 * (cov + cov.T))

    def test_project_applies_filters(self):
        bank = SpatialFilterBank(np.array([[1.0, 1.0], [1.0, -1.0]]),
                                 np.array([[0.5, 0.5], [0.5, -0.5]]).T,
                                 np.array([0.7, 0.3]))
        x = np.array([[1.0, 2.0, 3.0], [1.0, 0.0, -1.0]])
        (cov,) = trial_covariances(bank, scatter_set([x]))
        # the bank maps x to w @ x = [[2, 2, 2], [0, 2, 4]]
        z = np.array([[2.0, 2.0, 2.0], [0.0, 2.0, 4.0]])
        assert_allclose(cov, self.shrunk(z), rtol=1e-14)

    def test_project_channel_mismatch(self):
        bank = SpatialFilterBank(np.eye(2), np.eye(2), np.array([0.6, 0.4]))
        with pytest.raises(ValueError, match="3 channels, bank expects 2"):
            trial_covariances(bank, scatter_set([np.ones((3, 5))]))

    def test_trial_covariance_hand_value(self):
        z = np.array([[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]])
        bank = SpatialFilterBank(np.eye(2), np.eye(2), np.array([0.6, 0.4]))
        (cov,) = trial_covariances(bank, scatter_set([z]))
        # z z' / (T - 1) with T = 3, before the tiny shrinkage blend
        assert_allclose(cov, [[1.0, 1.0], [1.0, 2.5]], atol=1e-5)

    def test_trial_covariance_needs_samples(self):
        bank = SpatialFilterBank(np.eye(2), np.eye(2), np.array([0.6, 0.4]))
        with pytest.raises(ValueError, match="at least 2"):
            trial_covariances(bank, scatter_set([np.ones((2, 1))]))

    def test_stacked_covariances_match_projected_loop(self):
        rng = np.random.default_rng(15)
        bank = SpatialFilterBank(rng.standard_normal((2, 4)),
                                 rng.standard_normal((4, 2)),
                                 np.array([0.8, 0.2]))
        samples = [rng.standard_normal((4, 50)) for _ in range(7)]
        stacked = trial_covariances(bank, scatter_set(samples))
        looped = [self.shrunk(bank.w @ x) for x in samples]
        assert stacked.shape == (7, 2, 2)
        # W S W' and (W x)(W x)' round differently, in the last bits only
        assert_allclose(stacked, looped, rtol=1e-12, atol=0.0)

    def test_stacked_errors_name_the_trial(self):
        bank = SpatialFilterBank(np.eye(2), np.eye(2), np.array([0.6, 0.4]))
        s = scatter_set([np.ones((2, 5)), np.zeros((2, 5))], ids=[3, 17])
        with pytest.raises(NumericError,
                           match="trial 17: zero covariance after projection"):
            trial_covariances(bank, s)
        with pytest.raises(NumericError, match="trial 17: zero power"):
            class_mean_covariances(scatter_set(
                [np.ones((2, 5))] * 3 + [np.zeros((2, 5))], ids=[3, 5, 9, 17]))

    def test_indefinite_trial_is_named_with_its_smallest_eigenvalue(self):
        # only trial 17 is indefinite; its trace is positive, so it passes
        # the zero-covariance check. With 2 samples the covariance is the
        # scatter matrix, and shrinking diag(3, -1) moves -1 by 2e-6.
        bank = SpatialFilterBank(np.eye(2), np.eye(2), np.array([0.6, 0.4]))
        good = np.diag([2.0, 1.0])
        s = ScatterSet(np.stack([good, good, np.diag([3.0, -1.0]), good]), 2,
                       [0, 1, 0, 1], [3, 5, 17, 9], ("a", "b"))
        with pytest.raises(NumericError) as err:
            trial_covariances(bank, s)
        assert str(err.value) == (
            "trial 17: covariance is not positive definite (smallest "
            "eigenvalue -9.999980e-01)")
        # the good trials alone pass
        assert trial_covariances(bank, s.subset([0, 1, 3])).shape == (3, 2, 2)


class TestSelectChannels:
    def bank(self, patterns):
        nf = patterns.shape[1]
        eig = np.linspace(0.9, 0.1, nf)
        return SpatialFilterBank(np.eye(nf, patterns.shape[0]), patterns, eig)

    def test_argmax_per_column(self):
        patterns = np.array([[0.9, 0.1],
                             [-1.1, 0.2],
                             [0.3, -0.8]])
        picks = select_channels(self.bank(patterns), ["a", "b", "c"])
        assert picks == [(1, "b"), (2, "c")]

    def test_tie_goes_to_lowest_index(self):
        patterns = np.array([[0.5, 0.5],
                             [-0.5, 0.2],
                             [0.1, -0.5]])
        picks = select_channels(self.bank(patterns), ["a", "b", "c"])
        assert picks == [(0, "a"), (0, "a")]

    def test_name_count_checked(self):
        patterns = np.array([[0.5, 0.5], [0.2, 0.1]])
        with pytest.raises(ValueError, match="channel names"):
            select_channels(self.bank(patterns), ["a"])
