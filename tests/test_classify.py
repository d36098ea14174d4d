"""Sparse logistic training: solver correctness and the model wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from relconn.classify import (EvalReport, TslrModel, _grad, _kkt_gap,
                              _loss, cross_validate, evaluate, fit_l1_logistic,
                              logistic_grad, logistic_loss,
                              select_relevant, sigmoid, soft_threshold,
                              stratified_folds, train)
from relconn.csp import (SpatialFilterBank, fit_csp, fold_banks,
                         trial_covariances)
from relconn.data import ScatterSet, TrialSet
from relconn.errors import ConvergenceError, StratificationError
from relconn.fixtures import FixtureSpec, synthesize_trialset
from relconn.geometry import ReferencePoint, SpdMatrix


def random_problem(rng, n=40, d=6):
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = (x @ w_true + 0.5 * rng.standard_normal(n) > 0).astype(float)
    return x, y


class TestPrimitives:
    def test_sigmoid_hand_value(self):
        # 1 / (1 + exp(-ln 9)) = 9/10
        assert sigmoid(np.log(9.0)) == pytest.approx(0.9, rel=1e-12)
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_sigmoid_extreme_arguments(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_loss_at_zero_is_log2(self):
        rng = np.random.default_rng(0)
        x, y = random_problem(rng)
        assert logistic_loss(np.zeros(x.shape[1]), 0.0, x, y) == pytest.approx(
            np.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        eps = 1e-6
        for _ in range(20):
            x, y = random_problem(rng, n=30, d=5)
            w = rng.standard_normal(5)
            b = float(rng.standard_normal())
            g_w, g_b = logistic_grad(w, b, x, y)
            for i in range(5):
                bump = np.zeros(5)
                bump[i] = eps
                num = (logistic_loss(w + bump, b, x, y)
                       - logistic_loss(w - bump, b, x, y)) / (2 * eps)
                assert g_w[i] == pytest.approx(num, abs=1e-5)
            num_b = (logistic_loss(w, b + eps, x, y)
                     - logistic_loss(w, b - eps, x, y)) / (2 * eps)
            assert g_b == pytest.approx(num_b, abs=1e-5)

    def test_soft_threshold(self):
        assert_allclose(soft_threshold(np.array([3.0, -3.0, 0.5, -0.5]), 1.0),
                        [2.0, -2.0, 0.0, 0.0])


class TestSolver:
    def test_objective_never_increases(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, y = random_problem(rng)
            fit = fit_l1_logistic(x, y, 0.05)
            hist = np.array(fit.objective_history)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_first_order_conditions_hold(self):
        # check the subgradient conditions directly, independently of the
        # solver's own stopping rule
        rng = np.random.default_rng(3)
        lam = 0.02
        for _ in range(5):
            x, y = random_problem(rng)
            fit = fit_l1_logistic(x, y, lam, max_iter=20000, tol=1e-6)
            g_w, g_b = logistic_grad(fit.w, fit.b, x, y)
            assert abs(g_b) <= 2e-6
            for wi, gi in zip(fit.w, g_w):
                if wi != 0.0:
                    assert abs(gi + lam * np.sign(wi)) <= 2e-6
                else:
                    assert abs(gi) <= lam + 2e-6

    def test_solution_is_local_minimum(self):
        rng = np.random.default_rng(4)
        x, y = random_problem(rng)
        lam = 0.05
        fit = fit_l1_logistic(x, y, lam, max_iter=20000, tol=1e-6)

        def objective(w, b):
            return logistic_loss(w, b, x, y) + lam * np.sum(np.abs(w))

        # the stopping rule leaves a first-order residual up to 1e-6, so a
        # perturbation of size 1e-4 can undercut the objective by ~1e-10
        base = objective(fit.w, fit.b)
        for _ in range(40):
            dw = 1e-4 * rng.standard_normal(x.shape[1])
            db = 1e-4 * float(rng.standard_normal())
            assert objective(fit.w + dw, fit.b + db) >= base - 1e-9

    def test_heavy_penalty_gives_empty_model(self):
        # with w forced to 0 the optimal bias is the class log odds
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        y = np.array([1.0] * 30 + [0.0] * 10)
        fit = fit_l1_logistic(x, y, 1.0, max_iter=20000, tol=1e-6)
        assert np.all(fit.w == 0.0)
        assert fit.b == pytest.approx(np.log(3.0), abs=1e-4)

    def test_sparsity_grows_with_penalty(self):
        rng = np.random.default_rng(6)
        x, y = random_problem(rng, n=60, d=10)
        nnz_small = np.count_nonzero(fit_l1_logistic(x, y, 1e-3).w)
        nnz_large = np.count_nonzero(fit_l1_logistic(x, y, 0.2).w)
        assert nnz_large <= nnz_small

    def test_iteration_cap_raises_with_gap(self):
        rng = np.random.default_rng(7)
        x, y = random_problem(rng)
        with pytest.raises(ConvergenceError) as exc:
            fit_l1_logistic(x, y, 0.01, max_iter=2, tol=1e-12)
        assert exc.value.gap > 1e-12

    def test_iteration_cap_counts_the_converged_iterate(self):
        # a fit that converges at iteration n returns under max_iter=n,
        # with the same result, and raises under max_iter=n-1
        rng = np.random.default_rng(9)
        for n, d, lam in [(40, 6, 0.05), (60, 10, 1e-3), (30, 5, 0.2)]:
            x, y = random_problem(rng, n=n, d=d)
            fit = fit_l1_logistic(x, y, lam)
            capped = fit_l1_logistic(x, y, lam, max_iter=fit.n_iter)
            assert capped.n_iter == fit.n_iter
            assert np.array_equal(capped.w, fit.w) and capped.b == fit.b
            with pytest.raises(ConvergenceError) as exc:
                fit_l1_logistic(x, y, lam, max_iter=fit.n_iter - 1)
            assert exc.value.gap > 1e-6
            assert f"after {fit.n_iter - 1} iterations" in str(exc.value)

    def test_negative_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            fit_l1_logistic(np.zeros((4, 2)), np.zeros(4), 0.1, max_iter=-1)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            fit_l1_logistic(np.zeros((4, 2)), np.zeros(4), -0.1)

    def test_same_iterates_as_recomputed_margins(self):
        # reusing the accepted step's margins x @ w + b is a saving only:
        # every iterate, and so the whole result, is bit-identical
        rng = np.random.default_rng(8)
        for n, d, lam in [(40, 6, 0.05), (40, 6, 0.01), (60, 10, 1e-3),
                          (30, 5, 0.2), (40, 6, 1.0)]:
            x, y = random_problem(rng, n=n, d=d)
            fit = fit_l1_logistic(x, y, lam)
            w, b, n_iter, history = recomputed_margins_fit(x, y, lam)
            assert np.array_equal(fit.w, w)
            assert fit.b == b
            assert fit.n_iter == n_iter
            assert np.array_equal(fit.objective_history, history)


def recomputed_margins_fit(x, y, lam, max_iter=5000, tol=1e-6):
    """The solver loop as it was before it kept the accepted step's
    margins: the loss and the gradient each recompute x @ w + b. Returns
    (w, b, n_iter, objective_history)."""
    w = np.zeros(x.shape[1])
    b = 0.0
    step = 1.0
    f = logistic_loss(w, b, x, y)
    history = [f + lam * float(np.sum(np.abs(w)))]
    for it in range(max_iter):
        g_w, g_b = logistic_grad(w, b, x, y)
        active = w != 0.0
        gap = abs(g_b)
        if np.any(active):
            gap = max(gap, float(np.max(np.abs(g_w[active]
                                               + lam * np.sign(w[active])))))
        if np.any(~active):
            gap = max(gap, float(np.max(np.maximum(np.abs(g_w[~active]) - lam,
                                                   0.0))))
        if gap <= tol:
            return w, b, it, history
        step = min(step * 2.0, 1e12)
        while True:
            w_new = soft_threshold(w - step * g_w, step * lam)
            b_new = b - step * g_b
            f_new = logistic_loss(w_new, b_new, x, y)
            dw = w_new - w
            db = b_new - b
            bound = (f + g_w @ dw + g_b * db
                     + (dw @ dw + db * db) / (2.0 * step))
            if f_new <= bound + 1e-12 or step < 1e-18:
                break
            step *= 0.5
        w, b, f = w_new, b_new, f_new
        history.append(f + lam * float(np.sum(np.abs(w))))
    raise AssertionError("reference solver did not converge")


class TestSolverOptimality:
    """Whenever the solver returns, its (w, b) satisfies the optimality
    conditions of the L1 problem, recomputed here from scratch."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 40),
           d=st.integers(1, 8), lam=st.floats(1e-3, 1.0),
           noise=st.floats(0.0, 2.0))
    def test_kkt_conditions_on_return(self, seed, n, d, lam, noise):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = (x @ rng.standard_normal(d) + noise * rng.standard_normal(n)
             > 0).astype(float)
        tol = 1e-6
        try:
            fit = fit_l1_logistic(x, y, lam, tol=tol)
        except ConvergenceError:
            return
        # gradient of the mean logistic loss, written out independently;
        # 1e-12 covers rounding between the two ways of computing it
        r = expit(x @ fit.w + fit.b) - y
        g_w, g_b = x.T @ r / n, float(np.mean(r))
        slack = tol + 1e-12
        assert abs(g_b) <= slack
        nonzero = fit.w != 0.0
        assert np.all(np.abs(g_w[nonzero] + lam * np.sign(fit.w[nonzero]))
                      <= slack)
        assert np.all(np.abs(g_w[~nonzero]) <= lam + slack)
        assert np.all(np.diff(fit.objective_history) <= 1e-12)


def masked_sigmoid(z):
    """The logistic function as two masked branches, each with its own
    exp: 1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mean_loss(z, y):
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def mean_grad(z, x, y):
    r = masked_sigmoid(z) - y
    return x.T @ r / x.shape[0], float(np.mean(r))


def masked_kkt_gap(w, g_w, g_b, lam):
    """The optimality residual as separate maxima over the active and the
    inactive coefficients."""
    active = w != 0.0
    gap = abs(g_b)
    if np.any(active):
        gap = max(gap, float(np.max(np.abs(g_w[active]
                                           + lam * np.sign(w[active])))))
    if np.any(~active):
        gap = max(gap, float(np.max(np.maximum(np.abs(g_w[~active]) - lam,
                                               0.0))))
    return gap


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


# margins: ordinary values, the overflow region of exp (|z| >= 700) and
# both signed zeros
_MARGINS = (st.floats(-50.0, 50.0)
            | st.floats(700.0, 1e6) | st.floats(-1e6, -700.0)
            | st.sampled_from([0.0, -0.0, 709.78, -745.2]))
# coefficients: exact zeros of both signs are inactive
_COEFS = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])


class TestSolverHelperBits:
    """The solver helpers give the bits of the masked, `np.mean` formulas
    they replace. `recomputed_margins_fit` calls the same helpers, so it
    cannot see a change in their bits; this oracle can."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n=st.integers(1, 30), d=st.integers(1, 6))
    def test_sigmoid_loss_and_gradient(self, data, n, d):
        z = np.array(data.draw(st.lists(_MARGINS, min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=n, max_size=n)))
        x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0),
                                        min_size=n * d, max_size=n * d)))
        x = x.reshape(n, d)
        assert bits(sigmoid(z)) == bits(masked_sigmoid(z))
        assert bits(_loss(z, y)) == bits(mean_loss(z, y))
        (g_w, g_b), (ref_w, ref_b) = _grad(z, x, y), mean_grad(z, x, y)
        assert bits(g_w) == bits(ref_w) and bits(g_b) == bits(ref_b)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), d=st.integers(1, 8),
           g_b=st.floats(-1.0, 1.0), lam=st.floats(0.0, 1.0))
    def test_kkt_gap(self, data, d, g_b, lam):
        w = np.array(data.draw(st.lists(_COEFS, min_size=d, max_size=d)))
        g_w = np.array(data.draw(st.lists(st.floats(-2.0, 2.0),
                                          min_size=d, max_size=d)))
        assert bits(_kkt_gap(w, g_w, g_b, lam)) == bits(
            masked_kkt_gap(w, g_w, g_b, lam))

    def test_scalar_and_signed_zero_margins(self):
        for z in (0.0, -0.0, 700.0, -700.0, 1e300, -1e300):
            assert bits(sigmoid(z)) == bits(masked_sigmoid(z))


def identity_bank(n=2):
    eig = np.linspace(0.7, 0.3, n)
    return SpatialFilterBank(np.eye(n), np.eye(n), eig)


def bias_only_model(bias):
    ref = ReferencePoint.from_mean(SpdMatrix(np.eye(2)))
    return TslrModel(np.zeros(3), bias, 0.1, ref)


def score(model, test_set, bank=None):
    """`evaluate` on the set's covariances projected through bank (the
    identity by default)."""
    covs = trial_covariances(bank or identity_bank(), test_set)
    return evaluate(model, covs, test_set.labels, test_set.ids)


def scatter_set(samples, labels, ids=None):
    ids = np.arange(len(labels)) if ids is None else ids
    return ScatterSet.from_trials(
        TrialSet(samples, labels, ids, ("a", "b"), 100.0))


def labeled_set(labels, seed=0):
    rng = np.random.default_rng(seed)
    return scatter_set(rng.standard_normal((len(labels), 2, 30)), labels)


class TestEvaluate:
    def test_percent_metrics_all_positive(self):
        # bias ln 9 gives posterior 0.9 everywhere, so everything is
        # predicted class 1: accuracy 75, precision 75, recall 100
        report = score(bias_only_model(np.log(9.0)),
                          labeled_set([1, 1, 0, 1]))
        assert report.accuracy == pytest.approx(75.0)
        assert report.precision == pytest.approx(75.0)
        assert report.recall == pytest.approx(100.0)
        assert report.predicted_labels.tolist() == [1, 1, 1, 1]
        assert_allclose(report.posteriors, 0.9, rtol=1e-9)
        assert report.trial_ids.tolist() == [0, 1, 2, 3]
        assert report.true_labels.tolist() == [1, 1, 0, 1]

    def test_percent_metrics_all_negative(self):
        report = score(bias_only_model(-np.log(9.0)),
                       labeled_set([1, 1, 0, 1]))
        assert report.accuracy == pytest.approx(25.0)
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_posterior_half_predicts_class_one(self):
        report = score(bias_only_model(0.0), labeled_set([0, 1]))
        assert report.predicted_labels.tolist() == [1, 1]


class TestSelectRelevant:
    def report(self):
        return EvalReport(60.0, 75.0, 100.0,
                          trial_ids=np.array([1, 2, 3, 4, 5]),
                          true_labels=np.array([1, 1, 0, 0, 1]),
                          predicted_labels=np.array([1, 1, 0, 1, 1]),
                          posteriors=np.array([0.90, 0.69, 0.30, 0.95, 0.70]))

    def test_confident_correct_only(self):
        # 2 misses the confidence bar, 4 is wrong, 5 sits exactly on it
        assert select_relevant(self.report(), 0.7) == [1, 3, 5]

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            select_relevant(self.report(), 0.5)
        with pytest.raises(ValueError, match="threshold"):
            select_relevant(self.report(), 1.0001)


class TestTrainPredict:
    def make_sets(self, seed=8, n_per_class=20):
        rng = np.random.default_rng(seed)
        covs = {0: np.diag([4.0, 1.0]), 1: np.diag([1.0, 4.0])}
        samples, labels = [], []
        for label in (0, 1):
            chol = np.linalg.cholesky(covs[label])
            for _ in range(n_per_class):
                samples.append(chol @ rng.standard_normal((2, 60)))
                labels.append(label)
        order = rng.permutation(len(samples))
        return scatter_set(np.stack(samples)[order],
                           np.array(labels)[order])

    def test_separable_classes_learned(self):
        train_set = self.make_sets(seed=8)
        test_set = self.make_sets(seed=9)
        model = train(train_set, identity_bank())
        report = score(model, test_set)
        assert report.accuracy >= 90.0

    def test_requires_both_classes(self):
        ts = labeled_set([0, 0, 0, 0])
        with pytest.raises(ValueError, match="both classes"):
            train(ts, identity_bank())

    def test_default_penalty_recorded(self):
        train_set = self.make_sets()
        model = train(train_set, identity_bank())
        assert model.lam == pytest.approx(0.1 / len(train_set))

    def test_round_trip_preserves_predictions(self):
        model = train(self.make_sets(), identity_bank())
        back = TslrModel.from_dict(model.to_dict())
        test_set = labeled_set([0, 1] * 5, seed=10)
        assert_allclose(score(back, test_set).posteriors,
                        score(model, test_set).posteriors,
                        rtol=0.0, atol=1e-12)

    def test_probabilities_clipped(self):
        for bias in (1e4, -1e4):
            p = score(bias_only_model(bias), labeled_set([0, 1])).posteriors
            assert np.all((0.0 < p) & (p < 1.0))


class TestStratifiedFolds:
    def test_partition_and_balance(self):
        labels = np.array([0] * 13 + [1] * 17)
        folds = stratified_folds(labels, 4, seed=3)
        lens = []
        seen = np.concatenate(folds)
        assert sorted(seen.tolist()) == list(range(30))
        for fold in folds:
            assert np.array_equal(fold, np.sort(fold))
            c0 = int(np.sum(labels[fold] == 0))
            c1 = int(np.sum(labels[fold] == 1))
            assert c0 >= 1 and c1 >= 1
            lens.append((c0, c1))
        for cls in (0, 1):
            counts = [l[cls] for l in lens]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        labels = np.array([0, 1] * 10)
        a = stratified_folds(labels, 5, seed=42)
        b = stratified_folds(labels, 5, seed=42)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_small_class_rejected(self):
        labels = np.array([0, 0, 1, 1, 1, 1])
        with pytest.raises(StratificationError, match="cannot stratify"):
            stratified_folds(labels, 3, seed=42)

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k"):
            stratified_folds(np.array([0, 1, 0, 1]), 1, seed=42)


class TestCrossValidate:
    def make_set(self, seed=12):
        rng = np.random.default_rng(seed)
        samples = []
        for tid in range(24):
            label = tid % 2
            scale = np.diag([2.0, 0.5]) if label == 0 else np.diag([0.5, 2.0])
            samples.append(scale @ rng.standard_normal((2, 40)))
        return scatter_set(np.stack(samples), np.arange(24) % 2)

    def test_deterministic_and_sane(self):
        ts = self.make_set()
        mean_a, std_a = cross_validate(
            ts, stratified_folds(ts.labels, 3, seed=42), n_filters=2)
        mean_b, std_b = cross_validate(
            ts, stratified_folds(ts.labels, 3, seed=42), n_filters=2)
        assert mean_a == mean_b and std_a == std_b
        assert 0.0 <= mean_a <= 100.0 and std_a >= 0.0
        # the classes are cleanly separable, so folds should score high
        assert mean_a >= 75.0

    def fixture_set(self, seed):
        ts, _ = synthesize_trialset(
            FixtureSpec(n_channels=6, n_per_class=30, duration_s=0.5), seed)
        return ScatterSet.from_trials(ts)

    def test_matches_refit_per_fold(self):
        cases = [(self.make_set(), dict(k=3, n_filters=2))]
        # a firm penalty keeps the fits short
        cases += [(self.fixture_set(seed), dict(k=5, n_filters=4, lam=0.02))
                  for seed in (1, 2, 3)]
        for ts, kwargs in cases:
            folds = stratified_folds(ts.labels, kwargs.pop("k"), seed=42)
            assert (cross_validate(ts, folds, **kwargs)
                    == refit_cross_validate(ts, folds, **kwargs))

    def test_fold_banks_match_fit_per_fold(self):
        for seed in (1, 2, 3):
            ts = self.fixture_set(seed)
            folds = stratified_folds(ts.labels, 5, seed=42)
            for held_out, bank in zip(folds, fold_banks(ts, folds, 4)):
                expected = fit_csp(
                    ts.subset(np.delete(np.arange(len(ts)), held_out)), 4)
                assert_allclose(bank.eigenvalues, expected.eigenvalues,
                                rtol=0.0, atol=1e-10)
                # each filter and its pattern up to sign
                sign = np.sign(np.sum(bank.w * expected.w, axis=1))
                assert_allclose(bank.w * sign[:, None], expected.w,
                                rtol=0.0,
                                atol=1e-10 * np.abs(expected.w).max())
                assert_allclose(bank.patterns * sign, expected.patterns,
                                rtol=0.0,
                                atol=1e-10 * np.abs(expected.patterns).max())

    def test_fold_class_count_checked(self):
        # two trials per class and two folds leave one per class to fit on
        ts = labeled_set([0, 1, 0, 1])
        with pytest.raises(ValueError, match="class 0 has 1 trials"):
            cross_validate(ts, stratified_folds(ts.labels, 2, seed=42),
                           n_filters=2)


def refit_cross_validate(train_set, folds, n_filters, lam=None):
    """Cross-validation as a fresh fit per fold: the fold's trials are
    copied out, and filters, reference and weights are fit on the copy."""
    accuracies = []
    for held_out in folds:
        fold_train = train_set.subset(
            np.delete(np.arange(len(train_set)), held_out))
        bank = fit_csp(fold_train, n_filters)
        model = train(fold_train, bank, lam)
        accuracies.append(
            score(model, train_set.subset(held_out), bank).accuracy)
    acc = np.array(accuracies)
    return float(acc.mean()), float(acc.std())
