"""Acceptance gates for the package as a whole.

Each class is one gate: SPD geometry, tangent-map isometry, spatial
filter recovery, filter magnitude responses, classifier correctness,
graph metric equivalence, the end-to-end selection property, and an
optional check on user-supplied recordings.

Tolerances and runtime budgets are pinned here and should not be
loosened to make a failing build pass.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import filter_oracle
import graph_oracle
from relconn.classify import (cross_validate, evaluate, fit_l1_logistic,
                              logistic_grad, logistic_loss, stratified_folds,
                              train)
from relconn.csp import class_mean_covariances, fit_csp
from relconn.data import ScatterSet, TrialSet
from relconn.filters import (FilterSpec, design_bandpass, frequency_response,
                             magnitude_db)
from relconn.fixtures import FixtureSpec, generate_fixture
from relconn.geometry import (ReferencePoint, SpdMatrix,
                              logeuclidean_distance, logeuclidean_mean,
                              matrix_exp, matrix_log, tangent_map)
from relconn.graphs import (ConnectivityGraph, assign_modules,
                            clustering_coefficient, local_efficiency,
                            node_strength, participation_coefficient)
from relconn.pipeline import (PipelineConfig, Plan, run_pipeline,
                              stage_evaluate, stage_fit_csp, stage_train)


def random_spd(rng, n, log_range=1.5):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = 10.0 ** rng.uniform(-log_range, log_range, n)
    m = q @ np.diag(eigs) @ q.T
    return 0.5 * (m + m.T)


@pytest.fixture(scope="module")
def geometry_results():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    n = 6

    round_trip = 0.0
    for _ in range(1000):
        s = random_spd(rng, n)
        back = matrix_exp(matrix_log(s)).values
        round_trip = max(round_trip,
                         np.linalg.norm(back - s) / np.linalg.norm(s))

    symmetry = identity = triangle = 0.0
    smallest_pair = np.inf
    for _ in range(1000):
        a, b, c = (random_spd(rng, n) for _ in range(3))
        dab = logeuclidean_distance(a, b)
        dbc = logeuclidean_distance(b, c)
        dac = logeuclidean_distance(a, c)
        symmetry = max(symmetry,
                       abs(dab - logeuclidean_distance(b, a)) / dab)
        identity = max(identity, logeuclidean_distance(a, a))
        triangle = max(triangle, dac - (dab + dbc))
        smallest_pair = min(smallest_pair, dab, dbc, dac)

    mats = [random_spd(rng, n) for _ in range(20)]
    mean = logeuclidean_mean(mats).values
    log_mean = matrix_log(mean)
    base = sum(logeuclidean_distance(mean, s) ** 2 for s in mats)
    argmin_passes = 0
    for _ in range(100):
        h = rng.standard_normal((n, n))
        h = 0.5 * (h + h.T)
        h *= 1e-3 / np.linalg.norm(h)
        pert = matrix_exp(log_mean + h).values
        obj = sum(logeuclidean_distance(pert, s) ** 2 for s in mats)
        argmin_passes += obj >= base - 1e-10

    return dict(round_trip=round_trip, symmetry=symmetry,
                identity=identity, triangle=triangle,
                smallest_pair=smallest_pair,
                argmin_passes=argmin_passes,
                elapsed=time.monotonic() - t0)


class TestGeometryGate:
    """Log/exp round trips, distance axioms, and the mean as arg-min."""

    def test_round_trip_relative_error(self, geometry_results):
        assert geometry_results["round_trip"] <= 1e-8
        print(f"PASS geometry round trip: "
              f"{geometry_results['round_trip']:.3e}")

    def test_distance_axioms(self, geometry_results):
        assert geometry_results["symmetry"] <= 1e-10
        assert geometry_results["identity"] <= 1e-10
        assert geometry_results["triangle"] <= 1e-10
        assert geometry_results["smallest_pair"] > 1e-6
        print("PASS geometry distance axioms on 1000 triples")

    def test_mean_is_argmin(self, geometry_results):
        assert geometry_results["argmin_passes"] == 100
        print("PASS geometry mean arg-min: 100/100 perturbations")

    def test_runtime_budget(self, geometry_results):
        assert geometry_results["elapsed"] < 10.0


class TestTangentIsometryGate:
    """Vector norms equal whitened-log Frobenius norms; dim is n(n+1)/2."""

    def test_norm_matches_whitened_log(self):
        rng = np.random.default_rng(12)
        ref = ReferencePoint.from_mean(SpdMatrix(random_spd(rng, 6)))
        worst = 0.0
        for _ in range(1000):
            s = random_spd(rng, 6)
            v = tangent_map(ref, s)
            assert v.shape == (21,)
            direct = np.linalg.norm(
                matrix_log(ref.inv_sqrt @ s @ ref.inv_sqrt))
            worst = max(worst,
                        abs(np.linalg.norm(v) - direct) / direct)
        assert worst <= 1e-10
        print(f"PASS tangent isometry: worst relative gap {worst:.3e}")


class TestFilterRecoveryGate:
    """Planted orthogonal source directions are recovered by the filters."""

    def test_planted_directions_recovered(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(5)
        n, t_samp = 6, 240
        mixing, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d0 = np.geomspace(8.0, 0.5, n)
        c0 = mixing @ np.diag(d0) @ mixing.T
        c1 = mixing @ np.diag(d0[::-1]) @ mixing.T

        def cov_samples(cov):
            # orthonormal rows make the sample covariance exactly cov
            q, _ = np.linalg.qr(rng.standard_normal((t_samp, n)))
            return np.linalg.cholesky(cov) @ (np.sqrt(t_samp) * q.T)

        samples = []
        for i in range(20):
            samples += [cov_samples(c0), cov_samples(c1)]
        ts = ScatterSet.from_trials(TrialSet(
            np.stack(samples), np.arange(40) % 2, np.arange(40),
            tuple(f"ch{i}" for i in range(n)), 100.0, ("a", "b")))
        bank = fit_csp(ts, n_filters=n)

        cos = np.abs(bank.w @ mixing) / np.linalg.norm(bank.w, axis=1)[:, None]
        best = cos.max(axis=1)
        assert np.all(best > 0.999)
        assert sorted(cos.argmax(axis=1).tolist()) == list(range(n))

        m0, m1 = class_mean_covariances(ts)
        p0 = bank.w @ m0.values @ bank.w.T
        p1 = bank.w @ m1.values @ bank.w.T
        assert np.allclose(np.diag(p0) + np.diag(p1), 1.0, atol=1e-8)
        for p in (p0, p1):
            off = p - np.diag(np.diag(p))
            assert np.max(np.abs(off)) < 1e-8
        assert time.monotonic() - t0 < 5.0
        print(f"PASS filter recovery: worst |cosine| {best.min():.6f}")


class TestFilterResponseGate:
    """Designed filters match the analytic magnitude curves and meet the
    1 dB passband / 50 dB stopband figures where those curves say so."""

    def run_case(self, spec, oracle_fn, mid_hz):
        filt = design_bandpass(spec)
        low, high = spec.band_hz
        nyq = spec.sampling_rate_hz / 2.0
        freqs = np.geomspace(min(low / 20.0, 0.5), 0.999 * nyq, 1024)

        impl = np.abs(frequency_response(filt, freqs))
        oracle = np.array([oracle_fn(f) for f in freqs])
        agreement = np.max(np.abs(impl - oracle))
        assert agreement <= 1e-8

        oracle_db = 20.0 * np.log10(oracle)
        impl_db = magnitude_db(filt, freqs)
        passband = oracle_db >= -1.0
        stopband = oracle_db <= -50.0

        # the analytic curve must carve out real pass and stop regions
        assert passband.sum() >= 50
        assert np.sum(stopband & (freqs < low)) >= 10
        assert np.sum(stopband & (freqs > high)) >= 10
        assert passband[np.argmin(np.abs(freqs - mid_hz))]

        assert np.max(impl_db[passband]) <= 1e-6
        assert np.min(impl_db[passband]) >= -1.0 - 1e-6
        assert np.max(impl_db[stopband]) <= -50.0 + 1e-3
        return agreement

    def test_butterworth_low_band(self):
        spec = FilterSpec("butterworth", 5, (0.1, 10.0), 200.0)
        gap = self.run_case(
            spec,
            lambda f: filter_oracle.butterworth_magnitude(
                f, (0.1, 10.0), 200.0, 5),
            mid_hz=1.0)
        print(f"PASS response butterworth (0.1, 10): oracle gap {gap:.3e}")

    @pytest.mark.parametrize("band,mid", [((8.0, 12.0), 9.8),
                                          ((16.0, 24.0), 19.6)])
    def test_elliptic_bands(self, band, mid):
        spec = FilterSpec("elliptic", 6, band, 100.0, 1.0, 50.0)
        oracle_fn = filter_oracle.elliptic_magnitude_fn(
            band, 100.0, 6, 1.0, 50.0)
        gap = self.run_case(spec, oracle_fn, mid_hz=mid)
        print(f"PASS response elliptic {band}: oracle gap {gap:.3e}")


class TestClassifierGate:
    """Gradient correctness, monotone descent, separable-data accuracy,
    and chance-level scores under permuted labels."""

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(10, 40))
            d = int(rng.integers(2, 8))
            x = rng.standard_normal((n, d))
            y = rng.integers(0, 2, n).astype(float)
            w = rng.standard_normal(d)
            b = float(rng.standard_normal())
            g_w, g_b = logistic_grad(w, b, x, y)
            analytic = np.append(g_w, g_b)

            eps = 1e-6
            numeric = np.empty(d + 1)
            for j in range(d):
                e = np.zeros(d)
                e[j] = eps
                numeric[j] = (logistic_loss(w + e, b, x, y)
                              - logistic_loss(w - e, b, x, y)) / (2 * eps)
            numeric[d] = (logistic_loss(w, b + eps, x, y)
                          - logistic_loss(w, b - eps, x, y)) / (2 * eps)
            rel = (np.linalg.norm(analytic - numeric)
                   / max(np.linalg.norm(analytic), 1e-12))
            worst = max(worst, rel)
        assert worst <= 1e-5
        print(f"PASS classifier gradient: worst relative error {worst:.3e}")

    def test_objective_never_increases(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            x = rng.standard_normal((40, 6))
            y = rng.integers(0, 2, 40).astype(float)
            fit = fit_l1_logistic(x, y, lam=0.05)
            hist = np.array(fit.objective_history)
            assert hist.size >= 2
            assert np.all(np.diff(hist) <= 1e-12)
        print("PASS classifier descent: objective monotone on 5 problems")

    def test_separable_covariance_classes(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(23)
        n = 4
        scales = {0: np.sqrt(np.geomspace(6.0, 0.5, n)),
                  1: np.sqrt(np.geomspace(6.0, 0.5, n)[::-1])}

        names = tuple(f"ch{i}" for i in range(n))

        def make(count, start):
            samples = []
            for i in range(count):
                label = i % 2
                samples.append(scales[label][:, None]
                               * rng.standard_normal((n, 200)))
            return ScatterSet.from_trials(TrialSet(
                np.stack(samples), np.arange(count) % 2,
                start + np.arange(count), names, 100.0, ("a", "b")))

        train_set = make(200, 0)
        test_set = make(80, 200)
        bank = fit_csp(train_set, n_filters=n)
        model = train(train_set, bank)
        report = evaluate(model, test_set)
        assert report.accuracy >= 95.0
        assert time.monotonic() - t0 < 60.0
        print(f"PASS classifier held-out accuracy: {report.accuracy:.1f}%")

    def test_permuted_labels_score_at_chance(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(24)
        scale = {0: np.sqrt([2.0, 0.5]), 1: np.sqrt([0.5, 2.0])}
        base = ScatterSet.from_trials(TrialSet(
            np.stack([scale[i % 2][:, None] * rng.standard_normal((2, 60))
                      for i in range(48)]),
            np.arange(48) % 2, np.arange(48), ("a", "b"), 100.0, ("x", "y")))
        labels = base.labels

        means = []
        for rep in range(20):
            permuted = labels[rng.permutation(len(labels))]
            shuffled = ScatterSet(base.matrices, base.n_samples, permuted,
                                  base.ids, base.channel_names)
            folds = stratified_folds(permuted, 4, seed=rep)
            mean, _ = cross_validate(shuffled, folds, n_filters=2)
            means.append(mean)
        grand = float(np.mean(means))
        assert 40.0 <= grand <= 60.0
        assert time.monotonic() - t0 < 60.0
        print(f"PASS classifier permuted labels: mean accuracy {grand:.1f}%")


class TestGraphMetricGate:
    """All four node metrics agree with brute-force references."""

    def test_metrics_match_bruteforce_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            mask = rng.random((n, n)) < rng.uniform(0.2, 1.0)
            w = np.triu(rng.uniform(0.1, 3.0, (n, n)) * mask, 1)
            w = w + w.T
            modules = assign_modules(w)
            g = ConnectivityGraph(tuple(f"n{i}" for i in range(n)), w,
                                  modules)
            np.testing.assert_allclose(
                node_strength(g), graph_oracle.strength_ref(w), atol=1e-10)
            np.testing.assert_allclose(
                clustering_coefficient(g),
                graph_oracle.clustering_ref(w), atol=1e-10)
            np.testing.assert_allclose(
                local_efficiency(g),
                graph_oracle.local_efficiency_ref(w), atol=1e-10)
            np.testing.assert_allclose(
                participation_coefficient(g),
                graph_oracle.participation_ref(w, modules), atol=1e-10)
        print("PASS graph metrics: 500 random graphs match brute force")

    def test_complete_graph_closed_form(self):
        n = 5
        w = np.ones((n, n)) - np.eye(n)
        g = ConnectivityGraph(tuple(f"n{i}" for i in range(n)), w,
                              np.zeros(n, dtype=int))
        np.testing.assert_allclose(clustering_coefficient(g), 1.0,
                                   atol=1e-15)
        np.testing.assert_allclose(local_efficiency(g), 1.0, atol=1e-15)
        np.testing.assert_allclose(node_strength(g), float(n - 1),
                                   atol=1e-15)
        print("PASS graph closed form: complete graph")

    def test_equal_split_participation(self):
        # every node puts exactly half its strength in each module
        w = np.array([[0.0, 1.0, 0.5, 0.5],
                      [1.0, 0.0, 0.5, 0.5],
                      [0.5, 0.5, 0.0, 1.0],
                      [0.5, 0.5, 1.0, 0.0]])
        g = ConnectivityGraph(("a", "b", "c", "d"), w,
                              np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(participation_coefficient(g), 0.5,
                                   atol=1e-15)
        print("PASS graph closed form: equal-split participation 0.5")


class TestSelectionPipelineGate:
    """Keeping only confident, correct trials sharpens the class contrast
    in the connectivity metrics and drops most planted irrelevant trials."""

    def test_selection_improves_separability(self, tmp_path):
        t0 = time.monotonic()
        spec = FixtureSpec()
        manifest, truth_path = generate_fixture(spec, seed=42,
                                                out_dir=tmp_path / "data")
        truth = json.loads(truth_path.read_text())
        n_train = truth["n_train"]

        cfg = PipelineConfig("errp", str(manifest), str(tmp_path / "out"),
                             lam=5.0 / n_train)
        run_pipeline(cfg)

        sep = json.loads(cfg.out_path("separability").read_text())
        assert sep["n_improved"] >= 3

        picked = json.loads(cfg.out_path("selected_trials").read_text())
        selected = set(picked["selected_ids"])
        test_ids = set(range(n_train, spec.n_trials))
        planted = set(truth["irrelevant_ids"]) & test_ids
        assert planted
        excluded = len(planted - selected) / len(planted)
        assert excluded >= 0.6
        assert time.monotonic() - t0 < 120.0
        print(f"PASS selection: {sep['n_improved']}/4 metrics improved, "
              f"{100.0 * excluded:.1f}% of planted irrelevant excluded")


REAL_DATA = os.environ.get("RELCONN_REAL_MANIFEST", "")


@pytest.mark.skipif(not REAL_DATA, reason="RELCONN_REAL_MANIFEST not set")
class TestRealRecordingGate:
    """Optional: point RELCONN_REAL_MANIFEST at a manifest (or a directory
    holding one manifest per subject) of real motor imagery recordings."""

    def test_mean_accuracy_in_expected_range(self, tmp_path):
        root = Path(REAL_DATA)
        manifests = (sorted(root.rglob("manifest.json"))
                     if root.is_dir() else [root])
        assert manifests, f"no manifests under {root}"
        accuracies = []
        for i, manifest in enumerate(manifests):
            cfg = PipelineConfig("motor_imagery", str(manifest),
                                 str(tmp_path / f"subject{i}"))
            stage_fit_csp(Plan(cfg))
            stage_train(Plan(cfg))
            stage_evaluate(Plan(cfg))
            report = json.loads(cfg.out_path("eval_report").read_text())
            accuracies.append(report["accuracy"])
        mean = float(np.mean(accuracies))
        assert 79.67 <= mean <= 99.67
        print(f"PASS real recordings: mean accuracy {mean:.2f}%")
