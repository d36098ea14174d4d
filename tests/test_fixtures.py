"""Synthetic dataset generator: determinism, planted structure, metadata."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relconn.data import load_trialset, save_trialset
from relconn.fixtures import (FixtureSpec, _background_covariance,
                              _class_covariances, _session_couplings,
                              generate_fixture, synthesize_trialset)
from relconn.pipeline import PipelineConfig, Plan


def class0_mean_covariance(ts):
    """Mean of x x' / T over the class-0 trials of a set."""
    x = ts.samples[ts.labels == 0]
    return np.mean(x @ np.swapaxes(x, 1, 2), axis=0) / ts.n_samples


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_channels=1),
        dict(n_per_class=1),
        dict(irrelevant_fraction=1.0),
        dict(irrelevant_fraction=-0.1),
        dict(snr=0.0),
        dict(session_shift=1.0),
        dict(n_per_class=2),
        dict(n_per_class=10, n_train=1),
        dict(n_per_class=10, n_train=19),
        dict(sampling_rate_hz=math.inf),
        dict(sampling_rate_hz=math.nan),
        dict(sampling_rate_hz=-5.0),
        dict(duration_s=math.inf),
        dict(duration_s=0.0),
        dict(duration_s=0.001),
        dict(snr=math.nan),
        dict(duration_s=1e200, sampling_rate_hz=1e200),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FixtureSpec(**kwargs)

    def test_two_samples_per_trial_accepted(self):
        assert FixtureSpec(duration_s=0.01).n_samples == 2

    def test_default_split_is_seventy_percent(self):
        spec = FixtureSpec(n_per_class=50)
        assert spec.n_trials == 100
        assert spec.resolved_n_train() == 70

    def test_explicit_split_bounds(self):
        with pytest.raises(ValueError, match="n_train"):
            FixtureSpec(n_per_class=10, n_train=20).resolved_n_train()

    def test_default_split_matches_pipeline(self, tmp_path):
        # the truth's n_train (and so the session boundary) is the split a
        # config without n_train makes; the plan reads only the manifest
        manifest = tmp_path / "manifest.json"
        cfg = PipelineConfig("errp", str(manifest), "out", k_folds=2)
        for n_total in range(6, 61, 2):
            manifest.write_text(json.dumps({
                "channels": 6, "samples": 200,
                "channel_names": [f"c{i}" for i in range(6)],
                "sampling_rate_hz": 200.0, "class_names": ["a", "b"],
                "trials": [{"id": i, "label": i % 2, "file": f"{i}.bin"}
                           for i in range(n_total)]}))
            spec = FixtureSpec(n_per_class=n_total // 2)
            assert spec.resolved_n_train() == Plan(cfg).n_train

    def test_to_dict_serializes_infinite_snr(self):
        d = FixtureSpec(snr=math.inf).to_dict()
        assert d["snr"] == "inf"


class TestPlantedCovariances:
    def test_class_ramps_mirror_each_other(self):
        spec = FixtureSpec(n_channels=5)
        a0, a1 = _class_covariances(spec)
        assert_allclose(np.diag(a0), np.diag(a1)[::-1])
        assert np.all(np.diag(a0) > 0)

    def test_background_sits_at_log_midpoint(self):
        spec = FixtureSpec(n_channels=6)
        a0, a1 = _class_covariances(spec)
        bg = _background_covariance(spec)
        assert_allclose(np.diag(bg), np.sqrt(np.diag(a0) * np.diag(a1)))
        # symmetric under channel reversal, like the class pair itself
        assert_allclose(bg, bg[::-1, ::-1])

    def test_background_positive_definite(self):
        for n in (2, 3, 6, 12):
            bg = _background_covariance(FixtureSpec(n_channels=n))
            assert np.linalg.eigvalsh(bg)[0] > 0

    def test_session_couplings_keep_covariances_positive(self):
        spec = FixtureSpec(n_channels=6, session_shift=0.9)
        a0, a1 = _class_covariances(spec)
        s0, s1 = _session_couplings(spec)
        assert np.linalg.eigvalsh(a0 + s0)[0] > 0
        assert np.linalg.eigvalsh(a1 + s1)[0] > 0
        # couplings touch mirrored channel pairs
        assert_allclose(s0, s1[::-1, ::-1])


class TestSynthesis:
    def test_deterministic(self):
        spec = FixtureSpec(n_per_class=10, duration_s=0.25)
        ts_a, truth_a = synthesize_trialset(spec, seed=5)
        ts_b, truth_b = synthesize_trialset(spec, seed=5)
        assert truth_a == truth_b
        assert np.array_equal(ts_a.samples, ts_b.samples)

    def test_seed_changes_data(self):
        spec = FixtureSpec(n_per_class=10, duration_s=0.25)
        ts_a, _ = synthesize_trialset(spec, seed=5)
        ts_b, _ = synthesize_trialset(spec, seed=6)
        assert not np.array_equal(ts_a.samples[0], ts_b.samples[0])

    def test_sessions_balanced_and_irrelevant_planted(self):
        spec = FixtureSpec(n_per_class=20, duration_s=0.25)
        ts, truth = synthesize_trialset(spec, seed=7)
        n_train = truth["n_train"]
        labels = ts.labels
        # both sessions hold both classes at the planned counts
        assert int(labels[:n_train].sum()) == n_train - n_train // 2
        assert int(labels.sum()) == spec.n_per_class
        irr = np.array(truth["irrelevant_ids"])
        n_irr_train = int(np.sum(irr < n_train))
        assert n_irr_train == round(spec.irrelevant_fraction * n_train)
        n_irr_test = len(irr) - n_irr_train
        assert n_irr_test == round(
            spec.irrelevant_fraction * (spec.n_trials - n_train))

    def test_relevant_trials_match_planted_covariance(self):
        # long noiseless trials: the empirical covariance of calibration
        # class-0 trials approaches the planted ramp
        spec = FixtureSpec(n_per_class=30, duration_s=10.0, snr=math.inf,
                           irrelevant_fraction=0.0, session_shift=0.4)
        ts, truth = synthesize_trialset(spec, seed=11)
        a0, _ = _class_covariances(spec)
        n_train = truth["n_train"]
        mean = class0_mean_covariance(ts.subset(slice(None, n_train)))
        assert np.linalg.norm(mean - a0) / np.linalg.norm(a0) < 0.05

    def test_validation_session_carries_coupling(self):
        spec = FixtureSpec(n_per_class=40, duration_s=10.0, snr=math.inf,
                           irrelevant_fraction=0.0, session_shift=0.4)
        ts, truth = synthesize_trialset(spec, seed=13)
        s0, _ = _session_couplings(spec)
        i, j = np.argwhere(s0).T
        i, j = int(i[0]), int(j[0])
        n_train = truth["n_train"]

        calib = class0_mean_covariance(ts.subset(slice(None, n_train)))[i, j]
        valid = class0_mean_covariance(ts.subset(slice(n_train, None)))[i, j]
        assert abs(calib) < 0.1
        assert valid == pytest.approx(s0[i, j], abs=0.15)

    def test_noise_power_follows_snr(self):
        base = FixtureSpec(n_per_class=30, duration_s=10.0,
                           irrelevant_fraction=0.0)
        a0, _ = _class_covariances(base)
        expected_noise = np.trace(a0) / (base.n_channels * base.snr)
        ts, _ = synthesize_trialset(base, seed=17)
        mean = class0_mean_covariance(ts)
        assert_allclose(np.diag(mean), np.diag(a0) + expected_noise, rtol=0.1)


class TestGenerateFixture:
    def test_files_and_round_trip(self, tmp_path):
        spec = FixtureSpec(n_per_class=6, duration_s=0.25)
        manifest, truth_path = generate_fixture(spec, 3, tmp_path / "fixture")
        assert manifest.exists() and truth_path.exists()
        truth = json.loads(truth_path.read_text())
        assert truth["seed"] == 3
        assert truth["n_train"] == spec.resolved_n_train()
        assert truth["spec"]["n_per_class"] == 6
        ts = load_trialset(manifest)
        assert len(ts) == 12
        expected, _ = synthesize_trialset(spec, 3)
        assert np.array_equal(ts.samples, expected.samples)
        assert ts.ids.tolist() == expected.ids.tolist() == list(range(12))
        assert ts.labels.tolist() == expected.labels.tolist()
        # written as drawn, trial by trial, every file has the bytes of the
        # stacked set saved whole, the manifest's included
        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        written = files(manifest.parent)
        assert written.pop(truth_path.name) == truth_path.read_bytes()
        saved = files(save_trialset(expected, tmp_path / "saved").parent)
        assert len(saved) == 13 and written == saved
