"""Trial containers, manifest IO, and the train/test split."""

import json

import numpy as np
import pytest

from relconn.data import (MANIFEST_NAME, Trial, TrialSet, load_trialset,
                          save_trialset, split_train_test)
from relconn.errors import DataError, SchemaError


def make_set(n_trials=6, n_channels=3, n_samples=8, seed=0):
    rng = np.random.default_rng(seed)
    trials = [Trial(rng.standard_normal((n_channels, n_samples)), i % 2, i)
              for i in range(n_trials)]
    names = tuple(f"ch{i}" for i in range(n_channels))
    return TrialSet(tuple(trials), names, 128.0)


class TestTrial:
    def test_samples_stored_float64_readonly(self):
        t = Trial([[1, 2], [3, 4]], 0, 7)
        assert t.samples.dtype == np.float64
        assert not t.samples.flags.writeable
        assert t.n_channels == 2 and t.n_samples == 2

    def test_rejects_non_2d(self):
        with pytest.raises(DataError, match="trial 3"):
            Trial(np.zeros(5), 0, 3)

    def test_rejects_bad_label(self):
        with pytest.raises(SchemaError, match="label"):
            Trial(np.zeros((2, 2)), 2, 0)

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[1, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Trial(bad, 0, 9)


class TestTrialSet:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            TrialSet((), ("a", "b"), 100.0)

    def test_geometry_mismatch_names_trial(self):
        good = Trial(np.zeros((2, 4)), 0, 0)
        bad = Trial(np.zeros((3, 4)), 1, 1)
        with pytest.raises(SchemaError, match="trial 1"):
            TrialSet((good, bad), ("a", "b"), 100.0)

    def test_sample_count_mismatch(self):
        good = Trial(np.zeros((2, 4)), 0, 0)
        bad = Trial(np.zeros((2, 5)), 1, 1)
        with pytest.raises(SchemaError, match="trial 1"):
            TrialSet((good, bad), ("a", "b"), 100.0)

    def test_duplicate_ids(self):
        t = Trial(np.zeros((2, 4)), 0, 5)
        u = Trial(np.ones((2, 4)), 1, 5)
        with pytest.raises(SchemaError, match="duplicate"):
            TrialSet((t, u), ("a", "b"), 100.0)

    def test_bad_sampling_rate(self):
        t = Trial(np.zeros((2, 4)), 0, 0)
        with pytest.raises(SchemaError, match="sampling_rate_hz"):
            TrialSet((t,), ("a", "b"), 0.0)

    def test_labels_and_of_class(self):
        ts = make_set(n_trials=5)
        assert ts.labels().tolist() == [0, 1, 0, 1, 0]
        assert [t.trial_id for t in ts.of_class(1)] == [1, 3]
        assert len(ts) == 5 and ts.n_channels == 3


class TestManifestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ts = make_set(seed=3)
        manifest = save_trialset(ts, tmp_path)
        assert manifest.name == MANIFEST_NAME
        back = load_trialset(manifest)
        assert back.channel_names == ts.channel_names
        assert back.sampling_rate_hz == ts.sampling_rate_hz
        assert back.class_names == ts.class_names
        for a, b in zip(ts, back):
            assert a.trial_id == b.trial_id and a.label == b.label
            # raw little-endian float64 on disk, so equality is exact
            assert np.array_equal(a.samples, b.samples)

    def test_missing_manifest_field(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        del d["sampling_rate_hz"]
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="sampling_rate_hz"):
            load_trialset(manifest)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_trialset(path)

    def test_truncated_trial_file(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        victim = tmp_path / "trials" / "trial_00002.bin"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(SchemaError, match="trial 2"):
            load_trialset(manifest)

    def test_missing_trial_file(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        (tmp_path / "trials" / "trial_00001.bin").unlink()
        with pytest.raises(FileNotFoundError):
            load_trialset(manifest)

    def test_channel_name_count_mismatch(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        d["channel_names"] = d["channel_names"][:-1]
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="channel_names"):
            load_trialset(manifest)

    @pytest.mark.parametrize("field, value", [
        ("label", 1.7), ("id", 2.5), ("label", "1"), ("label", True),
        ("channels", 3.5), ("samples", 8.25),
    ])
    def test_non_integer_field_rejected(self, tmp_path, field, value):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        if field in ("label", "id"):
            d["trials"][1][field] = value
        else:
            d[field] = value
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match=f"'{field}' must be an integer"):
            load_trialset(manifest)

    def test_integral_float_fields_accepted(self, tmp_path):
        ts = make_set()
        manifest = save_trialset(ts, tmp_path)
        d = json.loads(manifest.read_text())
        d["channels"] = float(d["channels"])
        d["trials"][1]["label"] = 1.0
        manifest.write_text(json.dumps(d))
        assert load_trialset(manifest).labels().tolist() == ts.labels().tolist()

    def test_trial_row_missing_key(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        del d["trials"][0]["label"]
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="label"):
            load_trialset(manifest)


class TestSplit:
    def test_order_preserved(self):
        ts = make_set(n_trials=10)
        train, test = split_train_test(ts, 7)
        assert [t.trial_id for t in train] == list(range(7))
        assert [t.trial_id for t in test] == [7, 8, 9]
        assert train.channel_names == ts.channel_names

    @pytest.mark.parametrize("n_train", [0, 10, 11, -1])
    def test_bounds(self, n_train):
        ts = make_set(n_trials=10)
        with pytest.raises(ValueError, match="n_train"):
            split_train_test(ts, n_train)
