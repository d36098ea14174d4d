"""Pipeline stages: artifact determinism, stage isolation, leakage guards."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relconn import pipeline
from relconn.cli import main
from relconn.data import TrialSet, load_trialset, save_trialset
from relconn.errors import SchemaError
from relconn.filters import apply_filter, design_bandpass, extract_epoch
from relconn.fixtures import FixtureSpec, generate_fixture
from relconn.pipeline import (ARTIFACTS, PipelineConfig, preprocess,
                              run_pipeline, stage_cv, stage_evaluate,
                              stage_fit_csp, stage_graph, stage_report,
                              stage_select, stage_train)

# the stage that writes each artifact
WRITER = {
    "filter_bank": stage_fit_csp, "selected_channels": stage_fit_csp,
    "model": stage_train, "cv_summary": stage_cv,
    "eval_report": stage_evaluate, "eval_per_trial": stage_evaluate,
    "selected_trials": stage_select,
    "graph_all_class0": stage_graph, "graph_all_class1": stage_graph,
    "graph_selected_class0": stage_graph,
    "graph_selected_class1": stage_graph, "node_metrics": stage_graph,
    "separability": stage_report,
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    spec = FixtureSpec(n_per_class=16, duration_s=0.5)
    manifest, truth_path = generate_fixture(spec, seed=3, out_dir=root)
    truth = json.loads(truth_path.read_text())
    return manifest, truth


def make_config(manifest, out_dir, **overrides):
    base = dict(dataset_kind="errp", manifest=str(manifest),
                out_dir=str(out_dir), n_train=22, k_folds=3,
                epoch_override=(0.0, 0.5))
    base.update(overrides)
    return PipelineConfig(**base)


def artifact_bytes(cfg):
    return {name: cfg.out_path(name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def completed_run(dataset, tmp_path_factory):
    manifest, _ = dataset
    out = tmp_path_factory.mktemp("run")
    cfg = make_config(manifest, out)
    run_pipeline(cfg)
    return cfg, artifact_bytes(cfg)


class TestConfigValidation:
    def test_bad_dataset_kind(self):
        with pytest.raises(ValueError, match="dataset_kind"):
            PipelineConfig("spelling", "m.json", "out")

    def test_concat_needs_two_bands(self):
        with pytest.raises(ValueError, match="concat"):
            PipelineConfig("errp", "m.json", "out", band_mode="concat")

    @pytest.mark.parametrize("kwargs", [
        dict(k_folds=1),
        dict(n_filters=3),
        dict(posterior_threshold=0.5),
        dict(posterior_threshold=1.5),
        dict(n_train=0),
        dict(lam=-1.0),
        dict(posterior_threshold=1.0),
        dict(lam=0.0),
    ])
    def test_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig("errp", "m.json", "out", **kwargs)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "dataset_kind": "errp", "manifest": "data/manifest.json",
            "out_dir": "out", "lambda": 0.25, "epoch": [0.1, 0.5]}))
        cfg = PipelineConfig.from_file(path)
        assert cfg.lam == 0.25
        assert cfg.epoch_override == (0.1, 0.5)

    def test_from_file_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "dataset_kind": "errp", "manifest": "a", "out_dir": "b"}))
        cfg = PipelineConfig.from_file(path, out_dir="c", lam=0.5)
        assert cfg.out_dir == "c" and cfg.lam == 0.5

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"manifest": "a", "out_dir": "b",
                                    "alpha": 2}))
        with pytest.raises(SchemaError, match="alpha"):
            PipelineConfig.from_file(path)

    def test_removed_top_edge_fraction_exits_two(self, tmp_path, capsys):
        # no stage ever read it, so a config naming it is refused
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"manifest": "a", "out_dir": "b",
                                    "top_edge_fraction": 0.1}))
        assert main(["run", "--config", str(path)]) == 2
        assert ("unknown config keys: ['top_edge_fraction']"
                in capsys.readouterr().err)

    def test_from_file_requires_paths(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset_kind": "errp"}))
        with pytest.raises(SchemaError, match="manifest"):
            PipelineConfig.from_file(path)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(SchemaError, match="not valid JSON"):
            PipelineConfig.from_file(path)


class TestFilterDefaults:
    def test_errp_defaults(self):
        cfg = PipelineConfig("errp", "m", "o")
        (spec,) = cfg.filter_specs(512.0)
        assert spec.family == "butterworth" and spec.order == 5
        assert spec.band_hz == (0.1, 10.0)
        assert cfg.epoch_window() == (0.0, 1.0)

    def test_motor_imagery_single_uses_first_band(self):
        cfg = PipelineConfig("motor_imagery", "m", "o")
        (spec,) = cfg.filter_specs(512.0)
        assert spec.family == "elliptic" and spec.order == 6
        assert spec.band_hz == (8.0, 12.0)
        assert cfg.epoch_window() == (0.0, 3.5)

    def test_motor_imagery_concat_uses_both_bands(self):
        cfg = PipelineConfig("motor_imagery", "m", "o", band_mode="concat")
        specs = cfg.filter_specs(512.0)
        assert [s.band_hz for s in specs] == [(8.0, 12.0), (16.0, 24.0)]

    def test_filter_override(self):
        cfg = PipelineConfig("errp", "m", "o", filter_override={
            "family": "elliptic", "order": 4, "band_hz": [2.0, 6.0],
            "stopband_atten_db": 40.0})
        (spec,) = cfg.filter_specs(200.0)
        assert spec.family == "elliptic" and spec.order == 4
        assert spec.band_hz == (2.0, 6.0)
        assert spec.stopband_atten_db == 40.0

    def test_override_without_band_keeps_band_mode(self):
        # an order-only override changes the design, not the band count
        single = PipelineConfig("motor_imagery", "m", "o",
                                filter_override={"order": 4})
        (spec,) = single.filter_specs(250.0)
        assert spec.order == 4 and spec.band_hz == (8.0, 12.0)
        concat = replace(single, band_mode="concat")
        specs = concat.filter_specs(250.0)
        assert [s.band_hz for s in specs] == [(8.0, 12.0), (16.0, 24.0)]
        assert all(s.order == 4 for s in specs)


class TestPreprocess:
    def test_epoch_window_applied(self, dataset):
        manifest, _ = dataset
        ts = load_trialset(manifest)
        cfg = make_config(manifest, "unused", epoch_override=(0.1, 0.25))
        out = preprocess(cfg, ts)
        assert out.n_samples == int(round(0.25 * 200.0))
        assert len(out) == len(ts)
        assert out.ids.tolist() == ts.ids.tolist()
        assert out.labels.tolist() == ts.labels.tolist()
        (filt,) = [design_bandpass(s) for s in cfg.filter_specs(200.0)]
        x = extract_epoch(apply_filter(filt, ts), 0.1, 0.25).samples
        assert np.array_equal(out.matrices, x @ np.swapaxes(x, 1, 2))

    def test_concat_mode_joins_bands(self, dataset):
        # the scatter matrix of the bands joined along time is the sum of
        # the per-band scatter matrices
        manifest, _ = dataset
        ts = load_trialset(manifest)
        cfg = PipelineConfig("motor_imagery", str(manifest), "unused",
                             band_mode="concat", epoch_override=(0.0, 0.4))
        out = preprocess(cfg, ts)
        assert out.n_samples == 2 * int(round(0.4 * 200.0))
        joined = np.concatenate(
            [extract_epoch(apply_filter(design_bandpass(spec), ts),
                           0.0, 0.4).samples
             for spec in cfg.filter_specs(200.0)], axis=2)
        assert_allclose(out.matrices, joined @ np.swapaxes(joined, 1, 2),
                        rtol=1e-12)

    def test_chunks_do_not_change_the_result(self, dataset, monkeypatch):
        manifest, _ = dataset
        ts = load_trialset(manifest)
        cfg = make_config(manifest, "unused")
        whole = preprocess(cfg, ts)
        monkeypatch.setattr(pipeline, "CHUNK_TRIALS", 5)
        assert np.array_equal(preprocess(cfg, ts).matrices, whole.matrices)


class TestRunDeterminism:
    def test_all_artifacts_written(self, completed_run):
        cfg, blobs = completed_run
        for name in ARTIFACTS:
            assert cfg.out_path(name).exists(), name
            assert len(blobs[name]) > 0

    def test_rerun_is_byte_identical_in_place(self, completed_run):
        cfg, blobs = completed_run
        run_pipeline(cfg)
        assert artifact_bytes(cfg) == blobs

    def test_rerun_is_byte_identical_elsewhere(self, completed_run,
                                               tmp_path):
        cfg, blobs = completed_run
        other = replace(cfg, out_dir=str(tmp_path / "other"))
        run_pipeline(other)
        assert artifact_bytes(other) == blobs

    def test_no_timestamps_in_json(self, completed_run):
        cfg, blobs = completed_run
        for name, blob in blobs.items():
            if name.endswith("csv"):
                continue
            text = blob.decode("utf-8", errors="ignore").lower()
            assert "time" not in text and "date" not in text

    def test_separability_artifact_shape(self, completed_run):
        cfg, _ = completed_run
        d = json.loads(cfg.out_path("separability").read_text())
        metrics = {"clustering", "participation", "local_efficiency",
                   "strength"}
        assert set(d["all"]) == metrics
        assert set(d["selected"]) == metrics
        assert set(d["improved"]) == metrics
        assert d["n_improved"] == sum(d["improved"].values())
        assert set(d) == {"all", "selected", "improved", "n_improved"}

    def test_per_trial_table_well_formed(self, completed_run):
        cfg, _ = completed_run
        lines = cfg.out_path("eval_per_trial").read_text().strip().splitlines()
        assert lines[0] == "trial_id,true_label,predicted_label,posterior"
        report = json.loads(cfg.out_path("eval_report").read_text())
        assert len(lines) - 1 == report["n_trials"]


class TestStageIsolation:
    @pytest.mark.parametrize("name", list(ARTIFACTS))
    def test_stage_rerun_rebuilds_artifact(self, completed_run, name):
        # the full run hands its preprocessed split to the stages; a stage
        # run on its own loads for itself and must write the same bytes
        cfg, blobs = completed_run
        cfg.out_path(name).unlink()
        WRITER[name](cfg)
        assert artifact_bytes(cfg) == blobs

    def test_model_ignores_test_split_labels(self, dataset, tmp_path):
        # flipping every held-out label must not change the fitted model
        manifest, _ = dataset
        ts = load_trialset(manifest)

        flipped_dir = tmp_path / "flipped"
        labels = ts.labels.copy()
        labels[22:] = 1 - labels[22:]
        flipped_manifest = save_trialset(
            TrialSet(ts.samples, labels, ts.ids, ts.channel_names,
                     ts.sampling_rate_hz, ts.class_names), flipped_dir)

        out_a = tmp_path / "out_a"
        out_b = tmp_path / "out_b"
        cfg_a = make_config(manifest, out_a)
        cfg_b = make_config(flipped_manifest, out_b)
        for cfg in (cfg_a, cfg_b):
            stage_fit_csp(cfg)
            stage_train(cfg)
        assert (cfg_a.out_path("filter_bank").read_bytes()
                == cfg_b.out_path("filter_bank").read_bytes())
        assert (cfg_a.out_path("model").read_bytes()
                == cfg_b.out_path("model").read_bytes())

    def test_seed_only_touches_cv(self, completed_run, tmp_path):
        cfg, blobs = completed_run
        other = replace(cfg, out_dir=str(tmp_path / "seeded"), seed=7)
        run_pipeline(other)
        fresh = artifact_bytes(other)
        assert fresh["model"] == blobs["model"]
        assert fresh["filter_bank"] == blobs["filter_bank"]
        assert fresh["cv_summary"] != blobs["cv_summary"]


class TestStageErrors:
    def test_stage_name_prefixes_errors(self, dataset, tmp_path):
        manifest, _ = dataset
        cfg = make_config(manifest, tmp_path / "out", n_filters=8)
        with pytest.raises(ValueError, match="^stage fit-csp:"):
            stage_fit_csp(cfg)

    def test_missing_upstream_artifact(self, dataset, tmp_path):
        manifest, _ = dataset
        cfg = make_config(manifest, tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            stage_train(cfg)
