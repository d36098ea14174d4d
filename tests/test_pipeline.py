"""Pipeline stages: artifact determinism, stage isolation, leakage guards."""

import json
import math
import shutil
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import relconn.classify
import relconn.data
import relconn.filters
from relconn import pipeline
from relconn.cli import main
from relconn.csp import (SpatialFilterBank, _shrunk_covariances,
                         trial_covariances)
from relconn.data import TrialSet, load_trialset, read_manifest, save_trialset
from relconn.errors import DataError, SchemaError
from relconn.filters import apply_filter, design_bandpass, extract_epoch
from relconn.fixtures import FixtureSpec, generate_fixture
from relconn.pipeline import (ARTIFACTS, PipelineConfig, Plan, preprocess,
                              run_pipeline, stage_cv, stage_evaluate,
                              stage_fit_csp, stage_graph, stage_report,
                              stage_select, stage_train, stages)

# the stage that writes each artifact
WRITER = {
    "filter_bank": stage_fit_csp, "selected_channels": stage_fit_csp,
    "model": stage_train, "cv_summary": stage_cv,
    "eval_report": stage_evaluate, "eval_per_trial": stage_evaluate,
    "test_covariances": stage_evaluate,
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


def scatter_of(plan, ts):
    """The scatter stack of trials in memory, all at once: each band's
    epoch of the whole trials, filtered by the plan's specs, summed."""
    out = np.zeros((len(ts), ts.n_channels, ts.n_channels))
    for spec in plan.specs:
        x = extract_epoch(apply_filter(design_bandpass(spec), ts),
                          *plan.epoch).samples
        out += x @ np.swapaxes(x, 1, 2)
    return out


class TestPreprocess:
    def test_epoch_window_applied(self, dataset):
        manifest, _ = dataset
        cfg = make_config(manifest, "unused", epoch_override=(0.1, 0.25))
        plan = Plan(cfg)
        ts = load_trialset(plan.manifest)
        out = preprocess(plan, plan.manifest)
        assert out.n_samples == int(round(0.25 * 200.0))
        assert plan.epoch == (20, 70)
        assert len(out) == len(ts)
        assert out.ids.tolist() == ts.ids.tolist()
        assert out.labels.tolist() == ts.labels.tolist()
        (filt,) = [design_bandpass(s) for s in cfg.filter_specs(200.0)]
        x = extract_epoch(apply_filter(filt, ts), 20, 70).samples
        assert np.array_equal(out.matrices, x @ np.swapaxes(x, 1, 2))

    def test_concat_mode_joins_bands(self, dataset):
        # the scatter matrix of the bands joined along time is the sum of
        # the per-band scatter matrices
        manifest, _ = dataset
        cfg = PipelineConfig("motor_imagery", str(manifest), "unused",
                             band_mode="concat", epoch_override=(0.0, 0.4))
        plan = Plan(cfg)
        ts = load_trialset(plan.manifest)
        out = preprocess(plan, plan.manifest)
        assert out.n_samples == 2 * int(round(0.4 * 200.0))
        joined = np.concatenate(
            [extract_epoch(apply_filter(design_bandpass(spec), ts),
                           0, 80).samples
             for spec in cfg.filter_specs(200.0)], axis=2)
        assert_allclose(out.matrices, joined @ np.swapaxes(joined, 1, 2),
                        rtol=1e-12)

    def test_filtering_stops_at_epoch_end(self, dataset):
        # the filter is causal, so filtering only up to the epoch's end
        # gives the same epoch as filtering the whole trial
        manifest, _ = dataset
        cfg = PipelineConfig("motor_imagery", str(manifest), "unused",
                             band_mode="concat", epoch_override=(0.1, 0.2))
        plan = Plan(cfg)
        ts = load_trialset(plan.manifest)
        out = preprocess(plan, plan.manifest)
        assert plan.epoch == (20, 60) and 60 < ts.n_samples
        assert np.array_equal(out.matrices, scatter_of(plan, ts))

    @pytest.mark.parametrize("side", [0, 1], ids=["train", "test"])
    def test_chunks_do_not_change_the_result(self, dataset, monkeypatch,
                                             side):
        # 23 training and 9 test trials: neither side is a multiple of 5.
        # Read from file with a budget of 5 trials' bytes, of less than
        # one trial's or of more than the side's, a side's scatter stack is
        # bit for bit that of the side loaded whole and band-passed at once
        manifest, _ = dataset
        plan = Plan(make_config(manifest, "unused", n_train=23))
        rows = plan.sides[side]
        whole = scatter_of(plan, load_trialset(rows))
        read = []

        def recording_load(*args, **kwargs):
            chunk = load_trialset(*args, **kwargs)
            read.append(len(chunk))
            return chunk

        monkeypatch.setattr(relconn.data, "load_trialset", recording_load)
        five = [5, 5, 5, 5, 3] if side == 0 else [5, 4]
        for budget, reads in ((5 * rows.trial_bytes, five),
                              (rows.trial_bytes - 1, [1] * len(rows)),
                              ((len(rows) + 1) * rows.trial_bytes,
                               [len(rows)])):
            monkeypatch.setattr(relconn.data, "CHUNK_BYTES", budget)
            read.clear()
            got = preprocess(plan, rows)
            assert np.array_equal(got.matrices, whole)
            assert got.n_samples == 100
            assert got.ids.tolist() == rows.ids.tolist()
            assert got.labels.tolist() == rows.labels.tolist()
            assert read == reads

    @pytest.mark.parametrize("bank", [False, True], ids=["plain", "bank"])
    def test_chunk_bytes_bound_what_preprocess_holds(self, tmp_path, bank):
        # 64 trials of 16 channels x 1000 samples, 128 KB each: 8 MB of
        # raw samples, about four budgets. The training side's preprocess,
        # and evaluate's, which projects each chunk through a bank first,
        # hold the scatter stack and about one budget of raw samples and
        # one of filter output, not the whole side
        manifest, _ = generate_fixture(
            FixtureSpec(n_channels=16, n_per_class=32, duration_s=5.0),
            seed=3, out_dir=tmp_path)
        plan = Plan(make_config(manifest, "unused", epoch_override=(0.0, 5.0)))
        rows = plan.manifest
        assert len(rows) * rows.trial_bytes > 3 * relconn.data.CHUNK_BYTES
        bank = (SpatialFilterBank(np.eye(4, 16), np.eye(16, 4),
                                  [0.9, 0.6, 0.3, 0.1]) if bank else None)
        n = rows.n_channels if bank is None else bank.n_filters
        stack = len(rows) * n * n * 8
        # scipy is imported on first use; its modules are not preprocess's
        import scipy.signal  # noqa: F401
        tracemalloc.start()
        try:
            preprocess(plan, rows, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack + 3 * relconn.data.CHUNK_BYTES

    @pytest.mark.parametrize("bank", [False, True], ids=["plain", "bank"])
    def test_no_rows_is_a_data_error(self, dataset, bank):
        # no chunk is read, so the stack is empty and no signal named
        manifest, _ = dataset
        plan = Plan(make_config(manifest, "unused"))
        bank = (SpatialFilterBank(np.eye(2, 6), np.eye(6, 2), [0.9, 0.1])
                if bank else None)
        with pytest.raises(DataError, match="non-empty"):
            preprocess(plan, plan.manifest.subset([]), bank)

    def test_run_holds_less_than_its_raw_training_side(self, tmp_path):
        # trials are read, band-passed and reduced a chunk at a time, so
        # the run's allocations never reach the 5.4 MB of raw samples of
        # its 280 training trials (6 channels x 400 samples)
        manifest, _ = generate_fixture(
            FixtureSpec(n_per_class=200, duration_s=2.0), seed=3,
            out_dir=tmp_path / "data")
        cfg = make_config(manifest, tmp_path / "out", n_train=None)
        raw_side = len(Plan(cfg).sides[0]) * 6 * 400 * 8
        # scipy is imported on first use; its modules are not the run's
        import scipy.linalg  # noqa: F401
        import scipy.signal  # noqa: F401
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < raw_side


class TestProjectBeforeBandPass:
    """evaluate projects the raw test trials through the filter bank and
    then preprocesses them; both maps are linear, so that gives the
    projected scatter matrices of the preprocessed trials."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_channels=st.integers(2, 8),
           concat=st.booleans(), data=st.data())
    def test_matches_projecting_the_preprocessed_trials(
            self, seed, n_channels, concat, data):
        n_filters = data.draw(st.sampled_from(range(2, n_channels + 1, 2)))
        rng = np.random.default_rng(seed)
        ts = TrialSet(rng.standard_normal((5, n_channels, 60)),
                      [0, 1, 0, 1, 1], 10 + np.arange(5),
                      tuple(f"c{i}" for i in range(n_channels)), 100.0)
        bank = SpatialFilterBank(rng.standard_normal((n_filters, n_channels)),
                                 rng.standard_normal((n_channels, n_filters)),
                                 np.linspace(0.9, 0.1, n_filters))
        with tempfile.TemporaryDirectory() as root:
            manifest = str(save_trialset(ts, root))
            cfg = (PipelineConfig("motor_imagery", manifest, "out",
                                  band_mode="concat",
                                  epoch_override=(0.1, 0.4))
                   if concat else PipelineConfig("errp", manifest, "out",
                                                 epoch_override=(0.1, 0.4)))
            plan = Plan(cfg)
            projected = preprocess(plan, plan.manifest, bank)
            reference = preprocess(plan, plan.manifest)
        covs = _shrunk_covariances(projected, projected.matrices)
        assert projected.n_samples == reference.n_samples
        assert projected.ids.tolist() == ts.ids.tolist()
        assert projected.labels.tolist() == ts.labels.tolist()
        for got, want in (
                (projected.matrices, bank.w @ reference.matrices @ bank.w.T),
                (covs, trial_covariances(bank, reference))):
            # within 1e-12 of each matrix's largest entry
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("how", ["run", "evaluate"])
    def test_test_trials_are_band_passed_as_filter_outputs(
            self, tmp_path, monkeypatch, how):
        # with 10 channels and 4 filters the test trials reach the
        # band-pass with 4 channels, the training trials with 10
        manifest, _ = generate_fixture(
            FixtureSpec(n_channels=10, n_per_class=16, duration_s=0.5),
            seed=3, out_dir=tmp_path / "data")
        cfg = make_config(manifest, tmp_path / "out", n_filters=4)
        if how == "evaluate":
            run_pipeline(cfg)
        test_ids = set(read_manifest(manifest).ids[cfg.n_train:].tolist())
        widths = {}

        def recording_filter(filt, ts):
            for tid in ts.ids.tolist():
                widths.setdefault(tid, set()).add(ts.samples.shape[1])
            return apply_filter(filt, ts)

        monkeypatch.setattr(pipeline, "apply_filter", recording_filter)
        if how == "run":
            run_pipeline(cfg)
        else:
            stage_evaluate(Plan(cfg))
        assert {tid: widths[tid] for tid in test_ids} == {
            tid: {4} for tid in test_ids}
        assert all(widths[tid] == {10} for tid in set(widths) - test_ids)
        assert len(widths) == (32 if how == "run" else len(test_ids))


class TestScaling:
    """Every sample times a power of two c: the band-pass is linear and
    trace normalization cancels c exactly, so what rests on the CSP fit
    and the classifier keeps its bytes, and the graphs, |mean covariance|
    of the projected test trials, scale by exactly c^2."""

    UNCHANGED = ("filter_bank", "selected_channels", "cv_summary",
                 "eval_report", "selected_trials")
    GRAPHS = ("graph_all_class0", "graph_all_class1",
              "graph_selected_class0", "graph_selected_class1")

    @pytest.mark.parametrize("c", [4.0, 0.25])
    def test_power_of_two_keeps_the_fit_and_scales_graph_weights(
            self, completed_run, tmp_path, c):
        cfg, blobs = completed_run
        data = Path(shutil.copytree(Path(cfg.manifest).parent,
                                    tmp_path / "data"))
        for path in (data / "trials").iterdir():
            path.write_bytes((np.fromfile(path, "<f8") * c).tobytes())
        scaled = replace(cfg, manifest=str(data / "manifest.json"),
                         out_dir=str(tmp_path / "out"))
        run_pipeline(scaled)
        for name in self.UNCHANGED:
            assert scaled.out_path(name).read_bytes() == blobs[name], name
        for name in self.GRAPHS:
            got = np.array(json.loads(scaled.out_path(name).read_text())
                           ["weights"])
            want = np.array(json.loads(blobs[name])["weights"])
            assert np.array_equal(got, c ** 2 * want), name


@pytest.fixture(scope="module", params=[3, 4, 5])
def seeded_run(request, tmp_path_factory):
    """A run on a 32-trial fixture drawn at each of three seeds."""
    root = tmp_path_factory.mktemp(f"seed{request.param}")
    manifest, _ = generate_fixture(
        FixtureSpec(n_per_class=16, duration_s=0.5), seed=request.param,
        out_dir=root / "data")
    cfg = make_config(manifest, root / "out")
    run_pipeline(cfg)
    return cfg


def run_on_copy(cfg, root, trial, manifest):
    """Run `cfg` again on a copy of its dataset under `root` whose trials'
    channels x samples arrays x are `trial(x)` and whose manifest object m
    is `manifest(m)`; returns the copy's config."""
    data = Path(shutil.copytree(Path(cfg.manifest).parent, root / "data"))
    m = json.loads((data / "manifest.json").read_text())
    for row in m["trials"]:
        path = data / row["file"]
        x = np.fromfile(path, "<f8").reshape(m["channels"], m["samples"])
        path.write_bytes(np.ascontiguousarray(trial(x), "<f8").tobytes())
    (data / "manifest.json").write_text(json.dumps(manifest(m)))
    changed = replace(cfg, manifest=str(data / "manifest.json"),
                      out_dir=str(root / "out"))
    run_pipeline(changed)
    return changed


def read_artifact(cfg, name):
    return json.loads(cfg.out_path(name).read_text())


def posteriors(cfg):
    return np.loadtxt(cfg.out_path("eval_per_trial"), delimiter=",",
                      skiprows=1, ndmin=2)[:, 3]


def assert_same_separability(cfg, other, tol):
    want, got = (read_artifact(c, "separability") for c in (cfg, other))
    for condition in ("all", "selected"):
        for metric, value in want[condition].items():
            assert abs(got[condition][metric] - value) <= tol, (condition,
                                                                metric)


# the numbers end-to-end invariances keep only to rounding; at seeds 3-5
# they agreed within 5.2e-14
TOL = 1e-12


class TestChannelPermutation:
    """Every trial's channels, and the manifest's channel names, in another
    fixed order: the band-pass acts per channel, and the CSP filters and
    patterns permute with the channels. So each filter picks the same
    named channel, the projected signals agree to rounding, the cv, eval
    and selection artifacts keep their bytes, and posteriors, graph
    weights (relative to the largest) and separability agree within
    TOL."""

    # a fixed permutation of the fixture's 6 channels that moves each one
    PERM = [2, 5, 0, 4, 1, 3]

    def test_same_channels_picked_and_same_results(self, seeded_run,
                                                   tmp_path):
        cfg = seeded_run
        permuted = run_on_copy(
            cfg, tmp_path, lambda x: x[self.PERM],
            lambda m: {**m, "channel_names": [m["channel_names"][i]
                                              for i in self.PERM]})
        for name in ("cv_summary", "eval_report", "selected_trials"):
            assert (permuted.out_path(name).read_bytes()
                    == cfg.out_path(name).read_bytes()), name
        bank, got = (read_artifact(c, "filter_bank") for c in (cfg, permuted))
        assert ([name for _, name in got["selected_channels"]]
                == [name for _, name in bank["selected_channels"]])
        assert got["node_names"] == bank["node_names"]
        for name in TestScaling.GRAPHS:
            graph, got = (read_artifact(c, name) for c in (cfg, permuted))
            assert got["node_names"] == graph["node_names"], name
            want = np.array(graph["weights"])
            assert (np.abs(np.array(got["weights"]) - want).max()
                    <= TOL * np.abs(want).max()), name
        assert_allclose(posteriors(permuted), posteriors(cfg), rtol=0.0,
                        atol=TOL)
        assert_same_separability(cfg, permuted, TOL)


class TestClassRelabelling:
    """Every label 0 <-> 1 and the two class names swapped: CSP's
    eigenvalues complement and the classifier mirrors, so each posterior p
    becomes 1 - p within TOL, eval accuracy and the selected trials stay,
    and so does the separability of the class graphs within TOL. The cv
    summary is left out: `classify.stratified_folds` deals class 0 first,
    so swapped labels give other folds (77.8% against 76.4% at seed 3)."""

    def test_posteriors_complement_and_selection_stays(self, seeded_run,
                                                       tmp_path):
        cfg = seeded_run
        swapped = run_on_copy(
            cfg, tmp_path, lambda x: x,
            lambda m: {**m, "class_names": m["class_names"][::-1],
                       "trials": [{**row, "label": 1 - row["label"]}
                                  for row in m["trials"]]})
        assert (read_artifact(swapped, "eval_report")["accuracy"]
                == read_artifact(cfg, "eval_report")["accuracy"])
        assert (swapped.out_path("selected_trials").read_bytes()
                == cfg.out_path("selected_trials").read_bytes())
        assert_allclose(posteriors(swapped), 1.0 - posteriors(cfg),
                        rtol=0.0, atol=TOL)
        assert_same_separability(cfg, swapped, TOL)


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
        # the full run hands one plan to every stage; a stage run on its
        # own, with its own plan, loads for itself and must write the
        # same bytes
        cfg, blobs = completed_run
        cfg.out_path(name).unlink()
        WRITER[name](Plan(cfg))
        assert artifact_bytes(cfg) == blobs

    def test_model_ignores_test_split_labels(self, dataset, tmp_path):
        # flipping every held-out label must not change the fitted model
        manifest, _ = dataset
        ts = load_trialset(read_manifest(manifest))

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
            stage_fit_csp(Plan(cfg))
            stage_train(Plan(cfg))
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


def without_trial_files(cfg, rows, root):
    """A copy of cfg's dataset and artifacts under root, with the trial
    files of the given manifest rows deleted."""
    data = Path(shutil.copytree(Path(cfg.manifest).parent, root / "data"))
    out = shutil.copytree(cfg.out_dir, root / "out")
    table = json.loads((data / "manifest.json").read_text())["trials"]
    for row in table[rows]:
        (data / row["file"]).unlink()
    return replace(cfg, manifest=str(data / "manifest.json"), out_dir=out)


class TestSideOnlyLoad:
    """A stage run on its own reads only its side of the split, and a run
    reads each trial file once."""

    def test_run_reads_each_trial_file_once(self, dataset, tmp_path,
                                            monkeypatch):
        manifest, _ = dataset
        reads = Counter()

        def counting_open(file, *args, **kwargs):
            # the loader opens each trial file it reads once
            if Path(file).suffix == ".bin":
                reads[Path(file).resolve()] += 1
            return open(file, *args, **kwargs)

        # a module global named open shadows the builtin inside data.py
        monkeypatch.setattr(relconn.data, "open", counting_open, raising=False)
        run_pipeline(make_config(manifest, tmp_path / "out"))
        files = Path(manifest).parent.resolve().glob("trials/*.bin")
        assert reads == Counter(files)

    @pytest.mark.parametrize("deleted, stages", [
        ("train", (stage_evaluate, stage_graph)),
        ("test", (stage_fit_csp, stage_train, stage_cv)),
    ])
    def test_stage_needs_only_its_side_files(self, completed_run, tmp_path,
                                             deleted, stages):
        cfg, blobs = completed_run
        rows = (slice(None, cfg.n_train) if deleted == "train"
                else slice(cfg.n_train, None))
        other = without_trial_files(cfg, rows, tmp_path)
        for stage in stages:
            for name, writer in WRITER.items():
                if writer is stage:
                    other.out_path(name).unlink()
            stage(Plan(other))
        assert artifact_bytes(other) == blobs

    def test_threshold_reruns_need_no_trial_file(self, completed_run,
                                                 tmp_path):
        # select, graph and report read artifacts only, and graph the
        # manifest; with the manifest gone too, select and report still
        # rebuild every byte
        cfg, blobs = completed_run
        other = without_trial_files(cfg, slice(None), tmp_path)
        for stages in ((stage_select, stage_graph, stage_report),
                       (stage_select, stage_report)):
            for stage in stages:
                for name, writer in WRITER.items():
                    if writer is stage:
                        other.out_path(name).unlink()
                stage(Plan(other))
            assert artifact_bytes(other) == blobs
            Path(other.manifest).unlink(missing_ok=True)

    @pytest.mark.parametrize("stage", ["fit-csp", "train", "cv", "evaluate",
                                       "graph"])
    @pytest.mark.parametrize("fault, message", [
        ("duplicate_id", "duplicate trial id 30"),
        ("unread_label", "label must be 0 or 1, got 2"),
        ("n_train", "n_train must be in (0, 32), got 32"),
    ])
    def test_whole_manifest_still_checked(self, completed_run, tmp_path,
                                          capsys, stage, fault, message):
        cfg, _ = completed_run
        data = Path(shutil.copytree(Path(cfg.manifest).parent,
                                    tmp_path / "data"))
        d = json.loads((data / "manifest.json").read_text())
        n_train = cfg.n_train
        if fault == "duplicate_id":
            # a training row takes the id of a test row
            d["trials"][0]["id"] = d["trials"][30]["id"]
        elif fault == "unread_label":
            row = 25 if stage in ("fit-csp", "train", "cv") else 3
            d["trials"][row]["label"] = 2
            message = f"trial {row}: {message}"
        else:
            n_train = len(d["trials"])
        (data / "manifest.json").write_text(json.dumps(d))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "manifest": str(data / "manifest.json"),
            "out_dir": str(tmp_path / "out"),
            "n_train": n_train, "k_folds": 3, "epoch": [0.0, 0.5]}))
        assert main([stage, "--config", str(path)]) == 2
        assert f"error: stage {stage}: {message}" in capsys.readouterr().err


def artifacts_copy(cfg, root, **edits):
    """A copy of cfg's artifacts under root and a config file naming it,
    with the given config keys edited: (out_dir, config path)."""
    out = Path(shutil.copytree(cfg.out_dir, root / "out"))
    config = root / "cfg.json"
    config.write_text(json.dumps({
        "manifest": cfg.manifest, "out_dir": str(out),
        "n_train": cfg.n_train, "k_folds": 3, "epoch": [0.0, 0.5],
        **edits}))
    return out, str(config)


class TestStaleArtifacts:
    """A stage that reads another stage's artifact exits 2 naming it when
    the artifact no longer fits."""

    @pytest.mark.parametrize("stage", ["train", "evaluate", "graph"])
    def test_n_train_drift_names_the_filter_bank(self, completed_run,
                                                 tmp_path, capsys, stage):
        # the bank, and so the model, were fitted on 22 training trials; a
        # config of 16 would score 6 of them as test trials
        cfg, blobs = completed_run
        out, config = artifacts_copy(cfg, tmp_path, n_train=16)
        assert main([stage, "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: stage {stage}: {out / ARTIFACTS['filter_bank']}: "
            f"records n_train 22, but the config gives 16; rerun fit-csp\n")
        for name, blob in blobs.items():
            assert (out / ARTIFACTS[name]).read_bytes() == blob, name

    @pytest.mark.parametrize("stage", ["train", "evaluate", "graph"])
    @pytest.mark.parametrize("key, value, recorded", [
        ("epoch", [0.0, 0.4], "epoch [0, 100], but the config gives [0, 80]"),
        ("filter", {"order": 4}, 'filter [{"band_hz": [0.1, 10.0], '
         '"family": "butterworth", "order": 5, "passband_ripple_db": 1.0, '
         '"sampling_rate_hz": 200.0, "stopband_atten_db": 50.0}], but the '
         'config gives [{"band_hz": [0.1, 10.0], "family": "butterworth", '
         '"order": 4, '),
        ("n_filters", 4, "n_filters 6, but the config gives 4"),
    ])
    def test_resolution_drift_names_the_key_and_the_filter_bank(
            self, completed_run, tmp_path, capsys, stage, key, value,
            recorded):
        # the bank, and so the model and the test covariances, were made
        # with another band-pass, epoch or filter count than the config's
        cfg, blobs = completed_run
        out, config = artifacts_copy(cfg, tmp_path, **{key: value})
        assert main([stage, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage {stage}: "
                              f"{out / ARTIFACTS['filter_bank']}: records "
                              f"{recorded}")
        assert err.endswith("; rerun fit-csp\n")
        for name, blob in blobs.items():
            assert (out / ARTIFACTS[name]).read_bytes() == blob, name

    @pytest.mark.parametrize("extra, message", [
        (0, "lists 0, which is not a test trial id"),
        (99999, "lists 99999, which is not a test trial id"),
        (None, "twice"),
    ], ids=["training_id", "unknown_id", "repeat"])
    def test_graph_refuses_a_selected_id_of_no_test_trial(
            self, completed_run, tmp_path, capsys, extra, message):
        cfg, blobs = completed_run
        out, config = artifacts_copy(cfg, tmp_path)
        path = out / ARTIFACTS["selected_trials"]
        d = json.loads(path.read_text())
        if extra is None:
            extra = d["selected_ids"][-1]
            message = f"lists {extra} twice"
        d["selected_ids"].append(extra)
        path.write_text(json.dumps(d))
        assert main(["graph", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: stage graph: {path}: selected_ids {message}; rerun "
            f"select\n")
        for name, blob in blobs.items():
            if name != "selected_trials":
                assert (out / ARTIFACTS[name]).read_bytes() == blob, name

    @pytest.mark.parametrize("fault, message", [
        ("row_short", "holds an array of shape (9, 6, 6), but "),
        ("matrix_size", "holds 5x5 matrices, but the filter bank has 6 "
                        "filters"),
    ])
    def test_graph_names_the_stale_file(self, completed_run, tmp_path,
                                        capsys, fault, message):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["test_covariances"]
        covs = np.load(path)
        np.save(path, covs[1:] if fault == "row_short" else covs[:, 1:, 1:])
        assert main(["graph", "--config", config]) == 2
        assert (f"error: stage graph: {path} {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fault, message", [
        ("empty", ": No data left in file"),
        ("half", ": Failed to read all data for array"),
        ("json", ": This file contains pickled (object) data"),
        ("float32", " holds float32 values, not float64; rerun evaluate"),
    ])
    def test_graph_names_an_unreadable_covariance_file(
            self, completed_run, tmp_path, capsys, fault, message):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["test_covariances"]
        data = path.read_bytes()
        if fault == "float32":
            np.save(path, np.load(path).astype(np.float32))
        else:
            path.write_bytes({"empty": b"", "half": data[:len(data) // 2],
                              "json": (out / ARTIFACTS["eval_report"])
                              .read_bytes()}[fault])
        assert main(["graph", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: stage graph: {path}{message}")

    @pytest.mark.parametrize("n_rows", [0, 4])
    def test_select_refuses_a_per_trial_table_of_other_length(
            self, completed_run, tmp_path, capsys, recwarn, n_rows):
        # a table cut short is not read as fewer trials, and a table
        # without rows lets out no numpy warning
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["eval_per_trial"]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1 + n_rows]))
        assert main(["select", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: stage select: {path} lists {n_rows} trials, but "
            f"{out / ARTIFACTS['eval_report']} has n_trials "
            f"{len(lines) - 1}; rerun evaluate\n")
        assert not recwarn.list

    def test_report_names_a_metric_table_not_utf8(self, completed_run,
                                                  tmp_path, capsys):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["node_metrics"]
        path.write_bytes(path.read_bytes() + b"\xff")
        assert main(["report", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: stage report: {path}: 'utf-8' codec can't decode byte "
            f"0xff")

    @pytest.mark.parametrize("stage, artifact, edit, message", [
        ("evaluate", "model", lambda d: d.update(weights={"a": 1}),
         ": float() argument must be"),
        ("graph", "filter_bank", lambda d: d.update(node_names=None),
         ": node_names must be a list of strings, got None"),
        ("train", "filter_bank", lambda d: d.update(filter_bank=[]),
         ": list indices must be integers"),
        ("evaluate", "model", lambda d: d.pop("bias"),
         " has no field 'bias'"),
        ("graph", "filter_bank", lambda d: d.pop("node_names"),
         " has no field 'node_names'"),
        ("graph", "selected_trials", lambda d: d.pop("selected_ids"),
         " has no field 'selected_ids'"),
        ("select", "eval_report", lambda d: d.pop("accuracy"),
         " has no field 'accuracy'"),
        ("evaluate", "model", lambda d: d.update(bias="x"),
         ": bias must be a number, got 'x'"),
        ("graph", "filter_bank", lambda d: d.update(node_names=["a"]),
         ": node_names has 1 entries, expected 6"),
        # a numeric check that fails on a damaged field is a schema fault
        # of the file (exit 2), not a numeric failure of the run (exit 3)
        ("evaluate", "model",
         lambda d: d.update(reference_mean=(-np.array(d["reference_mean"]))
                            .tolist()),
         ": matrix is not positive definite"),
        # JSON has no NaN, but Python's json module reads and writes one
        ("evaluate", "model", lambda d: d.update(bias=math.nan),
         ": weights and bias must be finite"),
        ("evaluate", "model", lambda d: d["weights"].__setitem__(0, math.nan),
         ": weights and bias must be finite"),
        ("evaluate", "model", lambda d: d.update({"lambda": -1.0}),
         ": lambda must be >= 0 and finite, got -1.0"),
        ("train", "filter_bank",
         lambda d: d["filter_bank"]["w"][0].__setitem__(0, math.nan),
         ": w and patterns must be finite"),
        ("graph", "filter_bank",
         lambda d: d["filter_bank"]["w"][0].__setitem__(0, math.nan),
         ": w and patterns must be finite"),
        ("graph", "filter_bank",
         lambda d: d["filter_bank"]["eigenvalues"].__setitem__(0, math.nan),
         ": eigenvalues must lie in [0, 1]"),
        ("select", "eval_report", lambda d: d.update(accuracy=math.nan),
         ": aggregates must be finite, got [nan, "),
    ], ids=["weights_object", "node_names_null", "filter_bank_list",
            "no_bias", "no_node_names", "no_selected_ids", "no_accuracy",
            "bias_string", "one_node_name", "reference_negated", "bias_nan",
            "weight_nan", "lambda_negative", "bank_w_nan_train",
            "bank_w_nan_graph", "eigenvalue_nan", "accuracy_nan"])
    def test_malformed_json_names_the_file(self, completed_run, tmp_path,
                                           capsys, stage, artifact, edit,
                                           message):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS[artifact]
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))
        assert main([stage, "--config", config]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: stage {stage}: {path}{message}")

    @pytest.mark.parametrize("stage, artifact", [
        ("graph", "selected_trials"), ("evaluate", "model")])
    def test_json_bytes_not_utf8_name_the_file(self, completed_run, tmp_path,
                                               capsys, stage, artifact):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS[artifact]
        path.write_bytes(path.read_bytes() + b"\xff")
        assert main([stage, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: stage {stage}: {path} is not valid JSON: 'utf-8' codec "
            f"can't decode byte 0xff"), err

    def test_graph_needs_selected_trials_of_each_class(self, completed_run,
                                                       tmp_path, capsys):
        cfg = completed_run[0]
        out, config = artifacts_copy(cfg, tmp_path)
        manifest = read_manifest(cfg.manifest)
        class0 = set(manifest.ids[manifest.labels == 0].tolist())
        path = out / ARTIFACTS["selected_trials"]
        d = json.loads(path.read_text())
        d["selected_ids"] = [i for i in d["selected_ids"] if i in class0]
        path.write_text(json.dumps(d))
        assert main(["graph", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: stage graph: no selected trials for class 1; cannot "
            "build a graph\n")

    def test_graph_rejects_a_table_of_other_trials(self, completed_run,
                                                   tmp_path, capsys):
        # with a test row's label flipped, the manifest's test rows are
        # not the ones evaluate scored; graph opens no trial file, so the
        # manifest is copied alone
        cfg, _ = completed_run
        out, config = artifacts_copy(cfg, tmp_path)
        d = json.loads(Path(cfg.manifest).read_text())
        d["trials"][25]["label"] ^= 1
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(d))
        assert main(["graph", "--config", config,
                     "--manifest", str(manifest)]) == 2
        assert (f"error: stage graph: {out / ARTIFACTS['eval_per_trial']} "
                f"does not list the manifest's test trials"
                in capsys.readouterr().err)

    def test_report_names_a_short_metric_table(self, completed_run,
                                               tmp_path, capsys):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["node_metrics"]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(
            line for line in lines
            if not (",strength," in line and "selected:class1" in line)))
        assert main(["report", "--config", config]) == 2
        assert (f"error: stage report: {path} has no selected:class1 rows "
                f"for ['strength']" in capsys.readouterr().err)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.rsplit(",", 1)[0], "not enough values to unpack"),
        (lambda row: row + ",x",
         "too many values to unpack"),
        (lambda row: ",".join(
            "x" if i == 2 else field
            for i, field in enumerate(row.split(","))),
         "could not convert string to float: 'x'"),
        (lambda row: ",".join(
            "nan" if i == 2 else field
            for i, field in enumerate(row.split(","))),
         "value must be finite, got nan"),
        (lambda row: ",".join(
            "-inf" if i == 2 else field
            for i, field in enumerate(row.split(","))),
         "value must be finite, got -inf"),
    ], ids=["three_columns", "five_columns", "value_x", "value_nan",
            "value_inf"])
    def test_report_names_a_damaged_metric_row(self, completed_run,
                                               tmp_path, capsys, edit,
                                               message):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["node_metrics"]
        lines = path.read_text().splitlines()
        lines[5] = edit(lines[5])
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage report: {path}, line 6: "), err
        assert message in err

    def test_select_names_a_short_per_trial_row(self, completed_run,
                                                tmp_path, capsys):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["eval_per_trial"]
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        assert main(["select", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage select: {path}: "), err
        assert "requires 4 columns but 3 were found at row 3" in err

    @pytest.mark.parametrize("posterior", ["nan", "2.0", "-0.5"])
    def test_select_refuses_a_posterior_outside_0_1(
            self, completed_run, tmp_path, capsys, posterior):
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["eval_per_trial"]
        lines = path.read_text().splitlines()
        tid = lines[3].split(",")[0]
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + posterior
        path.write_text("\n".join(lines) + "\n")
        assert main(["select", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: stage select: {path}: trial {tid}: posterior must be in "
            f"[0, 1], got {float(posterior)}; rerun evaluate\n")

    def test_report_rejects_rows_of_other_nodes(self, completed_run,
                                                tmp_path, capsys):
        # one graph's strength rows name other nodes than its other rows
        out, config = artifacts_copy(completed_run[0], tmp_path)
        path = out / ARTIFACTS["node_metrics"]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(
            "x" + line if ",strength," in line and "selected:class1" in line
            else line for line in lines))
        assert main(["report", "--config", config]) == 2
        assert (f"error: stage report: {path} lists nodes ['x"
                in capsys.readouterr().err)


class TestWideIds:
    def test_ids_above_2_to_53_select_test_trials(self, dataset, tmp_path):
        # float64 holds every integer only up to 2**53; ids are int64
        manifest, _ = dataset
        data = Path(shutil.copytree(Path(manifest).parent, tmp_path / "data"))
        d = json.loads((data / "manifest.json").read_text())
        for k, row in enumerate(d["trials"]):
            row["id"] = 2 ** 60 + k
        (data / "manifest.json").write_text(json.dumps(d))
        cfg = make_config(data / "manifest.json", tmp_path / "out")
        run_pipeline(cfg)
        test_ids = [row["id"] for row in d["trials"][cfg.n_train:]]
        selected = json.loads(
            cfg.out_path("selected_trials").read_text())["selected_ids"]
        assert selected and len(set(selected)) == len(selected)
        assert set(selected) <= set(test_ids)


class TestConfigDrift:
    """A config edited after a run, then rerun from any stage to the end:
    each rerun either exits non-zero, or leaves every artifact as a fresh
    run of one of the two configs writes it."""

    EDITS = {"n_train": 16, "n_filters": 4, "seed": 7, "lambda": 0.05,
             "k_folds": 4, "posterior_threshold": 0.8, "epoch": [0.0, 0.4],
             "filter": {"order": 4}}

    def test_no_rerun_mixes_two_configs(self, dataset, tmp_path):
        manifest, _ = dataset
        base = {"manifest": str(manifest), "n_train": 22, "k_folds": 3,
                "epoch": [0.0, 0.5]}
        # a recording of the same shape, drawn from another seed
        other, _ = generate_fixture(FixtureSpec(n_per_class=16,
                                                duration_s=0.5),
                                    seed=4, out_dir=tmp_path / "seed4")
        edits = {**self.EDITS, "manifest": str(other)}

        def run(name, commands, **edits):
            """Whether each command exits 0, in turn, with a config of the
            edits writing to tmp_path / name, and what it left there."""
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(
                {**base, "out_dir": str(tmp_path / name), **edits}))
            ok = all(main([command, "--config", str(config)]) == 0
                     for command in commands)
            return ok, {key: (tmp_path / name / file).read_bytes()
                        for key, file in ARTIFACTS.items()}

        ok, old = run("base", ["run"])
        assert ok
        names = list(stages())
        mixed, passed = [], 0
        for key, value in edits.items():
            ok, new = run(key, ["run"], **{key: value})
            assert ok, key
            for i, start in enumerate(names):
                shutil.copytree(tmp_path / "base", tmp_path / f"{key}-{start}")
                ok, got = run(f"{key}-{start}", names[i:], **{key: value})
                passed += ok
                if ok and any(got[a] not in (old[a], new[a]) for a in got):
                    mixed.append((key, start))
        assert mixed == []
        # the reruns that read each edited value from an artifact, or
        # record it, still run: seed, lambda, k_folds and the threshold
        # from any stage, and every edit from fit-csp and from report,
        # which reads none of the other five
        assert passed == 38


class TestUpFrontRefusals:
    """A config value that the manifest settles is refused, naming its
    key, before any trial file is opened or any artifact written."""

    def test_k_folds_beyond_the_smallest_class(self, tmp_path, capsys):
        # 6 trials per class: the default split trains on 4 of each, too
        # few for the default 10 folds
        manifest, _ = generate_fixture(FixtureSpec(n_per_class=6), seed=3,
                                       out_dir=tmp_path / "data")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"manifest": str(manifest),
                                      "out_dir": str(tmp_path / "out")}))
        for command in ("run", "fit-csp", "evaluate"):
            assert main([command, "--config", str(config)]) == 2
            stage = "fit-csp" if command == "run" else command
            assert capsys.readouterr().err == (
                f"error: stage {stage}: config key 'k_folds': class counts "
                f"[4, 4] cannot stratify into 10 folds; every fold needs "
                f"both classes\n")
        assert not (tmp_path / "out").exists()

    def test_n_filters_beyond_the_channel_count(self, dataset, tmp_path,
                                                monkeypatch, capsys):
        manifest, _ = dataset
        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        # a module global named open shadows the builtin inside data.py
        monkeypatch.setattr(relconn.data, "open", recording_open,
                            raising=False)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "out_dir": str(tmp_path / "out"),
            "n_train": 22, "k_folds": 3, "n_filters": 8,
            "epoch": [0.0, 0.5]}))
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: stage fit-csp: config key 'n_filters': n_filters=8 "
            "exceeds channel count 6\n")
        assert [f for f in opened if Path(f).suffix == ".bin"] == []
        assert not (tmp_path / "out").exists()


    def test_a_test_side_without_a_class(self, dataset, tmp_path, capsys):
        # sorted by label, the first 22 rows hold all 16 class 0 trials, so
        # the 10 test trials are all class 1: evaluate could score no class
        # 0 trial, and graph could build no class 0 graph
        manifest, _ = dataset
        data = Path(shutil.copytree(Path(manifest).parent, tmp_path / "data"))
        d = json.loads((data / "manifest.json").read_text())
        d["trials"].sort(key=lambda row: row["label"])
        (data / "manifest.json").write_text(json.dumps(d))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "manifest": str(data / "manifest.json"),
            "out_dir": str(tmp_path / "out"), "n_train": 22, "k_folds": 3,
            "epoch": [0.0, 0.5]}))
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: stage fit-csp: config key 'n_train': the test side's "
            "class counts are [0, 10]; each class needs a test trial\n")
        assert not (tmp_path / "out").exists()


class TestOneResolution:
    """A run resolves each run value once, in its plan, and its stages do
    as they do alone."""

    def test_folds_dealt_and_epoch_resolved_once(self, dataset, tmp_path,
                                                 monkeypatch):
        manifest, _ = dataset
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # every module that binds each name
        for module in (relconn.classify, pipeline):
            counted(module, "stratified_folds")
        for module in (relconn.filters, pipeline):
            counted(module, "epoch_bounds")
        run_pipeline(make_config(manifest, tmp_path / "out"))
        assert calls == {"stratified_folds": 1, "epoch_bounds": 1}

    def test_run_reads_no_sample_before_fit_csp(self, dataset, tmp_path,
                                                monkeypatch):
        manifest, _ = dataset
        events = []
        real_load, real_fit = relconn.data.load_trialset, stage_fit_csp

        def load(rows):
            events.append("load")
            return real_load(rows)

        def fit(plan):
            events.append("fit-csp")
            return real_fit(plan)
        monkeypatch.setattr(relconn.data, "load_trialset", load)
        monkeypatch.setattr(pipeline, "stage_fit_csp", fit)
        run_pipeline(make_config(manifest, tmp_path / "out"))
        assert events[0] == "fit-csp" and "load" in events


class TestStageErrors:
    def test_stage_name_prefixes_errors(self, dataset, tmp_path):
        manifest, _ = dataset
        cfg = make_config(manifest, tmp_path / "out", n_filters=8)
        with pytest.raises(ValueError, match="^stage fit-csp:"):
            stage_fit_csp(Plan(cfg))

    def test_missing_upstream_artifact(self, dataset, tmp_path):
        manifest, _ = dataset
        cfg = make_config(manifest, tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            stage_train(Plan(cfg))


def test_readme_library_use_runs(tmp_path):
    # the README's example imports every name from its own submodule; the
    # package root exports none
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use")[1]
    code = section.split("```python\n")[1].split("```")[0]
    manifest, _ = generate_fixture(FixtureSpec(), seed=3,
                                   out_dir=tmp_path / "data")
    assert '"data/manifest.json"' in code
    namespace = {}
    exec(code.replace('"data/manifest.json"', repr(str(manifest))),
         namespace)
    assert namespace["report"].trial_ids.size == 60
    assert namespace["kept"]
