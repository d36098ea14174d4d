"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, replace

import pytest

import bootstrap

bootstrap.prepare()

import relconn  # noqa: E402
from relconn import pipeline  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, Iteration, run_iteration,  # noqa: E402
                       setup)

# errp_L's config on a dataset small enough to run in a second
TINY = replace(WORKLOADS["errp_L"], name="tiny",
               fixture=dict(n_channels=6, n_per_class=30,
                            sampling_rate_hz=100.0, duration_s=1.0))


def _dataset_files(prepared) -> dict[str, bytes]:
    """Every generated file: manifest, truth and trials."""
    data = prepared.root / "data"
    return {str(p.relative_to(data)): p.read_bytes()
            for p in sorted(data.rglob("*")) if p.is_file()}


def _dataset_digest(prepared) -> str:
    digest = hashlib.sha256()
    for name, data in _dataset_files(prepared).items():
        digest.update(name.encode() + b"\0" + data)
    shutil.rmtree(prepared.root)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return setup(TINY, 3, tmp_path_factory.mktemp("tiny"))


def test_same_seed_gives_identical_dataset(tmp_path):
    first = _dataset_files(setup(TINY, 11, tmp_path / "a"))
    second = _dataset_files(setup(TINY, 11, tmp_path / "b"))
    other = _dataset_files(setup(TINY, 12, tmp_path / "c"))
    assert "manifest.json" in first
    assert any(name.startswith("trials/") for name in first)
    assert first == second
    assert first != other


@pytest.mark.parametrize("name", ["mi_concat_M", "errp_L"])
def test_workload_dataset_is_a_function_of_the_seed(tmp_path, name):
    # data only: reselect_L shares errp_L's dataset
    workload = replace(WORKLOADS[name], thresholds=())
    first = _dataset_digest(setup(workload, 5, tmp_path / "a"))
    assert first == _dataset_digest(setup(workload, 5, tmp_path / "b"))


def _recorder_with_ticks(ticks):
    return spans.Recorder(clock=iter(ticks).__next__)


def test_self_time_of_nested_spans():
    rec = _recorder_with_ticks([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    root = rec.open("root", "pipeline")
    a = rec.open("a", "csp")
    g = rec.open("g", "geometry")
    rec.close(g)
    rec.close(a)
    b = rec.open("b", "filters")
    rec.close(b)
    rec.close(root)
    own = spans.self_times(rec.spans)
    assert own == [10.0 - 4.0 - 3.0, 4.0 - 2.0, 2.0, 3.0]
    assert sum(own) == 10.0


def test_self_time_counts_overlapping_children_once():
    s = spans.Span
    tree = [s("root", "pipeline", 0.0, 10.0, None),
            s("x", "csp", 1.0, 4.0, 0),
            s("y", "csp", 3.0, 6.0, 0),
            s("z", "csp", 8.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_spans_must_close_in_order():
    rec = spans.Recorder()
    outer = rec.open("outer", "pipeline")
    rec.open("inner", "pipeline")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_wrapper_returns_the_wrapped_result_unchanged():
    sentinel = object()
    seen = []
    rec = spans.Recorder()
    wrapped = spans.traced(lambda *a, **k: sentinel, "data", rec,
                           after=lambda r, result, *a, **k: seen.append(a))
    assert wrapped(1, key=2) is sentinel
    assert seen == [(1,)]
    assert [s.layer for s in rec.spans] == ["data"]


def test_install_traces_by_every_bound_name_and_restores():
    original = relconn.filters.apply_filter
    geometry = relconn.geometry
    post_init = vars(geometry.SpdMatrix)["__post_init__"]
    from_covs = vars(geometry.ReferencePoint)["from_covariances"]
    rec = spans.Recorder()
    restore = spans.install(layers.PACKAGE, layers.LAYERS, rec, layers.HOOKS)
    try:
        assert pipeline.apply_filter is relconn.filters.apply_filter
        assert pipeline.apply_filter is not original
        assert hasattr(pipeline._write_json, "__wrapped__")
        assert vars(geometry.SpdMatrix)["__post_init__"] is not post_init
        assert isinstance(vars(geometry.ReferencePoint)["from_covariances"],
                          classmethod)
        geometry.SpdMatrix([[2.0, 0.0], [0.0, 1.0]])
        assert [(s.name, s.layer) for s in rec.spans] == [
            ("SpdMatrix.__post_init__", "geometry")]
    finally:
        restore()
    assert pipeline.apply_filter is original
    assert relconn.filters.apply_filter is original
    assert vars(geometry.SpdMatrix)["__post_init__"] is post_init
    assert vars(geometry.ReferencePoint)["from_covariances"] is from_covs


def test_traced_iteration_matches_untraced_and_partitions_time(tiny):
    plain = run_iteration(tiny)
    rec = spans.Recorder()
    restore = spans.install(layers.PACKAGE, layers.LAYERS, rec, layers.HOOKS)
    try:
        traced = run_iteration(tiny, rec)
    finally:
        restore()
    assert plain.error is None and traced.error is None
    assert traced.digest == plain.digest
    assert traced.quality == plain.quality

    m = layers.summarize(rec, trials_x_bands=tiny.n_trials * tiny.n_bands)
    assert m["data.loads"] == 5
    assert m["filters.redundancy"] == 5.0
    assert m["filters.samples_filtered"] == (
        5 * tiny.n_trials * 6 * 100 * 5)   # five butterworth sections
    assert m["csp.fits"] == 11
    assert m["classify.solver_calls"] == 11
    busy = sum(m[f"{layer}.busy_s"] for layer in layers.LAYERS)
    assert busy == pytest.approx(m["trace.run_s"], rel=1e-9)
    assert m["trace.run_s"] == pytest.approx(traced.seconds)


def test_output_check_fails_on_corrupted_artifact(tiny):
    good = run_iteration(tiny)
    assert good.error is None
    path = tiny.out_dir / pipeline.ARTIFACTS["eval_report"]
    original = path.read_bytes()
    try:
        path.write_bytes(original.replace(b"accuracy", b"accuracY", 1))
        corrupted = Iteration(good.seconds,
                              [checks.artifact_digest(tiny.out_dir,
                                                      pipeline.ARTIFACTS)],
                              good.quality)
        result = run.outcome([good, corrupted])
        assert result["failed"] == 1 and not result["correct"]
        assert "eval_report" in result["errors"][0]
        with pytest.raises(checks.CheckError):
            checks.quality(tiny.out_dir, pipeline.ARTIFACTS, tiny.truth)
    finally:
        path.write_bytes(original)


def test_quality_rejects_non_finite_values(tiny):
    assert run_iteration(tiny).error is None
    path = tiny.out_dir / pipeline.ARTIFACTS["cv_summary"]
    original = path.read_text()
    try:
        summary = json.loads(original)
        summary["mean_accuracy"] = float("nan")
        path.write_text(json.dumps(summary))
        with pytest.raises(checks.CheckError, match="cv_accuracy_pct"):
            checks.quality(tiny.out_dir, pipeline.ARTIFACTS, tiny.truth)
    finally:
        path.write_text(original)


def test_failed_cli_call_fails_the_iteration(tmp_path):
    prepared = setup(TINY, 5, tmp_path)
    (prepared.root / "data" / "manifest.json").unlink()
    it = run_iteration(prepared)
    assert it.error is not None and "exited 2" in it.error


def test_every_declared_metric_is_reported(tiny, monkeypatch, tmp_path):
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "probe_peak_rss", lambda prepared: {
        "peak_rss_kb": 1024, **asdict(run_iteration(prepared))})
    record = run.measure(TINY, 3, 0.0, tmp_path / "e2e")
    assert record["correct"], record["errors"]
    assert {m["name"] for m in bench["end_to_end"]} <= record["values"].keys()

    traced = run.measure_traced(TINY, 3, 0.0, tmp_path / "layers", None)
    assert traced["correct"], traced["errors"]
    assert {m["name"] for m in bench["per_layer"]} <= traced["values"].keys()
