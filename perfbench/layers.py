"""relconn's layers as the traced run sees them: which modules are layers,
what each layer counts, and how one iteration's spans become the
per-layer metrics.

Counts marked "computed" are derived from array shapes at the layer
boundary, not measured: bytes read are trials x channels x samples x 8,
samples filtered are channels x samples x second-order sections per call.
They repeat exactly from run to run.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from spans import Recorder, self_times

PACKAGE = "relconn"
LAYERS = ("data", "filters", "csp", "geometry", "classify", "graphs",
          "pipeline")
STAGES = ("fit-csp", "train", "cv", "evaluate", "select", "graph", "report")
COMPUTED = ("data.bytes_read", "filters.samples_filtered",
            "filters.discarded_frac")

COUNTS = ("data.loads", "data.bytes_read", "filters.trials_filtered",
          "filters.samples_filtered", "csp.fits", "csp.covariances",
          "geometry.tangent_maps", "geometry.matrix_logs",
          "geometry.clamp_events", "classify.solver_calls",
          "classify.solver_iters", "graphs.graphs_built",
          "pipeline.artifact_bytes")


def _trials_channels_samples(obj) -> tuple[int, int, int]:
    """Shape of a trial (1 x ch x samples) or trial set (n x ch x samples)."""
    samples = getattr(obj, "samples", None)
    if samples is not None:
        shape = np.shape(samples)
        return (1, *shape) if len(shape) == 2 else tuple(shape)
    first = obj.trials[0].samples
    return (len(obj), *np.shape(first))


def _count_load(rec: Recorder, ts, *args, **kwargs):
    n, ch, sa = _trials_channels_samples(ts)
    rec.count("data.loads")
    rec.count("data.bytes_read", n * ch * sa * 8)


def _count_filter(rec: Recorder, out, filt, *args, **kwargs):
    n, ch, sa = _trials_channels_samples(out)
    rec.count("filters.trials_filtered", n)
    rec.count("filters.samples_filtered", n * ch * sa * len(filt.sections))


def _count_epoch(rec: Recorder, out, trial, *args, **kwargs):
    n, ch, sa_in = _trials_channels_samples(trial)
    sa_out = _trials_channels_samples(out)[2]
    rec.count("filters.epoch_input_samples", n * ch * sa_in)
    rec.count("filters.epoch_discarded_samples", n * ch * (sa_in - sa_out))


def _count_class_means(rec: Recorder, result, train, *args, **kwargs):
    rec.count("csp.covariances", len(train))


def _count_fit(rec: Recorder, fit, *args, **kwargs):
    rec.count("classify.solver_calls")
    rec.count("classify.solver_iters", fit.n_iter)
    rec.record_max("classify.max_gap", float(fit.gap))


def _count_artifact(rec: Recorder, result, path, *args, **kwargs):
    rec.count("pipeline.artifact_bytes", os.path.getsize(path))


def _counter(key):
    return lambda rec, *args, **kwargs: rec.count(key)


HOOKS = {
    "data.load_trialset": _count_load,
    "filters.apply_filter": _count_filter,
    "filters.extract_epoch": _count_epoch,
    "csp.fit_csp": _counter("csp.fits"),
    "csp.trial_covariance": _counter("csp.covariances"),
    "csp.class_mean_covariances": _count_class_means,
    "geometry.tangent_map": _counter("geometry.tangent_maps"),
    "geometry.matrix_log": _counter("geometry.matrix_logs"),
    "classify.fit_l1_logistic": _count_fit,
    "graphs.build_graph": _counter("graphs.graphs_built"),
    "pipeline._write_json": _count_artifact,
    "pipeline._write_csv": _count_artifact,
}

ROOT_SPAN = "cli.main"


def summarize(rec: Recorder, trials_x_bands: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Every span belongs to a layer, and the root spans (one per CLI call)
    belong to `pipeline`, so the layers' busy times partition the traced
    iteration time.
    """
    busy = defaultdict(float)
    stage = defaultdict(float)
    for span, own in zip(rec.spans, self_times(rec.spans)):
        busy[span.layer] += own
        if span.layer == "pipeline" and span.name.startswith("stage_"):
            stage[span.name[len("stage_"):].replace("_", "-")] += span.end - span.start
    run_s = sum(s.end - s.start for s in rec.spans if s.parent is None)

    metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    metrics.update({f"stage.{name}.s": stage[name] for name in STAGES})
    metrics.update({key: rec.counts[key] for key in COUNTS})
    metrics["classify.max_gap"] = rec.maxima.get("classify.max_gap", 0.0)
    metrics["filters.redundancy"] = (rec.counts["filters.trials_filtered"]
                                     / trials_x_bands)
    epoch_in = rec.counts["filters.epoch_input_samples"]
    metrics["filters.discarded_frac"] = (
        rec.counts["filters.epoch_discarded_samples"] / epoch_in
        if epoch_in else 0.0)
    metrics["trace.run_s"] = run_s
    metrics["trace.unaccounted_s"] = run_s - sum(busy.values())
    return metrics
