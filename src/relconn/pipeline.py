"""End-to-end pipeline: preprocess, fit, validate, select, graph, report.

Every stage writes flat, stage-prefixed artifacts into the configured
output directory and reads its inputs back from the artifacts of earlier
stages, so deleting downstream files and rerunning a single stage
reproduces them byte for byte. All JSON is written with sorted keys and
no timestamps; identical configuration and data give identical bytes.

Preprocessing band-passes the raw samples, cuts the epoch window and
reduces every trial to its channel scatter matrix S = x x'; every later
stage works on that `ScatterSet` only. `run_pipeline` loads and
preprocesses the recording once and hands the train/test split to every
stage that reads trials. A stage run on its own (one CLI subcommand) loads
and preprocesses for itself.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import (TslrModel, EvalReport, cross_validate, evaluate,
                       select_relevant, train)
from .csp import (SpatialFilterBank, fit_csp, select_channels,
                  trial_covariances)
from .data import (ScatterSet, TrialSet, _integer, _number, _read_json,
                   load_trialset, split_train_test)
from .errors import SchemaError
from .filters import FilterSpec, apply_filter, design_bandpass, extract_epoch
from .graphs import ConnectivityGraph, NodeMetrics, build_graph, separability

DATASET_KINDS = ("errp", "motor_imagery")
BAND_MODES = ("single", "concat")

# dataset-kind defaults: (filter family, order, bands), (onset_s, duration_s)
_KIND_FILTERS = {
    "errp": ("butterworth", 5, [(0.1, 10.0)]),
    "motor_imagery": ("elliptic", 6, [(8.0, 12.0), (16.0, 24.0)]),
}
_KIND_EPOCHS = {
    "errp": (0.0, 1.0),
    "motor_imagery": (0.0, 3.5),
}

ARTIFACTS = {
    "filter_bank": "10_filter_bank.json",
    "selected_channels": "10_selected_channels.csv",
    "model": "20_model.json",
    "cv_summary": "30_cv_summary.json",
    "eval_report": "40_eval_report.json",
    "eval_per_trial": "40_eval_per_trial.csv",
    "selected_trials": "50_selected_trials.json",
    "graph_all_class0": "60_graph_all_class0.json",
    "graph_all_class1": "60_graph_all_class1.json",
    "graph_selected_class0": "61_graph_selected_class0.json",
    "graph_selected_class1": "61_graph_selected_class1.json",
    "node_metrics": "70_node_metrics.csv",
    "separability": "80_separability.json",
}


def _text(value, field: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{field} must be a string, got {value!r}")
    return value


def _pair(value, field: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{field} must be a list of two numbers, got {value!r}")
    return tuple(_number(v, f"each entry of {field}") for v in value)


_FILTER_KEYS = {"family": _text, "order": _integer, "band_hz": _pair,
                "passband_ripple_db": _number, "stopband_atten_db": _number}


def _filter(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{field} must be an object, got {value!r}")
    for key, check in _FILTER_KEYS.items():
        if key in value:
            check(value[key], f"config key 'filter.{key}'")
    return value


# config key -> (PipelineConfig field, JSON type check)
_CONFIG_KEYS = {
    "dataset_kind": ("dataset_kind", _text),
    "manifest": ("manifest", _text),
    "out_dir": ("out_dir", _text),
    "n_train": ("n_train", _integer),
    "n_filters": ("n_filters", _integer),
    "lambda": ("lam", _number),
    "k_folds": ("k_folds", _integer),
    "posterior_threshold": ("posterior_threshold", _number),
    "seed": ("seed", _integer),
    "band_mode": ("band_mode", _text),
    "filter": ("filter_override", _filter),
    "epoch": ("epoch_override", _pair),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run configuration.

    lambda is optional; when absent the trainer uses 0.1 / n_train.
    n_train is optional; when absent the split keeps 70% for training.
    filter_override / epoch_override replace the dataset-kind defaults;
    single band mode keeps one band whether or not the filter is overridden.
    """

    dataset_kind: str
    manifest: str
    out_dir: str
    n_train: int | None = None
    n_filters: int = 6
    lam: float | None = None
    k_folds: int = 10
    posterior_threshold: float = 0.7
    seed: int = 42
    band_mode: str = "single"
    filter_override: dict | None = None
    epoch_override: tuple[float, float] | None = None

    def __post_init__(self):
        if self.dataset_kind not in DATASET_KINDS:
            raise ValueError(
                f"dataset_kind must be one of {DATASET_KINDS}, "
                f"got {self.dataset_kind!r}")
        if self.band_mode not in BAND_MODES:
            raise ValueError(
                f"band_mode must be one of {BAND_MODES}, got {self.band_mode!r}")
        if self.band_mode == "concat" and self.dataset_kind == "errp":
            raise ValueError("band_mode 'concat' requires dataset_kind "
                             "'motor_imagery' (errp has a single band)")
        if self.k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.n_filters < 2 or self.n_filters % 2 != 0:
            raise ValueError(
                f"n_filters must be a positive even number, got {self.n_filters}")
        # posteriors are clipped below 1, so a threshold of 1 selects nothing
        if not 0.5 < self.posterior_threshold < 1.0:
            raise ValueError(
                f"posterior_threshold must be in (0.5, 1), "
                f"got {self.posterior_threshold}")
        # with no penalty the solver never converges on separable folds
        if self.lam is not None and not self.lam > 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.n_train is not None and self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.epoch_override is not None:
            object.__setattr__(self, "epoch_override",
                               tuple(float(v) for v in self.epoch_override))

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        raw = _read_json(path)
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {"dataset_kind": "errp", "manifest": "", "out_dir": ""}
        for key, value in raw.items():
            field, check = _CONFIG_KEYS[key]
            # null stands for an absent key
            if value is not None:
                kwargs[field] = check(value, f"config key {key!r}")
        for key, value in overrides.items():
            if value is not None:
                kwargs[key] = value
        cfg = cls(**kwargs)
        if not cfg.manifest:
            raise SchemaError("config must name a manifest")
        if not cfg.out_dir:
            raise SchemaError("config must name an out_dir")
        return cfg

    def filter_specs(self, sampling_rate_hz: float) -> list[FilterSpec]:
        family, order, bands = _KIND_FILTERS[self.dataset_kind]
        ripple, atten = 1.0, 50.0
        if self.filter_override:
            d = dict(self.filter_override)
            family = d.get("family", family)
            order = int(d.get("order", order))
            ripple = float(d.get("passband_ripple_db", ripple))
            atten = float(d.get("stopband_atten_db", atten))
            if "band_hz" in d:
                bands = [tuple(d["band_hz"])]
        if self.band_mode == "single":
            bands = bands[:1]
        return [FilterSpec(family, order, band, sampling_rate_hz,
                           ripple, atten) for band in bands]

    def epoch_window(self) -> tuple[float, float]:
        if self.epoch_override is not None:
            return self.epoch_override
        return _KIND_EPOCHS[self.dataset_kind]

    def resolved_n_train(self, n_total: int) -> int:
        if self.n_train is not None:
            return self.n_train
        return int(round(0.7 * n_total))

    def out_path(self, artifact: str) -> Path:
        return Path(self.out_dir) / ARTIFACTS[artifact]


@contextmanager
def _stage(name: str):
    """Prefix errors from package code with the failing stage name."""
    try:
        yield
    except (ValueError, ArithmeticError) as e:
        message = f"stage {name}: {e}"
        e.args = (message,) + e.args[1:]
        raise


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


# trials band-passed at a time: bounds the filtered copy held in memory
CHUNK_TRIALS = 64


def preprocess(cfg: PipelineConfig, ts: TrialSet) -> ScatterSet:
    """Band-pass every trial, cut the epoch window and keep each trial's
    scatter matrix x x'.

    In concat mode the band outputs are joined along time; the scatter
    matrix of the joined signal is the sum of the per-band scatter
    matrices, so that sum is what is kept, without building the join.
    """
    filts = [design_bandpass(s)
             for s in cfg.filter_specs(ts.sampling_rate_hz)]
    onset, duration = cfg.epoch_window()
    scatter = np.zeros((len(ts), ts.n_channels, ts.n_channels))
    for start in range(0, len(ts), CHUNK_TRIALS):
        chunk = ts.subset(slice(start, start + CHUNK_TRIALS))
        for filt in filts:
            x = extract_epoch(apply_filter(filt, chunk), onset, duration).samples
            scatter[start:start + len(chunk)] += x @ np.swapaxes(x, 1, 2)
    return ScatterSet(scatter, len(filts) * x.shape[2], ts.labels, ts.ids,
                      ts.channel_names, ts.class_names)


Split = tuple[ScatterSet, ScatterSet]


def _load_split(cfg: PipelineConfig) -> Split:
    """Load and preprocess the manifest; split into (train, test)."""
    scatter = preprocess(cfg, load_trialset(cfg.manifest))
    return split_train_test(scatter, cfg.resolved_n_train(len(scatter)))


def _unique_node_names(picks) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for _, channel in picks:
        seen[channel] = seen.get(channel, 0) + 1
        names.append(channel if seen[channel] == 1
                     else f"{channel}({seen[channel]})")
    return names


def stage_fit_csp(cfg: PipelineConfig, split: Split | None = None) -> Path:
    """Fit the spatial filters on the training split; write the bank and
    the per-filter selected channels.

    `split` is the preprocessed (train, test) pair from `_load_split`;
    every stage that reads trials loads it itself when it is not given.
    """
    with _stage("fit-csp"):
        train_set, _ = split or _load_split(cfg)
        bank = fit_csp(train_set, cfg.n_filters)
        picks = select_channels(bank, train_set.channel_names)
        path = cfg.out_path("filter_bank")
        _write_json(path, {
            "filter_bank": bank.to_dict(),
            "selected_channels": [[idx, name] for idx, name in picks],
            "node_names": _unique_node_names(picks),
            "n_train": len(train_set),
        })
        _write_csv(cfg.out_path("selected_channels"),
                   ["filter_index", "channel_index", "channel_name"],
                   [(j, idx, name) for j, (idx, name) in enumerate(picks)])
        return path


def _load_bank(cfg: PipelineConfig) -> tuple[SpatialFilterBank, list[str]]:
    d = _read_json(cfg.out_path("filter_bank"))
    return SpatialFilterBank.from_dict(d["filter_bank"]), d["node_names"]


def stage_train(cfg: PipelineConfig, split: Split | None = None) -> Path:
    """Train the tangent-space model on the training split only."""
    with _stage("train"):
        train_set, _ = split or _load_split(cfg)
        bank, _ = _load_bank(cfg)
        model = train(train_set, bank, cfg.lam)
        path = cfg.out_path("model")
        _write_json(path, model.to_dict())
        return path


def stage_cv(cfg: PipelineConfig, split: Split | None = None) -> Path:
    """Stratified k-fold cross-validation on the training split; filters
    and reference are refit inside each fold."""
    with _stage("cv"):
        train_set, _ = split or _load_split(cfg)
        mean, std = cross_validate(train_set, cfg.k_folds, cfg.lam,
                                   cfg.n_filters, cfg.seed)
        path = cfg.out_path("cv_summary")
        _write_json(path, {
            "k_folds": cfg.k_folds,
            "mean_accuracy": mean,
            "std_accuracy": std,
            "seed": cfg.seed,
            "lambda": cfg.lam,
            "n_trials": len(train_set),
        })
        return path


def stage_evaluate(cfg: PipelineConfig, split: Split | None = None) -> Path:
    """Score the model on the held-out split; write aggregates plus the
    per-trial outcome table."""
    with _stage("evaluate"):
        _, test_set = split or _load_split(cfg)
        model = TslrModel.from_dict(_read_json(cfg.out_path("model")))
        report = evaluate(model, test_set)
        path = cfg.out_path("eval_report")
        _write_json(path, report.to_dict())
        _write_csv(cfg.out_path("eval_per_trial"),
                   ["trial_id", "true_label", "predicted_label", "posterior"],
                   report.per_trial_rows())
        return path


def _load_report(cfg: PipelineConfig) -> EvalReport:
    aggregates = _read_json(cfg.out_path("eval_report"))
    # columns trial_id, true_label, predicted_label, posterior; float
    # parsing reads back the repr'd posteriors exactly
    table = np.loadtxt(cfg.out_path("eval_per_trial"), delimiter=",",
                       skiprows=1, ndmin=2)
    ids, true, pred = table[:, :3].astype(int).T
    return EvalReport(aggregates["accuracy"], aggregates["precision"],
                      aggregates["recall"], ids, true, pred, table[:, 3])


def stage_select(cfg: PipelineConfig) -> Path:
    """Filter the evaluated trials down to confident, correct ones; both
    classes must keep at least one trial, or no graph can be built."""
    with _stage("select"):
        report = _load_report(cfg)
        ids = select_relevant(report, cfg.posterior_threshold)
        selected_labels = report.true_labels[np.isin(report.trial_ids, ids)]
        per_class = np.bincount(selected_labels, minlength=2).tolist()
        if min(per_class) == 0:
            raise ValueError(
                f"threshold {cfg.posterior_threshold} leaves a class with no "
                f"selected trial (selected per class: {per_class})")
        path = cfg.out_path("selected_trials")
        _write_json(path, {
            "threshold": cfg.posterior_threshold,
            "selected_ids": ids,
            "n_selected": len(ids),
            "n_evaluated": len(report.trial_ids),
        })
        return path


def stage_graph(cfg: PipelineConfig,
                split: Split | None = None) -> list[Path]:
    """Build per-class connectivity graphs from the held-out trials, once
    from all of them and once from the selected subset, and write the
    node-metric table."""
    with _stage("graph"):
        _, test_set = split or _load_split(cfg)
        bank, node_names = _load_bank(cfg)
        selected = _read_json(cfg.out_path("selected_trials"))["selected_ids"]

        covs = trial_covariances(bank, test_set)
        is_selected = np.isin(test_set.ids, selected)
        paths = []
        metric_rows = []
        for class_index in (0, 1):
            in_class = test_set.labels == class_index
            for condition, rows in (("all", in_class),
                                    ("selected", in_class & is_selected)):
                n_trials = int(np.count_nonzero(rows))
                if not n_trials:
                    raise ValueError(
                        f"no {condition} trials for class {class_index}; "
                        f"cannot build a graph")
                graph = build_graph(covs[rows], node_names)
                key = f"graph_{condition}_class{class_index}"
                path = cfg.out_path(key)
                _write_json(path, {
                    **graph.to_dict(),
                    "condition": condition,
                    "class_index": class_index,
                    "class_name": test_set.class_names[class_index],
                    "n_trials": n_trials,
                })
                paths.append(path)
                metrics = NodeMetrics.from_graph(graph)
                for metric, values in metrics.by_name().items():
                    for node, value in zip(graph.node_names, values):
                        metric_rows.append(
                            (node, metric, float(value),
                             f"{condition}:class{class_index}"))

        _write_csv(cfg.out_path("node_metrics"),
                   ["node", "metric", "value", "condition"], metric_rows)
        return paths


def stage_report(cfg: PipelineConfig) -> Path:
    """Compare class separability of the graph metrics before and after
    trial selection."""
    with _stage("report"):
        metrics = {}
        for condition in ("all", "selected"):
            per_class = []
            for class_index in (0, 1):
                d = _read_json(
                    cfg.out_path(f"graph_{condition}_class{class_index}"))
                graph = ConnectivityGraph.from_dict(d)
                per_class.append(NodeMetrics.from_graph(graph))
            metrics[condition] = separability(per_class[0], per_class[1])

        improved = {name: metrics["selected"][name] >= metrics["all"][name]
                    for name in metrics["all"]}
        path = cfg.out_path("separability")
        _write_json(path, {
            "all": metrics["all"],
            "selected": metrics["selected"],
            "improved": improved,
            "n_improved": sum(improved.values()),
        })
        return path


def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    """Run every stage in order; returns artifact name -> path."""
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    # fit-csp is the first stage to read trials, so load errors keep its name
    with _stage("fit-csp"):
        split = _load_split(cfg)
    stage_fit_csp(cfg, split)
    stage_train(cfg, split)
    stage_cv(cfg, split)
    stage_evaluate(cfg, split)
    stage_select(cfg)
    stage_graph(cfg, split)
    stage_report(cfg)
    return {name: cfg.out_path(name) for name in ARTIFACTS}
