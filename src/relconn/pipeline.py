"""End-to-end pipeline: preprocess, fit, validate, select, graph, report.

Every stage writes flat, stage-prefixed artifacts into the configured
output directory and reads its inputs back from the artifacts of earlier
stages, so deleting downstream files and rerunning a single stage
reproduces them byte for byte. All JSON is written with sorted keys and
no timestamps; identical configuration and data give identical bytes.

Preprocessing band-passes the raw samples, cuts the epoch window and
reduces every trial to its channel scatter matrix S = x x'. Trials reach
the stages from one side of the train/test split, that side's manifest
rows only, and are read from file a chunk at a time (`data.read_chunks`
gives the rule): each chunk is reduced before the next is read, so a stage
holds one chunk of raw samples, never a side.
`fit-csp`, `train` and `cv` work on the training side's `ScatterSet`;
`evaluate` reads the test rows chunk by chunk, projects each chunk
through the fitted filter bank and preprocesses the n_filters projected
signals of each trial instead of its channels. A stage run on its own
reads its side; `run_pipeline` reads the manifest
once, preprocesses the training side once, and hands every stage that
`ScatterSet` and the test side's manifest rows. Before any sample is
read, the band and epoch are checked against the manifest's sampling rate
and trial length, and the test side's trial files by size; a training
trial file's size is checked as its chunk is read. Band-passing is
causal and per trial, so a trial's scatter matrix comes out bit for bit
the same either way.

`evaluate` keeps the test trials' projected covariances
(`40_test_covariances.npy`), so `select`, `graph` and `report` read
artifacts only and rerun at a new threshold without the recording.
`graph` run on its own still checks the whole manifest and the split.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import (TslrModel, EvalReport, _check_k_folds,
                       _check_threshold, cross_validate, evaluate,
                       select_relevant, train)
from .csp import (SpatialFilterBank, _check_n_filters, _shrunk_covariances,
                  fit_csp, project_trials, select_channels)
from .data import (Manifest, ScatterSet, TrialSet, _derived, _integer,
                   _names, _number, _read_json, _write_json,
                   check_trial_files, default_n_train, read_chunks,
                   read_manifest, split_rows)
from .errors import SchemaError
from .filters import (FilterSpec, _check_window, apply_filter,
                      design_bandpass, epoch_bounds, extract_epoch)
from .graphs import METRICS, build_graph, node_metrics, separability

DATASET_KINDS = ("errp", "motor_imagery")
BAND_MODES = ("single", "concat")

# dataset-kind defaults: (FilterSpec design, bands), (onset_s, duration_s)
_KIND_FILTERS = {
    "errp": ({"family": "butterworth", "order": 5}, [(0.1, 10.0)]),
    "motor_imagery": ({"family": "elliptic", "order": 6},
                      [(8.0, 12.0), (16.0, 24.0)]),
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
    "test_covariances": "40_test_covariances.npy",
    "selected_trials": "50_selected_trials.json",
    "graph_all_class0": "60_graph_all_class0.json",
    "graph_all_class1": "60_graph_all_class1.json",
    "graph_selected_class0": "61_graph_selected_class0.json",
    "graph_selected_class1": "61_graph_selected_class1.json",
    "node_metrics": "70_node_metrics.csv",
    "separability": "80_separability.json",
}

# the columns of the per-trial table as `_load_report` parses them: ids and
# labels as the int64s written (through float64, ids above 2**53 would
# round), posteriors as float64, which reads their repr back exactly
_PER_TRIAL_COLUMNS = np.dtype([
    ("trial_id", np.int64), ("true_label", np.int64),
    ("predicted_label", np.int64), ("posterior", np.float64)])


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
    unknown = set(value) - set(_FILTER_KEYS)
    if unknown:
        raise SchemaError(f"{field} has unknown keys: {sorted(unknown)}")
    return {key: _FILTER_KEYS[key](v, f"config key 'filter.{key}'")
            for key, v in value.items()}


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
    filter_override (FilterSpec fields but the sampling rate) and
    epoch_override replace the dataset-kind defaults; single band mode
    keeps one band whether or not the filter is overridden. Every value is
    checked here, but the band's Nyquist limit and the epoch's fit in a
    trial, which need the recording.
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
        with _prefix_errors("config key 'k_folds'"):
            _check_k_folds(self.k_folds)
        # an unbounded channel count checks all but the recording's limit
        with _prefix_errors("config key 'n_filters'"):
            _check_n_filters(self.n_filters, math.inf)
        with _prefix_errors("config key 'posterior_threshold'"):
            _check_threshold(self.posterior_threshold)
        # with no penalty the solver never converges on separable folds
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be > 0 and finite, got {self.lam}")
        if self.n_train is not None and self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epoch_override is not None:
            object.__setattr__(self, "epoch_override",
                               tuple(float(v) for v in self.epoch_override))
        # an unbounded rate checks every design value but the Nyquist limit
        with _prefix_errors("config key 'filter'"):
            self.filter_specs(math.inf)
        with _prefix_errors("config key 'epoch'"):
            _check_window(*self.epoch_window())

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
        design, bands = _KIND_FILTERS[self.dataset_kind]
        design = {**design, **(self.filter_override or {})}
        if "band_hz" in design:
            bands = [design.pop("band_hz")]
        if self.band_mode == "single":
            bands = bands[:1]
        return [FilterSpec(band_hz=band, sampling_rate_hz=sampling_rate_hz,
                           **design) for band in bands]

    def epoch_window(self) -> tuple[float, float]:
        if self.epoch_override is not None:
            return self.epoch_override
        return _KIND_EPOCHS[self.dataset_kind]

    def resolved_n_train(self, n_total: int) -> int:
        if self.n_train is not None:
            return self.n_train
        return default_n_train(n_total)

    def out_path(self, artifact: str) -> Path:
        return Path(self.out_dir) / ARTIFACTS[artifact]


@contextmanager
def _prefix_errors(label: str):
    """Prefix errors from package code with what failed: a stage or a
    config key. A missing or unreadable file keeps its OSError type."""
    try:
        yield
    except (ValueError, ArithmeticError) as e:
        e.args = (f"{label}: {e}",) + e.args[1:]
        raise
    except OSError as e:
        # str() of an OSError is built from errno and strerror, not args
        raise type(e)(f"{label}: {e}") from e


@contextmanager
def _artifact(cfg: PipelineConfig, name: str):
    """The JSON object an earlier stage wrote as artifact `name`, to read
    fields from: a missing field, or a value of the wrong type or length,
    or one that fails a numeric check (a matrix that is not positive
    definite), is a SchemaError naming the file."""
    path = cfg.out_path(name)
    d = _read_json(path)
    try:
        yield d
    except KeyError as e:
        raise SchemaError(f"{path} has no field {e}") from e
    except (TypeError, ValueError, ArithmeticError) as e:
        raise SchemaError(f"{path}: {e}") from e


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def preprocess(cfg: PipelineConfig, trials: TrialSet | Manifest,
               bank: SpatialFilterBank | None = None) -> ScatterSet:
    """Band-pass every trial, cut the epoch window and keep each trial's
    scatter matrix x x'.

    `trials` is a `TrialSet` in memory, or a manifest's rows, whose trial
    files are then read, and checked by size, as they are needed. Either
    way `data.read_chunks` hands the trials over a chunk at a time, and
    each chunk is reduced to its rows of the scatter stack before the next
    is taken, so besides the stack at most one chunk of raw samples and
    its filter outputs is held. With no trials the stack is empty, and
    `ScatterSet` rejects it (DataError).
    With a `bank`, each chunk's raw trials are first projected through it
    (`csp.project_trials`), and the stack holds the n_filters x n_filters
    scatter matrices of the projected signals.

    The filter is causal, so samples after the epoch's end cannot change
    the epoch and are not filtered. In concat mode the band outputs are
    joined along time; the scatter matrix of the joined signal is the sum
    of the per-band scatter matrices, so that sum is what is kept, without
    building the join. The band and the epoch are checked against the
    trials' sampling rate and length before any chunk is taken.
    """
    filts = [design_bandpass(s)
             for s in cfg.filter_specs(trials.sampling_rate_hz)]
    onset, duration = cfg.epoch_window()
    start, stop = epoch_bounds(trials, onset, duration)
    n = trials.n_channels if bank is None else bank.n_filters
    scatter = np.zeros((len(trials), n, n))
    # with no chunk, ScatterSet rejects the empty stack before it checks
    # these names against it
    names = trials.channel_names
    done = 0
    for chunk in read_chunks(trials):
        if bank is not None:
            chunk = project_trials(bank, chunk)
        names = chunk.channel_names
        head = _derived(chunk, samples=chunk.samples[..., :stop])
        rows = scatter[done:done + len(chunk)]
        done += len(chunk)
        for filt in filts:
            x = extract_epoch(apply_filter(filt, head), onset, duration).samples
            rows += x @ np.swapaxes(x, 1, 2)
        # let this chunk's samples and filter output go before the next
        # chunk is read
        del chunk, head, x
    return ScatterSet(scatter, len(filts) * (stop - start), trials.labels,
                      trials.ids, names)


# the training side's scatter matrices, and the test side's manifest rows
Split = tuple[ScatterSet, Manifest]
_TRAIN, _TEST = 0, 1


def _side_rows(cfg: PipelineConfig, manifest: Manifest, side: int) -> Manifest:
    """The manifest rows of one side of the (train, test) split."""
    return manifest.subset(
        split_rows(len(manifest), cfg.resolved_n_train(len(manifest)))[side])


def _side(cfg: PipelineConfig, split: Split | None, side: int,
          manifest: Manifest | None = None) -> ScatterSet | Manifest:
    """One side of the (train, test) split: taken from `split` when one is
    given, else from that side's manifest rows only, with `manifest` as
    read already or read from the config's path.

    The training side is preprocessed from its trial files
    (`preprocess`). The test side stays as its manifest rows, which
    evaluate preprocesses the same way. Its file sizes
    (`data.check_trial_files`), band and epoch are checked here, before any
    sample is read, so that `run` fails before any stage writes and
    evaluate before it reads the model.
    """
    if split is not None:
        return split[side]
    if manifest is None:
        manifest = read_manifest(cfg.manifest)
    rows = _side_rows(cfg, manifest, side)
    if side == _TRAIN:
        return preprocess(cfg, rows)
    check_trial_files(rows)
    cfg.filter_specs(rows.sampling_rate_hz)
    epoch_bounds(rows, *cfg.epoch_window())
    return rows


def _unique_node_names(picks) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for _, channel in picks:
        seen[channel] = seen.get(channel, 0) + 1
        names.append(channel if seen[channel] == 1
                     else f"{channel}({seen[channel]})")
    return names


def stage_fit_csp(cfg: PipelineConfig,
                  split: Split | None = None) -> list[Path]:
    """Fit spatial filters on the training split.

    Writes the filter bank and the per-filter selected channels.
    """
    with _prefix_errors("stage fit-csp"):
        train_set = _side(cfg, split, _TRAIN)
        bank = fit_csp(train_set, cfg.n_filters)
        picks = select_channels(bank, train_set.channel_names)
        paths = [cfg.out_path("filter_bank"), cfg.out_path("selected_channels")]
        _write_json(paths[0], {
            "filter_bank": bank.to_dict(),
            "selected_channels": [[idx, name] for idx, name in picks],
            "node_names": _unique_node_names(picks),
            "n_train": len(train_set),
        })
        _write_csv(paths[1],
                   ["filter_index", "channel_index", "channel_name"],
                   [(j, idx, name) for j, (idx, name) in enumerate(picks)])
        return paths


def _load_bank(cfg: PipelineConfig
               ) -> tuple[SpatialFilterBank, tuple[str, ...]]:
    """The filter bank and one node name per filter."""
    with _artifact(cfg, "filter_bank") as d:
        bank = SpatialFilterBank.from_dict(d["filter_bank"])
        return bank, _names(d["node_names"], "node_names", bank.n_filters)


def stage_train(cfg: PipelineConfig,
                split: Split | None = None) -> list[Path]:
    """Train the tangent-space model on the training split."""
    with _prefix_errors("stage train"):
        train_set = _side(cfg, split, _TRAIN)
        bank, _ = _load_bank(cfg)
        model = train(train_set, bank, cfg.lam)
        path = cfg.out_path("model")
        _write_json(path, model.to_dict())
        return [path]


def stage_cv(cfg: PipelineConfig, split: Split | None = None) -> list[Path]:
    """Cross-validate on the training split.

    Stratified k folds; filters, reference and weights are refit inside
    each fold, from the class sums and the scatter stack the folds share
    (`classify.cross_validate`).
    """
    with _prefix_errors("stage cv"):
        train_set = _side(cfg, split, _TRAIN)
        mean, std = cross_validate(train_set, cfg.k_folds, cfg.n_filters,
                                   cfg.seed, cfg.lam)
        path = cfg.out_path("cv_summary")
        _write_json(path, {
            "k_folds": cfg.k_folds,
            "mean_accuracy": mean,
            "std_accuracy": std,
            "seed": cfg.seed,
            "lambda": cfg.lam,
            "n_trials": len(train_set),
        })
        return [path]


def stage_evaluate(cfg: PipelineConfig,
                   split: Split | None = None) -> list[Path]:
    """Score the model on the held-out split.

    Writes the aggregates, the per-trial outcome table and the test
    trials' projected covariances in the table's row order.
    """
    with _prefix_errors("stage evaluate"):
        test_rows = _side(cfg, split, _TEST)
        with _artifact(cfg, "model") as d:
            model = TslrModel.from_dict(d)
        # the raw trials are projected through the bank before they are
        # band-passed, so n_filters signals per trial are filtered, not
        # every channel; the covariances then match `trial_covariances`
        # of the preprocessed trials only to rounding
        projected = preprocess(cfg, test_rows, model.filter_bank)
        covs = _shrunk_covariances(projected, projected.matrices)
        report = evaluate(model, projected, covs)
        paths = [cfg.out_path("eval_report"), cfg.out_path("eval_per_trial"),
                 cfg.out_path("test_covariances")]
        _write_json(paths[0], report.to_dict())
        _write_csv(paths[1], list(_PER_TRIAL_COLUMNS.names),
                   report.per_trial_rows())
        np.save(paths[2], covs, allow_pickle=False)
        return paths


def _load_report(cfg: PipelineConfig) -> EvalReport:
    with _artifact(cfg, "eval_report") as d:
        aggregates = [_number(d[key], key)
                      for key in ("accuracy", "precision", "recall")]
    path = cfg.out_path("eval_per_trial")
    try:
        table = np.loadtxt(path, _PER_TRIAL_COLUMNS, delimiter=",",
                           skiprows=1, ndmin=1)
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from e
    return EvalReport(*aggregates,
                      *(table[name] for name in _PER_TRIAL_COLUMNS.names))


def stage_select(cfg: PipelineConfig,
                 split: Split | None = None) -> list[Path]:
    """Pick the confident, correctly classified held-out trials.

    Both classes must keep at least one trial, or no graph can be built.
    """
    with _prefix_errors("stage select"):
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
        return [path]


def _load_test_covariances(cfg: PipelineConfig, n_trials: int,
                           n_filters: int) -> np.ndarray:
    """The test trials' projected covariances that evaluate kept, checked
    against the per-trial table's length and the filter bank's size. A
    stale artifact is a SchemaError naming it."""
    path = cfg.out_path("test_covariances")
    covs = np.load(path, allow_pickle=False)
    if covs.ndim != 3 or len(covs) != n_trials:
        raise SchemaError(
            f"{path} holds an array of shape {covs.shape}, but "
            f"{cfg.out_path('eval_per_trial')} lists {n_trials} trials; "
            f"rerun evaluate")
    if covs.shape[1:] != (n_filters, n_filters):
        raise SchemaError(
            f"{path} holds {covs.shape[1]}x{covs.shape[2]} matrices, but the "
            f"filter bank has {n_filters} filters; rerun evaluate")
    return covs


def stage_graph(cfg: PipelineConfig,
                split: Split | None = None) -> list[Path]:
    """Build connectivity graphs and node metrics.

    One graph per class from all held-out trials and one from the selected
    subset, then the node-metric table. The graphs average the projected
    covariances that evaluate kept; no trial file is opened. The test
    trials' ids, labels and class names come from the split when one is
    given, else from the manifest, which is then checked whole.
    """
    with _prefix_errors("stage graph"):
        # run on its own, graph checks the manifest and the split before
        # it reads any artifact
        test = (split[_TEST] if split is not None
                else _side_rows(cfg, read_manifest(cfg.manifest), _TEST))
        bank, node_names = _load_bank(cfg)
        report = _load_report(cfg)
        if not (np.array_equal(report.trial_ids, test.ids)
                and np.array_equal(report.true_labels, test.labels)):
            raise SchemaError(f"{cfg.out_path('eval_per_trial')} does not "
                              f"list the manifest's test trials; rerun "
                              f"evaluate")
        covs = _load_test_covariances(cfg, len(report.trial_ids),
                                      bank.n_filters)
        with _artifact(cfg, "selected_trials") as d:
            selected = [_integer(v, "each entry of selected_ids")
                        for v in d["selected_ids"]]

        is_selected = np.isin(report.trial_ids, selected)
        paths = []
        metric_rows = []
        for class_index in (0, 1):
            in_class = report.true_labels == class_index
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
                    "class_name": test.class_names[class_index],
                    "n_trials": n_trials,
                })
                paths.append(path)
                metric_rows += [
                    (node, metric, value, f"{condition}:class{class_index}")
                    for metric, values in node_metrics(graph).items()
                    for node, value in zip(graph.node_names, values.tolist())]

        paths.append(cfg.out_path("node_metrics"))
        _write_csv(paths[-1], ["node", "metric", "value", "condition"],
                   metric_rows)
        return paths


def _load_node_metrics(cfg: PipelineConfig
                       ) -> dict[str, dict[str, np.ndarray]]:
    """Graph ("all:class0", ...) -> metric name -> per-node values, read
    back from the node-metric table; float parsing reads the repr'd values
    back exactly. Every graph's and every metric's rows must list the same
    nodes in the same order."""
    path = cfg.out_path("node_metrics")
    values: dict[tuple[str, str], list[tuple[str, float]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        try:
            for node, metric, value, graph in rows:
                values.setdefault((graph, metric), []).append(
                    (node, float(value)))
        except ValueError as e:
            raise SchemaError(f"{path}, line {rows.line_num}: {e}") from e
    tables, nodes = {}, None
    for graph in (f"{condition}:class{class_index}" for class_index in (0, 1)
                  for condition in ("all", "selected")):
        missing = [m for m in METRICS if (graph, m) not in values]
        if missing:
            raise SchemaError(f"{path} has no {graph} rows for {missing}")
        for metric in METRICS:
            names, column = zip(*values[graph, metric])
            nodes = nodes or names
            if names != nodes:
                raise SchemaError(
                    f"{path} lists nodes {list(names)} for {graph} "
                    f"{metric}, but {list(nodes)} in the rows before; "
                    f"rerun graph")
            tables.setdefault(graph, {})[metric] = np.array(column)
    return tables


def stage_report(cfg: PipelineConfig,
                 split: Split | None = None) -> list[Path]:
    """Compare graph-metric separability before and after selection."""
    with _prefix_errors("stage report"):
        tables = _load_node_metrics(cfg)
        metrics = {c: separability(tables[f"{c}:class0"],
                                   tables[f"{c}:class1"])
                   for c in ("all", "selected")}

        improved = {name: metrics["selected"][name] >= metrics["all"][name]
                    for name in metrics["all"]}
        path = cfg.out_path("separability")
        _write_json(path, {
            "all": metrics["all"],
            "selected": metrics["selected"],
            "improved": improved,
            "n_improved": sum(improved.values()),
        })
        return [path]


def stages() -> dict[str, Callable[..., list[Path]]]:
    """Stage name -> stage function, in run order.

    Every stage takes the config and, optionally, the (train, test)
    split: the training trials' `ScatterSet` and the test side's manifest
    rows, which evaluate reads. When no split is given, a stage that reads
    trials reads only its side of it (`_side`): fit-csp, train and cv the
    training rows, evaluate the test rows.
    Select, graph and report read artifacts only; graph also checks the
    test trials' ids and labels against the split's, or, run on its own,
    the manifest and the split. Each returns the paths it wrote. The map is
    built on every call, so it holds whatever function each name is bound
    to at that time.
    """
    return {"fit-csp": stage_fit_csp, "train": stage_train, "cv": stage_cv,
            "evaluate": stage_evaluate, "select": stage_select,
            "graph": stage_graph, "report": stage_report}


def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    """Run every stage in order.

    The manifest is read once. The training side is preprocessed from it
    once and the test side's rows checked, by the code a stage run on its
    own uses, before any stage runs; both are shared by all stages.
    Returns artifact name -> path, in `ARTIFACTS` order.
    """
    # each side's errors name the first stage that reads that side, as
    # when the stage runs on its own
    with _prefix_errors("stage fit-csp"):
        manifest = read_manifest(cfg.manifest)
        train_set = _side(cfg, None, _TRAIN, manifest)
    with _prefix_errors("stage evaluate"):
        split = (train_set, _side(cfg, None, _TEST, manifest))
    for stage in stages().values():
        stage(cfg, split)
    return {name: cfg.out_path(name) for name in ARTIFACTS}
