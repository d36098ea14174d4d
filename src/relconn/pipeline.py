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

Every stage takes a `Plan`: the config resolved against the manifest,
each part once. Resolving it checks, before any sample is read, every
config value that the manifest settles, naming the key, and keeps the
filter specs, the epoch in samples and the folds. `fit-csp` and `train`
work on the plan's training `ScatterSet`, and `train` writes the model
and its cross-validated accuracy from one pass; `evaluate` projects each
chunk of the plan's test rows through the fitted filter bank and
preprocesses the n_filters projected signals of each trial instead of its
channels. `run_pipeline` is the six stages in order on one plan, so the
training side is preprocessed once; a stage run alone makes its own plan
and resolves only what it reads. Band-passing is causal and per trial, so
a trial's scatter matrix comes out bit for bit the same either way.

`evaluate` keeps the test trials' projected covariances
(`40_test_covariances.npy`), so `select`, `graph` and `report` read
artifacts only and rerun at a new threshold without the recording;
`graph` also checks the artifacts against the plan's test rows, and
`select` and `report` leave the plan unresolved. `fit-csp` records the
plan's resolution in `10_filter_bank.json` (`Plan.record`), and a stage
that reads the bank refuses it, naming the config key, if that record or
the bank's filter count differs from its own plan's. The bank has that one
home: `20_model.json` and `40_eval_report.json` name it by the sha256 of
its bytes, and `evaluate` and `graph` refuse a model trained, or test
covariances scored, through another bank, naming the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .classify import (TslrModel, EvalReport, _check_k_folds,
                       _check_threshold, cross_validate, evaluate,
                       select_relevant, stratified_folds, train)
from .csp import (SpatialFilterBank, _check_n_filters, _shrunk_covariances,
                  fit_csp, project_trials, select_channels)
from .data import (Manifest, ScatterSet, _derived, _integer, _names,
                   _number, _read_json, _write_json,
                   check_trial_files, default_n_train, read_chunks,
                   read_manifest, split_rows)
from .errors import SchemaError
from .filters import (FilterSpec, _check_window, apply_filter,
                      design_bandpass, epoch_bounds, extract_epoch)
from .graphs import METRICS, build_graph, node_metrics, separability

BAND_MODES = ("single", "concat")

# dataset kind -> its FilterSpec design, its bands (single mode keeps the
# first) and its (onset_s, duration_s) epoch
DATASET_KINDS = {
    "errp": ({"family": "butterworth", "order": 5}, ((0.1, 10.0),),
             (0.0, 1.0)),
    "motor_imagery": ({"family": "elliptic", "order": 6},
                      ((8.0, 12.0), (16.0, 24.0)), (0.0, 3.5)),
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
    checked here but against the manifest, which `Plan` does: n_train
    against the trial count and the test side's classes, the band against
    Nyquist, the epoch against the trial length, n_filters against the
    channel count and k_folds against the training side's class counts.
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
                f"dataset_kind must be one of {tuple(DATASET_KINDS)}, "
                f"got {self.dataset_kind!r}")
        if self.band_mode not in BAND_MODES:
            raise ValueError(
                f"band_mode must be one of {BAND_MODES}, got {self.band_mode!r}")
        if (self.band_mode == "concat"
                and len(DATASET_KINDS[self.dataset_kind][1]) < 2):
            raise ValueError(f"band_mode 'concat' joins several bands, but "
                             f"dataset_kind {self.dataset_kind!r} has one")
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
        design, bands, _ = DATASET_KINDS[self.dataset_kind]
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
        return DATASET_KINDS[self.dataset_kind][2]

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
def _artifact(cfg: PipelineConfig, name: str, raw: bytes | None = None):
    """The JSON object an earlier stage wrote as artifact `name` (or its
    bytes `raw`), to read fields from: a missing field, or a value of the
    wrong type or length, or one that fails a numeric check (a matrix that
    is not positive definite), is a SchemaError naming the file."""
    path = cfg.out_path(name)
    d = _read_json(path, raw)
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


def preprocess(plan: Plan, rows: Manifest,
               bank: SpatialFilterBank | None = None) -> ScatterSet:
    """Band-pass the trials of some rows of the plan's manifest with the
    plan's filters, cut its epoch and keep each trial's scatter matrix x x'.

    `data.read_chunks` reads the rows' trial files, and checks them by
    size, a chunk at a time, and each chunk is reduced to its rows of the
    scatter stack before the next is read, so besides the stack at most one
    chunk of raw samples and its filter outputs is held. With no rows the
    stack is empty, and `ScatterSet` rejects it (DataError).
    With a `bank`, each chunk's raw trials are first projected through it
    (`csp.project_trials`), and the stack holds the n_filters x n_filters
    scatter matrices of the projected signals.

    The filter is causal, so samples after the epoch's end cannot change
    the epoch and are not filtered. In concat mode the band outputs are
    joined along time; the scatter matrix of the joined signal is the sum
    of the per-band scatter matrices, so that sum is what is kept, without
    building the join. The plan checks the band and resolves the epoch
    against the manifest, in samples, before any chunk is read.
    """
    filts = [design_bandpass(s) for s in plan.specs]
    start, stop = plan.epoch
    n = rows.n_channels if bank is None else bank.n_filters
    scatter = np.zeros((len(rows), n, n))
    # with no chunk, ScatterSet rejects the empty stack before it checks
    # these names against it
    names = rows.channel_names
    done = 0
    for chunk in read_chunks(rows):
        if bank is not None:
            chunk = project_trials(bank, chunk)
        names = chunk.channel_names
        head = _derived(chunk, samples=chunk.samples[..., :stop])
        out = scatter[done:done + len(chunk)]
        done += len(chunk)
        for filt in filts:
            x = extract_epoch(apply_filter(filt, head), start, stop).samples
            out += x @ np.swapaxes(x, 1, 2)
        # let this chunk's samples and filter output go before the next
        # chunk is read
        del chunk, head, x
    return ScatterSet(scatter, len(filts) * (stop - start), rows.labels,
                      rows.ids, names)


class Plan:
    """A config resolved against its manifest, each field on first use
    and once; making a plan reads nothing. Stages read the manifest, the
    filter specs, the epoch in samples and the folds only through it."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg

    @cached_property
    def manifest(self) -> Manifest:
        return read_manifest(self.cfg.manifest)

    @cached_property
    def specs(self) -> list[FilterSpec]:
        """The config's filter specs at the manifest's sampling rate."""
        with _prefix_errors("config key 'filter'"):
            return self.cfg.filter_specs(self.manifest.sampling_rate_hz)

    @cached_property
    def epoch(self) -> tuple[int, int]:
        """The config's epoch as samples [start, stop) of the manifest's
        trials."""
        with _prefix_errors("config key 'epoch'"):
            return epoch_bounds(self.manifest, *self.cfg.epoch_window())

    @cached_property
    def sides(self) -> tuple[Manifest, Manifest]:
        """The manifest's (train, test) rows, cut once every config value
        that the manifest settles is checked against it, naming the key."""
        cfg, m = self.cfg, self.manifest
        # split_rows names n_train itself; a config's n_train is >= 1
        train, test = split_rows(len(m), cfg.n_train or default_n_train(len(m)))
        # resolving them checks the band and the epoch, naming their keys
        self.specs, self.epoch
        with _prefix_errors("config key 'n_filters'"):
            _check_n_filters(cfg.n_filters, m.n_channels)
        # the folds can be dealt only if each class has k_folds trials
        with _prefix_errors("config key 'k_folds'"):
            self._folds = stratified_folds(m.labels[train], cfg.k_folds,
                                           cfg.seed)
        # evaluate scores both classes, and graph builds a graph of each
        counts = np.bincount(m.labels[test], minlength=2).tolist()
        if min(counts) == 0:
            raise ValueError(f"config key 'n_train': the test side's class "
                             f"counts are {counts}; each class needs a "
                             f"test trial")
        return m.subset(train), m.subset(test)

    @property
    def folds(self) -> list[np.ndarray]:
        """The training side's folds, as row indices, dealt by `sides`."""
        self.sides
        return self._folds

    def record(self) -> dict:
        """What fit-csp records in `10_filter_bank.json` and every stage
        that reads the bank compares with its own plan: n_train, the sha256
        of the training rows of the trial table (ids, labels and files, in
        row order), each filter spec's fields and the epoch in samples, as
        JSON values. Only the training rows shape the bank, so only they
        are digested; two recordings whose training rows list the same ids,
        labels and files are not told apart, whatever their samples."""
        train = self.sides[0]
        rows = [train.ids.tolist(), train.labels.tolist(), train.files]
        return {"n_train": len(train),
                "train_trials_sha256": hashlib.sha256(
                    json.dumps(rows).encode()).hexdigest(),
                "filter": [{**asdict(s), "band_hz": list(s.band_hz)}
                           for s in self.specs],
                "epoch": list(self.epoch)}

    @cached_property
    def train_set(self) -> ScatterSet:
        """The training rows, preprocessed from their trial files."""
        return preprocess(self, self.sides[0])

    @cached_property
    def test_files(self) -> Manifest:
        """The test rows, once each trial file's size is checked."""
        check_trial_files(self.sides[1])
        return self.sides[1]


def _unique_node_names(picks) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for _, channel in picks:
        seen[channel] = seen.get(channel, 0) + 1
        names.append(channel if seen[channel] == 1
                     else f"{channel}({seen[channel]})")
    return names


def stage_fit_csp(plan: Plan) -> list[Path]:
    """Fit spatial filters on the training split.

    Writes the filter bank and the per-filter selected channels.
    """
    with _prefix_errors("stage fit-csp"):
        cfg, train_set = plan.cfg, plan.train_set
        bank = fit_csp(train_set, cfg.n_filters)
        picks = select_channels(bank, train_set.channel_names)
        paths = [cfg.out_path("filter_bank"), cfg.out_path("selected_channels")]
        _write_json(paths[0], {
            "filter_bank": bank.to_dict(),
            "selected_channels": [[idx, name] for idx, name in picks],
            "node_names": _unique_node_names(picks),
            **plan.record(),
        })
        _write_csv(paths[1],
                   ["filter_index", "channel_index", "channel_name"],
                   [(j, idx, name) for j, (idx, name) in enumerate(picks)])
        return paths


def _load_bank(plan: Plan) -> tuple[SpatialFilterBank, tuple[str, ...], str]:
    """The filter bank, one node name per filter and the sha256 of the
    file's bytes, read once. A bank whose record (`Plan.record`) or filter
    count differs from the plan's is refused, naming the key."""
    given = {**plan.record(), "n_filters": plan.cfg.n_filters}
    raw = plan.cfg.out_path("filter_bank").read_bytes()
    with _artifact(plan.cfg, "filter_bank", raw) as d:
        bank = SpatialFilterBank.from_dict(d["filter_bank"])
        fitted = {**d, "n_filters": bank.n_filters}
        for key, value in given.items():
            if fitted[key] != value:
                raise ValueError(
                    f"records {key} {json.dumps(fitted[key], sort_keys=True)}"
                    f", but the config gives "
                    f"{json.dumps(value, sort_keys=True)}; rerun fit-csp")
        return (bank, _names(d["node_names"], "node_names", bank.n_filters),
                hashlib.sha256(raw).hexdigest())


def stage_train(plan: Plan) -> list[Path]:
    """Train and cross-validate the tangent-space model on the training split.

    The model names its bank by the sha256 of `10_filter_bank.json`'s
    bytes. Cross-validation runs at the model's lambda on the plan's
    stratified k folds; filters, reference and weights are refit inside
    each fold, from the class sums and the scatter stack the folds share
    (`classify.cross_validate`). Both are computed before either is
    written, so a failing fold leaves the old pair in place.
    """
    with _prefix_errors("stage train"):
        bank, _, digest = _load_bank(plan)
        cfg, train_set = plan.cfg, plan.train_set
        model = train(train_set, bank, cfg.lam)
        mean, std = cross_validate(train_set, plan.folds, cfg.n_filters,
                                   cfg.lam)
        paths = [cfg.out_path("model"), cfg.out_path("cv_summary")]
        _write_json(paths[0], {**model.to_dict(),
                               "filter_bank_sha256": digest})
        _write_json(paths[1], {
            "k_folds": cfg.k_folds,
            "mean_accuracy": mean,
            "std_accuracy": std,
            "seed": cfg.seed,
            "lambda": cfg.lam,
            "n_filters": cfg.n_filters,
            "n_trials": len(train_set),
        })
        return paths


def stage_evaluate(plan: Plan) -> list[Path]:
    """Score the model on the held-out split.

    Writes the aggregates and the sha256 of the bank the trials were
    projected through, the per-trial outcome table and the test trials'
    projected covariances in the table's row order. A model trained on
    another bank (digest or filter count) than `10_filter_bank.json` is
    refused before any test sample is read.
    """
    with _prefix_errors("stage evaluate"):
        cfg, test_rows = plan.cfg, plan.test_files
        # a bank of another resolution is refused first, naming the key
        bank, _, digest = _load_bank(plan)
        with _artifact(cfg, "model") as d:
            model = TslrModel.from_dict(d)
            trained = (d["filter_bank_sha256"], model.reference.dim)
            if trained != (digest, bank.n_filters):
                raise ValueError(
                    f"was trained on a bank with sha256 {trained[0]} and "
                    f"{trained[1]} filters, but {cfg.out_path('filter_bank')}"
                    f" has sha256 {digest} and {bank.n_filters} filters; "
                    f"rerun train")
        # the raw trials are projected through the bank before they are
        # band-passed, so n_filters signals per trial are filtered, not
        # every channel; the covariances then match `trial_covariances`
        # of the preprocessed trials only to rounding
        projected = preprocess(plan, test_rows, bank)
        covs = _shrunk_covariances(projected, projected.matrices)
        report = evaluate(model, covs, projected.labels, projected.ids)
        paths = [cfg.out_path("eval_report"), cfg.out_path("eval_per_trial"),
                 cfg.out_path("test_covariances")]
        _write_json(paths[0], {**report.to_dict(),
                               "filter_bank_sha256": digest})
        _write_csv(paths[1], list(_PER_TRIAL_COLUMNS.names),
                   report.per_trial_rows())
        np.save(paths[2], covs, allow_pickle=False)
        return paths


def _load_report(cfg: PipelineConfig) -> tuple[EvalReport, str]:
    """The evaluation report and the sha256 of the filter bank its trials
    were scored through: aggregates and digest from its JSON, per-trial
    columns from its table, which must hold one row per trial the JSON
    counts, each with labels 0 or 1 and a posterior in [0, 1]."""
    with _artifact(cfg, "eval_report") as d:
        aggregates = [_number(d[key], key)
                      for key in ("accuracy", "precision", "recall")]
        if not all(map(math.isfinite, aggregates)):
            raise ValueError(f"aggregates must be finite, got {aggregates}")
        n_trials = _integer(d["n_trials"], "n_trials")
        digest = _text(d["filter_bank_sha256"], "filter_bank_sha256")
    path = cfg.out_path("eval_per_trial")
    try:
        # a table without rows is refused below, not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, _PER_TRIAL_COLUMNS, delimiter=",",
                               skiprows=1, ndmin=1)
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from e
    if len(table) != n_trials:
        raise SchemaError(
            f"{path} lists {len(table)} trials, but "
            f"{cfg.out_path('eval_report')} has n_trials {n_trials}; "
            f"rerun evaluate")
    p = table["posterior"]
    for name, allowed, ok in (
            ("true_label", "0 or 1", np.isin(table["true_label"], (0, 1))),
            ("predicted_label", "0 or 1",
             np.isin(table["predicted_label"], (0, 1))),
            # NaN fails both comparisons
            ("posterior", "in [0, 1]", (p >= 0) & (p <= 1))):
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise SchemaError(
                f"{path}: trial {table['trial_id'][bad[0]]}: {name} must be "
                f"{allowed}, got {table[name][bad[0]]}; rerun evaluate")
    report = EvalReport(*aggregates,
                        *(table[name] for name in _PER_TRIAL_COLUMNS.names))
    return report, digest


def stage_select(plan: Plan) -> list[Path]:
    """Pick the confident, correctly classified held-out trials.

    Both classes must keep at least one trial, or no graph can be built.
    """
    with _prefix_errors("stage select"):
        cfg = plan.cfg
        report, _ = _load_report(cfg)
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
    stale or unreadable artifact is a SchemaError naming it."""
    path = cfg.out_path("test_covariances")
    try:
        covs = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as e:
        raise SchemaError(f"{path}: {e}") from e
    if covs.dtype != np.float64:
        raise SchemaError(f"{path} holds {covs.dtype} values, not float64; "
                          f"rerun evaluate")
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


def stage_graph(plan: Plan) -> list[Path]:
    """Build connectivity graphs and node metrics.

    One graph per class from all held-out trials and one from the selected
    subset, then the node-metric table. The graphs average the projected
    covariances that evaluate kept; no trial file is opened. The test
    trials' ids, labels and class names come from the plan's test rows,
    which the per-trial table must list and the selected ids come from.
    Covariances scored through another bank than `10_filter_bank.json`
    (the sha256 evaluate records) are refused before they are read.
    """
    with _prefix_errors("stage graph"):
        cfg, (_, test) = plan.cfg, plan.sides
        bank, node_names, digest = _load_bank(plan)
        report, scored = _load_report(cfg)
        if scored != digest:
            raise SchemaError(
                f"{cfg.out_path('eval_report')} was scored through a bank "
                f"with sha256 {scored}, but {cfg.out_path('filter_bank')} "
                f"has sha256 {digest}; rerun evaluate")
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
            test_ids, seen = set(report.trial_ids.tolist()), set()
            for tid in selected:
                if tid not in test_ids:
                    raise ValueError(f"selected_ids lists {tid}, which is "
                                     f"not a test trial id; rerun select")
                if tid in seen:
                    raise ValueError(f"selected_ids lists {tid} twice; "
                                     f"rerun select")
                seen.add(tid)

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
    back exactly, and each must be finite. Every graph's and every
    metric's rows must list the same nodes in the same order."""
    path = cfg.out_path("node_metrics")
    values: dict[tuple[str, str], list[tuple[str, float]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        try:
            next(rows, None)
            for node, metric, value, graph in rows:
                x = float(value)
                if not math.isfinite(x):
                    raise ValueError(f"value must be finite, got {value}")
                values.setdefault((graph, metric), []).append((node, x))
        except UnicodeDecodeError as e:
            # the text is decoded a block at a time, not a line
            raise SchemaError(f"{path}: {e}") from e
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


def stage_report(plan: Plan) -> list[Path]:
    """Compare graph-metric separability before and after selection."""
    with _prefix_errors("stage report"):
        cfg = plan.cfg
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


def stages() -> dict[str, Callable[[Plan], list[Path]]]:
    """Stage name -> stage function, in run order.

    Every stage takes a `Plan` and reads from it only what it needs:
    fit-csp and train the training side's scatter matrices, evaluate the
    test rows. Select, graph and report read artifacts only; graph also
    checks the test trials' ids and labels against the plan's test rows.
    Train writes the model and its cross-validated accuracy. Each
    returns the paths it wrote. The map is built on every call, so it
    holds whatever function each name is bound to at that time.
    """
    return {"fit-csp": stage_fit_csp, "train": stage_train,
            "evaluate": stage_evaluate, "select": stage_select,
            "graph": stage_graph, "report": stage_report}


def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    """Run every stage in order, on one plan.

    First the plan's checks and the test files' sizes, which read no
    sample, so a run refused up front writes nothing; then the stages, as
    they run alone. Returns artifact name -> path, in `ARTIFACTS` order.
    """
    plan = Plan(cfg)
    # errors name the first stage that checks each, as on its own
    with _prefix_errors("stage fit-csp"):
        plan.sides
    with _prefix_errors("stage evaluate"):
        plan.test_files
    for stage in stages().values():
        stage(plan)
    return {name: cfg.out_path(name) for name in ARTIFACTS}
