"""Stacked trial containers and the on-disk dataset format.

A `TrialSet` holds the raw samples of some trials in one read-only
(n_trials, n_channels, n_samples) array, with label and id vectors. It
lives from load through the band-pass. After that every layer uses a trial
only through its channel scatter matrix S = x x', so preprocessing turns
the samples into a `ScatterSet`: one (n_trials, n_channels, n_channels)
stack plus the number of samples each matrix sums over. Both containers
are validated once, at construction; `subset`, the filter outputs and the
trials projected through a filter bank are derived from validated data and
skip the checks.

A dataset is a JSON manifest next to one raw binary file per trial.  The
manifest carries the shared geometry (channel count, samples per trial,
channel names, sampling rate, class names) and a trial table with integer
ids, labels in {0, 1}, and relative file paths.  Each binary file holds the
samples of one trial as little-endian float64, row-major, channels x samples.
`read_manifest` checks every manifest row without opening a trial file,
and `Manifest.subset` picks rows. `check_trial_files` checks the size of
each file of some rows without opening one, and `load_trialset` reads them
into one `TrialSet`. `read_chunks`, the one chunker, hands over some
rows' trials a chunk at a time; its docstring gives the chunk rule.
Datasets are written trial by trial, each file as its trial comes
(`save_trialset`, and `fixtures.generate_fixture` as it draws them).
"""

from __future__ import annotations

import copy
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError

MANIFEST_NAME = "manifest.json"
# the class names of a `TrialSet` that is given none, and of every fixture
CLASS_NAMES = ("class0", "class1")
# the bytes of raw samples in one chunk: see `read_chunks`
CHUNK_BYTES = 2 ** 21

_MANIFEST_KEYS = {"channels", "samples", "channel_names", "sampling_rate_hz",
                  "class_names", "trials"}


def _readonly(a: np.ndarray) -> np.ndarray:
    """`a`, a new array or view that no caller holds, made read-only."""
    a.setflags(write=False)
    return a


def _keep(obj, name: str, a, dtype=np.float64) -> np.ndarray:
    """Store a read-only C-contiguous copy of `a` as field `name` of a
    frozen container and return it, so the caller's array stays writable.
    Trial stacks are views instead (`_TrialStack`, `_derived`)."""
    kept = _readonly(np.array(a, dtype=dtype, order="C"))
    object.__setattr__(obj, name, kept)
    return kept


def _derived(obj, **fields):
    """A copy of a validated container with some fields replaced, without
    validating again: the new arrays derive from validated ones and are
    stored read-only, and new `channel_names` must name the new channels."""
    new = copy.copy(obj)
    new.__dict__.update({k: _readonly(v) if isinstance(v, np.ndarray) else v
                         for k, v in fields.items()})
    return new


def _names(names, what: str, count: int) -> tuple[str, ...]:
    if (not isinstance(names, (list, tuple))
            or not all(isinstance(s, str) for s in names)):
        raise SchemaError(f"{what} must be a list of strings, got {names!r}")
    if len(names) != count:
        raise SchemaError(f"{what} has {len(names)} entries, expected {count}")
    return tuple(names)


def _check_labels_and_ids(labels: np.ndarray, ids: np.ndarray) -> None:
    """Reject a label outside {0, 1} or an id that repeats, naming the
    first one."""
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise SchemaError(f"trial {ids[bad[0]]}: label must be 0 or 1, "
                          f"got {labels[bad[0]].item()!r}")
    uniq, counts = np.unique(ids, return_counts=True)
    if np.any(counts > 1):
        raise SchemaError(f"duplicate trial id {uniq[counts > 1][0]}")


def _check_rows_index(index) -> None:
    """Refuse an index to `subset` that is neither a slice nor 1-D: a 0-d
    index (an int, a numpy integer or a bool) would drop the trial axis,
    and a 2-D one would add an axis, or fail with no row named."""
    if not isinstance(index, slice) and np.ndim(index) != 1:
        raise ValueError(f"subset index {index!r} is not a slice, an index "
                         f"array or a boolean mask")


class _TrialStack:
    """What both trial containers share. `_stack` names the float64 array,
    stored read-only, whose first axis runs over trials and second over
    channels. Integer `labels` (0 or 1) and unique integer `ids` run along
    the same first axis, and `channel_names` name the channels."""

    _stack: str

    def _validate(self) -> None:
        """Check and store the shared fields, once."""
        # a view, so a caller's own array keeps its write flag
        a = np.ascontiguousarray(getattr(self, self._stack),
                                 dtype=np.float64).view()
        if a.ndim != 3 or not len(a):
            raise DataError(f"{self._stack} must be a non-empty 3-D stack "
                            f"(trials x channels x ...), got shape {a.shape}")
        n = len(a)
        labels, ids = np.asarray(self.labels), np.asarray(self.ids)
        if labels.shape != (n,) or ids.shape != (n,):
            raise SchemaError(
                f"need one label and one id per trial: {n} trials, labels "
                f"shape {labels.shape}, ids shape {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise SchemaError(
                f"trial ids must be integers, got dtype {ids.dtype}")
        _check_labels_and_ids(labels, ids)
        bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
        if bad.size:
            raise DataError(
                f"trial {ids[bad[0]]}: non-finite values in {self._stack}")
        for name, value in (
                (self._stack, _readonly(a)),
                ("labels", _readonly(labels.astype(np.int64))),
                ("ids", _readonly(ids.astype(np.int64))),
                ("channel_names",
                 _names(self.channel_names, "channel_names", a.shape[1]))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def subset(self, index):
        """The trials picked by a slice, index array or boolean mask, in
        that order. A slice gives views."""
        _check_rows_index(index)
        return _derived(self, labels=self.labels[index], ids=self.ids[index],
                        **{self._stack: getattr(self, self._stack)[index]})


@dataclass(frozen=True)
class TrialSet(_TrialStack):
    """Raw samples, shape (n_trials, n_channels, n_samples), of an ordered
    set of trials sampled at one rate, and the names of its two classes."""

    _stack = "samples"
    samples: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    channel_names: tuple[str, ...]
    sampling_rate_hz: float
    class_names: tuple[str, str] = CLASS_NAMES

    def __post_init__(self):
        if not self.sampling_rate_hz > 0:
            raise SchemaError(
                f"sampling_rate_hz must be positive, got {self.sampling_rate_hz}")
        self._validate()
        object.__setattr__(self, "class_names",
                           _names(self.class_names, "class_names", 2))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[2]


@dataclass(frozen=True)
class ScatterSet(_TrialStack):
    """Channel scatter matrices S = x x' of epoched trials, shape
    (n_trials, n_channels, n_channels). Each sums over n_samples samples,
    so a trial's sample covariance is S / (n_samples - 1). It keeps no
    class names: no stage reads them past the raw samples."""

    _stack = "matrices"
    matrices: np.ndarray
    n_samples: int
    labels: np.ndarray
    ids: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self):
        if self.n_samples < 1:
            raise DataError(f"n_samples must be >= 1, got {self.n_samples}")
        shape = np.shape(self.matrices)
        if len(shape) != 3 or shape[1] != shape[2]:
            raise DataError(f"matrices must be (trials x channels x "
                            f"channels), got shape {shape}")
        self._validate()

    @classmethod
    def from_trials(cls, ts: TrialSet) -> "ScatterSet":
        """Scatter matrices of the trials' samples as they are."""
        x = ts.samples
        return cls(x @ np.swapaxes(x, 1, 2), ts.n_samples, ts.labels, ts.ids,
                   ts.channel_names)


def _read_json(path) -> dict:
    """The JSON object a file holds; invalid JSON or UTF-8, or another JSON
    value, is a SchemaError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise SchemaError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(value, dict):
        raise SchemaError(f"{path} must hold a JSON object")
    return value


def _write_json(path: Path, obj: dict) -> None:
    """Write a JSON object with sorted keys and a trailing newline, so equal
    objects give equal bytes; creates the parent directory. A NaN or
    infinite number, which JSON cannot hold, is a ValueError, raised
    before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _integer(value, field: str) -> int:
    """An integral JSON number as int; anything else is a SchemaError
    naming the field (int() would silently truncate 1.7 to 1)."""
    integral = (isinstance(value, int)
                or (isinstance(value, float) and value.is_integer()))
    if isinstance(value, bool) or not integral:
        raise SchemaError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _number(value, field: str) -> float:
    """A JSON number (not a bool) as float; anything else is a SchemaError
    naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{field} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Manifest:
    """A checked manifest, or some of its rows (`subset`): the shared
    trial geometry and the trial table, as `ids`, `labels` and `files` in
    row order. Trial file paths are relative to `root`, the manifest's
    directory. Its `sampling_rate_hz` and `n_samples` are those of its
    trials, so a band or epoch window is checked against it before any
    sample is read."""

    root: Path
    n_channels: int
    n_samples: int
    channel_names: tuple[str, ...]
    sampling_rate_hz: float
    class_names: tuple[str, str]
    ids: np.ndarray
    labels: np.ndarray
    files: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def trial_bytes(self) -> int:
        """The size of every trial file: channels x samples float64 values."""
        return self.n_channels * self.n_samples * 8

    def subset(self, index) -> "Manifest":
        """The rows picked by a slice, index array or boolean mask, in
        that order, with the same geometry and root."""
        _check_rows_index(index)
        rows = np.arange(len(self))[index]
        return replace(
            self, ids=_readonly(self.ids[rows]),
            labels=_readonly(self.labels[rows]),
            files=tuple(self.files[j] for j in rows))


def read_manifest(manifest_path) -> Manifest:
    """Read a JSON manifest and check every row, without opening a trial
    file.

    Raises
    ------
    FileNotFoundError
        If the manifest is missing.
    SchemaError
        On missing or mistyped manifest fields, non-integer channels,
        samples, trial ids or labels, ids or labels beyond int64, a
        sampling rate that is not positive and finite, channel or class
        names that do not match their counts, labels outside {0, 1} or
        duplicate ids.
    """
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path)
    missing = _MANIFEST_KEYS - set(manifest)
    if missing:
        raise SchemaError(f"manifest missing fields: {sorted(missing)}")

    n_ch = _integer(manifest["channels"], "manifest field 'channels'")
    n_sa = _integer(manifest["samples"], "manifest field 'samples'")
    if n_ch < 1 or n_sa < 1:
        raise SchemaError(
            f"channels and samples must be >= 1, got {n_ch} and {n_sa}")
    rate = _number(manifest["sampling_rate_hz"],
                   "manifest field 'sampling_rate_hz'")
    if not 0 < rate < np.inf:
        raise SchemaError(f"sampling_rate_hz must be positive and finite, "
                          f"got {rate}")
    table = manifest["trials"]
    if not isinstance(table, list) or not table:
        raise SchemaError("manifest field 'trials' must be a non-empty list")

    ids, labels, files = _trial_columns(table)
    _check_labels_and_ids(labels, ids)

    return Manifest(
        manifest_path.parent, n_ch, n_sa,
        _names(manifest["channel_names"], "channel_names", n_ch), rate,
        _names(manifest["class_names"], "class_names", 2),
        _readonly(ids), _readonly(labels), files)


def _trial_columns(table: list) -> tuple[np.ndarray, np.ndarray, tuple]:
    """A trial table's ids, labels and files, each column converted whole.
    Rows are checked one by one (`_check_row`), naming the first fault,
    unless every id and label is an int within int64 and every file a str.
    """
    try:
        ids, labels, files = ([row[key] for row in table]
                              for key in ("id", "label", "file"))
        plain = ({*map(type, ids), *map(type, labels)} == {int}
                 and {*map(type, files)} == {str}
                 and -2 ** 63 <= min(min(ids), min(labels))
                 and max(max(ids), max(labels)) < 2 ** 63)
    except (TypeError, KeyError):
        plain = False
    if not plain:
        for i, row in enumerate(table):
            _check_row(i, row)
    # a table that is not plain yet passes holds integral floats
    return (np.array(ids, np.int64), np.array(labels, np.int64),
            tuple(files))


def _check_row(i: int, row) -> None:
    """Raise a SchemaError naming row i unless it is an object with an
    integral id and label within int64 and a string file."""
    if not isinstance(row, dict):
        raise SchemaError(f"trial row {i} must be an object, got {row!r}")
    for key in ("id", "label", "file"):
        if key not in row:
            raise SchemaError(f"trial row {i} missing field {key!r}")
    tid = _int64(row, i, "id", "trial field 'id'")
    _int64(row, i, "label", f"trial {tid}: field 'label'")
    if not isinstance(row["file"], str):
        raise SchemaError(f"trial {tid}: field 'file' must be a string")


def _int64(row: dict, i: int, key: str, field: str) -> int:
    value = _integer(row[key], field)
    if not -2 ** 63 <= value < 2 ** 63:
        raise SchemaError(f"trial row {i}: field {key!r} must fit in int64, "
                          f"got {row[key]}")
    return value


def _size_error(m: Manifest, tid, name: str, size: int) -> SchemaError:
    return SchemaError(
        f"trial {tid}: file {name} holds {size} bytes, expected "
        f"{m.n_channels}x{m.n_samples}={m.n_channels * m.n_samples} float64 "
        f"values, {m.trial_bytes} bytes")


def check_trial_files(m: Manifest) -> None:
    """Check that every trial file of a manifest's rows exists and has the
    size of channels x samples float64 values, in row order, by `os.stat`
    alone: no file is opened and no sample read.

    Raises
    ------
    FileNotFoundError
        If a trial file is missing.
    SchemaError
        If a trial file has another size.
    """
    for tid, name in zip(m.ids, m.files):
        size = os.stat(m.root / name).st_size
        if size != m.trial_bytes:
            raise _size_error(m, tid, name, size)


def load_trialset(m: Manifest) -> TrialSet:
    """Load the trials of a manifest's rows into one trial set.

    `m` is a manifest `read_manifest` read and checked, or the rows of one
    that `Manifest.subset` picked; only their trial files are read, so a
    missing, resized or non-finite trial file outside them is not reported.
    Trial file paths are resolved relative to the manifest's directory.

    Raises
    ------
    FileNotFoundError
        If a trial file of the rows is missing.
    SchemaError
        If a trial file of the rows has another size than the channels x
        samples geometry declared at the manifest top level.
    DataError
        If there are no rows or a trial holds non-finite values.
    """
    samples = np.empty((len(m), m.n_channels, m.n_samples), dtype="<f8")
    for i, (tid, name) in enumerate(zip(m.ids, m.files)):
        # read straight into the file's row of the stack, with no copy
        with open(m.root / name, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != m.trial_bytes or fh.readinto(samples[i]) != size:
                raise _size_error(m, tid, name, size)

    return TrialSet(samples, m.labels, m.ids, m.channel_names,
                    m.sampling_rate_hz, m.class_names)


def read_chunks(rows: Manifest) -> Iterator[TrialSet]:
    """A manifest's rows' trials, in row order, as many at a time as fit
    in `CHUNK_BYTES` of raw float64 samples, and at least one. Each chunk
    is cut with `subset`, then read, and validated, by `load_trialset` only
    when the one before it has been taken, so at most one chunk of raw
    samples is held at a time, however many trials there are and however
    wide. This is the chunk rule every reader of trial files follows.
    Errors are `load_trialset`'s, for the first faulty chunk."""
    step = max(1, CHUNK_BYTES // rows.trial_bytes)
    for start in range(0, len(rows), step):
        yield load_trialset(rows.subset(slice(start, start + step)))


def _write_trials(out_dir, trials: Iterable[tuple[int, int, np.ndarray]],
                  n_samples: int, channel_names, sampling_rate_hz: float,
                  class_names) -> Path:
    """Write a dataset trial by trial: each (id, label, channels x samples
    array) that `trials` yields goes to its own binary file as it comes,
    and the manifest, listing them in that order, follows the last.
    Returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "trials").mkdir(parents=True, exist_ok=True)

    rows = []
    for tid, label, x in trials:
        rel = f"trials/trial_{tid:05d}.bin"
        (out_dir / rel).write_bytes(np.ascontiguousarray(x, "<f8").tobytes())
        rows.append({"id": tid, "label": label, "file": rel})

    manifest_path = out_dir / MANIFEST_NAME
    _write_json(manifest_path, {
        "channels": len(channel_names),
        "samples": n_samples,
        "channel_names": list(channel_names),
        "sampling_rate_hz": sampling_rate_hz,
        "class_names": list(class_names),
        "trials": rows,
    })
    return manifest_path


def save_trialset(ts: TrialSet, out_dir) -> Path:
    """Write a trial set as manifest + one binary file per trial.

    Returns the manifest path. Loading it back reproduces the sample
    values bit for bit (raw float64 little-endian, row-major).
    """
    return _write_trials(out_dir, zip(ts.ids.tolist(), ts.labels.tolist(),
                                      ts.samples),
                         ts.n_samples, ts.channel_names, ts.sampling_rate_hz,
                         ts.class_names)


def default_n_train(n_total: int) -> int:
    """Training-split size when none is given: 70% of the trials, rounded."""
    return int(round(0.7 * n_total))


def split_rows(n_total: int, n_train: int) -> tuple[slice, slice]:
    """The (train, test) rows of an in-order split of n_total trials: the
    first n_train train, the rest test. Both sides must keep a trial."""
    if not 0 < n_train < n_total:
        raise ValueError(f"n_train must be in (0, {n_total}), got {n_train}")
    return slice(None, n_train), slice(n_train, None)


def split_train_test(ts, n_train: int):
    """A TrialSet's or ScatterSet's (train, test) sides, by `split_rows`."""
    train, test = split_rows(len(ts), n_train)
    return ts.subset(train), ts.subset(test)
