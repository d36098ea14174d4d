"""Trial containers and on-disk dataset format.

A dataset is a JSON manifest next to one raw binary file per trial.  The
manifest carries the shared geometry (channel count, samples per trial,
channel names, sampling rate, class names) and a trial table with integer
ids, labels in {0, 1}, and relative file paths.  Each binary file holds the
samples of one trial as little-endian float64, row-major, channels x samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError

MANIFEST_NAME = "manifest.json"

_MANIFEST_KEYS = {"channels", "samples", "channel_names", "sampling_rate_hz",
                  "class_names", "trials"}


def _as_float64(samples) -> np.ndarray:
    arr = np.ascontiguousarray(samples, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trial:
    """One trial of multichannel samples.

    Parameters
    ----------
    samples : ndarray, shape (n_channels, n_samples)
        Float64 sample matrix. Stored read-only.
    label : int
        Class label, 0 or 1.
    trial_id : int
        Identifier unique within its set.
    """

    samples: np.ndarray
    label: int
    trial_id: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_float64(self.samples))
        if self.samples.ndim != 2:
            raise DataError(
                f"trial {self.trial_id}: samples must be 2-D "
                f"(channels x samples), got shape {self.samples.shape}")
        if self.label not in (0, 1):
            raise SchemaError(
                f"trial {self.trial_id}: label must be 0 or 1, got {self.label!r}")
        if not np.isfinite(self.samples).all():
            raise DataError(f"trial {self.trial_id}: non-finite sample values")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class TrialSet:
    """An ordered collection of trials with shared geometry."""

    trials: tuple[Trial, ...]
    channel_names: tuple[str, ...]
    sampling_rate_hz: float
    class_names: tuple[str, str] = ("class0", "class1")

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.sampling_rate_hz <= 0:
            raise SchemaError(
                f"sampling_rate_hz must be positive, got {self.sampling_rate_hz}")
        if len(self.class_names) != 2:
            raise SchemaError("exactly two class names are required")
        if not self.trials:
            raise DataError("trial set is empty")
        n_ch = len(self.channel_names)
        n_sa = self.trials[0].n_samples
        seen_ids = set()
        for t in self.trials:
            if t.n_channels != n_ch:
                raise SchemaError(
                    f"trial {t.trial_id}: expected {n_ch} channels, "
                    f"got {t.n_channels}")
            if t.n_samples != n_sa:
                raise SchemaError(
                    f"trial {t.trial_id}: expected {n_sa} samples, "
                    f"got {t.n_samples}")
            if t.trial_id in seen_ids:
                raise SchemaError(f"duplicate trial id {t.trial_id}")
            seen_ids.add(t.trial_id)

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trials], dtype=int)

    def of_class(self, label: int) -> list[Trial]:
        return [t for t in self.trials if t.label == label]

    def replace_trials(self, trials) -> "TrialSet":
        """Same metadata, new trial list (used after filtering/epoching)."""
        return TrialSet(tuple(trials), self.channel_names,
                        self.sampling_rate_hz, self.class_names)


def _integer(value, field: str) -> int:
    """An integral JSON number as int; anything else is a SchemaError
    naming the field (int() would silently truncate 1.7 to 1)."""
    integral = (isinstance(value, int)
                or (isinstance(value, float) and value.is_integer()))
    if isinstance(value, bool) or not integral:
        raise SchemaError(f"{field} must be an integer, got {value!r}")
    return int(value)


def load_trialset(manifest_path) -> TrialSet:
    """Load a trial set from a JSON manifest.

    Parameters
    ----------
    manifest_path : str or Path
        Path to the manifest. Trial file paths are resolved relative to it.

    Returns
    -------
    TrialSet

    Raises
    ------
    FileNotFoundError
        If the manifest or a trial file is missing.
    SchemaError
        On missing manifest fields, non-integer channels, samples, trial
        ids or labels, or a trial file whose size does not match the
        channels x samples geometry declared at the manifest top level.
    DataError
        If any trial holds non-finite values.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"manifest is not valid JSON: {e}") from e

    missing = _MANIFEST_KEYS - set(manifest)
    if missing:
        raise SchemaError(f"manifest missing fields: {sorted(missing)}")

    n_ch = _integer(manifest["channels"], "manifest field 'channels'")
    n_sa = _integer(manifest["samples"], "manifest field 'samples'")
    names = [str(c) for c in manifest["channel_names"]]
    if len(names) != n_ch:
        raise SchemaError(
            f"channel_names has {len(names)} entries, manifest says "
            f"channels={n_ch}")

    base = manifest_path.parent
    trials = []
    for row in manifest["trials"]:
        for key in ("id", "label", "file"):
            if key not in row:
                raise SchemaError(f"trial row missing field {key!r}: {row}")
        tid = _integer(row["id"], "trial field 'id'")
        label = _integer(row["label"], f"trial {tid}: field 'label'")
        path = base / row["file"]
        raw = np.fromfile(path, dtype="<f8")
        if raw.size != n_ch * n_sa:
            raise SchemaError(
                f"trial {tid}: file {row['file']} holds {raw.size} values, "
                f"expected {n_ch}x{n_sa}={n_ch * n_sa}")
        trials.append(Trial(raw.reshape(n_ch, n_sa), label, tid))

    return TrialSet(tuple(trials), tuple(names),
                    float(manifest["sampling_rate_hz"]),
                    tuple(str(c) for c in manifest["class_names"]))


def save_trialset(ts: TrialSet, out_dir) -> Path:
    """Write a trial set as manifest + one binary file per trial.

    Returns the manifest path. Loading it back reproduces the sample
    values bit for bit (raw float64 little-endian, row-major).
    """
    out_dir = Path(out_dir)
    trial_dir = out_dir / "trials"
    trial_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for t in ts.trials:
        rel = f"trials/trial_{t.trial_id:05d}.bin"
        data = np.ascontiguousarray(t.samples, dtype="<f8")
        (out_dir / rel).write_bytes(data.tobytes())
        rows.append({"id": t.trial_id, "label": t.label, "file": rel})

    manifest = {
        "channels": ts.n_channels,
        "samples": ts.trials[0].n_samples,
        "channel_names": list(ts.channel_names),
        "sampling_rate_hz": ts.sampling_rate_hz,
        "class_names": list(ts.class_names),
        "trials": rows,
    }
    manifest_path = out_dir / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def split_train_test(ts: TrialSet, n_train: int) -> tuple[TrialSet, TrialSet]:
    """Split in manifest order: first n_train trials train, rest test."""
    if not 0 < n_train < len(ts):
        raise ValueError(
            f"n_train must be in (0, {len(ts)}), got {n_train}")
    train = ts.replace_trials(ts.trials[:n_train])
    test = ts.replace_trials(ts.trials[n_train:])
    return train, test
