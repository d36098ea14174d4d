"""Synthetic dataset generation for tests, demos, and pipeline smoke runs.

Trials are spatially colored Gaussian noise. Each class gets its own SPD
channel covariance (a variance ramp and its mirror image), plus isotropic
sensor noise whose power is set by the SNR. A chosen fraction of trials is
"irrelevant": their class signal is replaced by a class-ambiguous background
with uniform cross-channel correlation, so a trained classifier sees them
with posteriors near one half.

The trial list splits into a calibration session (the first n_train trials)
and a validation session (the rest). Validation-session trials of each class
carry a small class-specific cross-channel coupling that calibration trials
lack. This mirrors session-to-session nonstationarity and is what gives the
validation covariances class-distinct off-diagonal structure after spatial
filtering; the filters exactly diagonalize the calibration class means, so
without it the projected mean covariances would be structureless.

One draw loop serves both outputs: `synthesize_trialset` stacks the trials
in memory, and `generate_fixture` writes each trial's file as soon as the
trial is drawn, so it holds one trial at a time. For a seed both give the
same trials, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (CLASS_NAMES, TrialSet, _write_json, _write_trials,
                   default_n_train, split_rows)


@dataclass(frozen=True)
class FixtureSpec:
    """Knobs of the synthetic dataset.

    snr is the linear ratio of class-signal power to sensor-noise power;
    math.inf disables sensor noise. session_shift scales the validation
    session's class-specific cross-channel coupling (0 disables it). The
    classes are always named `data.CLASS_NAMES`.
    """

    n_channels: int = 6
    n_per_class: int = 100
    snr: float = 3.0
    irrelevant_fraction: float = 0.25
    sampling_rate_hz: float = 200.0
    duration_s: float = 1.0
    n_train: int | None = None
    session_shift: float = 0.4

    def __post_init__(self):
        if self.n_channels < 2:
            raise ValueError("need at least 2 channels")
        if self.n_per_class < 2:
            raise ValueError("need at least 2 trials per class")
        if not 0.0 <= self.irrelevant_fraction < 1.0:
            raise ValueError("irrelevant_fraction must be in [0, 1)")
        if not self.snr > 0:
            raise ValueError(
                f"snr must be positive (math.inf allowed), got {self.snr}")
        if not 0.0 <= self.session_shift < 1.0:
            raise ValueError("session_shift must be in [0, 1)")
        for name in ("sampling_rate_hz", "duration_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        samples = self.duration_s * self.sampling_rate_hz
        if not (math.isfinite(samples) and self.n_samples >= 2):
            raise ValueError(
                f"duration_s * sampling_rate_hz must give a finite count "
                f"of at least 2 samples per trial, got {samples:g}")
        n_train = self.resolved_n_train()
        # synthesize_trialset deals n_train // 2 calibration trials to
        # class 0 and the rest to class 1; both sessions need both classes
        if n_train < 2 or n_train - n_train // 2 >= self.n_per_class:
            raise ValueError(
                f"n_per_class={self.n_per_class} with n_train={n_train} "
                f"leaves a session without both classes")

    @property
    def n_trials(self) -> int:
        return 2 * self.n_per_class

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sampling_rate_hz))

    def resolved_n_train(self) -> int:
        if self.n_train is None:
            return default_n_train(self.n_trials)
        split_rows(self.n_trials, self.n_train)
        return self.n_train

    def to_dict(self) -> dict:
        return {
            "n_channels": self.n_channels,
            "n_per_class": self.n_per_class,
            "snr": self.snr if math.isfinite(self.snr) else "inf",
            "irrelevant_fraction": self.irrelevant_fraction,
            "sampling_rate_hz": self.sampling_rate_hz,
            "duration_s": self.duration_s,
            "n_train": self.resolved_n_train(),
            "session_shift": self.session_shift,
            "class_names": list(CLASS_NAMES),
        }


# class-signal variance ramp endpoints and background correlation; the ratio
# of the endpoints sets how far apart the classes sit relative to per-trial
# covariance scatter, which in turn calibrates posterior confidence
_RAMP_HIGH = 2.5
_RAMP_LOW = 0.5
_BACKGROUND_RHO = 0.2


def _class_covariances(spec: FixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Variance ramp for class 0, mirrored ramp for class 1."""
    d0 = np.geomspace(_RAMP_HIGH, _RAMP_LOW, spec.n_channels)
    return np.diag(d0), np.diag(d0[::-1])


def _session_couplings(spec: FixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Validation-session coupling: class 0 links channels (0, 2), class 1
    the mirrored pair. Entries scale with the coupled variances so the
    shifted covariance stays positive definite for session_shift < 1."""
    a0, a1 = _class_covariances(spec)
    n = spec.n_channels
    rho = spec.session_shift

    def coupling(base: np.ndarray, i: int, j: int) -> np.ndarray:
        delta = np.zeros((n, n))
        delta[i, j] = delta[j, i] = rho * math.sqrt(base[i, i] * base[j, j])
        return delta

    pair0 = (0, min(2, n - 1))
    pair1 = (n - 1, max(n - 3, 0))
    return coupling(a0, *pair0), coupling(a1, *pair1)


def _background_covariance(spec: FixtureSpec) -> np.ndarray:
    """Class-ambiguous background.

    The diagonal is the element-wise geometric mean of the two class
    ramps, i.e. the log-space midpoint, so background trials sit on the
    decision boundary rather than off the class manifold; a mild uniform
    correlation is added on top so they still contaminate the class graphs
    with a shared off-diagonal structure. Symmetric under channel reversal.
    """
    a0, a1 = _class_covariances(spec)
    mid = np.sqrt(np.diag(a0) * np.diag(a1))
    n = spec.n_channels
    rho = _BACKGROUND_RHO
    scale = np.sqrt(np.outer(mid, mid))
    return np.diag(mid) * (1.0 - rho) + rho * scale


def _plan(spec: FixtureSpec, seed: int
          ) -> tuple[np.ndarray, dict, Iterator[np.ndarray]]:
    """The trials' labels, the ground-truth dict, and the trials' samples,
    drawn one at a time in id order as the iterator is advanced.

    The random stream is used in one order: the two label shuffles, then
    the irrelevant picks, then the draws.
    """
    rng = np.random.default_rng(seed)
    n_train = spec.resolved_n_train()
    n_total = spec.n_trials
    n_samples = spec.n_samples

    a0, a1 = _class_covariances(spec)
    shift0, shift1 = _session_couplings(spec)
    background = _background_covariance(spec)

    if math.isinf(spec.snr):
        noise_var = 0.0
    else:
        noise_var = float(np.trace(a0)) / (spec.n_channels * spec.snr)
    noise = noise_var * np.eye(spec.n_channels)

    # per-session label sequences with both classes present, then shuffled
    labels = np.empty(n_total, dtype=int)
    train_labels = np.array([0] * (n_train // 2) + [1] * (n_train - n_train // 2))
    test_n = n_total - n_train
    n_test_c0 = spec.n_per_class - n_train // 2
    test_labels = np.array([0] * n_test_c0 + [1] * (test_n - n_test_c0))
    rng.shuffle(train_labels)
    rng.shuffle(test_labels)
    labels[:n_train] = train_labels
    labels[n_train:] = test_labels

    # plant irrelevant trials proportionally in both sessions
    irrelevant = np.zeros(n_total, dtype=bool)
    for start, stop in ((0, n_train), (n_train, n_total)):
        size = stop - start
        n_irr = int(round(spec.irrelevant_fraction * size))
        picks = rng.choice(size, size=n_irr, replace=False)
        irrelevant[start + picks] = True

    truth = {
        "seed": seed,
        "n_train": n_train,
        "irrelevant_ids": [int(i) for i in np.flatnonzero(irrelevant)],
        "spec": spec.to_dict(),
    }

    def draws() -> Iterator[np.ndarray]:
        chol_cache: dict[bytes, np.ndarray] = {}
        for tid in range(n_total):
            label = int(labels[tid])
            if irrelevant[tid]:
                cov = background + noise
            else:
                cov = (a0 if label == 0 else a1) + noise
                if tid >= n_train:
                    cov = cov + (shift0 if label == 0 else shift1)
            key = cov.tobytes()
            if key not in chol_cache:
                chol_cache[key] = np.linalg.cholesky(cov)
            yield chol_cache[key] @ rng.standard_normal(
                (spec.n_channels, n_samples))

    return labels, truth, draws()


def _channel_names(spec: FixtureSpec) -> tuple[str, ...]:
    return tuple(f"ch{i + 1:02d}" for i in range(spec.n_channels))


def synthesize_trialset(spec: FixtureSpec, seed: int) -> tuple[TrialSet, dict]:
    """Generate a trial set in memory.

    Returns the set and a ground-truth dict with the planted irrelevant
    trial ids and the session split.
    """
    labels, truth, draws = _plan(spec, seed)
    samples = np.empty((spec.n_trials, spec.n_channels, spec.n_samples))
    for tid, x in enumerate(draws):
        samples[tid] = x
    ts = TrialSet(samples, labels, np.arange(spec.n_trials),
                  _channel_names(spec), spec.sampling_rate_hz)
    return ts, truth


def generate_fixture(spec: FixtureSpec, seed: int, out_dir) -> tuple[Path, Path]:
    """Write a synthetic dataset to disk.

    Produces a manifest with one binary file per trial plus a
    fixture_truth.json sidecar recording the planted irrelevant trial ids
    and the intended train/test split. Each trial file is written as soon
    as its trial is drawn, so one trial's samples are held at a time; the
    files have the bytes `save_trialset(synthesize_trialset(spec, seed))`
    writes.
    """
    out_dir = Path(out_dir)
    labels, truth, draws = _plan(spec, seed)
    manifest_path = _write_trials(
        out_dir, zip(range(spec.n_trials), labels.tolist(), draws),
        spec.n_samples, _channel_names(spec), spec.sampling_rate_hz,
        CLASS_NAMES)
    truth_path = out_dir / "fixture_truth.json"
    _write_json(truth_path, truth)
    return manifest_path, truth_path
