"""Common spatial pattern filtering for two-class trials.

Filters are the generalized eigenvectors of the trace-normalized class-mean
covariances: solving mean1 @ w = lam * (mean1 + mean2) @ w yields eigenvalues
in [0, 1], where a value near 1 marks a direction whose variance is high for
class 0 relative to class 1 and a value near 0 the opposite. The filters with
the most extreme eigenvalues from both ends are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .data import Trial, TrialSet
from .errors import NumericError
from .geometry import SpdMatrix, shrink_covariance


@dataclass(frozen=True)
class SpatialFilterBank:
    """Fitted spatial filters.

    Parameters
    ----------
    w : ndarray, shape (n_filters, n_channels)
        Filter matrix; projected signals are w @ x.
    patterns : ndarray, shape (n_channels, n_filters)
        Spatial patterns, the matching columns of the inverse of the full
        filter matrix. Column j describes how source j appears across
        channels.
    eigenvalues : ndarray, shape (n_filters,)
        Generalized eigenvalues of the kept filters, in [0, 1], sorted
        descending. The value for class 0 equals one minus the value the
        same filter has for class 1.
    """

    w: np.ndarray
    patterns: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        patterns = np.ascontiguousarray(self.patterns, dtype=np.float64)
        eigenvalues = np.ascontiguousarray(self.eigenvalues, dtype=np.float64)
        for arr in (w, patterns, eigenvalues):
            arr.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        nf, ch = w.shape
        if nf % 2 != 0:
            raise ValueError(f"n_filters must be even, got {nf}")
        if nf > ch:
            raise ValueError(f"n_filters={nf} exceeds channel count {ch}")
        if patterns.shape != (ch, nf):
            raise ValueError(
                f"patterns must have shape ({ch}, {nf}), got {patterns.shape}")
        if eigenvalues.shape != (nf,):
            raise ValueError("one eigenvalue per kept filter is required")
        if np.any(eigenvalues < -1e-10) or np.any(eigenvalues > 1.0 + 1e-10):
            raise ValueError("eigenvalues must lie in [0, 1]")
        if np.any(np.diff(eigenvalues) > 1e-12):
            raise ValueError("eigenvalues must be sorted descending")

    @property
    def n_filters(self) -> int:
        return self.w.shape[0]

    @property
    def n_channels(self) -> int:
        return self.w.shape[1]

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "patterns": self.patterns.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpatialFilterBank":
        return cls(np.array(d["w"], dtype=np.float64),
                   np.array(d["patterns"], dtype=np.float64),
                   np.array(d["eigenvalues"], dtype=np.float64))


def _normalized_trial_covariance(samples: np.ndarray) -> np.ndarray:
    cov = samples @ samples.T
    tr = float(np.trace(cov))
    if tr <= 0.0:
        raise NumericError("trial has zero power; cannot normalize covariance")
    return cov / tr


def class_mean_covariances(train: TrialSet) -> tuple[SpdMatrix, SpdMatrix]:
    """Trace-normalized class-mean covariances of a training set.

    Per-trial covariances are normalized by their trace and averaged within
    each class, so each class mean has unit trace. Shrinkage toward the
    scaled identity keeps the means usable when trials are rank deficient.
    """
    means = []
    for label in (0, 1):
        trials = train.of_class(label)
        if len(trials) < 2:
            raise ValueError(
                f"class {label} has {len(trials)} trials; need at least 2")
        covs = [_normalized_trial_covariance(t.samples) for t in trials]
        mean = shrink_covariance(np.mean(covs, axis=0))
        means.append(SpdMatrix(mean))
    return means[0], means[1]


def fit_csp(train: TrialSet, n_filters: int = 6) -> SpatialFilterBank:
    """Fit spatial filters on a two-class training set.

    Parameters
    ----------
    train : TrialSet
        Must contain at least two trials of each class.
    n_filters : int
        Even number of filters to keep; half from each eigenvalue extreme.

    Returns
    -------
    SpatialFilterBank
        The kept filters simultaneously diagonalize both class means, and
        for each filter the two projected variances sum to 1.
    """
    if n_filters % 2 != 0 or n_filters < 2:
        raise ValueError(f"n_filters must be a positive even number, got {n_filters}")
    if n_filters > train.n_channels:
        raise ValueError(
            f"n_filters={n_filters} exceeds channel count {train.n_channels}")

    mean0, mean1 = class_mean_covariances(train)
    composite = mean0.values + mean1.values
    try:
        lam, vecs = eigh(mean0.values, composite)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"generalized eigendecomposition failed: {e}") from e
    lam = np.clip(lam, 0.0, 1.0)

    # descending eigenvalue, ties to the lower original index
    order = np.lexsort((np.arange(lam.size), -lam))
    half = n_filters // 2
    keep = np.concatenate([order[:half], order[-half:]])

    w_full = vecs.T                      # rows are filters, W B W' = I
    patterns_full = composite @ vecs     # inverse transpose of w_full
    return SpatialFilterBank(w_full[keep], patterns_full[:, keep], lam[keep])


def _check_channels(bank: SpatialFilterBank, trial: Trial) -> None:
    if trial.n_channels != bank.n_channels:
        raise ValueError(
            f"trial {trial.trial_id} has {trial.n_channels} channels, "
            f"bank expects {bank.n_channels}")


def project(bank: SpatialFilterBank, trial: Trial) -> Trial:
    """Apply the filter bank: projected samples are w @ x."""
    _check_channels(bank, trial)
    return Trial(bank.w @ trial.samples, trial.label, trial.trial_id)


def _shrunk_covariances(z: np.ndarray, trial_ids) -> np.ndarray:
    """Covariance, shrinkage and SPD check over a (k, n, T) stack of
    projected trials; errors name the offending trial id."""
    t = z.shape[-1]
    if t < 2:
        raise ValueError(f"trial {trial_ids[0]}: need at least 2 samples")
    cov = z @ np.swapaxes(z, -1, -2) / (t - 1)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    bad = np.flatnonzero(np.trace(cov, axis1=-2, axis2=-1) <= 0.0)
    if bad.size:
        raise NumericError(
            f"trial {trial_ids[bad[0]]}: zero covariance after projection")
    cov = shrink_covariance(cov)
    w_min = np.linalg.eigvalsh(cov)[:, 0]
    bad = np.flatnonzero(w_min <= 0.0)
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"trial {trial_ids[i]}: covariance is not positive definite "
            f"(smallest eigenvalue {w_min[i]:.6e})")
    return cov


def trial_covariance(trial: Trial) -> SpdMatrix:
    """Sample covariance of a projected trial with shrinkage applied.

    Computes z @ z' / (T - 1) over the T samples, symmetrizes, and blends
    with the scaled identity so the result stays positive definite for
    rank-deficient trials.
    """
    return SpdMatrix(
        _shrunk_covariances(trial.samples[None], [trial.trial_id])[0])


def trial_covariances(bank: SpatialFilterBank, trials) -> np.ndarray:
    """Project trials through the bank and take their shrunk covariances.

    The stacked form of `project` followed by `trial_covariance`: each
    trial is projected on its own, so only the small (k, n_filters, T)
    stack is built, never a copy of the full multichannel trial set.
    Returns a (k, n_filters, n_filters) stack of SPD matrices.
    """
    trials = list(trials)
    for trial in trials:
        _check_channels(bank, trial)
    z = np.stack([bank.w @ trial.samples for trial in trials])
    return _shrunk_covariances(z, [trial.trial_id for trial in trials])


def select_channels(bank: SpatialFilterBank,
                    channel_names) -> list[tuple[int, str]]:
    """Pick one channel per kept filter from its spatial pattern.

    For each pattern column the channel with the largest absolute
    coefficient wins; ties go to the lowest channel index. Duplicates are
    allowed (two filters may elect the same channel).
    """
    channel_names = list(channel_names)
    if len(channel_names) != bank.n_channels:
        raise ValueError(
            f"got {len(channel_names)} channel names for "
            f"{bank.n_channels} channels")
    picks = []
    for j in range(bank.n_filters):
        idx = int(np.argmax(np.abs(bank.patterns[:, j])))
        picks.append((idx, channel_names[idx]))
    return picks
