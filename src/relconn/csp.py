"""Common spatial pattern filtering for two-class trials.

Filters are the generalized eigenvectors of the trace-normalized class-mean
covariances: solving mean1 @ w = lam * (mean1 + mean2) @ w yields eigenvalues
in [0, 1], where a value near 1 marks a direction whose variance is high for
class 0 relative to class 1 and a value near 0 the opposite. The filters with
the most extreme eigenvalues from both ends are kept.

The class means come from per-class sums of the trace-normalized scatter
matrices, which add a class's trials one at a time in row order
(`_class_sums`). `fold_banks` fits one bank per cross-validation fold from
one pass over the folds, which partition the trials. A bank projects
scatter matrices (`trial_covariances`) or raw trials, before they are
band-passed (`project_trials`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import ScatterSet, TrialSet, _derived, _keep
from .errors import NumericError
from .geometry import SpdMatrix, _first_indefinite, shrink_covariance


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
        w = _keep(self, "w", self.w)
        patterns = _keep(self, "patterns", self.patterns)
        eigenvalues = _keep(self, "eigenvalues", self.eigenvalues)
        nf, ch = w.shape
        _check_n_filters(nf, ch)
        if patterns.shape != (ch, nf):
            raise ValueError(
                f"patterns must have shape ({ch}, {nf}), got {patterns.shape}")
        if eigenvalues.shape != (nf,):
            raise ValueError("one eigenvalue per kept filter is required")
        if not np.isfinite(w).all() or not np.isfinite(patterns).all():
            raise ValueError("w and patterns must be finite")
        # NaN fails both comparisons, so it is refused too
        if not np.all((eigenvalues >= -1e-10) & (eigenvalues <= 1.0 + 1e-10)):
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
        return cls(d["w"], d["patterns"], d["eigenvalues"])


def _traces(train: ScatterSet) -> np.ndarray:
    """Each trial's trace. A trial with zero power is a NumericError naming
    the first such trial in row order."""
    tr = np.trace(train.matrices, axis1=1, axis2=2)
    bad = np.flatnonzero(tr <= 0.0)
    if bad.size:
        raise NumericError(f"trial {train.ids[bad[0]]}: zero power; cannot "
                           f"normalize its covariance")
    return tr


def _class_sums(train: ScatterSet, tr: np.ndarray,
                rows: np.ndarray) -> tuple[list[np.ndarray], list[int]]:
    """Per class 0 and 1: the sum of the trace-normalized scatter matrices
    of the given rows, and how many there are.

    Each class's rows are added one at a time in the given order, starting
    from the class's first row, or from zeros when it has none. These are
    the additions, in the same order, that `np.sum` makes along axis 0 of
    their gathered, normalized stack ((S / tr)[h] is S[h] / tr[h] element
    by element), so the bits are the same, and no stack is gathered.
    """
    labels = train.labels[rows]
    sums, counts = [], []
    for c in (0, 1):
        picked = rows[labels == c]
        total = (train.matrices[picked[0]] / tr[picked[0]] if picked.size
                 else np.zeros(train.matrices.shape[1:]))
        for h in picked[1:]:
            total += train.matrices[h] / tr[h]
        sums.append(total)
        counts.append(len(picked))
    return sums, counts


def _class_means(sums, counts) -> tuple[SpdMatrix, SpdMatrix]:
    """Shrunk class means from `_class_sums`; each class needs 2 trials."""
    means = []
    for label, (total, count) in enumerate(zip(sums, counts)):
        if count < 2:
            raise ValueError(
                f"class {label} has {count} trials; need at least 2")
        means.append(SpdMatrix(shrink_covariance(total / count)))
    return means[0], means[1]


def class_mean_covariances(train: ScatterSet) -> tuple[SpdMatrix, SpdMatrix]:
    """Trace-normalized class-mean covariances of a training set.

    Each trial's scatter matrix is divided by its trace and the results are
    averaged within each class, so each class mean has unit trace.
    Shrinkage toward the scaled identity keeps the means usable when trials
    are rank deficient.
    """
    return _class_means(
        *_class_sums(train, _traces(train), np.arange(len(train))))


def _check_n_filters(n_filters: int, n_channels: int) -> None:
    if n_filters % 2 != 0 or n_filters < 2:
        raise ValueError(f"n_filters must be a positive even number, got {n_filters}")
    if n_filters > n_channels:
        raise ValueError(
            f"n_filters={n_filters} exceeds channel count {n_channels}")


def _bank(mean0: SpdMatrix, mean1: SpdMatrix,
          n_filters: int) -> SpatialFilterBank:
    """The CSP filters of two class means: the generalized eigenvectors of
    mean0 against mean0 + mean1 with the n_filters most extreme
    eigenvalues, half from each end."""
    from scipy.linalg import eigh

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


def fit_csp(train: ScatterSet, n_filters: int) -> SpatialFilterBank:
    """Fit spatial filters on a two-class training set.

    Parameters
    ----------
    train : ScatterSet
        Must contain at least two trials of each class.
    n_filters : int
        Even number of filters to keep; half from each eigenvalue extreme.

    Returns
    -------
    SpatialFilterBank
        The kept filters simultaneously diagonalize both class means, and
        for each filter the two projected variances sum to 1.
    """
    _check_n_filters(n_filters, train.n_channels)
    return _bank(*class_mean_covariances(train), n_filters)


def fold_banks(train: ScatterSet, folds: Iterable[np.ndarray],
               n_filters: int) -> list[SpatialFilterBank]:
    """One filter bank per fold, in fold order, each fit on the trials
    outside that fold. Each fold is a sequence of row indices, as
    `classify.stratified_folds` gives, and the folds must partition the
    rows: each row in exactly one fold, and no fold empty.

    The same fit as `fit_csp` on each fold's complement, without
    re-normalizing it: one pass takes each fold's trace-normalized class
    sums, their sum in fold order is the whole set's, and a fold's class
    mean is (that sum - the fold's own sums) / count. The means differ from
    the complement's own by at most 1e-13 of their largest entry (tested
    up to 64 channels), so where two eigenvalues nearly tie a fold may keep
    other filters than `fit_csp` on its complement would. Errors are
    `fit_csp`'s.
    """
    _check_n_filters(n_filters, train.n_channels)
    folds = [np.asarray(rows) for rows in folds]
    if (not folds or not all(rows.size for rows in folds)
            or not np.array_equal(np.sort(np.concatenate(folds)),
                                  np.arange(len(train)))):
        raise ValueError(f"folds must partition the {len(train)} rows: each "
                         f"row in exactly one fold, and no fold empty")
    tr = _traces(train)
    held = [_class_sums(train, tr, rows) for rows in folds]
    sums = [sum(h_sums[c] for h_sums, _ in held) for c in (0, 1)]
    counts = [int(np.count_nonzero(train.labels == c)) for c in (0, 1)]
    return [_bank(*_class_means([t - h for t, h in zip(sums, h_sums)],
                                [t - h for t, h in zip(counts, h_counts)]),
                  n_filters)
            for h_sums, h_counts in held]


def _check_channels(bank: SpatialFilterBank, n_channels: int) -> None:
    if n_channels != bank.n_channels:
        raise ValueError(f"trials have {n_channels} channels, bank "
                         f"expects {bank.n_channels}")


def project_trials(bank: SpatialFilterBank, ts: TrialSet) -> TrialSet:
    """The trials' signals through the bank, W x: one channel per filter,
    named filter0, filter1, ... W is linear across channels, so it
    commutes with a band-pass, which is linear in time."""
    _check_channels(bank, ts.n_channels)
    # a signal that overflows here is named by the band-pass's check
    with np.errstate(over="ignore", invalid="ignore"):
        samples = bank.w @ ts.samples
    return _derived(ts, samples=samples,
                    channel_names=tuple(f"filter{j}"
                                        for j in range(bank.n_filters)))


def trial_covariances(bank: SpatialFilterBank, s: ScatterSet) -> np.ndarray:
    """Shrunk sample covariances of the trials projected through the bank.

    For scatter matrix S over T samples this is W S W' / (T - 1), the
    covariance of the projected signal W x (`_shrunk_covariances`).
    Returns a (k, n_filters, n_filters) stack of SPD matrices; errors name
    the offending trial id.
    """
    _check_channels(bank, s.n_channels)
    return _shrunk_covariances(s, bank.w @ s.matrices @ bank.w.T)


def _shrunk_covariances(s: ScatterSet, projected: np.ndarray) -> np.ndarray:
    """Sample covariances from the projected scatter matrices of s's
    trials (W S W', or s's own matrices when s was computed from projected
    signals): divided by T - 1, symmetrized and blended with the scaled
    identity so they stay positive definite for rank-deficient trials. A
    trial with zero power, or whose covariance is not positive definite,
    is a NumericError naming it.
    """
    if s.n_samples < 2:
        raise ValueError(
            f"need at least 2 samples per trial, got {s.n_samples}")
    cov = projected / (s.n_samples - 1)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    bad = np.flatnonzero(np.trace(cov, axis1=-2, axis2=-1) <= 0.0)
    if bad.size:
        raise NumericError(
            f"trial {s.ids[bad[0]]}: zero covariance after projection")
    cov = shrink_covariance(cov)
    indefinite = _first_indefinite(cov)
    if indefinite is not None:
        i, w_min = indefinite
        raise NumericError(
            f"trial {s.ids[i]}: covariance is not positive definite "
            f"(smallest eigenvalue {w_min:.6e})")
    return cov


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
