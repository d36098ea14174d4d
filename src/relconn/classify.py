"""Tangent-space logistic regression with an L1 penalty.

Training projects each trial's channel scatter matrix through a spatial
filter bank into a shrunk sample covariance, maps the covariances to the
tangent space at their LogEuclidean mean, and fits a sparse logistic model
by proximal gradient descent (soft-thresholding) with a backtracking line
search.

Features are standardized per dimension before the solver runs; the learned
coefficients are folded back so the stored model operates on raw tangent
vectors. The bias is never penalized.

Class 1 is the positive class everywhere: predicted probabilities refer to
label 1, and precision/recall count label-1 predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csp import SpatialFilterBank, fold_banks, trial_covariances
from .data import ScatterSet, _integer, _keep, _number
from .errors import ConvergenceError, StratificationError
from .geometry import ReferencePoint, SpdMatrix, tangent_map

def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # e^-|z| never overflows: 1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z)
    # elsewhere
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _loss(z, y):
    # mean of log(1 + e^z) - y*z, computed stably
    return float((np.logaddexp(0.0, z) - y * z).sum() / z.shape[0])


def _grad(z, x, y):
    r = sigmoid(z) - y
    n = x.shape[0]
    return x.T @ r / n, float(r.sum() / n)


def logistic_loss(w, b, x, y):
    """Mean logistic loss; y holds labels in {0, 1}."""
    return _loss(x @ w + b, y)


def logistic_grad(w, b, x, y):
    """Gradient of the mean logistic loss in (w, b)."""
    return _grad(x @ w + b, x, y)


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _kkt_gap(w, g_w, g_b, lam) -> float:
    """Largest first-order optimality violation of the penalized problem:
    |g + lam sign(w)| where w != 0, max(|g| - lam, 0) where w == 0, and
    |g_b| for the bias."""
    violation = np.where(w != 0.0, np.abs(g_w + lam * np.sign(w)),
                         np.maximum(np.abs(g_w) - lam, 0.0))
    return float(np.max(violation, initial=abs(g_b)))


@dataclass
class L1FitResult:
    w: np.ndarray
    b: float
    n_iter: int
    gap: float
    objective_history: list[float] = field(default_factory=list)


def fit_l1_logistic(x, y, lam, max_iter: int = 5000,
                    tol: float = 1e-6) -> L1FitResult:
    """Minimize mean logistic loss + lam * ||w||_1 (bias unpenalized).

    Proximal gradient descent from w = 0 with a backtracking line search;
    the trial step doubles after every iteration and halves until the
    quadratic majorization holds, which keeps the penalized objective
    non-increasing. Convergence is declared when the largest first-order
    subgradient residual drops to tol; hitting the iteration cap first
    raises ConvergenceError carrying the final residual. The margins
    z = x @ w + b of the accepted step serve its loss and the next
    gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    z = x @ w + b
    f = _loss(z, y)
    history = [f + lam * float(np.sum(np.abs(w)))]

    for it in range(max_iter + 1):
        g_w, g_b = _grad(z, x, y)
        gap = _kkt_gap(w, g_w, g_b, lam)
        if gap <= tol:
            return L1FitResult(w, b, it, gap, history)
        if it == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations "
                f"(optimality residual {gap:.3e}, tol {tol:.1e})", gap)

        step = min(step * 2.0, 1e12)
        while True:
            w_new = soft_threshold(w - step * g_w, step * lam)
            b_new = b - step * g_b
            z_new = x @ w_new + b_new
            f_new = _loss(z_new, y)
            dw = w_new - w
            db = b_new - b
            bound = (f + g_w @ dw + g_b * db
                     + (dw @ dw + db * db) / (2.0 * step))
            if f_new <= bound + 1e-12 or step < 1e-18:
                break
            step *= 0.5
        w, b, f, z = w_new, b_new, f_new, z_new
        history.append(f + lam * float(np.sum(np.abs(w))))


@dataclass(frozen=True)
class TslrModel:
    """Trained tangent-space logistic regression model.

    weights and bias act on raw tangent vectors (standardization is folded
    in after fitting). reference is the LogEuclidean mean of the training
    covariances with its cached inverse square root; filter_bank is the
    spatial filter bank the covariances came from.
    """

    weights: np.ndarray
    bias: float
    lam: float
    reference: ReferencePoint
    filter_bank: SpatialFilterBank
    n_iter: int = 0
    optimality_gap: float = 0.0

    def __post_init__(self):
        w = _keep(self, "weights", self.weights)
        n = self.reference.dim
        expected = n * (n + 1) // 2
        if w.shape != (expected,):
            raise ValueError(
                f"weights must have length {expected} for a {n}x{n} "
                f"reference, got shape {w.shape}")
        if self.filter_bank.n_filters != n:
            raise ValueError(
                "filter bank size and reference dimension disagree")
        if not (np.isfinite(w).all() and np.isfinite(self.bias)):
            raise ValueError("weights and bias must be finite")
        if not 0 <= self.lam < np.inf:
            raise ValueError(
                f"lambda must be >= 0 and finite, got {self.lam}")

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "lambda": self.lam,
            "reference_mean": self.reference.mean.values.tolist(),
            "filter_bank": self.filter_bank.to_dict(),
            "n_iter": self.n_iter,
            "optimality_gap": self.optimality_gap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TslrModel":
        ref = ReferencePoint.from_mean(SpdMatrix(d["reference_mean"]))
        return cls(d["weights"], _number(d["bias"], "bias"),
                   _number(d["lambda"], "lambda"), ref,
                   SpatialFilterBank.from_dict(d["filter_bank"]),
                   _integer(d["n_iter"], "n_iter"),
                   _number(d["optimality_gap"], "optimality_gap"))


def default_lambda(n_train: int) -> float:
    return 0.1 / n_train


def train(train_set: ScatterSet, bank: SpatialFilterBank,
          lam: float | None = None) -> TslrModel:
    """Fit the tangent-space model on a training set.

    Parameters
    ----------
    train_set : ScatterSet
        Two-class training trials (both classes present).
    bank : SpatialFilterBank
        Fitted spatial filters for these channels.
    lam : float, optional
        L1 weight; defaults to 0.1 / n_train.

    Returns
    -------
    TslrModel
    """
    return _fit(trial_covariances(bank, train_set), train_set.labels, bank,
                lam)


def _fit(covs: np.ndarray, labels: np.ndarray, bank: SpatialFilterBank,
         lam: float | None) -> TslrModel:
    """`train` on the trials' projected covariances
    `trial_covariances(bank, ...)`, already computed."""
    if set(labels.tolist()) != {0, 1}:
        raise ValueError("training set must contain both classes")
    if lam is None:
        lam = default_lambda(len(labels))

    ref = ReferencePoint.from_covariances(covs)
    feats = tangent_map(ref, covs)

    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    fit = fit_l1_logistic((feats - mu) / sd, labels.astype(float), lam)

    # fold the standardization into the stored coefficients
    w_raw = fit.w / sd
    b_raw = fit.b - float(w_raw @ mu)
    return TslrModel(w_raw, b_raw, lam, ref, bank, fit.n_iter, fit.gap)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics in percent plus per-trial outcome columns, one
    entry per evaluated trial in evaluation order."""

    accuracy: float
    precision: float
    recall: float
    trial_ids: np.ndarray
    true_labels: np.ndarray
    predicted_labels: np.ndarray
    posteriors: np.ndarray

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "n_trials": len(self.trial_ids)}

    def per_trial_rows(self) -> list[tuple[int, int, int, float]]:
        return list(zip(self.trial_ids.tolist(), self.true_labels.tolist(),
                        self.predicted_labels.tolist(),
                        self.posteriors.tolist()))


def evaluate(model: TslrModel, test_set: ScatterSet,
             covs: np.ndarray | None = None) -> EvalReport:
    """Score a model on held-out trials.

    covs, when given, are the trials' projected covariances
    `trial_covariances(model.filter_bank, test_set)`, already computed.
    Posteriors are class-1 probabilities; a posterior of exactly 0.5
    predicts class 1. Precision is 0 when nothing is predicted positive.
    """
    if covs is None:
        covs = trial_covariances(model.filter_bank, test_set)
    z = tangent_map(model.reference, covs) @ model.weights + model.bias
    posteriors = np.clip(sigmoid(z), 1e-15, 1.0 - 1e-15)
    true = test_set.labels
    pred = (posteriors >= 0.5).astype(int)
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    accuracy = 100.0 * float(np.mean(pred == true))
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    return EvalReport(accuracy, precision, recall, test_set.ids, true, pred,
                      posteriors)


def _check_threshold(threshold: float) -> None:
    """Reject a posterior threshold outside (0.5, 1). A threshold of 1
    could never be reached: `evaluate` clips posteriors to at most
    1 - 1e-15."""
    if not 0.5 < threshold < 1.0:
        raise ValueError(
            f"posterior_threshold must be in (0.5, 1), got {threshold}")


def select_relevant(report: EvalReport, threshold: float) -> list[int]:
    """Ids of correctly classified trials with confident posteriors.

    A trial qualifies when its predicted label matches the true label and
    the predicted-class confidence max(p, 1-p) reaches the threshold, which
    lies in (0.5, 1). Order follows the report.
    """
    _check_threshold(threshold)
    p = report.posteriors
    keep = ((report.predicted_labels == report.true_labels)
            & (np.maximum(p, 1.0 - p) >= threshold))
    return report.trial_ids[keep].tolist()


def _check_k_folds(k: int) -> None:
    if k < 2:
        raise ValueError(f"k_folds must be >= 2, got {k}")


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment.

    Shuffles each class with a seeded generator and deals indices
    round-robin, so fold sizes differ by at most one per class. Raises
    StratificationError when some fold would miss a class.
    """
    labels = np.asarray(labels)
    _check_k_folds(k)
    counts = [int(np.sum(labels == c)) for c in (0, 1)]
    if min(counts) < k:
        raise StratificationError(
            f"class counts {counts} cannot stratify into {k} folds; every "
            f"fold needs both classes")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=int)
    for c in (0, 1):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % k
    return [np.flatnonzero(fold_of == f) for f in range(k)]


def cross_validate(train_set: ScatterSet, folds: list[np.ndarray],
                   n_filters: int, lam: float | None = None
                   ) -> tuple[float, float]:
    """Accuracy over the folds (mean, std in percent), with n_filters
    filters and L1 weight lam (None: `default_lambda` of each fold's
    training size, as in `train`). The folds are row indices that
    partition the set, as `stratified_folds` deals them.

    Every fold refits the spatial filters, the tangent reference and the
    weights on its training trials alone, so no information from a
    held-out fold leaks into its model. The filters come from one pass
    over the folds (`csp.fold_banks`), and each fold projects the scatter
    stack once and slices that into its training and held-out rows.
    """
    accuracies = []
    for held_out, bank in zip(folds, fold_banks(train_set, folds, n_filters)):
        covs = trial_covariances(bank, train_set)
        fit_rows = np.ones(len(train_set), dtype=bool)
        fit_rows[held_out] = False
        model = _fit(covs[fit_rows], train_set.labels[fit_rows], bank, lam)
        report = evaluate(model, train_set.subset(held_out), covs[held_out])
        accuracies.append(report.accuracy)
    acc = np.array(accuracies)
    return float(acc.mean()), float(acc.std())
