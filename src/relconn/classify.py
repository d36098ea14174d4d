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

from .csp import SpatialFilterBank, fit_csp, trial_covariances
from .data import ScatterSet
from .errors import ConvergenceError, StratificationError
from .geometry import ReferencePoint, SpdMatrix, tangent_map

MAX_ITER = 5000
TOL = 1e-6


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(w, b, x, y):
    """Mean logistic loss; y holds labels in {0, 1}."""
    z = x @ w + b
    # log(1 + e^z) - y*z, computed stably
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def logistic_grad(w, b, x, y):
    """Gradient of the mean logistic loss in (w, b)."""
    n = x.shape[0]
    r = sigmoid(x @ w + b) - y
    return x.T @ r / n, float(np.mean(r))


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _kkt_gap(w, g_w, g_b, lam) -> float:
    """Largest first-order optimality violation of the penalized problem."""
    active = w != 0.0
    gap = abs(g_b)
    if np.any(active):
        gap = max(gap, float(np.max(np.abs(g_w[active] + lam * np.sign(w[active])))))
    if np.any(~active):
        gap = max(gap, float(np.max(np.maximum(np.abs(g_w[~active]) - lam, 0.0))))
    return gap


@dataclass
class L1FitResult:
    w: np.ndarray
    b: float
    n_iter: int
    gap: float
    objective_history: list[float] = field(default_factory=list)


def fit_l1_logistic(x, y, lam, max_iter: int = MAX_ITER,
                    tol: float = TOL) -> L1FitResult:
    """Minimize mean logistic loss + lam * ||w||_1 (bias unpenalized).

    Proximal gradient descent from w = 0 with a backtracking line search;
    the trial step doubles after every iteration and halves until the
    quadratic majorization holds, which keeps the penalized objective
    non-increasing. Convergence is declared when the largest first-order
    subgradient residual drops to tol; hitting the iteration cap first
    raises ConvergenceError carrying the final residual.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    f = logistic_loss(w, b, x, y)
    history = [f + lam * float(np.sum(np.abs(w)))]

    for it in range(max_iter):
        g_w, g_b = logistic_grad(w, b, x, y)
        gap = _kkt_gap(w, g_w, g_b, lam)
        if gap <= tol:
            return L1FitResult(w, b, it, gap, history)

        step = min(step * 2.0, 1e12)
        while True:
            w_new = soft_threshold(w - step * g_w, step * lam)
            b_new = b - step * g_b
            f_new = logistic_loss(w_new, b_new, x, y)
            dw = w_new - w
            db = b_new - b
            bound = (f + g_w @ dw + g_b * db
                     + (dw @ dw + db * db) / (2.0 * step))
            if f_new <= bound + 1e-12 or step < 1e-18:
                break
            step *= 0.5
        w, b, f = w_new, b_new, f_new
        history.append(f + lam * float(np.sum(np.abs(w))))

    g_w, g_b = logistic_grad(w, b, x, y)
    gap = _kkt_gap(w, g_w, g_b, lam)
    if gap <= tol:
        return L1FitResult(w, b, max_iter, gap, history)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(optimality residual {gap:.3e}, tol {tol:.1e})", gap)


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
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        n = self.reference.dim
        expected = n * (n + 1) // 2
        if w.shape != (expected,):
            raise ValueError(
                f"weights must have length {expected} for a {n}x{n} "
                f"reference, got shape {w.shape}")
        if self.filter_bank.n_filters != n:
            raise ValueError(
                "filter bank size and reference dimension disagree")

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
        ref = ReferencePoint.from_mean(
            SpdMatrix(np.array(d["reference_mean"], dtype=np.float64)))
        return cls(np.array(d["weights"], dtype=np.float64),
                   float(d["bias"]), float(d["lambda"]), ref,
                   SpatialFilterBank.from_dict(d["filter_bank"]),
                   int(d.get("n_iter", 0)), float(d.get("optimality_gap", 0.0)))


def default_lambda(n_train: int) -> float:
    return 0.1 / n_train


def train(train_set: ScatterSet, bank: SpatialFilterBank,
          lam: float | None = None, max_iter: int = MAX_ITER,
          tol: float = TOL) -> TslrModel:
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
    labels = train_set.labels
    if set(labels.tolist()) != {0, 1}:
        raise ValueError("training set must contain both classes")
    if lam is None:
        lam = default_lambda(len(train_set))

    covs = trial_covariances(bank, train_set)
    ref = ReferencePoint.from_covariances(covs)
    feats = tangent_map(ref, covs)

    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    fit = fit_l1_logistic((feats - mu) / sd, labels.astype(float), lam,
                          max_iter=max_iter, tol=tol)

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


def evaluate(model: TslrModel, test_set: ScatterSet) -> EvalReport:
    """Score a model on held-out trials.

    Posteriors are class-1 probabilities; a posterior of exactly 0.5
    predicts class 1. Precision is 0 when nothing is predicted positive.
    """
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


def select_relevant(report: EvalReport, threshold: float = 0.7) -> list[int]:
    """Ids of correctly classified trials with confident posteriors.

    A trial qualifies when its predicted label matches the true label and
    the predicted-class confidence max(p, 1-p) reaches the threshold.
    Order follows the report. A threshold of 1 is rejected: posteriors
    are clipped to at most 1 - 1e-15, so it could never be reached.
    """
    if not 0.5 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0.5, 1), got {threshold}")
    p = report.posteriors
    keep = ((report.predicted_labels == report.true_labels)
            & (np.maximum(p, 1.0 - p) >= threshold))
    return report.trial_ids[keep].tolist()


def stratified_folds(labels: np.ndarray, k: int, seed: int = 42) -> list[np.ndarray]:
    """Deterministic stratified fold assignment.

    Shuffles each class with a seeded generator and deals indices
    round-robin, so fold sizes differ by at most one per class. Raises
    StratificationError when some fold would miss a class.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
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


def cross_validate(train_set: ScatterSet, k: int = 10,
                   lam: float | None = None, n_filters: int = 6,
                   seed: int = 42) -> tuple[float, float]:
    """Stratified k-fold accuracy (mean, std in percent).

    The spatial filters and the tangent reference are refit inside every
    training fold, so no information from a held-out fold leaks into its
    model. Fold assignment is deterministic for a given seed.
    """
    folds = stratified_folds(train_set.labels, k, seed)
    accuracies = []
    for held_out in folds:
        fold_train = train_set.subset(
            np.delete(np.arange(len(train_set)), held_out))
        fold_test = train_set.subset(held_out)
        bank = fit_csp(fold_train, n_filters)
        model = train(fold_train, bank, lam)
        accuracies.append(evaluate(model, fold_test).accuracy)
    acc = np.array(accuracies)
    return float(acc.mean()), float(acc.std())
