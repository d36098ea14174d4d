"""LogEuclidean geometry on symmetric positive definite matrices.

All matrix functions go through the symmetric eigendecomposition: for
A = U diag(d) U', f(A) = U diag(f(d)) U'. Eigenvalues that underflow are
floored at 1e-12 times the largest eigenvalue before taking logarithms.

`matrix_log`, `inv_sqrtm` and `tangent_map` each take one (n, n) matrix
or a (k, n, n) stack and return the same leading shape, the way
`np.linalg.eigh` does. A stack goes through one batched
eigendecomposition (the stacked tangent-space mapping of Barachant et al.
2012 under the Log-Euclidean metric of Arsigny et al. 2007), and an error
on a stack names the offending matrix. Callers that hold an `SpdMatrix`
pass its `.values`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# relative floor applied to eigenvalues before log/inverse-sqrt
EIG_CLAMP_REL = 1e-12

# shrinkage weight used on every covariance consumed downstream
SHRINKAGE_GAMMA = 1e-6


def _checked(a, ndims: tuple[int, ...] = (2, 3)) -> np.ndarray:
    """`a` as float64, with one of the allowed dimension counts and square
    trailing axes: an (n, n) matrix or, by default, also a (k, n, n)
    stack."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        what = ("a square matrix" if ndims == (2,)
                else "a square matrix or a (k, n, n) stack")
        raise NumericError(f"expected {what}, got shape {a.shape}")
    return a


def _which(a: np.ndarray, i: int) -> str:
    """Error prefix naming matrix i of a stack; empty for one matrix."""
    return f"matrix {i}: " if a.ndim == 3 else ""


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _symmetrized(a: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Symmetric part of a matrix or (k, n, n) stack; every matrix must be
    finite and symmetric up to rounding."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise NumericError(f"{_which(a, bad[0])}matrix has non-finite entries")
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    asym = np.abs(a - _transpose(a)).max(axis=(-2, -1))
    bad = np.flatnonzero(asym > rel_tol * scale)
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"{_which(a, i)}matrix is not symmetric (max asymmetry "
            f"{asym.flat[i]:.3e} over scale {scale.flat[i]:.3e})")
    return 0.5 * (a + _transpose(a))


@dataclass(frozen=True)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    Construction symmetrizes the input and verifies that the smallest
    eigenvalue is strictly positive; violations raise NumericError.
    """

    values: np.ndarray

    def __post_init__(self):
        a = _symmetrized(_checked(self.values, ndims=(2,)))
        w = np.linalg.eigvalsh(a)
        if w[0] <= 0.0:
            raise NumericError(
                f"matrix is not positive definite (smallest eigenvalue "
                f"{w[0]:.6e})")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _clamped_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix or stack with the relative
    eigenvalue floor applied per matrix."""
    w, u = np.linalg.eigh(a)
    w_max = w[..., -1:]
    bad = np.flatnonzero(w_max <= 0.0)
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"{_which(a, i)}largest eigenvalue is {w_max.flat[i]:.6e}; "
            f"matrix has no positive part")
    return np.maximum(w, EIG_CLAMP_REL * w_max), u


def _from_eigen(u: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """U diag(f(d)) U', symmetrized, for a matrix or a stack."""
    out = (u * fw[..., None, :]) @ _transpose(u)
    return 0.5 * (out + _transpose(out))


def _log(a: np.ndarray) -> np.ndarray:
    w, u = _clamped_eigh(_symmetrized(a))
    return _from_eigen(u, np.log(w))


def matrix_log(a) -> np.ndarray:
    """Matrix logarithm of an SPD matrix or of each matrix of a stack.

    Parameters
    ----------
    a : (n, n) or (k, n, n) ndarray
        Symmetric positive definite input. Eigenvalues below the relative
        floor are clamped rather than rejected; an input with no
        positive eigenvalue at all raises NumericError.

    Returns
    -------
    ndarray
        Real symmetric log(a), the same shape as `a`.
    """
    return _log(_checked(a))


def matrix_exp(a) -> SpdMatrix:
    """Matrix exponential of a real symmetric matrix (always SPD)."""
    w, u = np.linalg.eigh(_symmetrized(_checked(a, ndims=(2,))))
    return SpdMatrix(_from_eigen(u, np.exp(w)))


def inv_sqrtm(a) -> np.ndarray:
    """Inverse matrix square root of an SPD matrix or of each matrix of a
    stack."""
    w, u = _clamped_eigh(_symmetrized(_checked(a)))
    return _from_eigen(u, 1.0 / np.sqrt(w))


def logeuclidean_distance(a, b) -> float:
    """LogEuclidean distance of two matrices: Frobenius norm of
    log(a) - log(b).

    A true metric on SPD matrices: symmetric, zero only at equality, and
    satisfying the triangle inequality (it is the Euclidean distance
    between matrix logarithms).
    """
    return float(np.linalg.norm(matrix_log(a) - matrix_log(b)))


def logeuclidean_mean(mats) -> SpdMatrix:
    """LogEuclidean mean: exp of the average of matrix logs.

    Minimizes the sum of squared LogEuclidean distances to the inputs,
    a (k, n, n) stack with k >= 1.
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or not len(a):
        raise ValueError(
            f"need a (k, n, n) stack of at least one matrix, got shape "
            f"{a.shape}")
    return matrix_exp(np.mean(matrix_log(a), axis=0))


def vectorize_symmetric(sym: np.ndarray) -> np.ndarray:
    """Weighted upper-triangle vectorization of a symmetric matrix.

    Diagonal entries keep weight 1, strictly upper entries are scaled by
    sqrt(2), and the upper triangle is read in row-major order. With these
    weights the Euclidean norm of the vector equals the Frobenius norm of
    the matrix. A (k, n, n) stack gives one row per matrix.
    """
    sym = np.asarray(sym, dtype=np.float64)
    rows, cols = np.triu_indices(sym.shape[-1])
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return weights * sym[..., rows, cols]


@dataclass(frozen=True)
class ReferencePoint:
    """A reference SPD matrix with its cached inverse square root."""

    mean: SpdMatrix
    inv_sqrt: np.ndarray

    def __post_init__(self):
        s = _symmetrized(_checked(self.inv_sqrt, ndims=(2,)))
        s.setflags(write=False)
        object.__setattr__(self, "inv_sqrt", s)
        n = self.mean.dim
        ident = s @ self.mean.values @ s
        err = float(np.max(np.abs(ident - np.eye(n))))
        if err > 1e-8:
            raise NumericError(
                f"inverse square root check failed (max deviation {err:.3e})")

    @classmethod
    def from_mean(cls, mean: SpdMatrix) -> "ReferencePoint":
        return cls(mean, inv_sqrtm(mean.values))

    @classmethod
    def from_covariances(cls, mats) -> "ReferencePoint":
        """Reference at the LogEuclidean mean of the given matrices."""
        return cls.from_mean(logeuclidean_mean(mats))

    @property
    def dim(self) -> int:
        return self.mean.dim


def tangent_map(ref: ReferencePoint, a) -> np.ndarray:
    """Map an SPD matrix, or each matrix of a stack, to the tangent space
    at a reference point.

    Whitens the input with the reference inverse square root, takes the
    matrix log, and vectorizes the upper triangle with sqrt(2) weighting.
    The map is an isometry around the reference: the vector norm equals
    the Frobenius norm of the whitened log.

    Parameters
    ----------
    ref : ReferencePoint
    a : (n, n) or (k, n, n) ndarray
        SPD input of the same dimension as the reference.

    Returns
    -------
    ndarray
        Feature vector of length n(n+1)/2, or one row per matrix of a
        stack: shape (k, n(n+1)/2).
    """
    a = _checked(a)
    if a.shape[-2:] != ref.mean.values.shape:
        raise ValueError(
            f"dimension mismatch: reference is {ref.dim}x{ref.dim}, "
            f"input is {a.shape[-2:]}")
    return vectorize_symmetric(_log(ref.inv_sqrt @ a @ ref.inv_sqrt))


def shrink_covariance(sigma: np.ndarray, gamma: float = SHRINKAGE_GAMMA) -> np.ndarray:
    """Blend a covariance with a scaled identity: (1-g)*S + g*(tr(S)/n)*I.

    A (k, n, n) stack is shrunk matrix by matrix.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    n = sigma.shape[-1]
    tr = np.trace(sigma, axis1=-2, axis2=-1)[..., None, None]
    return (1.0 - gamma) * sigma + gamma * (tr / n) * np.eye(n)
