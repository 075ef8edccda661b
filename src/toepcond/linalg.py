"""Dense linear-algebra kernel.

Spectral norms, inverse norms and defect singular values on plain numpy
arrays: complex input as complex128, anything else as float64, on which
LAPACK takes about half the time at n = 64. Every norm but the one
two_path_inverse_norm returns is a singular value from numpy's LAPACK
SVD: the matrices here have n <= 64, where a full SVD is cheap and gives
every singular value to machine precision, clustered ones included.

two_path_inverse_norm takes an inverse norm with no SVD of its own: the
value is ||W x||/||x||, the exact inverse W applied to the vector x that
attains ||A^{-1}||, the reproducing kernel of the model space at 0 in the
paper's proof. It is enclosed from the side of A by ||A||^(n-1)/|det A|,
and the LAPACK inverse X checks W entry by entry in O(n^2), wherever the
value lies within the range in which elimination is trusted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SingularMatrixError, TwoPathMismatchError

# A matrix whose inverse norm exceeds 1/PIVOT_TOL (a smallest singular
# value below PIVOT_TOL) is reported as singular.
PIVOT_TOL = 1e-14
# relative tolerances: of two inverse-norm paths, of a value to its closed form
TWO_PATH_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-12


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A)
    M = M.astype(np.complex128 if M.dtype.kind == "c" else np.float64, copy=False)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty two-dimensional array")
    return M


def _require_square(M: np.ndarray) -> int:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M.shape[0]


def spectral_norm(A) -> float:
    """Largest singular value of A, from a dense SVD."""
    return float(np.linalg.svd(_as_matrix(A), compute_uv=False)[0])


def _lapack_inverse(M: np.ndarray) -> np.ndarray:
    """LAPACK's inverse of the square matrix M, or SingularMatrixError when
    LAPACK finds M exactly singular."""
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is exactly singular") from None


def inverse_norm(A) -> float:
    """Largest singular value of A^{-1}, i.e. 1/sigma_min(A).

    Forms A^{-1} with LAPACK and takes its top singular value. Raises
    SingularMatrixError when LAPACK finds A exactly singular, or when an
    entry of the inverse is NaN or beyond 1/PIVOT_TOL or its norm is beyond
    1/PIVOT_TOL, the range in which an inverse computed by elimination is
    no longer trusted.
    """
    M = _as_matrix(A)
    _require_square(M)
    X = _lapack_inverse(M)
    # |X_ij| <= ||X||, so an entry refuses X without its SVD; the negated
    # test refuses a NaN too, which numpy's SVD does not accept
    peak = np.abs(X).max()
    if not peak <= 1.0 / PIVOT_TOL:
        raise SingularMatrixError(f"matrix is singular to working precision (inverse entry {peak:.3e})")
    val = spectral_norm(X)
    if not val <= 1.0 / PIVOT_TOL:
        raise SingularMatrixError(f"matrix is singular to working precision (inverse norm {val:.3e})")
    return val


@functools.cache
def _strictly_upper(n: int) -> np.ndarray:
    """Mask of the entries above the diagonal of an n x n matrix."""
    return np.subtract.outer(np.arange(n), np.arange(n)) < 0


def _vector_norm(v: np.ndarray) -> float:
    """||v||, with no overflow for entries up to the float64 limit: numpy's
    vector norm squares the entries, so it overflows past 1e154, where
    math.hypot scales them."""
    return math.hypot(*np.abs(v).tolist())


def two_path_inverse_norm(A, W, x, norm: float, scale: float) -> float:
    """||A^{-1}|| by the one rule every caller shares, with no SVD.

    A is lower triangular, of norm `norm`; W is an exact inverse of A from
    a series or a closed form; x is a vector at which ||A^{-1} x|| =
    ||A^{-1}|| ||x||. A W or x whose shape does not match A, a zero or
    non-finite x, or an A with a nonzero entry above the diagonal raises
    ValueError before any kernel runs; a W with an entry beyond float64
    (inf or NaN) raises SingularMatrixError naming the first, in row-major
    order.

    The value is ||W x||/||x||, a lower bound on ||W||. The singular values
    of A multiply to |det A| = prod |A_kk| and are at most ||A||, so
    ||A^{-1}|| <= ||A||^(n-1)/|det A|; the value must meet that upper bound
    to TWO_PATH_RTOL (a zero on the diagonal of A raises
    SingularMatrixError). Where the value is at most 1/PIVOT_TOL, the LAPACK
    inverse X of A must agree with W entry by entry: n * max|X - W| <=
    TWO_PATH_RTOL * value; an A that LAPACK finds exactly singular raises
    SingularMatrixError. Beyond 1/PIVOT_TOL elimination is not trusted. The
    value must meet scale * ||A^{-1}|| = 1 to CLOSED_FORM_RTOL. Each miss
    raises TwoPathMismatchError.
    """
    M = _as_matrix(A)
    n = _require_square(M)
    W, x = np.asarray(W), np.asarray(x)
    if W.shape != M.shape:
        raise ValueError(f"exact inverse has shape {W.shape}, A has shape {M.shape}")
    if x.shape != (n,):
        raise ValueError(f"certificate has shape {x.shape}, A has shape {M.shape}")
    if M[_strictly_upper(n)].any():
        raise ValueError("expected a lower-triangular matrix")
    length = _vector_norm(x)
    if not 0.0 < length < math.inf:
        raise ValueError("certificate must be nonzero and finite")
    finite = np.isfinite(W)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SingularMatrixError(f"exact inverse has entries beyond the float64 range, first at ({i}, {j})")
    value = _vector_norm(W @ x) / length
    diagonal = np.abs(np.diagonal(M)).tolist()
    if 0.0 in diagonal:
        raise SingularMatrixError("matrix is exactly singular")
    # ||A||^(n-1)/|det A| as factors ||A||/|A_kk| >= 1 over 1/|A_00|, which
    # do not underflow where |det A| would; a Python float overflows to inf
    # without a warning
    upper = math.prod([norm / d for d in diagonal[1:]]) / diagonal[0]
    # a NaN, or an upper bound beyond float64, fails the negated test
    if not abs(value - upper) <= TWO_PATH_RTOL * upper < math.inf:
        raise TwoPathMismatchError(
            f"inverse norm outside its enclosure: ||W x||/||x|| = {value:.17g}, ||A||^(n-1)/|det A| = {upper:.17g}"
        )
    if value <= 1.0 / PIVOT_TOL:
        # a NaN in X makes the gap NaN, which the negated test refuses
        gap = n * np.abs(_lapack_inverse(M) - W).max()
        if not gap <= TWO_PATH_RTOL * value:
            raise TwoPathMismatchError(f"inverse-norm paths disagree: n * max|X - W| = {gap:.3g} at norm {value:.17g}")
    if not abs(scale * value - 1.0) <= CLOSED_FORM_RTOL:
        raise TwoPathMismatchError(f"inverse norm misses the closed form: {scale:.17g} * {value:.17g} != 1")
    return value


def defect_singular_values(A) -> np.ndarray:
    """All singular values of the defect operator I - A*A, descending."""
    M = _as_matrix(A)
    n = _require_square(M)
    D = np.eye(n, dtype=M.dtype) - M.conj().T @ M
    return np.linalg.svd(D, compute_uv=False)
