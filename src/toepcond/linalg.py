"""Dense linear-algebra kernel.

Spectral norms, inverse norms and defect singular values on plain numpy
arrays: complex input as complex128, anything else as float64, on which
LAPACK takes about half the time at n = 64. Every norm is a singular
value from numpy's LAPACK SVD: the matrices here have n <= 64, where a
full SVD is cheap and gives every singular value to machine precision,
clustered ones included.

An inverse norm takes one SVD: of the LAPACK inverse X where X is trusted,
else of the exact inverse W. two_path_inverse_norm compares a trusted X
with W entry by entry, in O(n^2), not through a second SVD.
"""

from __future__ import annotations

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
    """LAPACK's inverse X of the square matrix M, or SingularMatrixError when
    M is exactly singular or an entry of X is NaN or beyond 1/PIVOT_TOL: as
    |X_ij| <= ||X||, such an X is refused without the SVD of _trusted_inverse."""
    try:
        X = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is exactly singular") from None
    # the negated test refuses a NaN peak too: an inverse that overflowed
    # or came out NaN has no finite norm
    peak = np.abs(X).max()
    if not peak <= 1.0 / PIVOT_TOL:
        raise SingularMatrixError(f"matrix is singular to working precision (inverse entry {peak:.3e})")
    return X


def _trusted_inverse(M: np.ndarray) -> tuple[np.ndarray, float]:
    """The LAPACK inverse X of M and ||X||, refused as SingularMatrixError
    by _lapack_inverse or when ||X|| exceeds 1/PIVOT_TOL, the range in
    which an inverse computed by elimination is no longer trusted."""
    X = _lapack_inverse(M)
    val = spectral_norm(X)
    if not val <= 1.0 / PIVOT_TOL:
        raise SingularMatrixError(f"matrix is singular to working precision (inverse norm {val:.3e})")
    return X, val


def inverse_norm(A) -> float:
    """Largest singular value of A^{-1}, i.e. 1/sigma_min(A).

    Forms A^{-1} with LAPACK and takes its top singular value. Raises
    SingularMatrixError when LAPACK finds A exactly singular, or when the
    result exceeds 1/PIVOT_TOL, the range in which an inverse computed by
    elimination is no longer trusted.
    """
    M = _as_matrix(A)
    _require_square(M)
    return _trusted_inverse(M)[1]


def two_path_inverse_norm(A, W, scale: float) -> float:
    """||A^{-1}|| by the one rule every caller shares, from one SVD.

    W is an exact inverse of A from a series or a closed form; a W with an
    entry beyond float64 (inf or NaN) raises SingularMatrixError naming the
    first, in row-major order. The value is ||X|| for X the LAPACK inverse
    of A, as inverse_norm(A) gives it, or ||W|| alone where that refuses
    (beyond 1/PIVOT_TOL). A trusted X must agree with W entry by entry:
    n * max|X - W| <= TWO_PATH_RTOL * value, which bounds ||X - W|| and so
    the gap between the two norms, and also catches a W with the right
    singular values but wrong entries. The value must meet
    scale * ||A^{-1}|| = 1 to CLOSED_FORM_RTOL. Either miss raises
    TwoPathMismatchError.
    """
    finite = np.isfinite(W)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SingularMatrixError(f"exact inverse has entries beyond the float64 range, first at ({i}, {j})")
    M = _as_matrix(A)
    n = _require_square(M)
    try:
        X, value = _trusted_inverse(M)
    except SingularMatrixError:
        value = spectral_norm(W)
    else:
        gap = n * np.abs(X - W).max()
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
