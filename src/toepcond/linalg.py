"""Dense linear-algebra kernels.

Spectral norms, inverse norms and defect singular values on plain numpy
arrays: complex input as complex128, anything else as float64, on which
LAPACK takes about half the time at n = 64. Every norm is a singular value
from numpy's LAPACK SVD: at n <= 64 a full SVD is cheap and gives every
singular value to machine precision, clustered ones included.
bounds.check_contraction decides the inverse norms the package reports.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# A matrix whose inverse norm exceeds 1/PIVOT_TOL (a smallest singular
# value below PIVOT_TOL) is reported as singular.
PIVOT_TOL = 1e-14


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
    """Largest singular value of A^{-1}, i.e. 1/sigma_min(A): the LAPACK
    route alone, a test oracle for bounds.check_contraction.

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


def defect_singular_values(A) -> np.ndarray:
    """All singular values of the defect operator I - A*A, descending."""
    M = _as_matrix(A)
    n = _require_square(M)
    D = np.eye(n, dtype=M.dtype) - M.conj().T @ M
    return np.linalg.svd(D, compute_uv=False)
