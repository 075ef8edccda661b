"""Dense complex linear-algebra kernel.

Spectral norms, inverse norms and defect ranks on plain numpy arrays of
complex128. Every norm is a singular value from numpy's LAPACK SVD: the
matrices here have n <= 64, where a full SVD is cheap and gives every
singular value to machine precision, clustered ones included.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# A matrix whose inverse norm exceeds 1/PIVOT_TOL (a smallest singular
# value below PIVOT_TOL) is reported as singular.
PIVOT_TOL = 1e-14


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=np.complex128)
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


def inverse_norm(A) -> float:
    """Largest singular value of A^{-1}, i.e. 1/sigma_min(A).

    Forms A^{-1} with LAPACK and takes its top singular value. Raises
    SingularMatrixError when LAPACK finds A exactly singular, or when the
    result exceeds 1/PIVOT_TOL, the range in which an inverse computed by
    elimination is no longer trusted.
    """
    M = _as_matrix(A)
    _require_square(M)
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is exactly singular") from None
    # an inverse that overflowed or came out NaN has no finite norm
    val = spectral_norm(inv) if np.isfinite(inv).all() else np.inf
    if not val <= 1.0 / PIVOT_TOL:
        raise SingularMatrixError(
            f"matrix is singular to working precision (inverse norm {val:.3e})"
        )
    return val


def defect_singular_values(A) -> np.ndarray:
    """All singular values of the defect operator I - A*A, descending."""
    M = _as_matrix(A)
    n = _require_square(M)
    D = np.eye(n, dtype=np.complex128) - M.conj().T @ M
    return np.linalg.svd(D, compute_uv=False)


def defect_rank(A, tol: float = 1e-8) -> int:
    """Number of singular values of I - A*A exceeding tol.

    Only meaningful for contractions; enforces spectral_norm(A) <= 1 + tol.
    """
    M = _as_matrix(A)
    _require_square(M)
    nrm = spectral_norm(M)
    if nrm > 1.0 + tol:
        raise ValueError(f"defect_rank expects a contraction, got spectral norm {nrm:.6g}")
    vals = defect_singular_values(M)
    return int(np.count_nonzero(vals > tol))
