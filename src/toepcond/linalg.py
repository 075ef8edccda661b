"""Dense complex linear-algebra kernel.

Spectral norms, linear solves and defect ranks on plain numpy arrays of
complex128. Every norm is a singular value from numpy's LAPACK SVD: the
matrices here have n <= 64, where a full SVD is cheap and gives every
singular value to machine precision, clustered ones included.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# Pivot magnitudes below this are treated as exact singularity; an inverse
# norm above its reciprocal is reported the same way.
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


def lu_factor(A):
    """LU factorization with partial pivoting, packed LAPACK style.

    Returns (LU, piv) where piv[k] is the row swapped into position k at
    step k. Raises SingularMatrixError when a pivot falls below PIVOT_TOL.
    """
    M = _as_matrix(A).copy()
    n = _require_square(M)
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        if abs(M[p, k]) < PIVOT_TOL:
            raise SingularMatrixError(
                f"matrix is singular to working precision (pivot {abs(M[p, k]):.3e} at step {k})"
            )
        if p != k:
            M[[k, p], :] = M[[p, k], :]
        piv[k] = p
        M[k + 1 :, k] /= M[k, k]
        if k + 1 < n:
            M[k + 1 :, k + 1 :] -= np.outer(M[k + 1 :, k], M[k, k + 1 :])
    return M, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray, b, conj_transpose: bool = False) -> np.ndarray:
    """Solve A x = b (or A* x = b) from a packed factorization of A."""
    n = lu.shape[0]
    x = np.asarray(b, dtype=np.complex128).copy()
    if x.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},)")
    if not conj_transpose:
        for k in range(n):
            p = piv[k]
            if p != k:
                x[k], x[p] = x[p], x[k]
        for k in range(1, n):  # L y = P b, unit diagonal
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(n - 1, -1, -1):  # U x = y
            x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
    else:
        # A = P^T L U, so A* = U* L* P: solve U* y = b, L* z = y, x = P^T z
        for k in range(n):
            x[k] = (x[k] - lu[:k, k].conj() @ x[:k]) / lu[k, k].conj()
        for k in range(n - 1, -1, -1):
            x[k] -= lu[k + 1 :, k].conj() @ x[k + 1 :]
        for k in range(n - 1, -1, -1):
            p = piv[k]
            if p != k:
                x[k], x[p] = x[p], x[k]
    return x


def solve(A, b) -> np.ndarray:
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    M = _as_matrix(A)
    _require_square(M)
    lu, piv = lu_factor(M)
    return lu_solve(lu, piv, b)


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
