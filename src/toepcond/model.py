"""Compressed-shift matrices on finite model spaces.

Given zeros lambda_1, ..., lambda_n in the open disk, the model space of
their Blaschke product carries the orthonormal Malmquist-Walsh basis

    e_k(z) = sqrt(1 - |lambda_k|^2) / (1 - conj(lambda_k) z)
             * prod_{j < k} (z - lambda_j)/(1 - conj(lambda_j) z).

The compression of multiplication by z to this space, written in that
basis, is lower triangular with diagonal (lambda_1, ..., lambda_n), is a
contraction, and has one-dimensional defect. These are the matrices that
attain the 1/r^n bound on the inverse norm when all |lambda_j| = r.

Its entries have a closed form (the Takenaka-Malmquist-Walsh matrix of
the model operator, see Nikolski, Operators, Functions, and Systems,
vol. 2): M_kk = lambda_k and, for l > k,

    M_lk = sqrt((1 - |lambda_k|^2)(1 - |lambda_l|^2))
           * prod_{k < j < l} (-conj(lambda_j)).

The partial products use the factor (z - lambda)/(1 - conj(lambda) z),
the sign-flipped variant of BlaschkeFactor, so that zeros at the origin
reproduce the monomial basis and the matrix of the shift is exactly the
Jordan block.

The inverse, a rank-one change of M^*, is lower triangular with
(M^{-1})_kk = 1/lambda_k and, for l < k, with s_k = sqrt(1 - |lambda_k|^2),

    (M^{-1})_kl = -s_k s_l / prod_{l <= j <= k} (-lambda_j).

For equal zeros r it is the reciprocal-series matrix of T_r conjugated by
diag((-1)^k): T_r and M are two constructions of one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import _one_minus_square
from .bounds import BoundsRecord, _contraction_terms, kronecker_bound
from .errors import ExtremalityError


@dataclass(eq=False)
class ModelOperatorMatrix:
    """Matrix of the compressed shift in the Malmquist-Walsh basis."""

    n: int
    zeros: tuple
    matrix: np.ndarray

    @property
    def r_min(self) -> float:
        """Minimal eigenvalue modulus; the spectrum is the zero set."""
        return float(min(abs(z) for z in self.zeros))


@dataclass(eq=False)
class ExtremalityReport:
    """Norm equalities of a model operator with all zeros on |z| = r.

    `record` is the bracket record of bounds.check_contraction; `norm` and
    `inv_norm` read from it. `defect_rank` is 1, by verify_extremality's
    rule; where the rule cannot decide it, no report is made.
    """

    n: int
    r: float
    zeros: tuple
    matrix: np.ndarray
    record: BoundsRecord
    kronecker: float
    rel_gap: float
    defect_rank: int

    @property
    def norm(self) -> float:
        return self.record.norm_T

    @property
    def inv_norm(self) -> float:
        return self.record.inv_norm


def _checked_zeros(zeros) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The zeros as a tuple of complex numbers and as an array, and their
    weights s_k; ValueError unless there is one at least and all lie in the
    open unit disk."""
    zs = tuple(complex(z) for z in zeros)
    if len(zs) == 0:
        raise ValueError("at least one zero is required")
    lam = np.array(zs, dtype=np.complex128)
    # |z| bit for bit as Python's abs(complex) gives it; np.abs may differ
    moduli = np.hypot(lam.real, lam.imag)
    outside = ~(moduli < 1.0)
    if outside.any():
        raise ValueError(f"zeros must lie in the open unit disk, got |z| = {moduli[outside.argmax()]:.6g}")
    return zs, lam, _weights(lam)


def _weights(lam: np.ndarray) -> np.ndarray:
    # s_k = sqrt(1 - |lambda_k|^2); np.abs, not hypot, as near |z| = 1 s_k is ill-conditioned in |lambda_k|
    return np.sqrt(_one_minus_square(np.abs(lam)))


def model_operator(zeros) -> ModelOperatorMatrix:
    """Compressed-shift matrix from the closed-form entries of the module
    docstring, O(n^2) with no Python loop; zeros arbitrarily close to the
    circle are exact."""
    zs, lam, s = _checked_zeros(zeros)
    n = len(zs)
    rows, cols = np.indices((n, n))
    between = np.where(rows > cols + 1, -np.conj(lam)[rows - 1], 1.0)
    M = np.tril(s[:, None] * s * np.cumprod(between, axis=0), -1)
    np.fill_diagonal(M, lam)
    return ModelOperatorMatrix(n=n, zeros=zs, matrix=M)


def _inverse_matrix(lam: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Inverse of the compressed-shift matrix from its closed form, O(n^2)
    and no solve. Entries beyond float64 are inf or NaN, without a warning."""
    n = lam.size
    rows, cols = np.indices((n, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        recip = 1.0 / lam
        between = np.where(rows >= cols, -recip[rows], 1.0)
        W = np.tril(-(s[:, None] * s) * np.cumprod(between, axis=0), -1)
        np.fill_diagonal(W, recip)
    return W


def _extremal_vector(lam: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x_k = conj(e_k(0)) = s_k prod_{j < k} (-conj(lambda_j)): the
    reproducing kernel of the model space at 0 in the Malmquist-Walsh
    basis, at which ||M^{-1} x|| = ||M^{-1}|| ||x||."""
    return s * np.concatenate(([1.0], np.cumprod(-np.conj(lam[:-1]))))


def verify_extremality(r: float, zeros) -> ExtremalityReport:
    """Check the equality case ||M^{-1}|| = 1/r^n for zeros on |z| = r.

    M (its zeros validated once, by model_operator), its closed-form
    inverse and its extremal vector go through bounds.check_contraction,
    whose Gram identity decides the defect rank with no SVD: I - M*M has
    the spectrum of I - M M* = c c* + E, and ||E|| <= max_i sum_j |E_ij|
    for Hermitian E. Below ||c||^2/2 that sum leaves one singular value
    above ||c||^2/2 and n - 1 below it: rank 1; else ExtremalityError, the
    rank undecided. It reads the computed E, as the Gram check does, so
    within about 1e-14 of the circle the count is at roundoff level.
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    op = model_operator(zeros)
    lam = np.array(op.zeros, dtype=np.complex128)
    moduli = np.hypot(lam.real, lam.imag)
    off = np.abs(moduli - r) > 1e-12
    if off.any():
        raise ValueError(f"all zeros must have modulus r = {r}, got |z| = {moduli[off.argmax()]:.12g}")
    s = _weights(lam)
    n = op.n
    rec, E, c = _contraction_terms(n, r, op.matrix, _inverse_matrix(lam, s), _extremal_vector(lam, s))
    kron = kronecker_bound(n, r)
    half, spread = 0.5 * float(np.vdot(c, c).real), float(E.sum(axis=1).max())
    if not spread < half:
        raise ExtremalityError(f"defect rank undecided: a row sum of |E| is {spread:.3g} >= ||c||^2/2 = {half:.3g}")
    return ExtremalityReport(
        n=n,
        r=r,
        zeros=op.zeros,
        matrix=op.matrix,
        record=rec,
        kronecker=kron,
        rel_gap=abs(rec.inv_norm - kron) / kron,
        defect_rank=1,
    )
