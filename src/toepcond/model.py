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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ExtremalityError

# relative tolerance of the two norm equalities in verify_extremality
EXTREMALITY_RTOL = 1e-12


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
    """Norm equalities of a model operator with all zeros on |z| = r."""

    n: int
    r: float
    zeros: tuple
    matrix: np.ndarray
    norm: float
    inv_norm: float
    kronecker: float
    rel_gap: float
    defect_rank: int


def _checked_zeros(zeros) -> tuple:
    zs = tuple(complex(z) for z in zeros)
    if len(zs) == 0:
        raise ValueError("at least one zero is required")
    for z in zs:
        if abs(z) >= 1.0:
            raise ValueError(f"zeros must lie in the open unit disk, got |z| = {abs(z):.6g}")
    return zs


def model_operator(zeros) -> ModelOperatorMatrix:
    """Compressed-shift matrix from its closed-form entries, O(n^2).

    Column k holds lambda_k on the diagonal and, below it, the weights
    s_k * s_l times the running product of -conj(lambda_j) over the zeros
    strictly between k and l, with s_k = sqrt(1 - |lambda_k|^2). Zeros
    arbitrarily close to the circle are exact; zeros at the origin give
    the Jordan block.
    """
    zs = _checked_zeros(zeros)
    n = len(zs)
    lam = np.array(zs, dtype=np.complex128)
    a = np.abs(lam)
    # (1 - a)(1 + a) keeps full relative accuracy as |lambda| -> 1
    s = np.sqrt((1.0 - a) * (1.0 + a))
    M = np.diag(lam)
    for k in range(n - 1):
        between = np.cumprod(-np.conj(lam[k + 1 : n - 1]))
        M[k + 1 :, k] = s[k] * s[k + 1 :] * np.concatenate(([1.0], between))
    return ModelOperatorMatrix(n=n, zeros=zs, matrix=M)


def verify_extremality(r: float, zeros) -> ExtremalityReport:
    """Check the equality case ||M^{-1}|| = 1/r^n for zeros on |z| = r.

    Builds the model operator, computes both norms, and verifies
    r^n ||M^{-1}|| = 1 together with the norm identity ||M|| = 1, each to
    relative EXTREMALITY_RTOL. The norm identity needs a space of
    dimension at least 2: the 1x1 compression is plain multiplication by
    its zero, so for n = 1 the expected norm is r itself. The defect rank
    is reported alongside (it must be 1 for these contractions).
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    zs = _checked_zeros(zeros)
    for z in zs:
        if abs(abs(z) - r) > 1e-12:
            raise ValueError(f"all zeros must have modulus r = {r}, got |z| = {abs(z):.12g}")
    op = model_operator(zs)
    n = len(zs)
    nrm = linalg.spectral_norm(op.matrix)
    inv = linalg.inverse_norm(op.matrix)
    kron = 1.0 / r**n
    rel_gap = abs(inv - kron) / kron
    norm_target = 1.0 if n >= 2 else r
    if abs(nrm - norm_target) > EXTREMALITY_RTOL * norm_target:
        raise ExtremalityError(f"expected norm {norm_target:.17g}, got {nrm:.17g}")
    if rel_gap > EXTREMALITY_RTOL:
        raise ExtremalityError(
            f"inverse norm {inv:.17g} differs from 1/r^n = {kron:.17g} by relative {rel_gap:.3e}"
        )
    rank = linalg.defect_rank(op.matrix, 1e-8)
    return ExtremalityReport(
        n=n,
        r=r,
        zeros=zs,
        matrix=op.matrix,
        norm=nrm,
        inv_norm=inv,
        kronecker=kron,
        rel_gap=rel_gap,
        defect_rank=rank,
    )
