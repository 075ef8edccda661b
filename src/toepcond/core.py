"""Triangular Toeplitz machinery.

An n x n lower-triangular Toeplitz matrix is exactly a polynomial in the
nilpotent Jordan block M_n, so matrices of this class are represented by
the first n Taylor coefficients of their symbol. Multiplication of
matrices is convolution of symbols truncated at order n, and inversion is
the classical triangular power-series reciprocal recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import BezoutPairError, SingularSymbolError

COMMUTATOR_TOL = 1e-12


@dataclass(eq=False)
class AnalyticPolynomial:
    """Truncated Taylor series (a_0, ..., a_{n-1}); the symbol of a matrix."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("truncation order must be at least 1")
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if c.shape[0] != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {c.shape[0]}")
        self.coeffs = c

    @classmethod
    def from_coeffs(cls, coeffs) -> "AnalyticPolynomial":
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        return cls(c.shape[0], c)

    def padded(self, n: int) -> "AnalyticPolynomial":
        """Zero-pad or truncate to order n (truncation == working mod z^n)."""
        c = np.zeros(n, dtype=np.complex128)
        k = min(n, self.n)
        c[:k] = self.coeffs[:k]
        return AnalyticPolynomial(n, c)


@cache
def _toeplitz_index(n: int) -> np.ndarray:
    """The index of each entry of an n x n lower-triangular Toeplitz matrix
    into its first column padded with one 0: i - j on and below the
    diagonal, n above it."""
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    idx[idx < 0] = n
    idx.flags.writeable = False  # every caller shares it
    return idx


def _lower_toeplitz(column: np.ndarray) -> np.ndarray:
    """The C-contiguous lower-triangular Toeplitz matrix of the 1-D column, or
    the stack of those of each row of a 2-D array, in its dtype, by one gather."""
    padded = np.concatenate((column, np.zeros_like(column[..., :1])), axis=-1)
    return np.take(padded, _toeplitz_index(column.shape[-1]), axis=-1)


@dataclass(eq=False)
class AnalyticToeplitzMatrix:
    """Lower-triangular Toeplitz matrix f(M_n) determined by its symbol f."""

    n: int
    symbol: AnalyticPolynomial

    def __post_init__(self):
        if self.symbol.n != self.n:
            self.symbol = self.symbol.padded(self.n)

    @cached_property
    def matrix(self) -> np.ndarray:
        return _lower_toeplitz(self.symbol.coeffs)

    @property
    def first_column(self) -> np.ndarray:
        return self.symbol.coeffs.copy()

    @property
    def r_min(self) -> float:
        """Minimal eigenvalue modulus; the spectrum is {a_0} by triangularity."""
        return float(abs(self.symbol.coeffs[0]))


def jordan_block(n: int) -> np.ndarray:
    """Nilpotent Jordan block: ones on the first subdiagonal."""
    if n < 1:
        raise ValueError("n must be at least 1")
    M = np.zeros((n, n), dtype=np.complex128)
    if n > 1:
        M[np.arange(1, n), np.arange(n - 1)] = 1.0
    return M


def apply_calculus(phi: AnalyticPolynomial, n: int | None = None) -> AnalyticToeplitzMatrix:
    """The matrix phi(M_n), i.e. sum_k phi_k M_n^k.

    Since M_n^n = 0 the series is truncated at order n; a shorter symbol is
    zero-padded. The result is the lower-triangular Toeplitz matrix whose
    first column is the coefficient vector.
    """
    if n is None:
        n = phi.n
    return AnalyticToeplitzMatrix(n, phi.padded(n))


def commutes_with_shift(A) -> bool:
    """Whether A commutes with the Jordan block of its size.

    True exactly for lower-triangular Toeplitz matrices (up to the
    COMMUTATOR_TOL entrywise tolerance).
    """
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError("expected a nonempty square matrix")
    S = jordan_block(M.shape[0])
    return bool(np.max(np.abs(M @ S - S @ M)) <= COMMUTATOR_TOL)


def _reciprocal_rows(a: np.ndarray) -> np.ndarray:
    """The reciprocal series of each row of the (R, n) coefficients a, by the
    recursion g_0 = 1/a_0, g_k = -(sum_{j=1..k} a_j g_{k-j}) / a_0 over all
    rows at once. Each sum runs in sequence, so a row's series is bitwise
    the same alone and in any stack, and its first k coefficients the same
    for every n >= k. Entries beyond float64 come back as inf or NaN,
    without a warning."""
    g = np.zeros(a.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g[:, 0] = 1.0 / a[:, 0]
        for k in range(1, a.shape[1]):
            terms = a[:, 1 : k + 1] * g[:, k - 1 :: -1]
            g[:, k] = -np.add.accumulate(terms, axis=1)[:, -1] / a[:, 0]
    return g


def reciprocal_series(f: AnalyticPolynomial) -> AnalyticPolynomial:
    """g with f*g = 1 mod z^n, by the triangular recursion of _reciprocal_rows.

    The recursion is exact up to roundoff and apply_calculus(g) is the
    inverse matrix of apply_calculus(f). Its sums run in sequence, not in
    BLAS, so g is bitwise the series the grid sweep forms for f among
    others. Only f(0) = 0, where f(M_n) is singular, is refused with
    SingularSymbolError. Coefficients beyond the float64 range, 1/f(0)
    included, come back as inf or NaN without a warning;
    bounds.check_contraction refuses them.
    """
    if f.coeffs[0] == 0:
        raise SingularSymbolError("constant term f(0) = 0: f(M_n) is singular")
    return AnalyticPolynomial(f.n, _reciprocal_rows(f.coeffs[None, :])[0])


def bezout_remainder(f: AnalyticPolynomial, g: AnalyticPolynomial) -> np.ndarray:
    """Coefficients of h in f*g + z^n h = 1.

    Checks that the first n coefficients of the full product f*g are
    (1, 0, ..., 0) and returns the negated tail, of length n-1 (empty for
    n = 1). Raises BezoutPairError when f, g are not reciprocal mod z^n.
    """
    if f.n != g.n:
        raise ValueError("f and g must have the same truncation order")
    n = f.n
    full = np.convolve(f.coeffs, g.coeffs)
    head = full[:n].copy()
    head[0] -= 1.0
    dev = float(np.max(np.abs(head)))
    # a NaN deviation fails the negated test
    if not dev <= 1e-10:
        raise BezoutPairError(f"f*g differs from 1 mod z^n by {dev:.3e}")
    return -full[n:].copy()

