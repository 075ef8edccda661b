"""Blaschke factors.

The factor attached to a zero lambda in the open disk is
b_lambda(z) = (lambda - z)/(1 - conj(lambda) z); it is unimodular on the
unit circle and vanishes at lambda. This module provides its Taylor
expansion and that of its reciprocal, and samples factors and
polynomials on the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import AnalyticPolynomial
from .errors import SingularSymbolError


@dataclass(frozen=True)
class BlaschkeFactor:
    """Single factor b_lambda(z) = (lambda - z)/(1 - conj(lambda) z)."""

    zero: complex

    def __post_init__(self):
        z = complex(self.zero)
        if not abs(z) < 1.0:
            raise ValueError(f"zero must lie in the open unit disk, got |z| = {abs(z):.6g}")
        object.__setattr__(self, "zero", z)

    def eval(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        lam = self.zero
        return (lam - z) / (1.0 - np.conj(lam) * z)


def _one_minus_square(a):
    """1 - a^2 within 7/6 ulp for 0 <= a <= 1: from a = 1/2 on with 1 - a exact (Sterbenz)."""
    return np.where(a < 0.5, 1.0 - a * a, (1.0 - a) * (1.0 + a))


def taylor(factor: BlaschkeFactor, n: int) -> AnalyticPolynomial:
    """First n Taylor coefficients of b_lambda at 0.

    Closed form: a_0 = lambda, a_k = -(1 - |lambda|^2) conj(lambda)^{k-1}
    for k >= 1, 1 - |lambda|^2 by _one_minus_square; -z for lambda = 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = factor.zero
    c = np.zeros(n, dtype=np.complex128)
    c[0] = lam
    if n > 1:
        c[1:] = -_one_minus_square(abs(lam)) * np.conj(lam) ** np.arange(n - 1)
    return AnalyticPolynomial(n, c)


def reciprocal_taylor(factor: BlaschkeFactor, n: int) -> AnalyticPolynomial:
    """First n Taylor coefficients of 1/b_lambda at 0.

    Closed form: c_0 = 1/lambda, c_k = (1 - |lambda|^2)/lambda^{k+1}, weight
    as in taylor. Equals reciprocal_series(taylor(factor, n)) up to roundoff,
    with its contract: coefficients beyond float64 come back as inf or NaN
    without a warning. Undefined for lambda = 0, where the factor vanishes at 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = factor.zero
    if lam == 0:
        raise SingularSymbolError("the factor with zero at the origin vanishes at 0")
    c = np.zeros(n, dtype=np.complex128)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c[0] = 1.0 / lam
        if n > 1:
            c[1:] = _one_minus_square(abs(lam)) / lam ** np.arange(2, n + 1)
    return AnalyticPolynomial(n, c)


def _check_sample_count(m: int) -> int:
    m = int(m)
    if m < 16 or (m & (m - 1)) != 0:
        raise ValueError("sample count must be a power of two, at least 16")
    return m


def eval_on_circle(g: BlaschkeFactor | AnalyticPolynomial, m: int) -> np.ndarray:
    """Moduli |g| at the m-th roots of unity e^{2 pi i k/m}, k = 0..m-1.

    Polynomials are evaluated in one inverse FFT of the zero-padded
    coefficient vector; factors are evaluated pointwise from their
    rational form.
    """
    m = _check_sample_count(m)
    if isinstance(g, BlaschkeFactor):
        z = np.exp(2j * np.pi * np.arange(m) / m)
        return np.abs(g.eval(z))
    coeffs = g.coeffs
    if coeffs.shape[0] > m:
        raise ValueError("sample count must be at least the coefficient count")
    padded = np.zeros(m, dtype=np.complex128)
    padded[: coeffs.shape[0]] = coeffs
    # ifft uses kernel e^{+2 pi i jk/m}, matching evaluation at the roots
    return np.abs(m * np.fft.ifft(padded))

