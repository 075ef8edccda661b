"""Exception types shared across the package."""

from __future__ import annotations


class ToepcondError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrixError(ToepcondError):
    """A matrix is singular to working precision: LAPACK finds it exactly
    singular, linalg.inverse_norm finds its inverse beyond the singularity
    threshold, or its exact inverse has entries beyond the float64 range."""


class SingularSymbolError(ToepcondError):
    """A power series with (near-)zero constant term cannot be inverted."""


class BezoutPairError(ToepcondError):
    """The product of a symbol and its claimed reciprocal is not 1 mod z^n."""


class ExtremalityError(ToepcondError):
    """A contraction missed the closed form of its norm."""


class TwoPathMismatchError(ToepcondError):
    """The inverse norm leaves its enclosure ||A||^(n-1)/|det A|, the two
    independent inverse-norm computations disagree, or the inverse norm
    misses its closed form (see bounds.check_contraction)."""
