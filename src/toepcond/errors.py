"""Exception types shared across the package."""

from __future__ import annotations


class ToepcondError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrixError(ToepcondError):
    """A matrix is singular to working precision: LAPACK finds it exactly
    singular, or its inverse norm is beyond the singularity threshold."""


class SingularSymbolError(ToepcondError):
    """A power series with (near-)zero constant term cannot be inverted."""


class BezoutPairError(ToepcondError):
    """The product of a symbol and its claimed reciprocal is not 1 mod z^n."""


class ExtremalityError(ToepcondError):
    """A model operator failed its norm-equality checks."""


class TwoPathMismatchError(ToepcondError):
    """The two independent inverse-norm computations disagree."""
