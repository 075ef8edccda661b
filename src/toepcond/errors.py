"""Exception types shared across the package."""

from __future__ import annotations


class ToepcondError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrixError(ToepcondError):
    """A matrix is singular to working precision: an elimination pivot or
    an inverse norm is beyond the singularity threshold."""


class SingularSymbolError(ToepcondError):
    """A power series with (near-)zero constant term cannot be inverted."""


class BezoutPairError(ToepcondError):
    """The product of a symbol and its claimed reciprocal is not 1 mod z^n."""


class QuadratureAccuracyError(ToepcondError):
    """Circle quadrature failed to reach the required accuracy.

    Carries the last sample count tried and the Gram-matrix deviation it
    achieved; the fix is a larger sample count.
    """

    def __init__(self, message: str, m_last: int, deviation: float):
        super().__init__(message)
        self.m_last = m_last
        self.deviation = deviation


class ExtremalityError(ToepcondError):
    """A model operator failed its norm-equality checks."""


class TwoPathMismatchError(ToepcondError):
    """The two independent inverse-norm computations disagree."""
