"""Condition-number brackets and the extremal constant.

For 0 < r < 1 the matrix T_r, the Blaschke factor of r applied to the
Jordan block, is a contraction with spectrum {r} whose scaled inverse norm
r^n ||T_r^{-1}|| lies in [max(r^n, 1 - r^n), 1] and in fact equals 1.
check_contraction, the one per-point check of T_r and of the model operator
(one contraction in two bases), verifies it with the closed form of ||A|| and
two inverse-norm paths; estimate_t_a returns the extremal symbol, T_r's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .blaschke import BlaschkeFactor, taylor
from .core import AnalyticPolynomial, AnalyticToeplitzMatrix, apply_calculus, reciprocal_series
from .errors import ExtremalityError, ToepcondError

PASS_TOL = 1e-8


@dataclass(eq=False)
class BoundsRecord:
    """One grid point: norms of T_r and the bracket verdict.

    `passed` is serialized under the name "pass" (a Python keyword).
    `error` names the exception of a failed point; reports omit it.
    """

    n: int
    r: float
    norm_T: float
    inv_norm: float
    scaled: float
    lower: float
    upper: float
    passed: bool
    error: Optional[str] = None


@dataclass(eq=False)
class SearchConfig:
    """Options of the former coordinate search, still accepted and echoed
    in reports but without effect: the optimum estimate_t_a returns is
    proven, not searched for."""

    seed: int = 42
    restarts: int = 32
    iters: int = 2000


@dataclass(eq=False)
class SearchResult:
    """The extremal symbol of estimate_t_a and its inverse norm 1/r^n.

    best_value is a lower bound on the extremal constant that equals it
    up to roundoff; restarts_used and seed echo the config.
    """

    n: int
    r: float
    best_value: float
    best_coeffs: AnalyticPolynomial
    restarts_used: int
    seed: int
    scaled_value: float
    kronecker_gap: float


def kronecker_bound(n: int, r: float) -> float:
    """The unstructured bound 1/r^n on inverse norms of contractions
    with minimal eigenvalue modulus r; inf beyond the float64 range."""
    n = int(n)
    r = float(r)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    try:
        return r ** (-n)
    except OverflowError:
        return math.inf


def build_T_r(n: int, r: float) -> AnalyticToeplitzMatrix:
    """T_r: the Blaschke factor of r applied to the Jordan block."""
    n = int(n)
    r = float(r)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    return apply_calculus(taylor(BlaschkeFactor(r), n), n)


def bracket_endpoints(n: int, r: float) -> tuple[float, float]:
    rn = float(r) ** int(n)
    return max(rn, 1.0 - rn), 1.0


def bracket_record(n: int, r: float, norm_T: float, inv_norm: float) -> BoundsRecord:
    """The record of one point: the scaled inverse norm r^n * inv_norm
    against the bracket [max(r^n, 1 - r^n), 1], passed within PASS_TOL."""
    n = int(n)
    r = float(r)
    scaled = r**n * inv_norm
    lower, upper = bracket_endpoints(n, r)
    return BoundsRecord(
        n=n, r=r, norm_T=norm_T, inv_norm=inv_norm, scaled=scaled,
        lower=lower, upper=upper, passed=lower - PASS_TOL <= scaled <= upper + PASS_TOL,
    )


def _bracket_matrices(n: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """T_r and its reciprocal-series inverse at size n. Both are exactly
    real for real r, so their real parts go to the real LAPACK routines."""
    T = build_T_r(n, r)
    G = apply_calculus(reciprocal_series(T.symbol), T.n)
    return T.matrix.real, G.matrix.real


def check_contraction(n: int, r: float, A: np.ndarray, W: np.ndarray) -> BoundsRecord:
    """The record of an n x n contraction A with spectrum on |z| = r and W its
    exact inverse. ||A|| must meet its closed form 1 (r at n = 1) to relative
    linalg.CLOSED_FORM_RTOL, else ExtremalityError; ||A^{-1}|| comes from
    linalg.two_path_inverse_norm(A, W, r^n)."""
    norm = linalg.spectral_norm(A)
    target = 1.0 if n >= 2 else r
    if abs(norm - target) > linalg.CLOSED_FORM_RTOL * target:
        raise ExtremalityError(f"expected norm {target:.17g}, got {norm:.17g}")
    return bracket_record(n, r, norm, linalg.two_path_inverse_norm(A, W, r**n))


def theorem_check(n: int, r: float) -> BoundsRecord:
    """Verify the bracket max(r^n, 1-r^n) <= r^n ||T_r^{-1}|| <= 1 at one point.

    T_r goes through check_contraction in real arithmetic: ||T_r|| = 1, and
    the LAPACK inverse norm checked against the exact reciprocal-series
    inverse (which gives it alone beyond 1/linalg.PIVOT_TOL, r^n below about
    1e-14) and the closed form r^n ||T_r^{-1}|| = 1 (T_r is the model operator
    of b_r^n up to a diagonal sign change). That rule refuses a series beyond
    float64 at its first such coefficient k, entry (k, 0): the one limit at
    every r, first at n = 2 for r = 1e-200.
    """
    return check_contraction(n, r, *_bracket_matrices(n, r))


def _failed_record(n: int, r: float, exc: Exception) -> BoundsRecord:
    # NaN norms fail the bracket, so the record comes out passed = False
    rec = bracket_record(n, r, math.nan, math.nan)
    rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def grid_sweep(n_max: int, r_grid: Sequence[float]) -> list[BoundsRecord]:
    """theorem_check over every (n, r) with 1 <= n <= n_max, r in r_grid.

    T_r and its reciprocal series are built once per r, at size n_max:
    the matrices at size n are exactly their leading n x n blocks, so each
    record is bitwise theorem_check(n, r). A point whose check raises gets
    NaN norms, passed = False and its exception in `error`; the sweep
    always completes. Records come back sorted by (n, r).
    """
    n_max = int(n_max)
    if not 1 <= n_max <= 64:
        raise ValueError("n_max must lie in 1..64")
    rs = [float(r) for r in r_grid]
    for r in rs:
        if not 0.0 < r < 1.0:
            raise ValueError("grid values must lie strictly between 0 and 1")
    records = []
    for r in rs:
        A, G = _bracket_matrices(n_max, r)
        for n in range(1, n_max + 1):
            try:
                records.append(check_contraction(n, r, A[:n, :n], G[:n, :n]))
            except ToepcondError as exc:
                records.append(_failed_record(n, r, exc))
    records.sort(key=lambda rec: (rec.n, rec.r))
    return records


def check_search_point(n: int, r: float) -> tuple[int, float]:
    """(n, r) as estimate_t_a takes them; ValueError unless n lies in 1..16
    and r in (0, 1)."""
    n = int(n)
    r = float(r)
    if not 1 <= n <= 16:
        raise ValueError("n must lie in 1..16")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    return n, r


def estimate_t_a(n: int, r: float, config: SearchConfig | None = None) -> SearchResult:
    """The largest inverse norm over symbols f with ||f(M_n)|| <= 1 and
    |f(0)| >= r, together with a symbol that attains it.

    That maximum is the Kronecker bound 1/r^n, attained by the Taylor
    symbol of b_r. No feasible f exceeds it: the singular values of f(M_n)
    are at most 1 and their product is |f(0)|^n >= r^n, so its smallest
    singular value is at least r^n. T_r = b_r(M_n) reaches it: I - T_r*T_r
    has rank one, so the singular values of T_r are 1, ..., 1, r^n.

    The result is that symbol, exactly feasible (unit norm, constant term
    r), with the inverse norm theorem_check(n, r) reports for it, under
    the same two-path and closed-form checks. The value is clipped to the
    ceiling 1/r^n, so kronecker_gap >= 0 and scaled_value is 1 up to
    roundoff. The config is echoed in the result (restarts_used, seed)
    but changes nothing.
    """
    n, r = check_search_point(n, r)
    cfg = config or SearchConfig()
    symbol = build_T_r(n, r).symbol
    value = theorem_check(n, r).inv_norm
    scaled = min(1.0, r**n * value)
    return SearchResult(
        n=n,
        r=r,
        best_value=min(value, kronecker_bound(n, r)),
        best_coeffs=symbol,
        restarts_used=max(1, cfg.restarts),
        seed=cfg.seed,
        scaled_value=scaled,
        kronecker_gap=1.0 - scaled,
    )
