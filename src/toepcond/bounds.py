"""Condition-number brackets and the extremal constant.

For 0 < r < 1 the matrix T_r, the Blaschke factor of r applied to the
Jordan block, is a contraction with spectrum {r} whose scaled inverse norm
r^n ||T_r^{-1}|| lies in [max(r^n, 1 - r^n), 1] and in fact equals 1.
check_contraction, the one per-point check of T_r and of the model operator
(one contraction in two bases), states and applies the rule that verifies
it: two identities that such a contraction meets exactly, I - A A* = c c*
and A W = I, in place of any SVD or elimination. _identity_terms forms
|I - A A* - c c*| and, by one rule per row, where A W = I holds, and
_row_sums W x; check_contraction reduces them over the whole block,
grid_sweep once per r over every leading block, where it also runs the
argument checks once; estimate_t_a returns T_r's extremal symbol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .blaschke import BlaschkeFactor, taylor
from .core import AnalyticPolynomial, AnalyticToeplitzMatrix, apply_calculus, reciprocal_series
from .errors import ExtremalityError, SingularMatrixError, ToepcondError, TwoPathMismatchError

PASS_TOL = 1e-8
# relative tolerances: of the value to its enclosure (and, in the tests, of
# two inverse-norm paths), of a value to its closed form
TWO_PATH_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-12
# |A W - I| <= RESIDUAL_GAMMA * (i + 1) * eps * |A| |W| in each row i
RESIDUAL_GAMMA = 4
EPS = float(np.finfo(np.float64).eps)


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


def _bracket_matrices(n: int, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_r, its reciprocal-series inverse and its extremal vector x_k = r^k
    at size n. The matrices are exactly real for real r, so their real parts
    go through the check in real arithmetic."""
    T = build_T_r(n, r)
    G = apply_calculus(reciprocal_series(T.symbol), T.n)
    return T.matrix.real, G.matrix.real, float(r) ** np.arange(T.n)


@functools.cache
def _strictly_upper(n: int) -> np.ndarray:
    """Mask of the entries above the diagonal of an n x n matrix."""
    return np.subtract.outer(np.arange(n), np.arange(n)) < 0


def _vector_norm(v: np.ndarray) -> float:
    """||v|| without overflow up to the float64 limit: math.hypot scales the
    entries, where numpy's vector norm squares them and overflows past 1e154."""
    return math.hypot(*np.abs(v).tolist())


def _checked_arguments(n: int, A, W, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, list]:
    """A, W and x as arrays, ||x|| and the moduli |A_kk|, once the checks of
    check_contraction that come before any kernel pass."""
    M = linalg._as_matrix(A)
    W, x = np.asarray(W), np.asarray(x)
    if M.shape != (n, n):
        raise ValueError(f"expected an n x n matrix at n = {n}, got shape {M.shape}")
    if W.shape != M.shape:
        raise ValueError(f"exact inverse has shape {W.shape}, A has shape {M.shape}")
    if x.shape != (n,):
        raise ValueError(f"certificate has shape {x.shape}, A has shape {M.shape}")
    if M[_strictly_upper(n)].any():
        raise ValueError("expected a lower-triangular matrix")
    if not np.isfinite(M).all():
        raise ValueError("expected a finite matrix")
    length = _vector_norm(x)
    if not 0.0 < length < math.inf:
        raise ValueError("certificate must be nonzero and finite")
    finite = np.isfinite(W)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SingularMatrixError(f"exact inverse has entries beyond the float64 range, first at ({i}, {j})")
    diagonal = np.abs(np.diagonal(M)).tolist()
    if 0.0 in diagonal:
        raise SingularMatrixError("matrix is exactly singular")
    return M, W, x, length, diagonal


def _defect_vector(x: np.ndarray, length: float, diagonal: list) -> np.ndarray:
    """c = sqrt(1 - |det A|^2) x/||x||: the contraction A whose defect is
    spanned by x has I - A A* = c c*, since det(A A*) = 1 - ||c||^2."""
    # 1 - prod |A_kk|^2 without cancellation as |det A| -> 1, and 0 past 1
    defect = -math.expm1(2.0 * min(0.0, math.fsum(map(math.log, diagonal))))
    return math.sqrt(defect) / length * x


def _leading_maxima(B: np.ndarray) -> np.ndarray:
    """The maximum of the nonnegative m x m B over each leading n x n block,
    n = 1..m: a running maximum over the shells max(i, j) = n - 1."""
    return np.maximum.accumulate(np.tril(np.maximum(B, B.T)).max(axis=1))


def _identity_terms(A: np.ndarray, W: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|I - A A* - c c*| and where A W = I holds, for the m x m lower-triangular
    A of check_contraction, its exact inverse W and its defect vector c: entry
    (i, j) holds when |A W - I|_ij <= RESIDUAL_GAMMA (i + 1) eps (|A| |W|)_ij <
    inf, as row i of a triangular product sums at most i + 1 terms. The leading
    n x n blocks of these products are the products of the leading blocks of A
    and W, and the rule does not depend on n, so one product serves every n."""
    m = A.shape[0]
    # an overflow fails the checks of the callers instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A @ A.conj().T + np.outer(c, c.conj())
        residual = A @ W
        scale = np.abs(A) @ np.abs(W)
        gram.flat[:: m + 1] -= 1.0
        residual.flat[:: m + 1] -= 1.0
        terms = np.arange(1, m + 1)[:, None]
        return np.abs(gram), (np.abs(residual) <= RESIDUAL_GAMMA * terms * EPS * scale) & (scale < math.inf)


def _row_sums(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x with each row summed in sequence. For lower-triangular W the sum
    of row i then comes out bitwise the same in every leading block that
    holds that row, where a matvec's blocked sums change with the size, so
    one product of the m x m W serves every n."""
    # an overflow fails the enclosure instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(W * x, axis=1)[:, -1]


def _certify(n: int, r: float, value: float, upper: float, corner: float,
             gram: float, residual_ok: bool) -> BoundsRecord:
    """The verdicts of check_contraction after its argument checks, given
    the value ||W x||/||x||, its enclosure, |A_00| and the verdicts of the
    two identities."""
    # a NaN, or an upper bound beyond float64, fails the negated test
    if not abs(value - upper) <= TWO_PATH_RTOL * upper < math.inf:
        raise TwoPathMismatchError(
            f"inverse norm outside its enclosure: ||W x||/||x|| = {value:.17g}, ||A||^(n-1)/|det A| <= {upper:.17g}"
        )
    if not gram <= CLOSED_FORM_RTOL:
        raise ExtremalityError(f"expected norm {1.0 if n >= 2 else r:.17g}, got n * max|I - A A* - c c*| = {gram:.3g}")
    norm = 1.0 if n >= 2 else corner
    if n == 1 and not abs(norm - r) <= CLOSED_FORM_RTOL * r:
        raise ExtremalityError(f"expected norm {r:.17g}, got {norm:.17g}")
    if not residual_ok:
        raise TwoPathMismatchError(f"exact inverse misses A W = I: |A W - I| > {RESIDUAL_GAMMA} (i + 1) eps |A| |W| "
                                   "in some row i")
    scale = r**n
    if not abs(scale * value - 1.0) <= CLOSED_FORM_RTOL:
        raise TwoPathMismatchError(f"inverse norm misses the closed form: {scale:.17g} * {value:.17g} != 1")
    return bracket_record(n, r, norm, value)


def check_contraction(n: int, r: float, A, W, x) -> BoundsRecord:
    """The record of a lower-triangular n x n contraction A with spectrum on
    |z| = r, its exact inverse W (a series or a closed form) and a vector x
    with ||A^{-1} x|| = ||A^{-1}|| ||x|| (the reproducing kernel of the model
    space at 0), by the one rule for every reported norm.

    Such an A has a one-dimensional defect spanned by x, so with
    c = sqrt(1 - |det A|^2) x/||x|| two identities hold exactly:
    I - A A* = c c* and A W = I. Let E = I - A A* - c c*. In order:

    - Before any kernel: ValueError for an A that is not n x n, finite and
      lower triangular, a W or x of another shape, or a zero or non-finite
      x; SingularMatrixError naming the first inf or NaN entry of W, or for
      a zero A_kk.
    - The value ||W x||/||x||, a lower bound on ||W||, with each row of
      W x summed in sequence (_row_sums), meets the enclosure
      ||A^{-1}|| <= ||A||^(n-1)/|det A| to relative TWO_PATH_RTOL: the
      singular values of A are at most ||A|| and multiply to prod |A_kk|.
      By Weyl's inequality ||A||^2 <= 1 + n * max|E|, which the enclosure
      takes for ||A||^2.
    - n * max|E| <= CLOSED_FORM_RTOL, which puts ||A||^2 that close to its
      closed form 1, else ExtremalityError. At n = 1, ||A|| = |A_00| meets
      r to relative CLOSED_FORM_RTOL. The record's norm is that closed
      form, 1, or |A_00| at n = 1.
    - |A W - I| <= RESIDUAL_GAMMA * (i + 1) * eps * |A| |W| in each row i,
      with |A| |W| finite (_identity_terms).
    - r^n * value = 1 to CLOSED_FORM_RTOL.

    A miss in the enclosure, the residual or the closed form raises
    TwoPathMismatchError.
    """
    M, W, x, length, diagonal = _checked_arguments(n, A, W, x)
    E, holds = _identity_terms(M, W, _defect_vector(x, length, diagonal))
    gram = n * float(E.max())
    # ||A||^(n-1)/|det A| with ||A|| <= sqrt(1 + n max|E|), as factors
    # ||A||/|A_kk| >= 1 over 1/|A_00|, which do not underflow where |det A|
    # would; a Python float overflows to inf without a warning
    norm_bound = math.sqrt(1.0 + gram)
    upper = math.prod([norm_bound / d for d in diagonal[1:]]) / diagonal[0]
    value = _vector_norm(_row_sums(W, x)) / length
    return _certify(n, r, value, upper, diagonal[0], gram, bool(holds.all()))


def theorem_check(n: int, r: float) -> BoundsRecord:
    """Verify the bracket max(r^n, 1-r^n) <= r^n ||T_r^{-1}|| <= 1 at one point.

    T_r, its reciprocal-series inverse and its extremal vector x_k = r^k go
    through check_contraction in real arithmetic. The one limit at every r
    is a series beyond float64, refused at its first such coefficient k,
    entry (k, 0): first at n = 2 for r = 1e-200.
    """
    return check_contraction(n, r, *_bracket_matrices(n, r))


def _failed_record(n: int, r: float, exc: Exception) -> BoundsRecord:
    # NaN norms fail the bracket, so the record comes out passed = False
    rec = bracket_record(n, r, math.nan, math.nan)
    rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def grid_sweep(n_max: int, r_grid: Sequence[float]) -> list[BoundsRecord]:
    """theorem_check over every (n, r) with 1 <= n <= n_max, r in r_grid.

    T_r, its reciprocal series and its extremal vector are built once per
    r, at size n_max: those at size n are exactly their leading blocks. The
    arithmetic of check_contraction runs once per r too, at size n_max, and
    is read for each n: n max|E| from running maxima over the leading
    blocks, A W = I from a running "no miss yet" over them (its rule is per
    row, so the same in every block), the value from the first n row sums
    of the lower-triangular series times x, the enclosure from one
    sequential product per size in math.prod's order. Its argument checks also run once per r, on the
    n_max matrices: the first shell where one fails cuts the products, and
    from that size on they run per point, where they always raise, so that
    each failing n names its own first offending entry. Per point only the
    lengths of the value and _certify run, so each record is bitwise
    theorem_check(n, r). A point whose check raises gets NaN norms,
    passed = False and its exception in `error`; the sweep always
    completes. Records come back sorted by (n, r).
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
        A, G, x = _bracket_matrices(n_max, r)
        diagonal = np.abs(np.diagonal(A)).tolist()
        # the cut m: the first shell where an argument check fails (a
        # nonzero above the diagonal, an inf or NaN in A or W, or a zero
        # A_kk), which would spoil the products (0 * inf) or c (log 0) of
        # the blocks before it
        bad = ~(np.isfinite(A) & np.isfinite(G)) | np.diag(np.diagonal(A) == 0.0)
        bad |= _strictly_upper(n_max) & (A != 0.0)
        m = int(np.count_nonzero(~_leading_maxima(bad)))
        grams = residuals_ok = uppers = sums = xs = []
        if m > 0:
            c = _defect_vector(x[:m], _vector_norm(x[:m]), diagonal[:m])
            E, holds = _identity_terms(A[:m, :m], G[:m, :m], c)
            gram = np.arange(1, m + 1) * _leading_maxima(E)
            residuals_ok = (~_leading_maxima(~holds)).tolist()
            with np.errstate(over="ignore", invalid="ignore"):
                # row n - 1 holds the enclosure factors ||A||/|A_kk| of size
                # n, k = 1..m-1, multiplied in sequence as math.prod does
                products = np.multiply.accumulate(np.sqrt(1.0 + gram)[:, None] / diagonal[1:m], axis=1)
                uppers = [1.0 / diagonal[0], *(np.diagonal(products, -1) / diagonal[0]).tolist()]
            grams = gram.tolist()
            # G is lower triangular, so size n takes the first n row sums;
            # math.hypot drops their signs as _vector_norm does
            sums = _row_sums(G[:m, :m], x[:m]).tolist()
            xs = x[:m].tolist()
        for n in range(1, n_max + 1):
            try:
                # past the cut the checks raise, with this n's own first offending entry
                if n > m:
                    _checked_arguments(n, A[:n, :n], G[:n, :n], x[:n])
                value = math.hypot(*sums[:n]) / math.hypot(*xs[:n])
                records.append(_certify(n, r, value, uppers[n - 1], diagonal[0], grams[n - 1], residuals_ok[n - 1]))
            except (ToepcondError, ValueError) as exc:
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

    That maximum is the Kronecker bound 1/r^n: check_contraction's
    enclosure bounds ||f(M_n)^{-1}|| by 1/|det f(M_n)| = 1/|f(0)|^n, and
    T_r = b_r(M_n), whose inverse norm is 1/r^n, attains it. The result is
    the Taylor symbol of b_r (unit norm, constant term r) with the inverse
    norm theorem_check(n, r) reports for it, clipped to the ceiling 1/r^n,
    so kronecker_gap >= 0 and scaled_value is 1 up to roundoff.
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
