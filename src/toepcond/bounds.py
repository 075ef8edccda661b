"""Condition-number brackets and the extremal constant.

For 0 < r < 1 the matrix T_r, the Blaschke factor of r applied to the
Jordan block, is a contraction with spectrum {r} whose scaled inverse norm
r^n ||T_r^{-1}|| lies in [max(r^n, 1 - r^n), 1] and in fact equals 1.
check_contraction, the one per-point check of T_r and of the model operator
(one contraction in two bases), states and applies the rule that verifies
it: two identities that such a contraction meets exactly, I - A A* = c c*
and A W = I, in place of any SVD or elimination. _identity_terms forms
|I - A A* - c c*| and, by one rule per row, where A W = I holds, and
_row_sums W x; check_contraction reduces them over the whole block, and
grid_sweep once per r over every leading block, with the argument cut,
lengths and _verdicts as stacks over a batch of radii; a failing size's
fields, from check_contraction, are written into the batch's arrays. These
join into one column per BoundsRecord field (_sweep_columns), which verify
reports from. estimate_t_a returns T_r's extremal symbol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .blaschke import BlaschkeFactor, _taylor_rows, taylor
from .core import AnalyticPolynomial, AnalyticToeplitzMatrix, _lower_toeplitz, _reciprocal_rows, apply_calculus
from .errors import ExtremalityError, SingularMatrixError, ToepcondError, TwoPathMismatchError

PASS_TOL = 1e-8
# relative tolerances: of the value to its enclosure (and, in the tests, of
# two inverse-norm paths), of a value to its closed form
TWO_PATH_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-12
# |A W - I| <= RESIDUAL_GAMMA * (i + 1) * eps * |A| |W| in each row i
RESIDUAL_GAMMA = 4
EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)
_BATCH = 64  # radii per batch of grid_sweep: 2 MB per (R, 64, 64) stack


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

    best_value is a lower bound on the extremal constant; restarts_used
    and seed echo the config.
    """

    n: int
    r: float
    best_value: float
    best_coeffs: AnalyticPolynomial
    restarts_used: int
    seed: int
    scaled_value: float
    kronecker_gap: float


def _bound_domain(n: int, r: float, closed: bool = True) -> tuple[int, float]:
    """n and r as int and float; ValueError unless n >= 1 and r lies in (0, 1], or in (0, 1) if not closed."""
    n, r = int(n), float(r)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < r < 1.0 or closed and r == 1.0):
        raise ValueError("r must lie in (0, 1]" if closed else "r must lie strictly between 0 and 1")
    return n, r


def kronecker_bound(n: int, r: float) -> float:
    """The unstructured bound 1/r^n on inverse norms of contractions
    with minimal eigenvalue modulus r; inf beyond the float64 range."""
    n, r = _bound_domain(n, r)
    try:
        return r ** (-n)
    except OverflowError:
        return math.inf


def _exact_floor(n: int, r: float) -> float:
    """The largest float at or below the exact 1/r^n = q^n/p^n of r = p/q,
    or the largest finite float where 1/r^n is beyond it."""
    p, q = (k**n for k in r.as_integer_ratio())
    try:
        nearest = q / p  # int division rounds to nearest
    except OverflowError:
        return math.nextafter(math.inf, 0.0)
    num, den = nearest.as_integer_ratio()
    return math.nextafter(nearest, 0.0) if num * p > q * den else nearest


def build_T_r(n: int, r: float) -> AnalyticToeplitzMatrix:
    """T_r: the Blaschke factor of r applied to the Jordan block."""
    n, r = _bound_domain(n, r, closed=False)
    return apply_calculus(taylor(BlaschkeFactor(r), n))


def bracket_endpoints(n: int, r: float) -> tuple[float, float]:
    n, r = _bound_domain(n, r)
    return max(r**n, 1.0 - r**n), 1.0


def _bracket(rn, inv_norm):
    """The scaled inverse norm r^n * inv_norm, the lower end max(r^n, 1 - r^n)
    of the bracket [lower, 1] and whether the scaled value lies in it within
    PASS_TOL, for rn = r^n: of one size, or elementwise over arrays of sizes."""
    scaled = rn * inv_norm
    lower = np.maximum(rn, 1.0 - rn)
    return scaled, lower, (lower - PASS_TOL <= scaled) & (scaled <= 1.0 + PASS_TOL)


def bracket_record(n: int, r: float, norm_T: float, inv_norm: float) -> BoundsRecord:
    """The record of one point: the scaled inverse norm r^n * inv_norm
    against the bracket [max(r^n, 1 - r^n), 1], passed within PASS_TOL."""
    n, r = int(n), float(r)
    scaled, lower, passed = _bracket(r**n, inv_norm)
    return BoundsRecord(n=n, r=r, norm_T=norm_T, inv_norm=inv_norm, scaled=scaled,
                        lower=float(lower), upper=1.0, passed=bool(passed))


def _bracket_matrices(n: int, rs: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_r, its reciprocal-series inverse and its extremal vector x_k = r^k at
    size n for every r of rs, as C-contiguous float64 stacks of shapes
    (R, n, n), (R, n, n) and (R, n), gathered from the real parts of the
    coefficients: each row is bitwise what taylor and reciprocal_series form
    alone, and exactly real, so the check runs in real arithmetic."""
    radii = np.array(rs, dtype=np.float64)
    coeffs = _taylor_rows(radii, n)
    return _lower_toeplitz(coeffs.real), _lower_toeplitz(_reciprocal_rows(coeffs).real), radii[:, None] ** np.arange(n)


@functools.cache
def _strictly_upper(n: int) -> np.ndarray:
    """Mask of the entries above the diagonal of an n x n matrix."""
    mask = np.subtract.outer(np.arange(n), np.arange(n)) < 0
    mask.flags.writeable = False  # every caller shares it
    return mask


def _prefix_norms(v) -> list[float]:
    """||v[:n]|| for n = 1..len(v), each from v[:n] alone and within
    (n/2 + 1) eps: the square root of a running sum of squares, added left
    to right. From the first square outside the normal range, or sum past
    it, math.hypot of the prefix, which does not overflow."""
    moduli = np.abs(v).tolist()
    norms, total = [], 0.0
    for k, a in enumerate(moduli):
        square = a * a
        total += square
        if not (square >= TINY or a == 0.0) or total == math.inf:
            return norms + [math.hypot(*moduli[:n]) for n in range(k + 1, len(moduli) + 1)]
        norms.append(math.sqrt(total))
    return norms


def _prefix_norm_rows(V: np.ndarray) -> np.ndarray:
    """_prefix_norms of each row of the 2-D V, bitwise, as one (R, m) array:
    the square roots of one np.add.accumulate of the squares along the rows,
    which adds in sequence as the loop does. A row with a square outside the
    normal range, or a sum at inf or NaN, takes _prefix_norms itself."""
    moduli = np.abs(V)
    with np.errstate(over="ignore"):  # an overflow takes the loop instead of warning
        squares = moduli * moduli
        norms = np.sqrt(np.add.accumulate(squares, axis=1))
    normal = ((squares >= TINY) | (moduli == 0.0)).all(axis=1) & (norms[:, -1] < math.inf)
    for i in np.flatnonzero(~normal).tolist():
        norms[i] = _prefix_norms(V[i])
    return norms


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
    length = _prefix_norms(x)[-1]
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


@functools.cache
def _shells(m: int) -> np.ndarray:
    """The shell max(i, j) of each entry of an m x m matrix."""
    shells = np.maximum.outer(np.arange(m), np.arange(m))
    shells.flags.writeable = False  # every caller shares it
    return shells


def _first_shell(B: np.ndarray) -> int:
    """The least shell max(i, j) that holds a True entry of the m x m boolean
    B, or m if none does: the number of leading blocks of B with no True
    entry."""
    return int(_shells(len(B)).min(where=B, initial=len(B)))


def _leading_maxima(B: np.ndarray) -> np.ndarray:
    """The maximum of the nonnegative m x m B over each leading n x n block,
    n = 1..m: a running maximum over the shells max(i, j) = n - 1."""
    shells = np.maximum(B, B.T)
    shells[_strictly_upper(len(B))] = 0
    return np.maximum.accumulate(shells.max(axis=1))


@functools.cache
def _residual_tolerance(m: int) -> np.ndarray:
    """RESIDUAL_GAMMA (i + 1) eps for each row i of an m x m product."""
    column = RESIDUAL_GAMMA * np.arange(1, m + 1)[:, None] * EPS
    column.flags.writeable = False  # every caller shares it
    return column


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
        gram = A @ A.conj().T + c[:, None] * c.conj()
        residual = A @ W
        scale = np.abs(A) @ np.abs(W)
        gram.flat[:: m + 1] -= 1.0
        residual.flat[:: m + 1] -= 1.0
        return np.abs(gram), (np.abs(residual) <= _residual_tolerance(m) * scale) & (scale < math.inf)


def _row_sums(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x with each row summed in sequence. For lower-triangular W the sum
    of row i then comes out bitwise the same in every leading block that
    holds that row, where a matvec's blocked sums change with the size, so
    one product of the m x m W serves every n. x goes in as a row, which
    keeps a 1 x 1 complex W off numpy's scalar product: it rounds twice."""
    # an overflow fails the enclosure instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(W * x[None, :], axis=1)[:, -1]


def _verdicts(n, rn, value, upper, corner, gram, residual_ok) -> tuple:
    """The checks of check_contraction after its argument checks, in its
    order, for one size n or elementwise over arrays of sizes: the value
    ||W x||/||x|| within its enclosure `upper`, n * max|E| `gram` within
    CLOSED_FORM_RTOL, |A_00| = `corner` at rn = r for n = 1, A W = I by the
    rule of _identity_terms, and the closed form rn * value = 1, rn = r^n."""
    # a NaN, or an upper bound beyond float64, fails each comparison
    return (
        (abs(value - upper) <= TWO_PATH_RTOL * upper) & (TWO_PATH_RTOL * upper < math.inf),
        gram <= CLOSED_FORM_RTOL,
        (n >= 2) | (abs(corner - rn) <= CLOSED_FORM_RTOL * rn),
        residual_ok,
        abs(rn * value - 1.0) <= CLOSED_FORM_RTOL,
    )


def _certify(n: int, r: float, value: float, upper: float, corner: float,
             gram: float, residual_ok: bool) -> BoundsRecord:
    """check_contraction's record of a size whose arguments passed, from the
    value, its enclosure, |A_00| and the verdicts of the two identities: the
    error of the first of the _verdicts that fails, typed, with its numbers."""
    rn = r**n
    enclosed, normed, cornered, inverted, closed = _verdicts(n, rn, value, upper, corner, gram, residual_ok)
    if not enclosed:
        raise TwoPathMismatchError(
            f"inverse norm outside its enclosure: ||W x||/||x|| = {value:.17g}, ||A||^(n-1)/|det A| <= {upper:.17g}"
        )
    if not normed:
        raise ExtremalityError(f"expected norm {1.0 if n >= 2 else r:.17g}, got n * max|I - A A* - c c*| = {gram:.3g}")
    norm = 1.0 if n >= 2 else corner
    if not cornered:
        raise ExtremalityError(f"expected norm {r:.17g}, got {norm:.17g}")
    if not inverted:
        raise TwoPathMismatchError(f"exact inverse misses A W = I: |A W - I| > {RESIDUAL_GAMMA} (i + 1) eps |A| |W| "
                                   "in some row i")
    if not closed:
        raise TwoPathMismatchError(f"inverse norm misses the closed form: {rn:.17g} * {value:.17g} != 1")
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
      W x summed in sequence (_row_sums) and lengths from _prefix_norms,
      meets the enclosure
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
    return _contraction_terms(n, r, A, W, x)[0]


def _contraction_terms(n: int, r: float, A, W, x) -> tuple[BoundsRecord, np.ndarray, np.ndarray]:
    """The record of check_contraction, with the |E| and c it was read from."""
    M, W, x, length, diagonal = _checked_arguments(n, A, W, x)
    c = _defect_vector(x, length, diagonal)
    E, holds = _identity_terms(M, W, c)
    gram = n * float(E.max())
    # 1/|det A| as the 1/|A_kk| in sequence, which do not underflow where
    # |det A| would. The power is numpy's array power, which grid_sweep
    # takes for every size at once: its scalar power, and its square for
    # x ** 2.0, can differ from it by an ulp. x ** 0 = 1 for every x, inf and
    # NaN too, so n = 1 reads 1/|A_00| whatever the Gram term
    with np.errstate(over="ignore"):  # a numpy power overflows to inf; a float's raises
        power = np.sqrt(np.array([1.0 + gram])) ** np.array([n - 1.0])
        upper = float((power * math.prod([1.0 / d for d in diagonal]))[0])
    value = _prefix_norms(_row_sums(W, x))[-1] / length
    return _certify(n, r, value, upper, diagonal[0], gram, bool(holds.all())), E, c


def theorem_check(n: int, r: float) -> BoundsRecord:
    """Verify the bracket max(r^n, 1-r^n) <= r^n ||T_r^{-1}|| <= 1 at one point.

    T_r, its reciprocal-series inverse and its extremal vector x_k = r^k go
    through check_contraction in real arithmetic, for n >= 1 and r in (0, 1).
    The one limit at every r is a series beyond float64, refused at its
    first such coefficient k, entry (k, 0): first at n = 2 for r = 1e-200.
    """
    n, r = _bound_domain(n, r, closed=False)
    return check_contraction(n, r, *(stack[0] for stack in _bracket_matrices(n, (r,))))


def _failed_record(n: int, r: float, exc: Exception) -> BoundsRecord:
    # NaN norms fail the bracket, so the record comes out passed = False
    rec = bracket_record(n, r, math.nan, math.nan)
    rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _sweep_batch(n_max: int, rs: list[float]) -> tuple[np.ndarray, ...]:
    """grid_sweep's (R, n_max) norm_T, inv_norm, scaled, lower, passed and error at rs, failing sizes' written in."""
    (A, G, X), R, sizes = _bracket_matrices(n_max, rs), len(rs), np.arange(1, n_max + 1)
    moduli = np.abs(np.diagonal(A, axis1=1, axis2=2))
    # the cut of each r: the first shell where an argument check fails (a
    # nonzero above the diagonal, an inf or NaN in A or W, a zero A_kk), which
    # would spoil the products (0 * inf) or c (log 0) of the blocks before it;
    # x_0 = 1, so 1 <= ||x[:n]|| <= sqrt(n) and x always passes
    bad = ~(np.isfinite(A) & np.isfinite(G)) | (_strictly_upper(n_max) & (A != 0.0))
    bad.reshape(R, -1)[:, :: n_max + 1] |= moduli == 0.0
    cuts = np.broadcast_to(_shells(n_max), bad.shape).min(axis=(1, 2), where=bad, initial=n_max)
    lengths, sums = _prefix_norm_rows(X), np.zeros((R, n_max))
    maxima, clean = np.full((R, n_max), np.nan), np.zeros(R, int)
    for i, (m, diagonal) in enumerate(zip(cuts.tolist(), moduli.tolist())):
        if m > 0:
            x, W = X[i, :m], G[i, :m, :m]
            E, holds = _identity_terms(A[i, :m, :m], W, _defect_vector(x, lengths[i, m - 1], diagonal[:m]))
            maxima[i, :m], clean[i] = _leading_maxima(E), _first_shell(~holds)
            # W is lower triangular, so size n takes the first n row sums
            sums[i, :m] = _row_sums(W, x)
    # past its cut a size's value is NaN, which fails its verdicts
    values = np.where(sizes <= cuts[:, None], _prefix_norm_rows(sums) / lengths, np.nan)
    gram, inverted = sizes * maxima, sizes <= clean[:, None]
    rn = np.array([[r**n for n in sizes.tolist()] for r in rs])
    # past a cut (1/0, inf - inf), and an overflow anywhere, fail the verdicts instead of warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # every size's 1/|det A| from one product in sequence, as math.prod forms it
        uppers = np.sqrt(1.0 + gram) ** np.arange(n_max) * np.cumprod(1.0 / moduli, axis=1)
        ok = np.logical_and.reduce(_verdicts(sizes, rn, values, uppers, moduli[:, :1], gram, inverted))
        scaled, lower, passed = _bracket(rn, values)
    norm_T, errors = np.where(sizes == 1, moduli[:, :1], 1.0), np.full((R, n_max), None)
    # each failing size's own record: check_contraction's, or its first offending entry
    for i, k in np.argwhere(~ok).tolist():
        n, r = k + 1, rs[i]
        try:
            rec = check_contraction(n, r, A[i, :n, :n], G[i, :n, :n], X[i, :n])
        except (ToepcondError, ValueError) as exc:
            rec = _failed_record(n, r, exc)
        norm_T[i, k], values[i, k], scaled[i, k], lower[i, k], passed[i, k], errors[i, k] = (
            rec.norm_T, rec.inv_norm, rec.scaled, rec.lower, rec.passed, rec.error)
    return norm_T, values, scaled, lower, passed, errors


def _sweep_columns(n_max: int, r_grid: Sequence[float]) -> list[list]:
    """grid_sweep's records as nine columns, one per BoundsRecord field, each in
    (n, r) order: the batches' (R, n_max) arrays joined and transposed once."""
    n_max = int(n_max)
    if not 1 <= n_max <= 64:
        raise ValueError("n_max must lie in 1..64")
    rs = sorted(float(r) for r in r_grid)
    if not all(0.0 < r < 1.0 for r in rs):
        raise ValueError("grid values must lie strictly between 0 and 1")
    batches = [_sweep_batch(n_max, rs[start : start + _BATCH]) for start in range(0, len(rs), _BATCH)]
    norm_T, inv_norm, scaled, lower, passed, error = [np.concatenate(stacks).T.ravel().tolist()
                                                      for stacks in zip(*batches)] or [[]] * 6
    return [np.repeat(np.arange(1, n_max + 1), len(rs)).tolist(), np.tile(rs, n_max).tolist(),
            norm_T, inv_norm, scaled, lower, [1.0] * len(norm_T), passed, error]


def grid_sweep(n_max: int, r_grid: Sequence[float]) -> list[BoundsRecord]:
    """theorem_check over every (n, r) with 1 <= n <= n_max, r in r_grid.

    The sorted radii go in batches of at most _BATCH, which keeps memory
    flat on any grid. A batch builds T_r, its series and its extremal
    vector at size n_max as stacks over its radii: those at size n are
    their leading blocks. One masked minimum over the stacks gives each r
    its cut, the first shell where an argument check of check_contraction
    fails. Up to its cut each r alone forms the products, which take longer
    stacked, and reads every size from them: n max|E| from running maxima
    over the leading blocks, A W = I up to the first shell with a miss (its
    rule is per row), the row sums of W x. The running norms of x and of W x
    (one accumulate over the batch each, bitwise _prefix_norms row by row),
    the enclosures (one cumprod of the 1/|A_kk| in math.prod's order, one
    array power, as check_contraction takes them), the _verdicts and the
    brackets come as (R, n_max) arrays. A size whose verdict fails, and every
    size past the cut, goes through check_contraction on its leading blocks;
    its record's fields, bitwise theorem_check(n, r)'s, or where that raises
    NaN norms, passed = False and its `error`, are written into those arrays.
    Records come in (n, r) order, from _sweep_columns, which verify reads too.
    """
    return list(map(BoundsRecord, *_sweep_columns(n_max, r_grid)))


def check_search_point(n: int, r: float) -> tuple[int, float]:
    """(n, r) as estimate_t_a takes them; ValueError unless n lies in 1..16
    and r in (0, 1)."""
    if not 1 <= int(n) <= 16:
        raise ValueError("n must lie in 1..16")
    return _bound_domain(n, r, closed=False)


def estimate_t_a(n: int, r: float, config: SearchConfig | None = None) -> SearchResult:
    """The largest inverse norm over symbols f with ||f(M_n)|| <= 1 and
    |f(0)| >= r, together with a symbol that attains it.

    That maximum is the Kronecker bound 1/r^n: check_contraction's
    enclosure bounds ||f(M_n)^{-1}|| by 1/|det f(M_n)| = 1/|f(0)|^n, and
    T_r = b_r(M_n), whose inverse norm is 1/r^n, attains it. The result is
    the Taylor symbol of b_r (unit norm, constant term r) with the inverse
    norm theorem_check(n, r) reports for it, clipped to _exact_floor, so
    best_value is a lower bound, kronecker_gap >= 0 and scaled_value is 1
    up to roundoff.
    """
    n, r = check_search_point(n, r)
    cfg = config or SearchConfig()
    rec = theorem_check(n, r)
    scaled = min(1.0, rec.scaled)
    return SearchResult(n=n, r=r, best_value=min(rec.inv_norm, _exact_floor(n, r)),
                        best_coeffs=taylor(BlaschkeFactor(r), n), restarts_used=cfg.restarts,
                        seed=cfg.seed, scaled_value=scaled, kronecker_gap=1.0 - scaled)
