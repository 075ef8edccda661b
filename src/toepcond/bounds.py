"""Condition-number brackets and the extremal-constant search.

For 0 < r < 1 the matrix T_r, the Blaschke factor of r applied to the
Jordan block, is a contraction with spectrum {r} whose scaled inverse norm
r^n ||T_r^{-1}|| lies in [max(r^n, 1 - r^n), 1]. theorem_check verifies
that bracket point by point with two independent inverse-norm
computations; estimate_t_a searches for symbols that push the inverse
norm higher under the same constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .blaschke import BlaschkeFactor, taylor
from .core import AnalyticPolynomial, AnalyticToeplitzMatrix, apply_calculus, reciprocal_series
from .errors import (
    SingularMatrixError,
    ToepcondError,
    TwoPathMismatchError,
)

PASS_TOL = 1e-8
TWO_PATH_RTOL = 1e-8
# a projected search candidate may undershoot |f(0)| >= r by this many
# units in the last place of r, the rounding of dividing by its norm
F0_ULPS = 2


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
    seed: int = 42
    restarts: int = 32
    iters: int = 2000
    initial_step: float = 0.1
    min_step: float = 1e-12


@dataclass(eq=False)
class SearchResult:
    """Best symbol found by estimate_t_a; a lower bound on the extremal constant."""

    n: int
    r: float
    best_value: float
    best_coeffs: AnalyticPolynomial
    restarts_used: int
    seed: int
    scaled_value: float
    kronecker_gap: float


@dataclass(eq=False)
class RemarkScanReport:
    """Exploratory table of scaled estimates over an (n, r) grid.

    inf_over_n maps each r to the smallest scaled estimate across n;
    inf_over_r maps each n to the smallest across r. Measurements only:
    nothing here asserts anything beyond the theorem bracket.
    """

    results: list
    inf_over_n: dict
    inf_over_r: dict


def kronecker_bound(n: int, r: float) -> float:
    """The unstructured bound 1/r^n on inverse norms of contractions
    with minimal eigenvalue modulus r."""
    n = int(n)
    r = float(r)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    return float(r ** (-n))


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


def _bracket_matrices(n: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """T_r and its reciprocal-series inverse at size n. Both are exactly
    real for real r, so their real parts go to the real LAPACK routines."""
    T = build_T_r(n, r)
    G = apply_calculus(reciprocal_series(T.symbol), T.n)
    return T.matrix.real, G.matrix.real


def _check_point(n: int, r: float, A: np.ndarray, G: np.ndarray) -> BoundsRecord:
    norm_T = linalg.spectral_norm(A)
    inv_series = linalg.spectral_norm(G)
    try:
        inv_solve = linalg.inverse_norm(A)
    except SingularMatrixError:
        inv_solve = None
    if inv_solve is not None:
        rel = abs(inv_solve - inv_series) / max(inv_solve, inv_series)
        if rel > TWO_PATH_RTOL:
            raise TwoPathMismatchError(
                f"inverse-norm paths disagree at (n={n}, r={r}): "
                f"solve {inv_solve:.17g} vs series {inv_series:.17g} (relative {rel:.3e})"
            )
    inv_norm = inv_solve if inv_solve is not None else inv_series
    rn = float(r) ** int(n)
    scaled = rn * inv_norm
    lower, upper = bracket_endpoints(n, r)
    passed = (lower - PASS_TOL <= scaled) and (scaled <= upper + PASS_TOL)
    return BoundsRecord(
        n=int(n),
        r=float(r),
        norm_T=norm_T,
        inv_norm=inv_norm,
        scaled=scaled,
        lower=lower,
        upper=upper,
        passed=passed,
    )


def theorem_check(n: int, r: float) -> BoundsRecord:
    """Verify the bracket max(r^n, 1-r^n) <= r^n ||T_r^{-1}|| <= 1 at one point.

    The inverse norm is computed twice, in real arithmetic: as
    1/sigma_min(T_r) from the LAPACK inverse of T_r itself, and as the
    spectral norm of the exact reciprocal-series inverse. The two must
    agree to TWO_PATH_RTOL relative, otherwise a TwoPathMismatchError is
    raised; the first value fills the record.

    When the inverse norm exceeds 1/linalg.PIVOT_TOL (r^n below about
    1e-14) the first path reports numerical singularity by contract; the
    record is then filled from the series path alone, which stays accurate
    because the reciprocal recursion has no cancellation for these symbols.
    """
    return _check_point(n, r, *_bracket_matrices(n, r))


def _failed_record(n: int, r: float, exc: Exception) -> BoundsRecord:
    lower, upper = bracket_endpoints(n, r)
    nan = float("nan")
    return BoundsRecord(
        n=int(n), r=float(r), norm_T=nan, inv_norm=nan, scaled=nan,
        lower=lower, upper=upper, passed=False, error=f"{type(exc).__name__}: {exc}",
    )


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
    ns = range(1, n_max + 1)
    records = []
    for r in rs:
        try:
            A, G = _bracket_matrices(n_max, r)
        except ToepcondError as exc:
            records.extend(_failed_record(n, r, exc) for n in ns)
            continue
        for n in ns:
            try:
                records.append(_check_point(n, r, A[:n, :n], G[:n, :n]))
            except ToepcondError as exc:
                records.append(_failed_record(n, r, exc))
    records.sort(key=lambda rec: (rec.n, rec.r))
    return records


def _trend(values: Sequence[float]) -> str:
    diffs = np.diff(np.asarray(values, dtype=float))
    if diffs.size == 0:
        return "single"
    if np.all(diffs >= -1e-12):
        return "nondecreasing"
    if np.all(diffs <= 1e-12):
        return "nonincreasing"
    return "mixed"


def scaled_trends(records: Sequence[BoundsRecord]) -> dict:
    """Informational monotonicity summary of scaled values.

    For each r, the trend of scaled in n; for each n, the trend in r.
    Nothing is asserted; the caller decides what to report.
    """
    by_r: dict = {}
    by_n: dict = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append((rec.n, rec.scaled))
        by_n.setdefault(rec.n, []).append((rec.r, rec.scaled))
    in_n = {r: _trend([s for _, s in sorted(pts)]) for r, pts in by_r.items()}
    in_r = {n: _trend([s for _, s in sorted(pts)]) for n, pts in by_n.items()}
    return {"in_n_for_fixed_r": in_n, "in_r_for_fixed_n": in_r}


def _inverse_norm_series(coeffs: np.ndarray) -> float:
    """Inverse norm of f(M_n) from the reciprocal-series path, which is
    cheap and accurate even at extreme condition numbers."""
    g = reciprocal_series(AnalyticPolynomial.from_coeffs(coeffs))
    return linalg.spectral_norm(apply_calculus(g, g.n).matrix)


def _objective(coeffs: np.ndarray, r: float) -> tuple[Optional[float], Optional[np.ndarray]]:
    """Inverse norm of the projected candidate, or (None, None) if infeasible.

    The candidate is rescaled to unit norm when its matrix exceeds norm 1
    (the inverse norm scales the opposite way, so projection never hurts a
    maximizer), then rejected if the constant term dropped below r by more
    than F0_ULPS units in the last place.
    """
    f = AnalyticPolynomial.from_coeffs(coeffs)
    proj = f.coeffs / max(1.0, linalg.spectral_norm(apply_calculus(f, f.n).matrix))
    if abs(proj[0]) < r - F0_ULPS * math.ulp(r):
        return None, None
    return _inverse_norm_series(proj), proj


_DIRECTIONS = (1.0, -1.0, 1.0j, -1.0j)


def estimate_t_a(n: int, r: float, config: SearchConfig | None = None) -> SearchResult:
    """Estimate (from below) the largest inverse norm over symbols f with
    ||f(M_n)|| <= 1 and |f(0)| >= r.

    Derivative-free coordinate search with shrinking steps. Restart 0
    starts from the Taylor symbol of T_r, so theorem_check's value is
    always a floor; the remaining restarts start from rotations
    e^{i theta} of that symbol, with seeded pseudo-random offsets added on
    every second one. Each restart draws its own generator seeded by
    (seed, restart index), so results do not depend on execution order;
    ties between restarts go to the lowest index. Identical inputs give
    bit-identical results.
    """
    n = int(n)
    r = float(r)
    if not 1 <= n <= 16:
        raise ValueError("n must lie in 1..16")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    cfg = config or SearchConfig()
    base = taylor(BlaschkeFactor(r), n).coeffs

    best_value = -math.inf
    best_coeffs = None
    for j in range(max(1, cfg.restarts)):
        if j == 0:
            # the seed symbol is feasible exactly (unit norm, constant term
            # r), so it enters unprojected: a computed norm a few ulps
            # above 1 must not push its constant term below r
            value, current = _inverse_norm_series(base), base.copy()
        else:
            theta = 2.0 * math.pi * j / max(1, cfg.restarts)
            start = np.exp(1j * theta) * base
            if j % 2 == 0:
                rng = np.random.default_rng([cfg.seed, j])
                start = start + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                # keep the start feasible in the constant term
                if abs(start[0]) < r:
                    start[0] *= (r + 0.05) / max(abs(start[0]), 1e-12)
            value, current = _objective(start, r)
            if value is None:
                continue
        step = cfg.initial_step
        fails = 0
        for it in range(cfg.iters):
            coord = (it // 4) % n
            direction = _DIRECTIONS[it % 4]
            cand = current.copy()
            cand[coord] += step * direction
            cand_value, cand_proj = _objective(cand, r)
            if cand_value is not None and cand_value > value:
                value, current = cand_value, cand_proj
                fails = 0
            else:
                fails += 1
                if fails >= 4 * n:
                    step *= 0.5
                    fails = 0
                    if step < cfg.min_step:
                        break
        if value > best_value:
            best_value = value
            best_coeffs = current
    # no feasible symbol beats the proven ceiling 1/r^n; a value above it
    # is rounding and is clipped so the lower bound stays below the ceiling
    rn = r**n
    scaled = min(1.0, rn * best_value)
    return SearchResult(
        n=n,
        r=r,
        best_value=min(best_value, kronecker_bound(n, r)),
        best_coeffs=AnalyticPolynomial.from_coeffs(best_coeffs),
        restarts_used=max(1, cfg.restarts),
        seed=cfg.seed,
        scaled_value=scaled,
        kronecker_gap=1.0 - scaled,
    )


def remark_scan(n_list: Sequence[int], r_list: Sequence[float], config: SearchConfig | None = None) -> RemarkScanReport:
    """Tabulate scaled estimates r^n t(n, r) over a grid; exploratory only.

    Reports the per-r infimum over n and the per-n infimum over r of the
    scaled estimates, plus each point's gap 1 - r^n t. No assertion beyond
    what estimate_t_a itself guarantees.
    """
    results = [estimate_t_a(n, r, config) for n in n_list for r in r_list]
    inf_over_n: dict = {}
    inf_over_r: dict = {}
    for res in results:
        if res.r not in inf_over_n or res.scaled_value < inf_over_n[res.r]:
            inf_over_n[res.r] = res.scaled_value
        if res.n not in inf_over_r or res.scaled_value < inf_over_r[res.n]:
            inf_over_r[res.n] = res.scaled_value
    return RemarkScanReport(results=results, inf_over_n=inf_over_n, inf_over_r=inf_over_r)
