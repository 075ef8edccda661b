"""Bracket verification and the extremal-constant search."""

import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import toepcond.bounds as bounds_mod
import toepcond.model as model_mod
from toepcond import (
    AnalyticPolynomial,
    BlaschkeFactor,
    ExtremalityError,
    SearchConfig,
    SingularMatrixError,
    ToepcondError,
    TwoPathMismatchError,
    bracket_endpoints,
    build_T_r,
    estimate_t_a,
    grid_sweep,
    inverse_norm,
    kronecker_bound,
    spectral_norm,
    taylor,
    theorem_check,
    verify_extremality,
)
from toepcond.bounds import EPS, PASS_TOL, RESIDUAL_GAMMA, TWO_PATH_RTOL, bracket_record, check_contraction
from toepcond.cli import DEFAULT_R_GRID, main, parse_r_grid
from toepcond.core import apply_calculus, reciprocal_series
from toepcond.linalg import PIVOT_TOL

# a projected search candidate may undershoot |f(0)| >= r by this many
# units in the last place of r, the rounding of dividing by its norm
F0_ULPS = 2
_DIRECTIONS = (1.0, -1.0, 1.0j, -1.0j)


def _inverse_norm_series(coeffs):
    g = reciprocal_series(AnalyticPolynomial.from_coeffs(coeffs))
    return spectral_norm(apply_calculus(g, g.n).matrix)


def _objective(coeffs, r):
    """Inverse norm of the projected candidate, or (None, None) if infeasible.

    The candidate is rescaled to unit norm when its matrix exceeds norm 1
    (the inverse norm scales the opposite way, so projection never hurts a
    maximizer), then rejected if the constant term dropped below r by more
    than F0_ULPS units in the last place.
    """
    f = AnalyticPolynomial.from_coeffs(coeffs)
    proj = f.coeffs / max(1.0, spectral_norm(apply_calculus(f, f.n).matrix))
    if abs(proj[0]) < r - F0_ULPS * math.ulp(r):
        return None, None
    return _inverse_norm_series(proj), proj


def coordinate_search_oracle(n, r, cfg, initial_step=0.1, min_step=1e-12):
    """The derivative-free coordinate search estimate_t_a used to run.

    Restart 0 starts from the Taylor symbol of T_r, entered unprojected;
    the others start from rotations e^{i theta} of it, with seeded
    pseudo-random offsets on every second one. Returns the best raw
    (unclipped) inverse norm and the winning coefficients.
    """
    base = taylor(BlaschkeFactor(r), n).coeffs
    best_value = -math.inf
    best_coeffs = None
    for j in range(max(1, cfg.restarts)):
        if j == 0:
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
        step = initial_step
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
                    if step < min_step:
                        break
        if value > best_value:
            best_value = value
            best_coeffs = current
    return best_value, best_coeffs


class TestKroneckerBound:
    def test_values(self):
        assert kronecker_bound(1, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert kronecker_bound(3, 0.5) == pytest.approx(8.0, rel=1e-15)
        assert kronecker_bound(2, 1.0) == 1.0

    def test_overflow_gives_inf(self):
        # 1e6^64 is beyond float64; the value is exact where it is finite
        assert kronecker_bound(64, 1e-6) == math.inf
        assert kronecker_bound(2, 5e-324) == math.inf
        assert kronecker_bound(3, 0.5) == 8.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kronecker_bound(0, 0.5)
        with pytest.raises(ValueError):
            kronecker_bound(2, 0.0)
        with pytest.raises(ValueError):
            kronecker_bound(2, 1.5)


class TestBuildTr:
    def test_frozen_column(self):
        T = build_T_r(3, 0.5)
        assert np.allclose(T.first_column, [0.5, -0.75, -0.375], atol=1e-15)
        assert T.r_min == pytest.approx(0.5)

    def test_one_by_one(self):
        assert np.allclose(build_T_r(1, 0.3).matrix, [[0.3]])

    def test_domain(self):
        with pytest.raises(ValueError):
            build_T_r(0, 0.5)
        with pytest.raises(ValueError):
            build_T_r(3, 1.0)


class TestBracketEndpoints:
    def test_large_r_side(self):
        lower, upper = bracket_endpoints(3, 0.5)
        assert lower == pytest.approx(0.875, rel=1e-15)
        assert upper == 1.0

    def test_crossing_point(self):
        lower, _ = bracket_endpoints(1, 0.5)
        assert lower == pytest.approx(0.5, rel=1e-15)

    def test_small_r_side(self):
        lower, _ = bracket_endpoints(1, 0.9)
        assert lower == pytest.approx(0.9, rel=1e-15)

    def test_domain(self):
        # kronecker_bound's domain and messages: n >= 1 and r in (0, 1]
        for n, r, message in [(0, 0.5, "n must be at least 1"), (-2, 0.5, "n must be at least 1"),
                              (2, 0.0, "r must lie in"), (3, 2.0, "r must lie in"),
                              (3, math.nan, "r must lie in")]:
            with pytest.raises(ValueError, match=message):
                bracket_endpoints(n, r)
        assert bracket_endpoints(2, 1.0) == (1.0, 1.0)


class TestBracketRecord:
    def test_nan_norms_fail(self):
        rec = bracket_record(2, 0.5, math.nan, math.nan)
        assert rec.passed is False
        assert math.isnan(rec.scaled)
        assert (rec.lower, rec.upper) == bracket_endpoints(2, 0.5)
        assert rec.error is None

    def test_pass_rule_is_the_bracket_within_pass_tol(self):
        # n = 1, r = 0.5: scaled = inv_norm / 2 against [0.5, 1]
        assert bracket_record(1, 0.5, 0.5, 2.0).passed is True
        assert bracket_record(1, 0.5, 0.5, 2.0 * (1.0 + PASS_TOL / 2)).passed is True
        assert bracket_record(1, 0.5, 0.5, 2.0 * (1.0 + 4 * PASS_TOL)).passed is False
        assert bracket_record(1, 0.5, 0.5, 1.0 - 4 * PASS_TOL).passed is False


class TestTheoremCheck:
    @pytest.mark.parametrize("n, r, message", [
        (0, 0.5, "n must be at least 1"),
        (3, 0.0, "r must lie strictly between 0 and 1"),
        (3, 1.0, "r must lie strictly between 0 and 1"),
        (3, math.nan, "r must lie strictly between 0 and 1"),
    ])
    def test_domain(self, n, r, message):
        # refused before any matrix is built
        with pytest.raises(ValueError) as info:
            theorem_check(n, r)
        assert str(info.value) == message

    def test_scalar_case_is_exact(self):
        rec = theorem_check(1, 0.9)
        assert rec.scaled == pytest.approx(1.0, abs=1e-12)
        assert rec.passed

    def test_exemplar(self):
        rec = theorem_check(3, 0.5)
        assert rec.norm_T == pytest.approx(1.0, abs=1e-10)
        assert 7.0 <= rec.inv_norm <= 8.0 + 1e-9
        assert rec.lower == pytest.approx(0.875, rel=1e-15)
        assert rec.passed

    def test_small_r(self):
        rec = theorem_check(4, 0.05)
        assert rec.passed
        assert rec.scaled <= 1.0 + 1e-8
        assert rec.scaled >= rec.lower - 1e-8

    def test_pivot_guard_fallback_beyond_solve_range(self):
        # at (12, 0.05) the pivot falls below the elimination threshold, so
        # the LAPACK oracle reports singularity, while the series and the
        # identities carry the record
        with pytest.raises(SingularMatrixError):
            inverse_norm(build_T_r(12, 0.05).matrix)
        rec = theorem_check(12, 0.05)
        assert rec.passed
        assert math.isfinite(rec.inv_norm)
        assert rec.inv_norm > 1e14
        assert rec.scaled == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _wrong_radius(monkeypatch, factor):
        # T_r' with r'^-n = factor * r^-n, its exact inverse and its extremal
        # vector in place of T_r's: every path agrees on the wrong value
        real_matrices = bounds_mod._bracket_matrices
        monkeypatch.setattr(bounds_mod, "_bracket_matrices",
                            lambda n, rs: real_matrices(n, [r * factor ** (-1.0 / n) for r in rs]))

    def test_closed_form_catches_a_wrong_inverse_norm(self, monkeypatch):
        # every path reads 0.999 of the truth: they agree with each other and
        # 0.999 lies inside the bracket [0.875, 1], but r^n ||T_r^{-1}|| = 1
        # does not hold
        self._wrong_radius(monkeypatch, 0.999)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            theorem_check(3, 0.5)
        (rec,) = [rec for rec in grid_sweep(3, (0.5,)) if rec.n == 3]
        assert not rec.passed
        assert rec.error.startswith("TwoPathMismatchError: inverse norm misses the closed form")

    def test_closed_form_is_checked_to_1e_12(self, monkeypatch):
        # (1 - 1e-10) of the truth passes a check at 1e-8 but not the closed
        # form at 1e-12, which search gets through theorem_check as well
        self._wrong_radius(monkeypatch, 1 - 1e-10)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            theorem_check(3, 0.5)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            estimate_t_a(3, 0.5)

    @staticmethod
    def _scale_T_r(monkeypatch, factor):
        # factor * T_r with its exact inverse: only ||T_r|| = 1 (r at n = 1) is off
        real_matrices = bounds_mod._bracket_matrices

        def scaled_matrices(n, rs):
            A, G, X = real_matrices(n, rs)
            return factor * A, G / factor, X

        monkeypatch.setattr(bounds_mod, "_bracket_matrices", scaled_matrices)

    def test_norm_closed_form_is_checked_to_1e_12(self, monkeypatch):
        self._scale_T_r(monkeypatch, 1 + 1e-11)
        with pytest.raises(ExtremalityError, match=r"^expected norm 1, got n \* max\|I - A A\* - c c\*\| = 5.71e-11$"):
            theorem_check(3, 0.5)
        records = grid_sweep(3, (0.5,))
        assert [rec.n for rec in records] == [1, 2, 3]
        for rec in records:
            assert not rec.passed
            assert rec.error.startswith("ExtremalityError: expected norm ")

    def test_norm_within_1e_12_passes(self, monkeypatch):
        self._scale_T_r(monkeypatch, 1 + 1e-13)
        assert theorem_check(3, 0.5).passed
        assert all(rec.passed and rec.error is None for rec in grid_sweep(3, (0.5,)))

    def test_halved_corner_beyond_the_solve_range_is_refused(self, monkeypatch):
        # T_r[0, 0] = r/2 next to the unchanged series W at (64, 0.05): ||A||
        # still meets 1 and W alone meets the closed form, but the inverse
        # norm of that A is twice 1/r^n, which its determinant bound shows
        real_matrices = bounds_mod._bracket_matrices

        def halved_corner(n, rs):
            A, G, X = real_matrices(n, rs)
            A = A.copy()
            A[:, 0, 0] = np.divide(rs, 2)
            return A, G, X

        monkeypatch.setattr(bounds_mod, "_bracket_matrices", halved_corner)
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            theorem_check(64, 0.05)
        (rec,) = [rec for rec in grid_sweep(64, (0.05,)) if rec.n == 64]
        assert rec.error.startswith("TwoPathMismatchError: inverse norm outside its enclosure")

    def test_inverse_norm_up_to_the_float64_limit(self):
        # ||T_r^{-1}|| = 1e300 at (2, 1e-150), whose square numpy's vector
        # norm cannot hold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = theorem_check(2, 1e-150)
        assert abs(rec.scaled - 1.0) <= 1e-12
        assert rec.passed


# attains ||diag(a, b)^{-1}|| for |a| > |b|
E1 = np.array([0.0, 1.0])


def triangular_case(n, r):
    """T_r, its exact inverse and its extremal vector r^k at (n, r)."""
    return tuple(stack[0] for stack in bounds_mod._bracket_matrices(n, (r,)))


def _stacks(rs, *arrays):
    """Each array once per radius of rs, stacked as _bracket_matrices gives them."""
    return tuple(np.stack([M] * len(rs)) for M in arrays)


def _swapped_rows(W):
    return W[[1, 0, *range(2, len(W))]]


def _one_entry_off(W):
    # entry (40, 3), or (n - 1, 3) below n = 41, 1e-10 relative off
    W = W.copy()
    W[min(40, len(W) - 1), 3] *= 1 + 1e-10
    return W


def _row_one_off(W):
    # entry (1, 0) 32 eps relative off: with A = W^{-1}, (A W - I)[1, 0] =
    # 32 eps A_11 W_10 is 16 eps of (|A| |W|)[1, 0] = 2 |A_11 W_10|: past the
    # bound 4 * 2 eps of row 1, though within a block bound 4 n eps for n >= 5
    W = W.copy()
    W[1, 0] *= 1 + 32 * np.finfo(np.float64).eps
    return W


def _worst_row_residual(A, W):
    """max |A W - I|_ij / ((i + 1) eps (|A| |W|)_ij), the residual in units
    of the per-row rounding bound; 0/0 reads 0."""
    n = len(A)
    scale = np.abs(A) @ np.abs(W)
    residual = np.abs(A @ W - np.eye(n))
    assert np.all(residual[scale == 0.0] == 0.0)
    rows = np.arange(1, n + 1)[:, None] * np.finfo(np.float64).eps
    return float(np.max(residual[scale > 0.0] / (rows * scale)[scale > 0.0]))


@pytest.fixture
def kernels(monkeypatch):
    """Record every matrix handed to np.linalg.svd and np.linalg.inv."""
    seen = {"svd": [], "inv": []}
    real_svd, real_inv = np.linalg.svd, np.linalg.inv
    monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **k: seen["svd"].append(M) or real_svd(M, *a, **k))
    monkeypatch.setattr(np.linalg, "inv", lambda M: seen["inv"].append(M) or real_inv(M))
    return seen


class TestCheckContraction:
    def test_exact_inverse_value_and_its_residual(self):
        # the value is ||W e_1||; a corner of A 1e-9 off meets the enclosure
        # ||A||/|det A| to 1e-8, but not A W = I to 4 n eps
        A = np.diag([1.0, 0.25])
        W = np.diag([1.0, 4.0])
        assert check_contraction(2, 0.5, A, W, E1).inv_norm == spectral_norm(W) == 4.0
        with pytest.raises(TwoPathMismatchError, match="misses A W = I"):
            check_contraction(2, 0.5, np.diag([1.0, 0.25 * (1 + 1e-9)]), W, E1)

    def test_exact_inverse_alone_beyond_the_solve_range(self, kernels):
        # r^2 = 2^-50 puts 1/r^2 past 1/PIVOT_TOL: W decides, and no LAPACK
        # inverse is formed
        r = 2.0**-25
        rec = check_contraction(2, r, np.diag([1.0, r * r]), np.diag([1.0, 2.0**50]), E1)
        assert rec.inv_norm == 2.0**50 > 1.0 / PIVOT_TOL
        assert kernels["inv"] == []

    def test_exact_inverse_beyond_the_threshold_still_meets_its_closed_form(self):
        # 1e20 * W puts the value beyond 1/PIVOT_TOL: the determinant bound
        # of A refuses it first. The right W at a radius whose r^n is 1e-11
        # off misses only the closed form.
        A, W, x = triangular_case(3, 0.5)
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            check_contraction(3, 0.5, A, 1e20 * W, x)
        A, W, x = triangular_case(20, 0.1)
        assert check_contraction(20, 0.1, A, W, x).inv_norm > 1.0 / PIVOT_TOL
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            check_contraction(20, 0.1 * (1 + 1e-11) ** (1 / 20), A, W, x)

    def test_threshold_is_read_on_the_exact_inverse(self, monkeypatch):
        # at (14, 0.1) ||W|| lies just past 1/PIVOT_TOL and ||X|| just inside
        # it: the value is ||W x||/||x||, and no LAPACK inverse is formed
        A, W, _ = triangular_case(14, 0.1)
        assert spectral_norm(np.linalg.inv(A)) <= 1.0 / PIVOT_TOL < spectral_norm(W)
        inversions = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: inversions.append(M) or real_inv(M))
        rec = theorem_check(14, 0.1)
        assert rec.passed
        assert 1.0 / PIVOT_TOL < rec.inv_norm == pytest.approx(spectral_norm(W), rel=1e-15)
        assert inversions == []

    @pytest.mark.parametrize(
        "A, error",
        [(np.diag([1.0, 0.0]), SingularMatrixError), (np.diag([1.0, 1e-20]), TwoPathMismatchError)],
        ids=["zero", "tiny_pivot"],
    )
    def test_matrix_refused_by_lapack_does_not_pass_on_the_exact_inverse(self, A, error):
        # W = I and ||A|| = 1 claim A is well conditioned, so A must refute it
        with pytest.raises(error):
            check_contraction(2, 1.0, A, np.eye(2), np.array([1.0, 0.0]))

    def test_disagreeing_paths_raise(self):
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            check_contraction(2, 0.5, np.diag([1.0, 0.25]), np.diag([1.0, 4.0 * (1 + 1e-7)]), E1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_exact_inverse_is_refused_naming_its_first_entry(self, bad, kernels):
        # refused before any kernel: an infinite W made the two paths
        # "disagree" as 1 vs nan
        A, W, x = triangular_case(3, 0.5)
        W = W.copy()
        W[1, 0] = W[2, 2] = bad
        with pytest.raises(SingularMatrixError) as info:
            check_contraction(3, 0.5, A, W, x)
        assert str(info.value) == "exact inverse has entries beyond the float64 range, first at (1, 0)"
        assert kernels == {"svd": [], "inv": []}

    def test_first_entry_is_in_row_major_order(self):
        A, W, x = triangular_case(3, 0.5)
        W = W.astype(complex)
        W[2, 0] = complex(0.0, np.inf)
        W[1, 2] = complex(np.nan, 0.0)
        with pytest.raises(SingularMatrixError, match=r"first at \(1, 2\)$"):
            check_contraction(3, 0.5, A, W, x)

    def test_closed_form_miss_raises(self):
        # the right W at a radius whose r^2 is 1e-11 off
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            check_contraction(2, 0.5 * math.sqrt(1 + 1e-11), np.diag([1.0, 0.25]), np.diag([1.0, 4.0]), E1)

    @pytest.mark.parametrize("n", [3, 12])
    def test_right_norm_wrong_matrix_raises(self, n):
        # W^T and W with two rows swapped have the singular values of the
        # exact inverse W, so a comparison of norms alone lets them through.
        # W^T misses the extremal vector; a row permutation keeps ||W x||,
        # and only the residual of A W = I refuses it
        r = 0.5
        A, W, x = triangular_case(n, r)
        assert check_contraction(n, r, A, W, x).inv_norm == pytest.approx(spectral_norm(W), rel=1e-15)
        for wrong, message in ((W.T, "enclosure"), (_swapped_rows(W), "misses A W = I")):
            assert np.allclose(np.linalg.svd(wrong, compute_uv=False), np.linalg.svd(W, compute_uv=False))
            with pytest.raises(TwoPathMismatchError, match=message):
                check_contraction(n, r, A, wrong, x)

    @pytest.mark.parametrize("n, r", [(64, 0.05), (40, 0.3)])
    def test_transposed_exact_inverse_beyond_the_solve_range_raises(self, n, r):
        # the value lies beyond 1/PIVOT_TOL, where LAPACK's inverse is not
        # trusted; W^T has the singular values of W and used to pass on them
        A, W, x = triangular_case(n, r)
        assert check_contraction(n, r, A, W, x).inv_norm > 1.0 / PIVOT_TOL
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            check_contraction(n, r, A, W.T, x)

    @pytest.mark.parametrize("n, r", [(64, 0.05), (40, 0.3)])
    @pytest.mark.parametrize("wrong", [_swapped_rows, _one_entry_off, _row_one_off],
                             ids=["swapped_rows", "one_entry", "row_one"])
    def test_wrong_exact_inverse_with_the_right_value_raises(self, n, r, wrong, monkeypatch):
        # these keep ||W x|| within 1e-12, so the enclosure and the closed
        # form pass them; only the residual of A W = I refuses them, at every
        # point and in the sweep's leading blocks too: at (64, 0.05) swapped
        # rows used to pass with scaled 1.0000000000000075, beyond
        # 1/PIVOT_TOL, where LAPACK's inverse was not formed
        A, W, x = triangular_case(n, r)
        bad = wrong(W)
        assert not np.array_equal(bad, W)
        assert abs(math.hypot(*bad @ x) / math.hypot(*W @ x) - 1.0) <= 1e-12
        assert check_contraction(n, r, A, W, x).inv_norm > 1.0 / PIVOT_TOL
        with pytest.raises(TwoPathMismatchError, match="misses A W = I"):
            check_contraction(n, r, A, bad, x)
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda m, rs: _stacks(rs, A[:m, :m], bad[:m, :m], x[:m]))
        (rec,) = [rec for rec in grid_sweep(n, (r,)) if rec.n == n]
        assert rec.error.startswith("TwoPathMismatchError: exact inverse misses A W = I")

    def test_residual_rule_has_a_margin(self):
        # the right W meets the per-row bound with at least a factor 2 to
        # spare: for T_r at n = 64 on the default grid, and for model
        # operators on seeded zero sets, equal and random moduli alike
        worst = max(_worst_row_residual(*triangular_case(64, r)[:2]) for r in parse_r_grid(DEFAULT_R_GRID))
        rng = np.random.default_rng(2011)
        for k in range(120):
            n = int(rng.integers(1, 65))
            moduli = rng.uniform(0.02, 0.9999, 1 if k % 2 else n)
            lam = moduli * np.exp(2j * np.pi * rng.uniform(size=n))
            W = model_mod._inverse_matrix(lam, model_mod._weights(lam))
            worst = max(worst, _worst_row_residual(model_mod.model_operator(lam).matrix, W))
        assert 0.0 < worst <= bounds_mod.RESIDUAL_GAMMA / 2

    @pytest.mark.parametrize("n, r", [(12, 0.5), (64, 0.05)])
    @pytest.mark.parametrize(
        "wrong",
        [lambda x: x[::-1], lambda x: x * np.where(np.arange(x.size) == 1, -1.0, 1.0)],
        ids=["reversed", "flipped_sign"],
    )
    def test_wrong_certificate_raises(self, n, r, wrong):
        A, W, x = triangular_case(n, r)
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            check_contraction(n, r, A, W, wrong(x))

    @pytest.mark.parametrize(
        "A, W, x, message",
        [
            # beyond the solve range this returned 2^50 from a 3 x 3 W
            (np.diag([1.0, 2.0**-50]), np.diag([1.0, 2.0**50, 5.0]), E1,
             r"exact inverse has shape \(3, 3\), A has shape \(2, 2\)"),
            (np.diag([1.0, 0.25]), np.eye(3), E1, r"exact inverse has shape \(3, 3\), A has shape \(2, 2\)"),
            (np.diag([1.0, 0.25]), np.diag([1.0, 4.0]), np.ones(3), r"certificate has shape \(3,\), A has shape \(2, 2\)"),
            (np.diag([1.0, 0.25]), np.diag([1.0, 4.0]), np.zeros(2), "certificate must be nonzero and finite"),
            (np.diag([1.0, 0.25]), np.diag([1.0, 4.0]), np.array([np.nan, 1.0]), "certificate must be nonzero and finite"),
            (np.array([[1.0, 1e-300], [0.0, 0.25]]), np.diag([1.0, 4.0]), E1, "expected a lower-triangular matrix"),
            # numpy's SVD would meet the NaN first, with a LinAlgError
            (np.array([[1.0, 0.0], [np.nan, 1.0]]), np.eye(2), np.array([1.0, 0.0]), "expected a finite matrix"),
            (np.eye(3), np.eye(3), np.ones(3), r"expected an n x n matrix at n = 2, got shape \(3, 3\)"),
        ],
        ids=["W_beyond_solve_range", "W_inside_solve_range", "x_shape", "x_zero", "x_nan", "upper_entry",
             "nan_entry", "A_shape"],
    )
    def test_bad_arguments_are_refused_before_any_kernel(self, A, W, x, message, kernels):
        with pytest.raises(ValueError, match=message):
            check_contraction(2, 0.5, A, W, x)
        assert kernels == {"svd": [], "inv": []}

    def test_infinite_residual_bound_is_refused(self, monkeypatch):
        # A W = I exactly, but |A| |W| overflows at (1, 0): an infinite bound
        # fails, on the whole block and on every leading block that holds
        # it, where a ratio would read 0 and pass; the 1 x 1 block passes
        a = 1.5e308
        A = np.array([[1.0, 0.0], [a, 1.0]])
        W = np.array([[1.0, 0.0], [-a, 1.0]])
        assert np.array_equal(A @ W, np.eye(2))
        verdicts = []
        real_certify = bounds_mod._certify

        def spied(n, r, value, upper, corner, gram, residual_ok):
            verdicts.append(residual_ok)
            return real_certify(n, r, value, upper, corner, gram, residual_ok)

        monkeypatch.setattr(bounds_mod, "_certify", spied)
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, W, np.array([1.0, 0.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TwoPathMismatchError):
                check_contraction(2, 0.5, A, W, E1)
            assert verdicts == [False]
            verdicts.clear()
            grid_sweep(2, [0.5])
            assert verdicts == [True, False]

    def test_entries_up_to_the_float64_limit_do_not_overflow(self):
        # ||W x|| = 1e300 at (2, 1e-150): numpy's vector norm squares it
        A, W, x = triangular_case(2, 1e-150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_contraction(2, 1e-150, A, W, x).inv_norm == pytest.approx(1e300, rel=1e-15)


class TestKernelBudget:
    def test_grid_sweep_forms_the_identities_once_per_r(self, kernels, monkeypatch):
        # one set of n_max products per r, the row sums of W x among them,
        # serves every n, and no SVD or LAPACK inverse runs; the LAPACK paths
        # remain the oracles, so two independent inverse-norm paths still
        # meet at every point where elimination is trusted
        products, row_sums = [], []
        real_terms, real_sums = bounds_mod._identity_terms, bounds_mod._row_sums

        def counted(A, W, c):
            products.append(A.shape)
            return real_terms(A, W, c)

        def counted_sums(W, x):
            row_sums.append(W.shape)
            return real_sums(W, x)

        monkeypatch.setattr(bounds_mod, "_identity_terms", counted)
        monkeypatch.setattr(bounds_mod, "_row_sums", counted_sums)
        grid = parse_r_grid(DEFAULT_R_GRID)
        records = grid_sweep(64, grid)
        assert kernels == {"svd": [], "inv": []}
        assert products == [(64, 64)] * len(grid)
        assert row_sums == [(64, 64)] * len(grid)
        assert len(records) == 64 * len(grid)
        solved = 0
        for r in grid:
            T = build_T_r(64, r).matrix.real
            W = apply_calculus(reciprocal_series(build_T_r(64, r).symbol), 64).matrix.real
            for rec in (rec for rec in records if rec.r == r):
                n = rec.n
                assert rec.error is None
                assert abs(rec.scaled - 1.0) <= 1e-14
                assert rec.inv_norm == pytest.approx(spectral_norm(W[:n, :n]), rel=1e-14)
                try:
                    oracle = inverse_norm(T[:n, :n])
                except SingularMatrixError:
                    continue
                solved += 1
                assert rec.inv_norm == pytest.approx(oracle, rel=TWO_PATH_RTOL)
        # the 823 points whose value is at most 1/PIVOT_TOL, and (14, 0.1),
        # where ||X|| lies just inside it and the value just past
        assert solved == 824

    @pytest.mark.parametrize("n", (2, 8, 32))
    def test_model_operator_runs_no_svd_or_inverse(self, n, kernels, capsys):
        # the (n, r) points of the benchmark's model sweep: the defect rank
        # comes from the Gram identity check_contraction already passes
        for r in (0.5, 0.9, 0.99, 0.999, 0.9999):
            zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
            assert verify_extremality(r, zeros).defect_rank == 1
            assert main(["extremal", "--model", "--n", str(n), "--r", repr(r)]) == 0
            assert "\ndefect rank = 1\n" in capsys.readouterr().out
        assert kernels == {"svd": [], "inv": []}

    def test_grid_sweep_checks_the_arguments_once_per_r(self, monkeypatch):
        # the n_max matrices decide the argument checks of every size before
        # the first failing one; only the sizes from there on check their
        # own blocks
        calls = []
        real_checks = bounds_mod._checked_arguments

        def counted(n, *args):
            calls.append(n)
            return real_checks(n, *args)

        monkeypatch.setattr(bounds_mod, "_checked_arguments", counted)
        grid_sweep(64, parse_r_grid(DEFAULT_R_GRID))
        assert calls == []
        # the series of b_r first leaves float64 at index 51 for r = 1e-6
        records = grid_sweep(64, (1e-6,))
        assert calls == list(range(52, 65))
        assert [rec.n for rec in records if rec.error] == calls

    def test_grid_sweep_forms_every_series_in_one_recursion(self, monkeypatch):
        # one recursion over the coefficient rows of every r in the grid,
        # where a loop per r ran one before
        shapes = []
        real_rows = bounds_mod._reciprocal_rows

        def counted(a):
            shapes.append(a.shape)
            return real_rows(a)

        monkeypatch.setattr(bounds_mod, "_reciprocal_rows", counted)
        grid = parse_r_grid(DEFAULT_R_GRID)
        grid_sweep(64, grid)
        assert shapes == [(19, 64)] == [(len(grid), 64)]

    def test_grid_sweep_certifies_only_failing_sizes(self, monkeypatch):
        # the verdicts of every size come from per-r arrays; the scalar
        # _certify runs only where one fails, to raise its typed error
        calls = []
        real_certify = bounds_mod._certify

        def counted(n, *args):
            calls.append(n)
            return real_certify(n, *args)

        monkeypatch.setattr(bounds_mod, "_certify", counted)
        grid_sweep(64, parse_r_grid(DEFAULT_R_GRID))
        assert calls == []
        # the series of b_r first leaves float64 at index 51 for r = 1e-6
        records = grid_sweep(64, (1e-6,))
        assert set(calls) <= set(range(52, 65))
        assert [rec.n for rec in records if rec.error] == list(range(52, 65))
        # W[1, 0] 16 eps of its |A| |W| off fails A W = I from n = 2 on
        A, W, x = triangular_case(64, 0.5)
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, _row_one_off(W), x))
        calls.clear()
        records = grid_sweep(64, (0.5,))
        assert calls == list(range(2, 65))
        assert [rec.n for rec in records if rec.error] == calls

    def test_grid_sweep_builds_each_batch_of_radii_once(self, monkeypatch):
        # one build of the matrices of every r in a batch, and none through
        # build_T_r or taylor; batches of at most 64 radii keep the memory
        # of a long grid flat
        batches, singles = [], []
        real_matrices = bounds_mod._bracket_matrices
        monkeypatch.setattr(bounds_mod, "_bracket_matrices",
                            lambda n, rs: batches.append((n, len(rs))) or real_matrices(n, rs))
        for name in ("build_T_r", "taylor"):
            real = getattr(bounds_mod, name)
            monkeypatch.setattr(bounds_mod, name, lambda *args, real=real: singles.append(args) or real(*args))
        grid_sweep(64, parse_r_grid(DEFAULT_R_GRID))
        assert batches == [(64, 19)]
        batches.clear()
        records = grid_sweep(64, parse_r_grid("0.001:0.999:0.001"))
        assert batches == [(64, 64)] * 15 + [(64, 39)]
        assert len(records) == 64 * 999 and all(rec.passed for rec in records)
        assert singles == []

    def test_verify_builds_records_only_of_failing_sizes(self, monkeypatch, capsys):
        # verify reports from the sweep's columns: the one record a size
        # gets is check_contraction's or _failed_record's where it fails
        built = []

        class Counted(bounds_mod.BoundsRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.n)

        monkeypatch.setattr(bounds_mod, "BoundsRecord", Counted)
        assert len(grid_sweep(64, (0.5,))) == len(built) == 64
        built.clear()
        assert main(["verify", "--n-max", "64"]) == 0
        assert built == []
        # the series of b_r first leaves float64 at index 51 for r = 1e-6
        assert main(["verify", "--r-grid", "0.000001:0.000001:0.000003", "--n-max", "64"]) == 1
        assert built == list(range(52, 65))
        capsys.readouterr()

    def test_grid_sweep_takes_every_value_from_one_running_norm(self, monkeypatch):
        # one running norm of the batch's x and one of its row sums give
        # every size's value; no size takes its lengths afresh from the
        # one-vector loop or from math.hypot
        rows, lengths, hypots = [], [], []
        real_rows, real_norms, real_hypot = bounds_mod._prefix_norm_rows, bounds_mod._prefix_norms, math.hypot

        def counted_rows(V):
            rows.append(V.shape)
            return real_rows(V)

        def counted(v):
            lengths.append(len(v))
            return real_norms(v)

        def counted_hypot(*args):
            hypots.append(len(args))
            return real_hypot(*args)

        monkeypatch.setattr(bounds_mod, "_prefix_norm_rows", counted_rows)
        monkeypatch.setattr(bounds_mod, "_prefix_norms", counted)
        monkeypatch.setattr(math, "hypot", counted_hypot)
        grid = parse_r_grid(DEFAULT_R_GRID)
        records = grid_sweep(64, grid)
        assert all(rec.passed for rec in records)
        assert rows == [(19, 64), (19, 64)] == [(len(grid), 64)] * 2
        assert lengths == []
        assert hypots == []


class TestIdentityTerms:
    @staticmethod
    def _reference_terms(A, W, c):
        # the products with np.outer and the tolerance column formed per call
        m = A.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = A @ A.conj().T + np.outer(c, c.conj())
            residual = A @ W
            scale = np.abs(A) @ np.abs(W)
            gram.flat[:: m + 1] -= 1.0
            residual.flat[:: m + 1] -= 1.0
            terms = np.arange(1, m + 1)[:, None]
            return np.abs(gram), (np.abs(residual) <= RESIDUAL_GAMMA * terms * EPS * scale) & (scale < math.inf)

    @pytest.mark.parametrize("n", (2, 32, 64))
    def test_bitwise_the_outer_product_and_per_call_tolerance(self, n):
        # T_r in real arithmetic and the model operator in complex
        for r in (0.05, 0.5, 0.9999):
            A, W, x = triangular_case(n, r)
            zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
            _, lam, s = model_mod._checked_zeros(zeros)
            xm = model_mod._extremal_vector(lam, s)
            cases = ((A, W, x), (model_mod.model_operator(zeros).matrix, model_mod._inverse_matrix(lam, s), xm))
            for M, G, v in cases:
                c = bounds_mod._defect_vector(v, bounds_mod._prefix_norms(v)[-1], np.abs(np.diagonal(M)).tolist())
                for got, want in zip(bounds_mod._identity_terms(M, G, c), self._reference_terms(M, G, c)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tolerance_column_is_cached_and_read_only(self):
        column = bounds_mod._residual_tolerance(8)
        assert column is bounds_mod._residual_tolerance(8)
        with pytest.raises(ValueError):
            column[0, 0] = 1.0

    @pytest.mark.parametrize("n", (1, 4, 64))
    def test_upper_mask_is_cached_and_read_only(self, n):
        # the argument checks, the running maxima and the sweep's cut share it
        mask = bounds_mod._strictly_upper(n)
        assert mask is bounds_mod._strictly_upper(n)
        with pytest.raises(ValueError):
            mask[0, 0] = True


class TestPrefixNorms:
    @staticmethod
    def _left_to_right(v):
        # the square root of each running sum of squares, added one by one
        norms, total = [], 0.0
        for a in np.abs(v).tolist():
            total += a * a
            norms.append(math.sqrt(total))
        return norms

    def test_squares_are_added_left_to_right(self):
        # the eight squares 2^-54 after a 1 each vanish into the running
        # sum, where fsum (and builtin sum from Python 3.12 on) carries them
        v = np.array([1.0] + [2.0**-27] * 8)
        assert bounds_mod._prefix_norms(v) == [1.0] * 9
        assert math.sqrt(math.fsum(v * v)) == 1.0 + 2.0**-52
        # T_r's extremal vectors and their series row sums at n = 64, where
        # every square lies in the normal range
        for r in parse_r_grid(DEFAULT_R_GRID):
            A, W, x = triangular_case(64, r)
            for v in (x, bounds_mod._row_sums(W, x), -x):
                assert bounds_mod._prefix_norms(v) == self._left_to_right(v)

    def test_complex_entries_take_their_moduli(self):
        v = np.array([3 + 4j, -5j, 0.0])
        assert bounds_mod._prefix_norms(v) == [5.0, math.sqrt(50.0), math.sqrt(50.0)]


class TestRealArithmetic:
    R_GRID = parse_r_grid(DEFAULT_R_GRID)

    @pytest.mark.parametrize("r", R_GRID + [0.999999999])
    def test_matrices_are_exactly_real(self, r):
        # the imaginary parts that theorem_check drops are exactly zero
        T = build_T_r(64, r)
        G = apply_calculus(reciprocal_series(T.symbol), T.n)
        assert np.all(T.matrix.imag == 0.0)
        assert np.all(G.matrix.imag == 0.0)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_bracket_matrices_are_contiguous_real_matrices(self, n):
        # gathered from the real coefficients, so BLAS takes them with no
        # copy, and bitwise the real parts of the complex128 matrices
        A_stack, G_stack, X = bounds_mod._bracket_matrices(n, self.R_GRID)
        R = len(self.R_GRID)
        assert (A_stack.shape, G_stack.shape, X.shape) == ((R, n, n), (R, n, n), (R, n))
        assert A_stack.flags.c_contiguous and G_stack.flags.c_contiguous and X.flags.c_contiguous
        for r, A, G in zip(self.R_GRID, A_stack, G_stack):
            T = build_T_r(n, r)
            series = apply_calculus(reciprocal_series(T.symbol), n).matrix
            for M, full in ((A, T.matrix), (G, series)):
                assert M.dtype == np.float64 and M.flags.c_contiguous
                assert full.dtype == np.complex128
                assert np.array_equal(M.view(np.uint64), np.ascontiguousarray(full.real).view(np.uint64))

    def test_norms_match_complex_arithmetic(self):
        # the same norms on the complex128 matrices: ||T_r||, and ||G||,
        # which gives the inverse norm
        worst = 0.0
        for r in self.R_GRID:
            T = build_T_r(64, r)
            A = T.matrix
            G = apply_calculus(reciprocal_series(T.symbol)).matrix
            assert A.dtype == G.dtype == np.complex128
            for n in range(1, 65):
                rec = theorem_check(n, r)
                norm_T = spectral_norm(A[:n, :n])
                inv_norm = spectral_norm(G[:n, :n])
                worst = max(worst, abs(rec.norm_T - norm_T) / norm_T, abs(rec.inv_norm - inv_norm) / inv_norm)
        assert worst <= 1e-14


class TestGridSweep:
    def test_small_grid_passes_sorted(self):
        records = grid_sweep(4, (0.2, 0.5, 0.8))
        assert len(records) == 12
        assert [(rec.n, rec.r) for rec in records] == sorted((n, r) for n in (1, 2, 3, 4) for r in (0.2, 0.5, 0.8))
        assert all(rec.passed for rec in records)

    def test_largest_n_at_smallest_r_passes_without_warnings(self):
        # at r = 0.05 the series inverse has entries near 20^64; its norm
        # must neither overflow nor warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = grid_sweep(64, (0.05,))
        assert all(rec.passed for rec in records[59:])
        assert [rec.n for rec in records[59:]] == list(range(60, 65))

    def test_sweep_matches_theorem_check_bitwise(self, monkeypatch):
        # the sweep checks leading blocks of the n = 64 matrices; at r = 0.05
        # most points are series-only, at 0.5 and 0.95 they take both paths.
        # Failing points: the series of b_r leaves float64 from n = 52 at
        # r = 1e-6 and from n = 2 at r = 1e-200, and W[1, 0] 16 eps of its
        # |A| |W| off fails A W = I from n = 2 on. A failed record carries
        # the very error the one-point check raises, and NaN norms
        def assert_records_of(check, records):
            for rec in records:
                try:
                    ref = check(rec.n, rec.r)
                except (ToepcondError, ValueError) as exc:
                    assert rec.error == f"{type(exc).__name__}: {exc}"
                    assert not rec.passed
                    assert all(math.isnan(v) for v in (rec.norm_T, rec.inv_norm, rec.scaled))
                else:
                    assert rec.norm_T == ref.norm_T
                    assert rec.inv_norm == ref.inv_norm
                    assert rec.scaled == ref.scaled
                    assert rec.passed == ref.passed
                    assert rec.error is None

        records = grid_sweep(64, (1e-200, 1e-6, 0.05, 0.5, 0.95))
        assert len(records) == 64 * 5
        assert_records_of(theorem_check, records)
        assert [rec.n for rec in records if rec.error and rec.r == 1e-6] == list(range(52, 65))
        assert [rec.n for rec in records if rec.error and rec.r == 1e-200] == list(range(2, 65))
        A, W, x = triangular_case(64, 0.5)
        W = _row_one_off(W)
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, W, x))
        records = grid_sweep(64, (0.5,))
        assert_records_of(lambda n, r: check_contraction(n, r, A[:n, :n], W[:n, :n], x[:n]), records)
        assert [rec.n for rec in records if rec.error] == list(range(2, 65))

    @pytest.mark.parametrize("rs", [
        (1e-300, 1e-200, 1e-6, 1e-5, 0.05, 0.5, 0.9999, 1.0 - 2.0**-53),
        tuple(k / 131 for k in range(1, 131)),
    ], ids=["mixed_cuts", "three_batches"])
    def test_batches_match_one_radius_sweeps(self, rs):
        # radii whose series leave float64 at n = 2 (1e-300, 1e-200), 52 and
        # 62 among radii whose series never do, then 130 radii in batches of
        # 64, 64 and 2: each record, error included, is that of the sweep of
        # its r alone. The batch computes the entries past each cut too (1/0,
        # overflows), and the suite's error filter shows that none warns
        by_r = {r: grid_sweep(64, (r,)) for r in rs}
        alone = [by_r[r][n - 1] for n in range(1, 65) for r in sorted(rs)]
        records = grid_sweep(64, rs)
        assert [repr(dataclasses.astuple(rec)) for rec in records] == [repr(dataclasses.astuple(rec)) for rec in alone]
        assert any(rec.error for rec in records) == (rs[0] == 1e-300)

    def test_enclosure_failures_quote_check_contraction_digits(self, monkeypatch):
        # A = diag(r, 1, ..., 1) plus a strictly lower part of entries 0 and
        # +-1/4, and x = e_0, keep c the same in every leading block and
        # A A* exact, so |E| too; but n max|E| grows to about n^2/24, so the
        # enclosure's bases sqrt(1 + n max|E|) lie far from 1, where numpy's
        # array and scalar powers can differ by an ulp. Every size from 2 on
        # misses its enclosure and quotes it with check_contraction's digits
        rng = np.random.default_rng(5)
        A = np.tril(rng.choice([-0.25, 0.0, 0.25], (64, 64)), -1) + np.diag([0.5] + [1.0] * 63)
        W, x = np.linalg.inv(A), np.eye(64)[0]
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, W, x))
        records = grid_sweep(64, (0.5,))
        assert records[0].passed
        for rec in records[1:]:
            n = rec.n
            with pytest.raises(TwoPathMismatchError, match="^inverse norm outside its enclosure") as exc:
                check_contraction(n, 0.5, A[:n, :n], W[:n, :n], x[:n])
            assert rec.error == f"TwoPathMismatchError: {exc.value}"

    def test_failing_point_yields_nan_record(self, monkeypatch):
        # W[1, 0] 16 eps of its |A| |W| off fails A W = I at n = 2 only
        A, W, x = triangular_case(2, 0.5)
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, _row_one_off(W), x))
        records = bounds_mod.grid_sweep(2, (0.5,))
        assert len(records) == 2
        ok, bad = records[0], records[1]
        assert ok.passed
        assert not bad.passed
        assert math.isnan(bad.scaled)
        assert bad.lower == pytest.approx(0.75, rel=1e-15)
        assert bad.error == ("TwoPathMismatchError: exact inverse misses A W = I: "
                             "|A W - I| > 4 (i + 1) eps |A| |W| in some row i")
        assert ok.error is None

    def test_each_size_keeps_its_own_argument_failure(self, monkeypatch):
        # faults at five shells of one T_r(64, 0.5) triple, each in a check
        # that runs after those of the faults further out, so every fault
        # shows: each size fails as check_contraction fails on its leading
        # blocks, with its own first offending entry, and each size before
        # the first fault is bitwise theorem_check's
        expected = [dataclasses.astuple(theorem_check(n, 0.5)) for n in range(1, 10)]
        A, W, x = (M.copy() for M in triangular_case(64, 0.5))
        A[9, 9] = 0.0
        W[12, 4] = math.inf
        W[11, 20] = math.inf  # first in row-major order from n = 21 on
        A[40, 7] = math.nan
        A[3, 50] = 1e-3
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, W, x))
        records = grid_sweep(64, (0.5,))
        assert [dataclasses.astuple(rec) for rec in records[:9]] == expected
        errors = []
        for rec in records[9:]:
            n = rec.n
            with pytest.raises((ToepcondError, ValueError)) as exc:
                check_contraction(n, 0.5, A[:n, :n], W[:n, :n], x[:n])
            assert rec.error == f"{type(exc.value).__name__}: {exc.value}"
            assert not rec.passed and math.isnan(rec.scaled)
            errors.append(rec.error)
        beyond = "SingularMatrixError: exact inverse has entries beyond the float64 range, first at"
        assert errors == (
            ["SingularMatrixError: matrix is exactly singular"] * 3
            + [f"{beyond} (12, 4)"] * 8
            + [f"{beyond} (11, 20)"] * 20
            + ["ValueError: expected a finite matrix"] * 10
            + ["ValueError: expected a lower-triangular matrix"] * 14
        )

    def test_an_upper_entry_cuts_sizes_whose_full_products_pass(self, monkeypatch):
        # A[0, 3] = 1e-20 and W its exact Sherman-Morrison inverse: the 8 x 8
        # products meet both identities, so without the cut at the upper
        # entry every size would read a pass from them. The leading blocks of
        # sizes 2 and 3 hold the part of W above the diagonal that A[0, 3]
        # pays for, but not A[0, 3] itself, and miss A W = I; from size 4 on
        # A is not lower triangular. Each record is check_contraction's on its
        # leading blocks, error included, and size 1 is theorem_check's
        expected = repr(dataclasses.astuple(theorem_check(1, 0.5)))
        A, W, x = (M.copy() for M in triangular_case(8, 0.5))
        A[0, 3] = 1e-20
        Wu, vW = W[:, 0] * 1e-20, W[3].copy()
        W -= np.outer(Wu, vW) / (1.0 + vW[0] * 1e-20)
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, W, x))
        records = grid_sweep(8, (0.5,))
        errors = []
        for rec in records:
            n = rec.n
            try:
                ref = check_contraction(n, 0.5, A[:n, :n], W[:n, :n], x[:n])
            except (ToepcondError, ValueError) as exc:
                ref = bounds_mod._failed_record(n, 0.5, exc)
            assert repr(dataclasses.astuple(rec)) == repr(dataclasses.astuple(ref))
            errors.append(rec.error and rec.error.split(":")[0])
        assert errors == [None] + ["TwoPathMismatchError"] * 2 + ["ValueError"] * 5
        assert records[0].passed and repr(dataclasses.astuple(records[0])) == expected
        assert records[4].error == "ValueError: expected a lower-triangular matrix"

    @pytest.mark.parametrize("matrix, index, value", [
        (0, (3, 30), 1e-3), (0, (30, 7), math.nan), (0, (30, 30), 0.0), (1, (30, 4), math.inf),
    ])
    def test_a_fault_cuts_the_identities_at_its_shell(self, monkeypatch, matrix, index, value):
        # each fault would spoil the products of the blocks before its shell
        # (A[3, 30] enters (A A*)[3, 3], and W[30, 4] = inf turns column 4 of
        # A W into NaN) or their defect vector (log 0), so it cuts them there
        expected = [dataclasses.astuple(theorem_check(n, 0.5)) for n in range(1, 31)]
        A, W, x = (M.copy() for M in triangular_case(64, 0.5))
        (A, W)[matrix][index] = value
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", lambda n, rs: _stacks(rs, A, W, x))
        records = grid_sweep(64, (0.5,))
        assert [dataclasses.astuple(rec) for rec in records[:30]] == expected
        assert all(rec.error and not rec.passed for rec in records[30:])

    def test_overflowed_series_fails_with_its_cause(self):
        # the reciprocal coefficients of b_r grow like r^-k and first leave
        # the float64 range at index 51 (r = 1e-6), 58 (5e-6) and 61 (1e-5)
        first_overflow = {1e-6: 51, 5e-6: 58, 1e-5: 61}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = grid_sweep(64, tuple(first_overflow))
        assert len(records) == 64 * 3
        for rec in records:
            k = first_overflow[rec.r]
            if rec.n <= k:
                assert rec.passed and rec.error is None
                assert abs(rec.scaled - 1.0) <= 1e-13
            else:
                assert not rec.passed
                assert rec.error == (
                    f"SingularMatrixError: exact inverse has entries beyond the float64 range, first at ({k}, 0)"
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            grid_sweep(0, (0.5,))
        with pytest.raises(ValueError):
            grid_sweep(65, (0.5,))
        with pytest.raises(ValueError):
            grid_sweep(2, (0.5, 1.0))


class TestEstimateTa:
    def test_scalar_case_is_exact(self):
        res = estimate_t_a(1, 0.5, SearchConfig(restarts=4, iters=60))
        assert res.best_value == 2.0
        assert res.scaled_value == 1.0
        assert res.kronecker_gap == 0.0
        assert np.allclose(res.best_coeffs.coeffs, [0.5])

    def test_floor_and_feasibility(self):
        res = estimate_t_a(3, 0.5, SearchConfig(restarts=4, iters=120))
        # the symbol of T_r seeds the search, so its value is a floor
        assert res.best_value >= theorem_check(3, 0.5).inv_norm - 1e-6
        assert res.scaled_value <= 1.0 + 1e-8
        coeffs = res.best_coeffs.coeffs
        assert abs(coeffs[0]) >= 0.5 - 1e-12
        assert spectral_norm(apply_calculus(res.best_coeffs).matrix) <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "n, r, cfg",
        [(n, r, SearchConfig(seed=42, restarts=8, iters=250)) for n in (1, 2, 3) for r in (0.3, 0.5, 0.8)]
        + [(3, 0.5, SearchConfig())],
    )
    def test_result_is_a_real_lower_bound(self, n, r, cfg):
        # the winner is feasible by the exact singular values of f(M_n), to
        # a few units in the last place, and never passes the 1/r^n ceiling
        res = estimate_t_a(n, r, cfg)
        coeffs = res.best_coeffs.coeffs
        eps = np.finfo(float).eps
        assert np.linalg.svd(apply_calculus(res.best_coeffs).matrix, compute_uv=False)[0] <= 1.0 + 4 * eps
        assert abs(coeffs[0]) >= r - 4 * math.ulp(r)
        assert res.kronecker_gap >= 0.0
        assert res.best_value <= kronecker_bound(n, r)

    @pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3) for r in (0.3, 0.5, 0.8)])
    def test_search_oracle_finds_nothing_better(self, n, r):
        # the coordinate search at the criterion-7 budget beats the returned
        # optimum by roundoff at most, and its winner is feasible by the
        # exact singular values to a few units in the last place
        cfg = SearchConfig(seed=42, restarts=8, iters=250)
        res = estimate_t_a(n, r, cfg)
        value, coeffs = coordinate_search_oracle(n, r, cfg)
        assert value <= res.best_value * (1.0 + 1e-13)
        eps = np.finfo(float).eps
        matrix = apply_calculus(AnalyticPolynomial.from_coeffs(coeffs)).matrix
        assert np.linalg.svd(matrix, compute_uv=False)[0] <= 1.0 + 4 * eps
        assert abs(coeffs[0]) >= r - 4 * math.ulp(r)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_returns_the_symbol_of_T_r(self, n):
        for r in parse_r_grid(DEFAULT_R_GRID):
            res = estimate_t_a(n, r)
            assert np.array_equal(res.best_coeffs.coeffs, taylor(BlaschkeFactor(r), n).coeffs)
            assert abs(res.scaled_value - 1.0) <= 1e-13
            assert res.kronecker_gap >= 0.0

    def test_symbol_stops_schurs_algorithm_after_one_step(self):
        # Schur's algorithm on f = b_r: gamma_0 = f(0) = r, then
        # f_1 = (f - gamma_0) / (z (1 - conj(gamma_0) f)) is the constant -1,
        # so |gamma_1| = 1 and the algorithm stops: b_r is a Blaschke factor
        for n in (2, 3, 12, 32, 64):
            for r in parse_r_grid(DEFAULT_R_GRID) + [0.3, 0.99, 0.9999]:
                f = build_T_r(n, r).symbol.coeffs
                assert f[0] == r
                denominator = -r * f[: n - 1]
                # 1 - |gamma_0|^2 without the cancellation of 1 - r * r near r = 1
                denominator[0] = (1.0 - r) * (1.0 + r)
                f_1 = np.convolve(f[1:], reciprocal_series(AnalyticPolynomial(n - 1, denominator)).coeffs)[: n - 1]
                # gamma_1 = f_1(0) = -1, and every higher coefficient is 0
                assert abs(f_1[0] + 1.0) <= 4 * EPS, (n, r)
                assert np.abs(f_1[1:]).max(initial=0.0) <= 4 * EPS, (n, r)

    def test_best_value_is_at_most_the_exact_bound(self):
        # the extremal constant is 1/r^n exactly, for the float r; the
        # largest float at or below it caps the reported value, where
        # rounding 1/r^n to nearest can lie above it
        for r in parse_r_grid(DEFAULT_R_GRID) + [0.25, 0.5, 1e-6, 0.999999]:
            for n in range(1, 17):
                res, exact = estimate_t_a(n, r), Fraction(r) ** -n
                assert Fraction(res.best_value) <= exact
                value = theorem_check(n, r).inv_norm
                assert res.best_value == value or Fraction(math.nextafter(res.best_value, math.inf)) > exact
        # powers of two are exact
        assert estimate_t_a(3, 0.5).best_value == 8.0
        assert estimate_t_a(16, 0.25).best_value == 2.0**32

    def test_exact_floor_beyond_the_float64_range(self):
        # 1/r for r = fl(1/max) lies just past the largest finite float
        for n, r in ((16, 1e-20), (2, 5e-324), (1, 5e-324), (1, 1.0 / sys.float_info.max)):
            assert Fraction(r) ** -n > Fraction(sys.float_info.max)
            assert bounds_mod._exact_floor(n, r) == sys.float_info.max
        assert bounds_mod._exact_floor(1, 2.0**-1023) == 2.0**1023

    def test_deterministic(self):
        cfg = SearchConfig(seed=11, restarts=6, iters=80)
        a = estimate_t_a(2, 0.7, cfg)
        b = estimate_t_a(2, 0.7, SearchConfig(seed=11, restarts=6, iters=80))
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_coeffs.coeffs, b.best_coeffs.coeffs)
        assert a.restarts_used == 6
        assert a.seed == 11

    def test_domain(self):
        for n, r in ((0, 0.5), (17, 0.5), (2, 0.0), (2, 1.0)):
            with pytest.raises(ValueError):
                estimate_t_a(n, r)

    def test_config_defaults(self):
        cfg = SearchConfig()
        assert (cfg.seed, cfg.restarts, cfg.iters) == (42, 32, 2000)

