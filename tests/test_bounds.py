"""Bracket verification and the extremal-constant search."""

import math
import warnings

import numpy as np
import pytest

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
)
from toepcond.bounds import PASS_TOL, bracket_record
from toepcond.cli import DEFAULT_R_GRID, parse_r_grid
from toepcond.core import apply_calculus, reciprocal_series

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
        # the solve path reports singularity and the series path must carry
        # the record on its own
        with pytest.raises(SingularMatrixError):
            inverse_norm(build_T_r(12, 0.05).matrix)
        rec = theorem_check(12, 0.05)
        assert rec.passed
        assert math.isfinite(rec.inv_norm)
        assert rec.inv_norm > 1e14
        assert rec.scaled == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _scale_both_paths(monkeypatch, factor):
        import toepcond.bounds as bounds_mod
        import toepcond.linalg as linalg_mod

        real_inverse, real_matrices = linalg_mod._lapack_inverse, bounds_mod._bracket_matrices

        def scaled_matrices(n, r):
            A, G = real_matrices(n, r)
            return A, factor * G

        monkeypatch.setattr(linalg_mod, "_lapack_inverse", lambda M: factor * real_inverse(M))
        monkeypatch.setattr(bounds_mod, "_bracket_matrices", scaled_matrices)

    def test_closed_form_catches_a_wrong_inverse_norm(self, monkeypatch):
        # both paths read 0.999 of the truth: they agree with each other and
        # 0.999 lies inside the bracket [0.875, 1], but r^n ||T_r^{-1}|| = 1
        # does not hold
        self._scale_both_paths(monkeypatch, 0.999)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            theorem_check(3, 0.5)
        (rec,) = [rec for rec in grid_sweep(3, (0.5,)) if rec.n == 3]
        assert not rec.passed
        assert rec.error.startswith("TwoPathMismatchError: inverse norm misses the closed form")

    def test_closed_form_is_checked_to_1e_12(self, monkeypatch):
        # (1 - 1e-10) of the truth passes a check at 1e-8 but not the closed
        # form at 1e-12, which search gets through theorem_check as well
        self._scale_both_paths(monkeypatch, 1 - 1e-10)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            theorem_check(3, 0.5)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            estimate_t_a(3, 0.5)

    @staticmethod
    def _scale_T_r(monkeypatch, factor):
        # factor * T_r with its exact inverse: only ||T_r|| = 1 (r at n = 1) is off
        import toepcond.bounds as bounds_mod

        real_matrices = bounds_mod._bracket_matrices

        def scaled_matrices(n, r):
            A, G = real_matrices(n, r)
            return factor * A, G / factor

        monkeypatch.setattr(bounds_mod, "_bracket_matrices", scaled_matrices)

    def test_norm_closed_form_is_checked_to_1e_12(self, monkeypatch):
        self._scale_T_r(monkeypatch, 1 + 1e-11)
        with pytest.raises(ExtremalityError, match="expected norm 1, got 1.00000000001"):
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


class TestRealArithmetic:
    R_GRID = parse_r_grid(DEFAULT_R_GRID)

    @pytest.mark.parametrize("r", R_GRID + [0.999999999])
    def test_matrices_are_exactly_real(self, r):
        # the imaginary parts that theorem_check drops are exactly zero
        T = build_T_r(64, r)
        G = apply_calculus(reciprocal_series(T.symbol), T.n)
        assert np.all(T.matrix.imag == 0.0)
        assert np.all(G.matrix.imag == 0.0)

    def test_norms_match_complex_arithmetic(self):
        # the same two-path computation on the complex128 matrices
        worst = 0.0
        for r in self.R_GRID:
            T = build_T_r(64, r)
            A = T.matrix
            G = apply_calculus(reciprocal_series(T.symbol)).matrix
            assert A.dtype == G.dtype == np.complex128
            for n in range(1, 65):
                rec = theorem_check(n, r)
                norm_T = spectral_norm(A[:n, :n])
                try:
                    inv_norm = inverse_norm(A[:n, :n])
                except SingularMatrixError:
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

    def test_sweep_matches_theorem_check_bitwise(self):
        # the sweep checks leading blocks of the n = 64 matrices; at r = 0.05
        # most points are series-only, at 0.5 and 0.95 they take both paths
        records = grid_sweep(64, (0.05, 0.5, 0.95))
        assert len(records) == 64 * 3
        for rec in records:
            ref = theorem_check(rec.n, rec.r)
            assert rec.norm_T == ref.norm_T
            assert rec.inv_norm == ref.inv_norm
            assert rec.scaled == ref.scaled
            assert rec.passed == ref.passed
            assert rec.error is None

    def test_failing_point_yields_nan_record(self, monkeypatch):
        import toepcond.bounds as bounds_mod
        import toepcond.linalg as linalg_mod

        real = linalg_mod.spectral_norm

        def flaky(A):
            if np.shape(A) == (2, 2):
                raise ToepcondError("synthetic failure")
            return real(A)

        monkeypatch.setattr(linalg_mod, "spectral_norm", flaky)
        records = bounds_mod.grid_sweep(2, (0.5,))
        assert len(records) == 2
        ok, bad = records[0], records[1]
        assert ok.passed
        assert not bad.passed
        assert math.isnan(bad.scaled)
        assert bad.lower == pytest.approx(0.75, rel=1e-15)
        assert bad.error == "ToepcondError: synthetic failure"
        assert ok.error is None

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

