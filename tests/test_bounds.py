"""Bracket verification and the extremal-constant search."""

import math
import warnings

import numpy as np
import pytest

from toepcond import (
    SearchConfig,
    SingularMatrixError,
    ToepcondError,
    bracket_endpoints,
    build_T_r,
    estimate_t_a,
    grid_sweep,
    inverse_norm,
    kronecker_bound,
    remark_scan,
    scaled_trends,
    spectral_norm,
    theorem_check,
)
from toepcond.cli import DEFAULT_R_GRID, parse_r_grid
from toepcond.core import apply_calculus, reciprocal_series


class TestKroneckerBound:
    def test_values(self):
        assert kronecker_bound(1, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert kronecker_bound(3, 0.5) == pytest.approx(8.0, rel=1e-15)
        assert kronecker_bound(2, 1.0) == 1.0

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

    def test_domain(self):
        with pytest.raises(ValueError):
            grid_sweep(0, (0.5,))
        with pytest.raises(ValueError):
            grid_sweep(65, (0.5,))
        with pytest.raises(ValueError):
            grid_sweep(2, (0.5, 1.0))


class TestScaledTrends:
    def test_shapes_and_labels(self):
        records = grid_sweep(4, (0.5,))
        trends = scaled_trends(records)
        assert set(trends) == {"in_n_for_fixed_r", "in_r_for_fixed_n"}
        assert set(trends["in_n_for_fixed_r"]) == {0.5}
        assert trends["in_n_for_fixed_r"][0.5] in {"nondecreasing", "nonincreasing", "mixed"}
        assert all(t == "single" for t in trends["in_r_for_fixed_n"].values())


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


class TestRemarkScan:
    def test_structure_and_infima(self):
        cfg = SearchConfig(restarts=2, iters=60)
        report = remark_scan((1, 2), (0.3, 0.7), cfg)
        assert len(report.results) == 4
        assert set(report.inf_over_n) == {0.3, 0.7}
        assert set(report.inf_over_r) == {1, 2}
        for res in report.results:
            lower, upper = bracket_endpoints(res.n, res.r)
            assert res.scaled_value >= lower - 1e-6
            assert res.scaled_value <= upper + 1e-8
        for r, v in report.inf_over_n.items():
            assert v == min(res.scaled_value for res in report.results if res.r == r)
        for n, v in report.inf_over_r.items():
            assert v == min(res.scaled_value for res in report.results if res.n == n)
