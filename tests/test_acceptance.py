"""Acceptance gate: one test per headline guarantee of the package.

Each test is self-contained, pins its tolerances inline, and prints a
one-line summary (visible under pytest -s). Random checks draw from seeded
generators so failures reproduce exactly.
"""

import time

import numpy as np
import pytest

from toepcond import (
    AnalyticPolynomial,
    apply_calculus,
    bezout_remainder,
    BlaschkeFactor,
    build_T_r,
    commutes_with_shift,
    estimate_t_a,
    eval_on_circle,
    grid_sweep,
    inverse_norm,
    reciprocal_series,
    reciprocal_taylor,
    SearchConfig,
    spectral_norm,
    taylor,
    theorem_check,
    verify_extremality,
)
from toepcond.cli import _search_csv, parse_r_grid

P = AnalyticPolynomial.from_coeffs

R_GRID = parse_r_grid("0.05:0.95:0.05")


def test_bracket_holds_across_the_grid():
    # n = 1..12, r = 0.05..0.95 step 0.05: ||T_r|| <= 1 + 1e-8 and
    # max(r^n, 1-r^n) - 1e-8 <= r^n ||T_r^{-1}|| <= 1 + 1e-8, in under 10 s
    # on a single worker
    start = time.perf_counter()
    records = grid_sweep(12, R_GRID)
    elapsed = time.perf_counter() - start
    assert len(records) == 12 * 19
    worst_norm = max(rec.norm_T for rec in records)
    worst_low = min(rec.scaled - rec.lower for rec in records)
    worst_high = max(rec.scaled - rec.upper for rec in records)
    assert worst_norm <= 1.0 + 1e-8
    assert worst_low >= -1e-8
    assert worst_high <= 1e-8
    assert all(rec.passed for rec in records)
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS: 228 points in {elapsed:.2f}s, "
        f"max norm {worst_norm:.15g}, bracket slack [{worst_low:.2e}, {worst_high:.2e}]"
    )


def test_exemplar_sharpness_and_path_agreement():
    # at n=3, r=0.5 the inverse norm lands in [7, 8] and the two
    # independent paths (LAPACK inverse vs reciprocal series) agree to 1e-8
    T = build_T_r(3, 0.5)
    via_solve = inverse_norm(T.matrix)
    via_series = spectral_norm(apply_calculus(reciprocal_series(T.symbol)).matrix)
    # containment in [7, 8] up to a few ulps of roundoff on the upper edge
    assert 7.0 <= via_solve <= 8.0 * (1.0 + 1e-12)
    assert 7.0 <= via_series <= 8.0 * (1.0 + 1e-12)
    rel = abs(via_solve - via_series) / max(via_solve, via_series)
    assert rel <= 1e-8
    print(f"criterion 2 PASS: inverse norm {via_solve:.15g}, path disagreement {rel:.2e}")


def test_model_operators_attain_the_kronecker_bound():
    # zeros at r times the n-th roots of unity: inverse norm 1/r^n to
    # relative 1e-6, defect rank one, and unit norm for n >= 2 (in one
    # dimension the compression is multiplication by the zero, norm r)
    worst_gap = 0.0
    for n in range(1, 7):
        for r in (0.3, 0.6, 0.9):
            zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
            report = verify_extremality(r, zeros)
            assert abs(report.norm - (1.0 if n >= 2 else r)) <= 1e-6
            assert report.rel_gap <= 1e-6
            assert report.inv_norm == pytest.approx(r**-n, rel=1e-6)
            assert report.defect_rank == 1
            worst_gap = max(worst_gap, report.rel_gap)
    print(f"criterion 3 PASS: 18 model operators, worst relative gap {worst_gap:.2e}")


def test_commutant_is_exactly_triangular_toeplitz():
    # 110 random triangular Toeplitz matrices commute with the shift; each
    # stops commuting after one off-pattern perturbation of magnitude >= 1e-3.
    # The (n-1, 0) corner is excluded: that diagonal has length one, so
    # changing it preserves the Toeplitz structure.
    rng = np.random.default_rng(20260817)
    for _ in range(110):
        n = int(rng.integers(2, 11))
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        A = apply_calculus(P(f), n).matrix
        assert commutes_with_shift(A)
        while True:
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            if (i, j) != (n - 1, 0):
                break
        B = A.copy()
        B[i, j] += (1e-3 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert not commutes_with_shift(B)
    print("criterion 4 PASS: 110 random matrices, commutant membership and breakage")


def test_reciprocal_and_bezout_identities():
    # 110 random symbols with |f(0)| >= 1e-2 and a tail small enough that the
    # reciprocal stays O(1/|f(0)|); the matrix inverse identity and the
    # remainder identity f*g + z^n h = 1 both hold to 1e-10. (An absolute
    # tolerance forces a well-scaled ensemble: reciprocals of symbols with
    # tail/constant ratios near one grow geometrically and their exact
    # cancellation is unrepresentable in doubles.)
    rng = np.random.default_rng(1202)
    worst_inv = 0.0
    worst_rem = 0.0
    for _ in range(110):
        n = int(rng.integers(1, 13))
        a0 = (0.01 + 0.99 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        f = np.empty(n, dtype=complex)
        f[0] = a0
        if n > 1:
            tail = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            budget = 0.5 * rng.uniform() * abs(a0)
            f[1:] = tail * (budget / max(np.sum(np.abs(tail)), 1e-300))
        fp = P(f)
        g = reciprocal_series(fp)
        resid = np.max(np.abs(apply_calculus(fp).matrix @ apply_calculus(g).matrix - np.eye(n)))
        assert resid <= 1e-10
        worst_inv = max(worst_inv, resid)

        h = bezout_remainder(fp, g)
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        fg = np.polyval(f[::-1], z) * np.polyval(g.coeffs[::-1], z)
        zh = z**n * (np.polyval(h[::-1], z) if h.size else 0.0)
        rem = np.max(np.abs(fg + zh - 1.0))
        assert rem <= 1e-10
        worst_rem = max(worst_rem, rem)
    print(f"criterion 5 PASS: 110 symbols, worst residuals {worst_inv:.2e} (inverse), {worst_rem:.2e} (remainder)")


def test_bracket_lower_endpoint_approaches_one():
    # desk-scale stand-in for the n -> infinity limit: at (12, 0.5) the lower
    # endpoint 1 - r^n exceeds 0.999 and at (4, 0.05) it exceeds 1 - 1e-5,
    # with the bracket verified at both points
    rec_a = theorem_check(12, 0.5)
    assert rec_a.lower > 0.999
    assert rec_a.passed
    rec_b = theorem_check(4, 0.05)
    assert rec_b.lower > 1.0 - 1e-5
    assert rec_b.passed
    print(
        f"criterion 6 PASS: lower endpoints {rec_a.lower:.12g} (n=12, r=0.5), "
        f"{rec_b.lower:.12g} (n=4, r=0.05); scaled values {rec_a.scaled:.12g}, {rec_b.scaled:.12g}"
    )


def test_optimizer_soundness_and_determinism():
    # seed 42: every estimate dominates the T_r inverse norm (its own seed
    # start) within 1e-6 and respects the 1/r^n ceiling; n=1 recovers 1/r
    # exactly; two consecutive runs serialize to byte-identical reports
    cfg = SearchConfig(seed=42, restarts=8, iters=250)
    cases = [(n, r) for n in (1, 2, 3) for r in (0.3, 0.5, 0.8)]
    first = [estimate_t_a(n, r, cfg) for n, r in cases]
    second = [estimate_t_a(n, r, cfg) for n, r in cases]
    for (n, r), res in zip(cases, first):
        floor = theorem_check(n, r).inv_norm
        assert res.best_value >= floor - 1e-6
        assert (r**n) * res.best_value <= 1.0 + 1e-8
        if n == 1:
            assert abs(res.best_value - 1.0 / r) <= 1e-6
    report_a = _search_csv(first)
    report_b = _search_csv(second)
    assert report_a.encode() == report_b.encode()
    print(f"criterion 7 PASS: 9 searches sound, reports byte-identical ({len(report_a)} bytes)")


def test_blaschke_unimodularity_and_closed_forms():
    # 20 random factors are unimodular on 512 circle samples to 1e-10, and
    # both Taylor closed forms match an in-test long-division oracle to
    # 1e-12 relative for orders up to 20

    def series_divide(num, den, n):
        q = np.zeros(n, dtype=complex)
        for k in range(n):
            acc = num[k] if k < len(num) else 0.0
            for j in range(max(0, k - len(den) + 1), k):
                acc -= q[j] * den[k - j]
            q[k] = acc / den[0]
        return q

    rng = np.random.default_rng(512)
    for _ in range(20):
        lam = complex((0.1 + 0.85 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        vals = eval_on_circle(BlaschkeFactor(lam), 512)
        assert np.max(np.abs(vals - 1.0)) <= 1e-10

        n = int(rng.integers(1, 21))
        forward = taylor(BlaschkeFactor(lam), n).coeffs
        oracle_f = series_divide([lam, -1.0], [1.0, -np.conj(lam)], n)
        assert np.allclose(forward, oracle_f, rtol=1e-12, atol=1e-12)

        backward = reciprocal_taylor(BlaschkeFactor(lam), n).coeffs
        oracle_b = series_divide([1.0, -np.conj(lam)], [lam, -1.0], n)
        assert np.allclose(backward, oracle_b, rtol=1e-12, atol=1e-12)
    print("criterion 8 PASS: 20 factors unimodular, closed forms match long division")
