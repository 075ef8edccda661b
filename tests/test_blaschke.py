"""Blaschke factors: Taylor coefficients, circle sampling, sup norms."""

import math

import numpy as np
import pytest

from toepcond import (
    BlaschkeFactor,
    SingularSymbolError,
    apply_calculus,
    eval_on_circle,
    reciprocal_series,
    reciprocal_taylor,
    spectral_norm,
    taylor,
)
from toepcond.core import AnalyticPolynomial

P = AnalyticPolynomial.from_coeffs


class TestDomains:
    def test_factor_requires_open_disk(self):
        for bad in (1.0, -1.0, 1.0 + 0.0j, 2.0j):
            with pytest.raises(ValueError):
                BlaschkeFactor(bad)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.nan)])
    def test_nan_zero_is_refused(self, bad):
        with pytest.raises(ValueError, match="^zero must lie in the open unit disk"):
            BlaschkeFactor(bad)

    def test_taylor_requires_positive_order(self):
        with pytest.raises(ValueError):
            taylor(BlaschkeFactor(0.5), 0)


class TestTaylor:
    def test_zero_at_origin_is_minus_z(self):
        c = taylor(BlaschkeFactor(0.0), 3).coeffs
        assert np.array_equal(c, [0.0, -1.0, 0.0])

    def test_frozen_half(self):
        c = taylor(BlaschkeFactor(0.5), 3).coeffs
        assert np.allclose(c, [0.5, -0.75, -0.375], atol=1e-15)

    def test_multiply_back_oracle(self):
        # b_lambda(z) (1 - conj(lambda) z) = lambda - z, so convolving the
        # truncated series with (1, -conj(lambda)) must give (lambda, -1, 0, ...)
        rng = np.random.default_rng(61)
        for _ in range(20):
            lam = complex(0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            n = int(rng.integers(1, 20))
            c = taylor(BlaschkeFactor(lam), n).coeffs
            conv = np.convolve(c, [1.0, -np.conj(lam)])[:n]
            target = np.zeros(n, dtype=complex)
            target[0] = lam
            if n > 1:
                target[1] = -1.0
            assert np.allclose(conv, target, atol=1e-12)

    def test_square_summable_to_one(self):
        # the factor is inner, so its Taylor coefficients have unit l^2 norm
        for lam in (0.3, 0.9, 0.5 * np.exp(1j * np.pi / 3)):
            c = taylor(BlaschkeFactor(lam), 200).coeffs
            assert float(np.sum(np.abs(c) ** 2)) == pytest.approx(1.0, abs=1e-8)


class TestReciprocalTaylor:
    def test_frozen_half(self):
        c = reciprocal_taylor(BlaschkeFactor(0.5), 3).coeffs
        assert np.allclose(c, [2.0, 3.0, 6.0], atol=1e-12)

    def test_single_coefficient(self):
        c = reciprocal_taylor(BlaschkeFactor(0.9), 1).coeffs
        assert np.allclose(c, [1.0 / 0.9], atol=1e-15)

    def test_origin_zero_raises(self):
        with pytest.raises(SingularSymbolError):
            reciprocal_taylor(BlaschkeFactor(0.0), 3)

    def test_matches_series_recursion(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            lam = complex((0.1 + 0.85 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            n = int(rng.integers(1, 16))
            closed = reciprocal_taylor(BlaschkeFactor(lam), n).coeffs
            recursed = reciprocal_series(taylor(BlaschkeFactor(lam), n)).coeffs
            assert np.allclose(closed, recursed, atol=1e-12 * np.abs(closed).max())

    @pytest.mark.parametrize("lam, n", [(1e-200, 3), (1e-6, 64), (-1e-6j, 64), (1e-5, 64), (0.05, 64), (0.9999, 64)])
    def test_beyond_float64_without_a_warning_and_equal_to_the_series_where_finite(self, lam, n):
        # RuntimeWarnings are errors in this suite; past float64 the
        # coefficients are inf or NaN, as reciprocal_series leaves them
        closed = reciprocal_taylor(BlaschkeFactor(lam), n).coeffs
        recursed = reciprocal_series(taylor(BlaschkeFactor(lam), n)).coeffs
        finite = np.isfinite(recursed)
        assert np.array_equal(np.isfinite(closed), finite)
        rel = np.abs(closed[finite] - recursed[finite]) / np.abs(recursed[finite])
        assert np.all(rel <= 1e-12)

    def test_convolution_identity(self):
        lam = 0.4 - 0.3j
        n = 12
        f = taylor(BlaschkeFactor(lam), n).coeffs
        g = reciprocal_taylor(BlaschkeFactor(lam), n).coeffs
        head = np.convolve(f, g)[:n]
        unit = np.zeros(n, dtype=complex)
        unit[0] = 1.0
        assert np.allclose(head, unit, atol=1e-10)


class TestEvalOnCircle:
    def test_factor_is_unimodular(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            lam = complex(0.98 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            vals = eval_on_circle(BlaschkeFactor(lam), 512)
            assert np.max(np.abs(vals - 1.0)) <= 1e-10

    def test_monomial_samples_to_ones(self):
        vals = eval_on_circle(P((0.0, 0.0, 0.0, 1.0)), 64)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_polynomial_matches_pointwise_oracle(self):
        rng = np.random.default_rng(73)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = 32
        vals = eval_on_circle(P(coeffs), m)
        z = np.exp(2j * np.pi * np.arange(m) / m)
        direct = np.abs(np.polyval(coeffs[::-1], z))
        assert np.allclose(vals, direct, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_sample_counts(self):
        f = BlaschkeFactor(0.5)
        for m in (8, 100, 0):
            with pytest.raises(ValueError):
                eval_on_circle(f, m)
        with pytest.raises(ValueError):
            eval_on_circle(P(np.ones(40)), 32)


class TestSupNormEstimate:
    # the max of |g| over the circle grid, a lower bound on the sup norm

    def test_constant(self):
        assert eval_on_circle(P((0.5,)), 4096).max() == pytest.approx(0.5, abs=1e-15)

    def test_inner_function_has_sup_one(self):
        assert eval_on_circle(BlaschkeFactor(0.7), 4096).max() == pytest.approx(1.0, abs=1e-12)

    def test_one_plus_z(self):
        # max at z = 1, which the grid contains
        assert eval_on_circle(P((1.0, 1.0)), 1024).max() == pytest.approx(2.0, abs=1e-12)

    def test_frozen_remainder_exemplar(self):
        # 1 - z^3 h(z) for the (n=3, r=0.5) remainder h = 5.625 + 2.25 z
        g = P((1.0, 0.0, 0.0, -5.625, -2.25))
        val = eval_on_circle(g, 4096).max()
        assert val >= 7.0
        assert val == pytest.approx(8.25623557518649, rel=1e-10)


class TestSpectralMapping:
    def test_calculus_of_factor_is_contraction_with_spectrum_r(self):
        for r in (0.1, 0.5, 0.9):
            A = apply_calculus(taylor(BlaschkeFactor(r), 6), 6)
            assert np.allclose(np.diag(A.matrix), r, atol=1e-15)
            assert spectral_norm(A.matrix) <= 1.0 + 1e-10
