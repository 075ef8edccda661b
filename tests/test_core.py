"""Triangular Toeplitz algebra: calculus, commutant, reciprocals, remainders."""

import math

import numpy as np
import pytest

from toepcond import (
    AnalyticPolynomial,
    AnalyticToeplitzMatrix,
    BezoutPairError,
    SingularSymbolError,
    apply_calculus,
    bezout_remainder,
    commutes_with_shift,
    jordan_block,
    reciprocal_series,
)
from toepcond.core import _lower_toeplitz, _toeplitz_index

P = AnalyticPolynomial.from_coeffs


def full_convolve(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


class TestAnalyticPolynomial:
    @pytest.mark.parametrize("n, coeffs, message", [
        (0, [], "truncation order must be at least 1"),
        (2, [1.0], "expected 2 coefficients, got 1"),
    ])
    def test_refuses_an_order_its_coefficients_do_not_have(self, n, coeffs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AnalyticPolynomial(n, coeffs)


class TestJordanBlock:
    def test_n_three(self):
        M = jordan_block(3)
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(M, expected)

    def test_nilpotency_order(self):
        for n in range(1, 17):
            M = jordan_block(n)
            assert np.all(np.linalg.matrix_power(M, n) == 0)
            assert np.any(np.linalg.matrix_power(M, n - 1) != 0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            jordan_block(0)


class TestApplyCalculus:
    def test_constant_symbol(self):
        A = apply_calculus(P((3.0,)), 4)
        assert np.array_equal(A.matrix, 3.0 * np.eye(4))

    def test_linear_symbol_gives_shift(self):
        A = apply_calculus(P((0.0, 1.0)), 3)
        assert np.array_equal(A.matrix, jordan_block(3))

    def test_blaschke_column(self):
        A = apply_calculus(P((0.5, -0.75, -0.375)))
        assert np.allclose(A.first_column, [0.5, -0.75, -0.375], atol=1e-15)
        assert np.allclose(np.triu(A.matrix, 1), 0.0)
        assert A.r_min == pytest.approx(0.5)

    def test_truncates_long_symbols(self):
        A = apply_calculus(P((1.0, 2.0, 3.0, 4.0, 5.0)), 2)
        assert np.allclose(A.first_column, [1.0, 2.0])

    @pytest.mark.parametrize("build", [
        lambda phi, n: AnalyticToeplitzMatrix(n, phi),
        lambda phi, n: apply_calculus(phi, n),
    ], ids=["constructor", "apply_calculus"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pads_or_truncates_into_a_copy_of_the_symbol(self, build, n):
        # one padding path for every order, the symbol's own included
        phi = P((1.0, 2.0, 3.0))
        A = build(phi, n)
        assert (A.n, A.symbol.n) == (n, n)
        column = [1.0, 2.0, 3.0, 0.0, 0.0][:n]
        assert np.array_equal(A.first_column, column)
        powers = [np.linalg.matrix_power(jordan_block(n), k) for k in range(n)]
        assert np.array_equal(A.matrix, sum(c * M for c, M in zip(column, powers)))
        assert not np.shares_memory(A.symbol.coeffs, phi.coeffs)
        assert np.array_equal(phi.coeffs, [1.0, 2.0, 3.0])

    def test_default_order_is_the_symbols_own_in_a_copy(self):
        phi = P((0.5, -0.75))
        A = apply_calculus(phi)
        assert A.n == 2 and np.array_equal(A.first_column, phi.coeffs)
        assert not np.shares_memory(A.symbol.coeffs, phi.coeffs)

    def test_multiplicative_on_products(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            prod = full_convolve(f, g)[:n]
            lhs = apply_calculus(P(f), n).matrix @ apply_calculus(P(g), n).matrix
            rhs = apply_calculus(P(prod), n).matrix
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(prod).max()))


class TestCommutant:
    def test_calculus_output_commutes(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert commutes_with_shift(apply_calculus(P(f), n).matrix)

    def test_identity_commutes(self):
        assert commutes_with_shift(np.eye(5))

    def test_transpose_of_shift_fails(self):
        for n in range(2, 6):
            assert not commutes_with_shift(jordan_block(n).T)

    def test_perturbed_entry_fails(self):
        A = apply_calculus(P((1.0, 2.0, 3.0))).matrix.copy()
        A[1, 0] += 1e-3
        assert not commutes_with_shift(A)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
    def test_refuses_all_but_a_nonempty_square_matrix(self, shape):
        with pytest.raises(ValueError, match="^expected a nonempty square matrix$"):
            commutes_with_shift(np.zeros(shape))

    def test_random_dense_fails(self):
        rng = np.random.default_rng(47)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert not commutes_with_shift(A)


class TestLowerToeplitz:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_gather_keeps_the_dtype_and_is_c_contiguous(self, dtype, n):
        column = (np.arange(1, n + 1) * (1.0 - 2.0j if dtype == np.complex128 else -1.5)).astype(dtype)
        M = _lower_toeplitz(column)
        assert M.dtype == dtype and M.flags.c_contiguous
        assert np.array_equal(M, [[column[i - j] if i >= j else 0 for j in range(n)] for i in range(n)])

    def test_shared_index_is_read_only(self):
        with pytest.raises(ValueError):
            _toeplitz_index(5)[0, 1] = 0


class TestReciprocalSeries:
    def test_frozen_exemplar(self):
        out = reciprocal_series(P((0.5, -0.75, -0.375)))
        assert np.allclose(out.coeffs, [2.0, 3.0, 6.0], atol=1e-12)

    def test_unit_constant(self):
        assert np.allclose(reciprocal_series(P((1.0,))).coeffs, [1.0])

    def test_geometric(self):
        assert np.allclose(reciprocal_series(P((1.0, -1.0))).coeffs, [1.0, 1.0], atol=1e-14)

    def test_convolution_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(1, 14))
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f[0] = f[0] / abs(f[0])
            g = reciprocal_series(P(f))
            head = full_convolve(f, g.coeffs)[:n]
            unit = np.zeros(n, dtype=complex)
            unit[0] = 1.0
            assert np.allclose(head, unit, atol=1e-10)

    def test_inverts_the_matrix(self):
        f = P((0.5, -0.75, -0.375))
        A = apply_calculus(f).matrix
        B = apply_calculus(reciprocal_series(f)).matrix
        assert np.allclose(A @ B, np.eye(3), atol=1e-12)

    def test_singular_symbol_raises(self):
        with pytest.raises(SingularSymbolError):
            reciprocal_series(P((0.0, 1.0)))

    def test_refusal_names_the_value_and_the_limit(self):
        # f(0) = 0 is the one limit: a tiny constant term is not refused, and
        # a reciprocal beyond float64 comes back as inf without a warning
        with pytest.raises(SingularSymbolError, match=r"f\(0\) = 0: f\(M_n\) is singular"):
            reciprocal_series(P((0.0, 1.0)))
        assert np.allclose(reciprocal_series(P((1e-15, 1.0))).coeffs, [1e15, -1e30], rtol=1e-15, atol=0)
        assert np.isinf(reciprocal_series(P((5e-324,))).coeffs[0])


class TestBezoutRemainder:
    def test_frozen_exemplar(self):
        h = bezout_remainder(P((0.5, -0.75, -0.375)), P((2.0, 3.0, 6.0)))
        assert np.allclose(h, [5.625, 2.25], atol=1e-10)

    def test_reconstruction(self):
        f = P((0.5, -0.75, -0.375))
        g = P((2.0, 3.0, 6.0))
        h = bezout_remainder(f, g)
        full = full_convolve(f.coeffs, g.coeffs)
        full[3:] += h
        target = np.zeros_like(full)
        target[0] = 1.0
        assert np.allclose(full, target, atol=1e-10)

    def test_length_one_symbols(self):
        h = bezout_remainder(P((0.5,)), P((2.0,)))
        assert h.shape == (0,)

    def test_constant_padding_gives_zero_remainder(self):
        h = bezout_remainder(P((0.5, 0.0)), P((2.0, 0.0)))
        assert h.shape == (1,)
        assert np.allclose(h, 0.0)

    def test_non_reciprocal_pair_raises(self):
        with pytest.raises(BezoutPairError):
            bezout_remainder(P((1.0, 0.0)), P((1.0, 1.0)))

    @pytest.mark.parametrize("f", [(math.nan, 1.0), (1.0, math.inf)], ids=["nan", "inf"])
    def test_non_finite_product_raises(self, f):
        # a NaN deviation from 1 mod z^n is no pass
        with pytest.raises(BezoutPairError, match="by nan$"):
            bezout_remainder(P(f), P((1.0, 0.0)))

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            bezout_remainder(P((1.0,)), P((1.0, 0.0)))
