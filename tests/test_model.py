"""Compressed-shift matrices: quadrature, triangularity, extremality."""

import numpy as np
import pytest

from toepcond import (
    QuadratureAccuracyError,
    defect_singular_values,
    defect_rank,
    jordan_block,
    malmquist_walsh_samples,
    model_operator,
    spectral_norm,
    verify_extremality,
)


class TestMalmquistWalshSamples:
    def test_single_zero_pointwise(self):
        m = 16
        E = malmquist_walsh_samples((0.5,), m)
        z = np.exp(2j * np.pi * np.arange(m) / m)
        expected = np.sqrt(0.75) / (1.0 - 0.5 * z)
        assert np.allclose(E[0], expected, atol=1e-13)

    def test_zeros_at_origin_give_monomials(self):
        m = 32
        E = malmquist_walsh_samples((0.0, 0.0, 0.0), m)
        z = np.exp(2j * np.pi * np.arange(m) / m)
        for k in range(3):
            assert np.allclose(E[k], z**k, atol=1e-13)

    def test_gram_identity(self):
        rng = np.random.default_rng(79)
        zeros = tuple(0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(5))
        m = 4096
        E = malmquist_walsh_samples(zeros, m)
        G = (E @ E.conj().T) / m
        assert np.max(np.abs(G - np.eye(5))) <= 1e-8

    def test_rejects_bad_sample_counts(self):
        with pytest.raises(ValueError):
            malmquist_walsh_samples((0.5,), 100)
        with pytest.raises(ValueError):
            malmquist_walsh_samples((0.1,) * 8, 16)  # needs at least 4n = 32


class TestModelOperator:
    def test_zeros_at_origin_reproduce_shift(self):
        op = model_operator((0.0, 0.0, 0.0, 0.0))
        assert np.allclose(op.matrix, jordan_block(4), atol=1e-10)

    def test_two_zero_exemplar(self):
        op = model_operator((0.5, -0.5))
        expected = np.array([[0.5, 0.0], [0.75, -0.5]], dtype=complex)
        assert np.allclose(op.matrix, expected, atol=1e-10)
        assert op.r_min == pytest.approx(0.5)

    def test_lower_triangular_with_zeros_on_diagonal(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            n = int(rng.integers(1, 8))
            zeros = tuple(0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                          for _ in range(n))
            op = model_operator(zeros)
            assert np.max(np.abs(np.triu(op.matrix, 1))) <= 1e-8
            assert np.allclose(np.diag(op.matrix), zeros, atol=1e-8)

    def test_diagonal_follows_zero_order(self):
        zeros = (0.3, -0.5j)
        assert np.allclose(np.diag(model_operator(zeros).matrix), zeros, atol=1e-10)
        flipped = (-0.5j, 0.3)
        assert np.allclose(np.diag(model_operator(flipped).matrix), flipped, atol=1e-10)

    def test_contraction_with_rank_one_defect(self):
        op = model_operator((0.5, -0.5))
        assert spectral_norm(op.matrix) <= 1.0 + 1e-8
        assert defect_rank(op.matrix) == 1
        vals = defect_singular_values(op.matrix)
        # the only defect singular value is 1 - prod |lambda_j|^2
        assert vals[0] == pytest.approx(1.0 - 0.0625, abs=1e-8)
        assert np.all(vals[1:] <= 1e-8)

    def test_sample_count_escalates_near_circle(self):
        # |lambda| = 0.999 forces the quadrature past the initial m = 4096
        op = model_operator((0.999, 0.999))
        assert spectral_norm(op.matrix) <= 1.0 + 1e-8
        vals = defect_singular_values(op.matrix)
        assert vals[0] == pytest.approx(1.0 - 0.999**4, abs=1e-6)
        assert vals[0] < 1e-2

    def test_quadrature_failure_reports_sample_count(self):
        with pytest.raises(QuadratureAccuracyError) as info:
            model_operator((1.0 - 1e-7,))
        assert info.value.m_last == 2**20
        assert info.value.deviation > 1e-6

    def test_rejects_bad_zeros(self):
        with pytest.raises(ValueError):
            model_operator(())
        with pytest.raises(ValueError):
            model_operator((0.5, 1.0))


class TestVerifyExtremality:
    def test_single_zero(self):
        # the 1x1 compression is multiplication by the zero itself: norm r,
        # inverse norm exactly the 1/r bound
        report = verify_extremality(0.3, (0.3,))
        assert report.norm == pytest.approx(0.3, abs=1e-9)
        assert report.inv_norm == pytest.approx(1.0 / 0.3, rel=1e-9)
        assert report.defect_rank == 1

    def test_equal_real_zeros(self):
        report = verify_extremality(0.6, (0.6, 0.6, 0.6))
        assert report.inv_norm == pytest.approx(4.62962962962963, rel=1e-9)
        assert report.kronecker == pytest.approx(1.0 / 0.216, rel=1e-15)
        assert report.rel_gap <= 1e-6
        assert report.norm == pytest.approx(1.0, abs=1e-6)
        assert report.defect_rank == 1

    def test_roots_of_unity_zeros(self):
        r, n = 0.4, 4
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        report = verify_extremality(r, zeros)
        assert report.inv_norm == pytest.approx(r**-n, rel=1e-6)

    def test_clustered_singular_values_near_circle(self):
        # at r = 0.9999 the two singular values of the model operator are
        # 1 and r^2 apart by only 2e-4; the norm must still be the top one
        r = 0.9999
        report = verify_extremality(r, (r, -r))
        assert report.norm == pytest.approx(1.0, abs=1e-6)
        assert report.defect_rank == 1

    def test_rejects_off_circle_zeros(self):
        with pytest.raises(ValueError):
            verify_extremality(0.5, (0.5, 0.4))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            verify_extremality(1.0, (0.5,))
        with pytest.raises(ValueError):
            verify_extremality(0.0, (0.5,))
