"""Compressed-shift matrices: closed form, quadrature oracle, extremality."""

import numpy as np
import pytest

from toepcond import (
    defect_singular_values,
    defect_rank,
    jordan_block,
    model_operator,
    spectral_norm,
    verify_extremality,
)

# Independent oracle: the compressed shift by trapezoidal quadrature of
# <z e_k, e_l> over the circle, doubling the sample count until the Gram
# matrix of the sampled basis is the identity to GRAM_TARGET.
GRAM_TARGET = 1e-8
GRAM_LIMIT = 1e-6
MAX_SAMPLES = 2**20


def malmquist_walsh_samples(zeros, m):
    """Values of the basis functions on the m-point circle grid.

    Returns an n x m array whose k-th row samples e_{k+1}. Requires m to be
    a power of two with m >= max(16, 4n).
    """
    zs = [complex(z) for z in zeros]
    n = len(zs)
    if m < max(16, 4 * n) or (m & (m - 1)) != 0:
        raise ValueError("sample count must be a power of two, at least max(16, 4n)")
    z = np.exp(2j * np.pi * np.arange(m) / m)
    E = np.empty((n, m), dtype=np.complex128)
    partial = np.ones(m, dtype=np.complex128)
    for k, lam in enumerate(zs):
        kernel = np.sqrt(1.0 - abs(lam) ** 2) / (1.0 - np.conj(lam) * z)
        E[k] = kernel * partial
        partial = partial * (z - lam) / (1.0 - np.conj(lam) * z)
    return E


def quadrature_operator(zeros, m=4096):
    """(matrix, final sample count, final Gram deviation) of the oracle.

    Stops at the first m whose Gram deviation is at most GRAM_TARGET, or at
    MAX_SAMPLES; the caller judges the deviation it returns.
    """
    while True:
        E = malmquist_walsh_samples(zeros, m)
        G = (E @ E.conj().T) / m
        dev = float(np.max(np.abs(G - np.eye(E.shape[0]))))
        if dev <= GRAM_TARGET or m >= MAX_SAMPLES:
            break
        m *= 2
    z = np.exp(2j * np.pi * np.arange(m) / m)
    # entries <z e_k, e_l>: row l, column k
    return np.conj(E) @ (z * E).T / m, m, dev


def random_zeros(rng, n, radius):
    return tuple(radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(n))


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
        zeros = random_zeros(rng, 5, 0.6)
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
        for n in range(1, 9):
            assert np.array_equal(model_operator((0.0,) * n).matrix, jordan_block(n))

    def test_two_zero_exemplar(self):
        op = model_operator((0.5, -0.5))
        expected = np.array([[0.5, 0.0], [0.75, -0.5]], dtype=complex)
        assert np.allclose(op.matrix, expected, atol=1e-15)
        assert op.r_min == pytest.approx(0.5)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            zeros = random_zeros(rng, int(rng.integers(1, 10)), 0.9)
            M, _, dev = quadrature_operator(zeros)
            assert dev <= GRAM_TARGET
            assert np.max(np.abs(model_operator(zeros).matrix - M)) <= 1e-13

    def test_lower_triangular_with_zeros_on_diagonal(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            zeros = random_zeros(rng, int(rng.integers(1, 8)), 0.8)
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
        # |lambda| = 0.999 forces the oracle past the initial m = 4096; the
        # closed form agrees with the converged quadrature
        zeros = (0.999, 0.999)
        M, m_last, dev = quadrature_operator(zeros)
        assert m_last > 4096 and dev <= GRAM_TARGET
        op = model_operator(zeros)
        assert np.max(np.abs(op.matrix - M)) <= 1e-8
        assert spectral_norm(op.matrix) <= 1.0 + 1e-15
        vals = defect_singular_values(op.matrix)
        assert vals[0] == pytest.approx(1.0 - 0.999**4, rel=1e-12)
        assert vals[0] < 1e-2

    def test_quadrature_failure_reports_sample_count(self):
        # a zero at 1 - 1e-7 defeats the oracle at its sample cap; the
        # closed form still gives a contraction with the exact defect
        lam = 1.0 - 1e-7
        _, m_last, dev = quadrature_operator((lam,))
        assert m_last == 2**20
        assert dev > GRAM_LIMIT
        op = model_operator((lam, lam))
        assert spectral_norm(op.matrix) <= 1.0 + 1e-15
        vals = defect_singular_values(op.matrix)
        assert vals[0] == pytest.approx(1.0 - lam**4, rel=1e-8)
        assert defect_rank(op.matrix) == 1

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
        assert report.rel_gap <= 1e-12
        assert report.norm == pytest.approx(1.0, abs=1e-12)
        assert report.defect_rank == 1

    def test_roots_of_unity_zeros(self):
        r, n = 0.4, 4
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        report = verify_extremality(r, zeros)
        assert report.inv_norm == pytest.approx(r**-n, rel=1e-12)

    def test_report_carries_the_matrix(self):
        zeros = (0.7, 0.7j, -0.7)
        report = verify_extremality(0.7, zeros)
        assert np.array_equal(report.matrix, model_operator(zeros).matrix)

    def test_clustered_singular_values_near_circle(self):
        # at r = 0.9999 the two singular values of the model operator are
        # 1 and r^2 apart by only 2e-4; the norm must still be the top one
        r = 0.9999
        report = verify_extremality(r, (r, -r))
        assert report.norm == pytest.approx(1.0, abs=1e-12)
        assert report.defect_rank == 1

    def test_zeros_closer_to_circle_than_quadrature_reaches(self):
        r = 1.0 - 1e-7
        for n in (2, 8, 32):
            zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
            report = verify_extremality(r, zeros)
            assert report.norm == pytest.approx(1.0, abs=1e-12)
            assert report.rel_gap <= 1e-12
            assert report.defect_rank == 1

    def test_rejects_off_circle_zeros(self):
        with pytest.raises(ValueError):
            verify_extremality(0.5, (0.5, 0.4))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            verify_extremality(1.0, (0.5,))
        with pytest.raises(ValueError):
            verify_extremality(0.0, (0.5,))
