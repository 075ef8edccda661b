"""Kernel tests: norms, inverse norms and defect ranks against dense SVD oracles."""

import numpy as np
import pytest

from toepcond import (
    SingularMatrixError,
    build_T_r,
    defect_singular_values,
    inverse_norm,
    spectral_norm,
)


def lower_toeplitz(column):
    column = np.asarray(column, dtype=complex)
    n = column.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out[np.arange(k, n), np.arange(n - k)] = column[k]
    return out


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def svd_dtypes(monkeypatch):
    """Record the dtype of every matrix handed to np.linalg.svd."""
    seen = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


class TestDtypes:
    def test_real_input_stays_real(self, svd_dtypes):
        A = build_T_r(5, 0.5).matrix.real
        assert A.dtype == np.float64
        spectral_norm(A)
        defect_singular_values(A)
        inverse_norm(A)
        assert svd_dtypes and all(dt == np.float64 for dt in svd_dtypes)

    def test_complex_input_stays_complex(self, svd_dtypes):
        spectral_norm(np.eye(2, dtype=np.complex64))
        defect_singular_values(np.eye(2, dtype=np.complex128))
        assert svd_dtypes == [np.complex128, np.complex128]

    def test_other_dtypes_promote_to_float64(self, svd_dtypes):
        assert spectral_norm([[3, 0], [0, 4]]) == 4.0
        spectral_norm(np.eye(2, dtype=np.float32))
        assert svd_dtypes == [np.float64, np.float64]


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0

    def test_triangular_toeplitz_236(self):
        # dense SVD oracle value is exactly 8; the first-column norm
        # sqrt(4 + 9 + 36) = 7 is a guaranteed lower bound
        A = lower_toeplitz([2, 3, 6])
        val = spectral_norm(A)
        assert 7.0 <= val <= 8.0 + 1e-10
        assert val == pytest.approx(8.0, rel=1e-11)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            A = random_complex(rng, (n, n))
            top = np.linalg.svd(A, compute_uv=False)[0]
            assert spectral_norm(A) == pytest.approx(top, rel=1e-9)

    def test_rectangular(self):
        rng = np.random.default_rng(11)
        A = random_complex(rng, (3, 5))
        top = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(top, rel=1e-10)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            A = random_complex(rng, (n, n))
            c = complex(random_complex(rng, ()))
            assert spectral_norm(c * A) == pytest.approx(abs(c) * spectral_norm(A), rel=1e-10)

    def test_clustered_top_singular_values(self):
        # sigma_1 and sigma_2 differ by 1e-12: the top one is still exact
        val = spectral_norm(np.diag([1.0, 1.0 - 1e-12]))
        assert abs(val - 1.0) <= np.spacing(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 0)))


class TestInverseNorm:
    def test_identity(self):
        assert inverse_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert inverse_norm(np.diag([0.5, 0.25])) == pytest.approx(4.0, rel=1e-12)

    def test_T_r_exemplar(self):
        val = inverse_norm(build_T_r(3, 0.5).matrix)
        assert 7.0 <= val <= 8.0 + 1e-9

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            A = np.eye(n) + 0.3 * random_complex(rng, (n, n))
            smallest = np.linalg.svd(A, compute_uv=False)[-1]
            assert inverse_norm(A) == pytest.approx(1.0 / smallest, rel=1e-9)

    def test_spectral_condition_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            A = np.eye(n) + 0.4 * random_complex(rng, (n, n))
            assert spectral_norm(A) * inverse_norm(A) >= 1.0 - 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_norm(np.zeros((3, 3)))
        # LAPACK inverts the subnormal pivot to NaN instead of raising
        with pytest.raises(SingularMatrixError):
            inverse_norm(np.diag([1.0, 1e-310]))


class TestDefect:
    def test_unitary_has_rank_zero(self):
        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.all(defect_singular_values(Q) <= 1e-15)

    def test_zero_matrix_has_full_rank(self):
        for n in (1, 3, 5):
            assert np.array_equal(defect_singular_values(np.zeros((n, n))), np.ones(n))

    def test_T_r_defect_is_rank_one(self):
        # I - T*T for T = the r=0.5 symbol applied to the 3x3 Jordan block
        # has one singular value 1 - 0.5^6 = 0.984375 and the rest zero
        A = build_T_r(3, 0.5).matrix
        vals = defect_singular_values(A)
        assert vals[0] == pytest.approx(0.984375, abs=1e-10)
        assert np.all(vals[1:] <= 1e-10)

    def test_values_match_eigen_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            A = random_complex(rng, (n, n))
            A = A / (np.linalg.svd(A, compute_uv=False)[0] + 0.5)
            D = np.eye(n) - A.conj().T @ A
            oracle = np.sort(np.abs(np.linalg.eigvalsh(D)))[::-1]
            vals = defect_singular_values(A)
            assert np.allclose(vals, oracle, atol=1e-9)

