"""Kernel tests: norms, inverse norms and defect ranks against dense SVD oracles."""

import warnings

import numpy as np
import pytest

import toepcond.bounds as bounds_mod
from toepcond import (
    SingularMatrixError,
    TwoPathMismatchError,
    build_T_r,
    defect_singular_values,
    grid_sweep,
    inverse_norm,
    spectral_norm,
    theorem_check,
)
from toepcond.cli import DEFAULT_R_GRID, parse_r_grid
from toepcond.core import apply_calculus, reciprocal_series
from toepcond.linalg import PIVOT_TOL, two_path_inverse_norm


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


# attains ||diag(a, b)^{-1}|| for |a| > |b|
E1 = np.array([0.0, 1.0])


def triangular_case(n, r):
    """T_r, its exact inverse, its extremal vector r^k and ||T_r|| at (n, r)."""
    A, W, x = bounds_mod._bracket_matrices(n, r)
    return A, W, x, spectral_norm(A)


class TestTwoPathInverseNorm:
    def test_exact_inverse_value_when_paths_agree(self):
        # X = A^{-1} and ||A||/|det A| = 4 check W to 1e-8, and the value is
        # ||W e_1||, not ||X||
        A = np.diag([0.5, 0.25])
        W = np.diag([2.0, 4.0 * (1 + 1e-9)])
        assert two_path_inverse_norm(A, W, E1, 0.5, 0.25 / (1 + 1e-9)) == spectral_norm(W) != inverse_norm(A)

    def test_exact_inverse_alone_beyond_the_solve_range(self):
        A = np.diag([1.0, 1e-15])
        W = np.diag([1.0, 1e15])
        assert two_path_inverse_norm(A, W, E1, 1.0, 1e-15) == 1e15

    def test_exact_inverse_beyond_the_threshold_still_meets_its_closed_form(self):
        # 1e20 * W puts the value beyond 1/PIVOT_TOL, where X does not check
        # it: the determinant bound of A refuses it. The right W with a scale
        # 1e-11 off misses only the closed form.
        A, W, x, norm = triangular_case(3, 0.5)
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            two_path_inverse_norm(A, 1e20 * W, x, norm, 0.5**3)
        A, W, x, norm = triangular_case(20, 0.1)
        assert two_path_inverse_norm(A, W, x, norm, 0.1**20) > 1.0 / PIVOT_TOL
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            two_path_inverse_norm(A, W, x, norm, 0.1**20 * (1 + 1e-11))

    def test_threshold_is_read_on_the_exact_inverse(self, monkeypatch):
        # at (14, 0.1) ||W|| lies just past 1/PIVOT_TOL and ||X|| just inside
        # it: the value ||W x||/||x|| decides alone, and no LAPACK inverse is
        # formed
        A, W, _ = bounds_mod._bracket_matrices(14, 0.1)
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
        [
            (np.zeros((2, 2)), SingularMatrixError),
            (np.diag([1.0, 1e-20]), TwoPathMismatchError),
            (np.array([[1.0, 0.0], [np.nan, 1.0]]), TwoPathMismatchError),
        ],
        ids=["zero", "tiny_pivot", "nan_entry"],
    )
    def test_matrix_refused_by_lapack_does_not_pass_on_the_exact_inverse(self, A, error):
        # W = I and ||A|| = 1 claim A is well conditioned, so A must refute it
        with pytest.raises(error):
            two_path_inverse_norm(A, np.eye(2), np.array([1.0, 0.0]), 1.0, 1.0)

    def test_disagreeing_paths_raise(self):
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            two_path_inverse_norm(np.diag([0.5, 0.25]), np.diag([2.0, 4.0 * (1 + 1e-7)]), E1, 0.5, 0.25)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_exact_inverse_is_refused_naming_its_first_entry(self, bad):
        # refused before W is used: an infinite W made the two paths
        # "disagree" as 1 vs nan
        W = np.eye(3)
        W[1, 0] = W[2, 2] = bad
        with pytest.raises(SingularMatrixError) as info:
            two_path_inverse_norm(np.eye(3), W, np.ones(3), 1.0, 1.0)
        assert str(info.value) == "exact inverse has entries beyond the float64 range, first at (1, 0)"

    def test_first_entry_is_in_row_major_order(self):
        W = np.eye(3, dtype=complex)
        W[2, 0] = complex(0.0, np.inf)
        W[1, 2] = complex(np.nan, 0.0)
        with pytest.raises(SingularMatrixError, match=r"first at \(1, 2\)$"):
            two_path_inverse_norm(np.eye(3), W, np.ones(3), 1.0, 1.0)

    def test_closed_form_miss_raises(self):
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            two_path_inverse_norm(np.diag([0.5, 0.25]), np.diag([2.0, 4.0]), E1, 0.5, 0.25 * (1 + 1e-11))

    @pytest.mark.parametrize("n", [3, 12])
    def test_right_norm_wrong_matrix_raises(self, n):
        # W^T and W with two rows swapped have the singular values of the
        # exact inverse W, so a comparison of norms alone lets them through.
        # W^T misses the extremal vector; a row permutation keeps ||W x||,
        # and only X refuses it
        r = 0.5
        A, W, x, norm = triangular_case(n, r)
        assert two_path_inverse_norm(A, W, x, norm, r**n) == pytest.approx(spectral_norm(W), rel=1e-15)
        for wrong, message in ((W.T, "enclosure"), (W[[1, 0, *range(2, n)]], "paths disagree")):
            assert np.allclose(np.linalg.svd(wrong, compute_uv=False), np.linalg.svd(W, compute_uv=False))
            with pytest.raises(TwoPathMismatchError, match=message):
                two_path_inverse_norm(A, wrong, x, norm, r**n)

    @pytest.mark.parametrize("n, r", [(64, 0.05), (40, 0.3)])
    def test_transposed_exact_inverse_beyond_the_solve_range_raises(self, n, r):
        # the value lies beyond 1/PIVOT_TOL, so no X checks W; W^T has its
        # singular values and used to pass on them
        A, W, x, norm = triangular_case(n, r)
        assert two_path_inverse_norm(A, W, x, norm, r**n) > 1.0 / PIVOT_TOL
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            two_path_inverse_norm(A, W.T, x, norm, r**n)

    @pytest.mark.parametrize("n, r", [(12, 0.5), (64, 0.05)])
    @pytest.mark.parametrize(
        "wrong",
        [lambda x: x[::-1], lambda x: x * np.where(np.arange(x.size) == 1, -1.0, 1.0)],
        ids=["reversed", "flipped_sign"],
    )
    def test_wrong_certificate_raises(self, n, r, wrong):
        A, W, x, norm = triangular_case(n, r)
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            two_path_inverse_norm(A, W, wrong(x), norm, r**n)

    @pytest.mark.parametrize(
        "A, W, x, message",
        [
            # beyond the solve range this returned 1e15 from a 3 x 3 W
            (np.diag([1.0, 1e-15]), np.diag([1.0, 1e15, 5.0]), E1,
             r"exact inverse has shape \(3, 3\), A has shape \(2, 2\)"),
            (np.diag([0.5, 0.25]), np.eye(3), E1, r"exact inverse has shape \(3, 3\), A has shape \(2, 2\)"),
            (np.diag([0.5, 0.25]), np.diag([2.0, 4.0]), np.ones(3), r"certificate has shape \(3,\), A has shape \(2, 2\)"),
            (np.diag([0.5, 0.25]), np.diag([2.0, 4.0]), np.zeros(2), "certificate must be nonzero and finite"),
            (np.diag([0.5, 0.25]), np.diag([2.0, 4.0]), np.array([np.nan, 1.0]), "certificate must be nonzero and finite"),
            (np.array([[0.5, 1e-300], [0.0, 0.25]]), np.diag([2.0, 4.0]), E1, "expected a lower-triangular matrix"),
        ],
        ids=["W_beyond_solve_range", "W_inside_solve_range", "x_shape", "x_zero", "x_nan", "upper_entry"],
    )
    def test_bad_arguments_are_refused_before_any_kernel(self, A, W, x, message, monkeypatch):
        inversions = []
        monkeypatch.setattr(np.linalg, "inv", lambda M: inversions.append(M))
        with pytest.raises(ValueError, match=message):
            two_path_inverse_norm(A, W, x, 0.5, 0.25)
        assert inversions == []

    def test_entries_up_to_the_float64_limit_do_not_overflow(self):
        # ||W x|| = 1e300 at (2, 1e-150): numpy's vector norm squares it
        A, W, x, norm = triangular_case(2, 1e-150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert two_path_inverse_norm(A, W, x, norm, 1e-300) == pytest.approx(1e300, rel=1e-15)


class TestOneSvdPerInverseNorm:
    def test_grid_sweep_values_and_svd_count(self, monkeypatch):
        # each point takes one SVD, of T_r for ||T_r||, and none for its
        # inverse norm ||W x||/||x||; one LAPACK inverse checks W exactly
        # where that value is at most 1/PIVOT_TOL
        svds, inversions = [], []
        real_svd, real_inv = np.linalg.svd, np.linalg.inv
        monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **k: svds.append(M) or real_svd(M, *a, **k))
        monkeypatch.setattr(np.linalg, "inv", lambda M: inversions.append(M) or real_inv(M))
        kernels = {}
        real_check = bounds_mod.check_contraction

        def counted(n, r, A, W, x):
            first_svd, first_inv = len(svds), len(inversions)
            try:
                return real_check(n, r, A, W, x)
            finally:
                kernels[n, r] = (svds[first_svd:], len(inversions) - first_inv)

        monkeypatch.setattr(bounds_mod, "check_contraction", counted)
        grid = parse_r_grid(DEFAULT_R_GRID)
        records = grid_sweep(64, grid)
        assert len(records) == len(kernels) == 64 * len(grid)
        assert sum(len(seen) for seen, _ in kernels.values()) == 1216
        assert sum(inv for _, inv in kernels.values()) == 823
        for r in grid:
            T = build_T_r(64, r).matrix.real
            W = apply_calculus(reciprocal_series(build_T_r(64, r).symbol), 64).matrix.real
            for rec in (rec for rec in records if rec.r == r):
                n = rec.n
                seen, inv = kernels[n, r]
                assert len(seen) == 1 and np.array_equal(seen[0], T[:n, :n])
                assert inv == int(rec.inv_norm <= 1.0 / PIVOT_TOL)
                assert rec.error is None
                assert rec.inv_norm == pytest.approx(spectral_norm(W[:n, :n]), rel=1e-14)
                assert abs(rec.scaled - 1.0) <= 1e-14


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

