"""Compressed-shift matrices: closed form, quadrature oracle, extremality.

verify_extremality validates its zeros once and builds M, W and x in one
pass. A property over 100 equal-modulus zero sets (random phases,
roots of unity, zeros at 0, r within 4 ulp of the circle) checks that the
matrix it checks and reports is bitwise model_operator's; other tests check
that the zeros are validated once, that a second call at the same n builds
no index grid and that the cached masks are read-only.
"""

import math
from unittest import mock

import numpy as np
import pytest

import toepcond.model as model_mod
from toepcond import (
    BlaschkeFactor,
    ExtremalityError,
    SingularMatrixError,
    ToepcondError,
    TwoPathMismatchError,
    apply_calculus,
    defect_singular_values,
    jordan_block,
    model_operator,
    reciprocal_taylor,
    spectral_norm,
    verify_extremality,
)
from toepcond.bounds import _contraction_terms, check_contraction, kronecker_bound
from toepcond.cli import DEFAULT_R_GRID, parse_r_grid
from test_properties import CONSTANTS, drawn_from

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


# Oracles for the closed-form builders: the same TMW entries filled one
# column at a time, each column from its own 1-D cumprod.
def _oracle_zeros_and_weights(zeros):
    lam = np.array([complex(z) for z in zeros], dtype=np.complex128)
    a = np.abs(lam)
    return lam, np.sqrt((1.0 - a) * (1.0 + a))


def loop_model_operator(zeros):
    lam, s = _oracle_zeros_and_weights(zeros)
    n = len(lam)
    M = np.diag(lam)
    for k in range(n - 1):
        between = np.cumprod(-np.conj(lam[k + 1 : n - 1]))
        M[k + 1 :, k] = s[k] * s[k + 1 :] * np.concatenate(([1.0], between))
    return M


def model_inverse(zeros):
    """The closed-form inverse verify_extremality passes as W, from the zeros."""
    _, lam, s = model_mod._checked_zeros(zeros)
    return model_mod._inverse_matrix(lam, s)


def loop_model_inverse(zeros):
    """The inverse with non-finite entries left in place."""
    lam, s = _oracle_zeros_and_weights(zeros)
    n = len(lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        recip = 1.0 / lam
        W = np.diag(recip)
        for l in range(n - 1):
            W[l + 1 :, l] = -s[l] * s[l + 1 :] * np.cumprod(-recip[l:])[1:]
    return W


def assert_within_ulps(actual, expected, ulps=4):
    assert np.all(np.abs(actual - expected) <= ulps * np.spacing(np.abs(expected)))


def oracle_zero_sets():
    """Seeded zero sets, n <= 64, with zeros at 0 and at |lambda| = 1 - 1e-12."""
    rng = np.random.default_rng(20261018)
    sets = [(0.0,) * 64, (1.0 - 1e-12,) * 64, (0.0, 0.5, 0.0), (1e-6,) * 64, (5e-324, -5e-324)]
    for _ in range(60):
        n = int(rng.integers(1, 65))
        moduli = rng.choice([0.0, 1.0 - 1e-12, 0.05, 0.5, 0.9], size=n)
        moduli = np.where(rng.uniform(size=n) < 0.5, rng.uniform(size=n), moduli)
        sets.append(tuple(moduli * np.exp(2j * np.pi * rng.uniform(size=n))))
    for n, r in [(64, 1e-6), (2, 5e-324), (40, 0.05), (32, 0.9999)]:
        sets.append(tuple(r * np.exp(2j * np.pi * k / n) for k in range(n)))
    return sets


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
        for n in (*range(1, 9), 17, 64):
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
        vals = defect_singular_values(op.matrix)
        assert np.count_nonzero(vals > 0.5 * (1.0 - 0.5**4)) == 1
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
        assert np.count_nonzero(vals > 0.5 * (1.0 - lam**4)) == 1

    def test_rejects_bad_zeros(self):
        with pytest.raises(ValueError):
            model_operator(())
        with pytest.raises(ValueError):
            model_operator((0.5, 1.0))
        with pytest.raises(ValueError, match=r"^zeros must lie in the open unit disk, got \|z\| = 1.5$"):
            model_operator((0.5, 1.5j, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.nan)])
    def test_nan_zero_is_refused(self, bad):
        # a NaN modulus fails the open-disk check, before any matrix or kernel
        with pytest.raises(ValueError, match=r"^zeros must lie in the open unit disk, got \|z\| = nan$"):
            model_operator((0.5, bad))
        with pytest.raises(ValueError, match=r"^zeros must lie in the open unit disk"):
            verify_extremality(0.5, (bad,))


class TestBuildersAgainstLoopOracles:
    @pytest.mark.parametrize("zeros", oracle_zero_sets())
    def test_operator_within_4_ulp(self, zeros):
        assert_within_ulps(model_operator(zeros).matrix, loop_model_operator(zeros))

    @pytest.mark.parametrize("zeros", oracle_zero_sets())
    def test_inverse_within_4_ulp_and_non_finite_where_the_loop_overflows(self, zeros):
        # RuntimeWarnings are errors in this suite, so the build warns nothing
        expected = loop_model_inverse(zeros)
        actual = model_inverse(zeros)
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(actual), finite)
        assert_within_ulps(actual[finite], expected[finite])


class TestModelInverse:
    def test_matches_numpy_inverse(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            zeros = tuple((0.3 + 0.69 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                          for _ in range(n))
            M = model_operator(zeros).matrix
            W = model_inverse(zeros)
            oracle = np.linalg.inv(M)
            assert np.abs(W @ M - np.eye(n)).max() <= 1e-12
            assert np.abs(W - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.9, 0.99])
    def test_equal_zeros_give_the_signed_reciprocal_series(self, r):
        # W = D G D with G the reciprocal-series matrix of T_r and
        # D = diag((-1)^k): the model operator of b_r^n and T_r differ by D
        for n in range(1, 40):
            G = apply_calculus(reciprocal_taylor(BlaschkeFactor(r), n)).matrix
            D = np.diag((-1.0) ** np.arange(n))
            expected = D @ G @ D
            W = model_inverse((r,) * n)
            lower = np.tril(np.ones((n, n), dtype=bool))
            assert np.all(W[~lower] == 0)
            assert np.max(np.abs(W[lower] - expected[lower]) / np.abs(expected[lower])) <= 1e-14

    @pytest.mark.parametrize("zeros, first", [((0.0, 0.5), "(0, 0)"), ((1e-6,) * 64, "(51, 0)"),
                                              ((5e-324, -5e-324), "(0, 0)")])
    def test_entries_beyond_float64_are_refused_by_the_inverse_norm_rule(self, zeros, first):
        # the builder returns them without a warning; the one rule refuses them
        W = model_inverse(zeros)
        assert not np.isfinite(W).all()
        x = model_mod._extremal_vector(*model_mod._checked_zeros(zeros)[1:])
        with pytest.raises(SingularMatrixError) as info:
            check_contraction(len(zeros), abs(zeros[-1]), model_operator(zeros).matrix, W, x)
        assert str(info.value) == f"exact inverse has entries beyond the float64 range, first at {first}"


class TestVerifyExtremality:
    def test_single_zero(self):
        # the 1x1 compression is multiplication by the zero itself: norm r,
        # inverse norm exactly the 1/r bound
        report = verify_extremality(0.3, (0.3,))
        assert report.norm == pytest.approx(0.3, abs=1e-9)
        assert report.inv_norm == pytest.approx(1.0 / 0.3, rel=1e-9)
        assert report.defect_rank == 1

    def test_report_carries_the_record_of_its_check(self):
        # the record check_contraction made is the report's one source of
        # its norms and bracket, which extremal --model prints
        from toepcond.bounds import bracket_record

        zeros = (0.5, -0.5, 0.5j)
        report = verify_extremality(0.5, zeros)
        x = model_mod._extremal_vector(*model_mod._checked_zeros(zeros)[1:])
        rec = check_contraction(3, 0.5, model_operator(zeros).matrix, model_inverse(zeros), x)
        assert vars(report.record) == vars(rec)
        assert (report.norm, report.inv_norm) == (rec.norm_T, rec.inv_norm)
        assert vars(report.record) == vars(bracket_record(3, 0.5, report.norm, report.inv_norm))

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

    @pytest.mark.parametrize(
        "n, r",
        [(n, r) for n in (1, 2, 8, 32, 64)
         for r in parse_r_grid(DEFAULT_R_GRID) + [0.9999, 0.999999999, 1.0 - 1e-12]],
    )
    def test_defect_rank_is_one_up_to_the_circle(self, n, r):
        # the one defect singular value 1 - r^(2n) falls below any fixed
        # tolerance as r -> 1 (2e-12 at n = 1, r = 1 - 1e-12). The SVD
        # oracle counts as many singular values of I - M*M above ||c||^2/2
        # as the report gives, and the row sums of |E| the rule reads stay
        # 1e-4 of ||c||^2/2 or less (1.4e-5 at worst, at (8, 1 - 1e-12))
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        report = verify_extremality(r, zeros)
        _, lam, s = model_mod._checked_zeros(zeros)
        _, E, c = _contraction_terms(n, r, report.matrix, model_mod._inverse_matrix(lam, s),
                                     model_mod._extremal_vector(lam, s))
        half = 0.5 * np.vdot(c, c).real
        assert np.count_nonzero(defect_singular_values(report.matrix) > half) == report.defect_rank == 1
        assert E.sum(axis=1).max() <= 1e-4 * half

    @pytest.mark.parametrize("degrees", [77, 119, 210, 273])
    def test_defect_rank_at_roundoff_is_undecided(self, degrees):
        # one ulp inside the circle the row sums of |E| reach ||c||^2/2:
        # refused, where the SVD count against 1/2 (1 - r^4) gave rank 2
        r = 1.0 - 2.0**-53
        zeros = (r, r * np.exp(1j * np.radians(degrees)))
        with pytest.raises(ExtremalityError, match=r"^defect rank undecided: a row sum of \|E\| is \S+ >= \|\|c"):
            verify_extremality(r, zeros)

    def test_single_zero_at_roundoff_has_rank_one(self):
        # one ulp inside the circle the row sum of |E| can reach ||c||^2/2
        # (|lambda|^2 and 1 - |lambda|^2 each round by about 1e-16), but at
        # n = 1 the defect is the one number 1 - |lambda|^2 > 0: rank 1 at
        # every angle whose weight is positive. Where np.abs rounds |z| up
        # to 1 (155 of the 1,000 angles with an AVX-512 np.abs), np.hypot
        # admits the zero but its weight and certificate are 0: a ValueError
        # that names |z|
        r = 1.0 - 2.0**-53
        for t in np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False):
            z = r * np.exp(1j * t)
            if np.abs(z) < 1.0:
                assert verify_extremality(r, (z,)).defect_rank == 1
            else:
                with pytest.raises(ValueError, match=r"^1 - \|z\|\^2 rounds to 0 at every zero, \|z\| = 0\.9999999999999999$"):
                    verify_extremality(r, (z,))

    def test_closed_form_is_checked_to_1e_12(self):
        # zeros 3e-14 inside |z| = r = 0.001 pass the modulus check, and M,
        # its inverse and its extremal vector agree on ||M^{-1}||: a check at
        # 1e-8 would pass, but r^n ||M^{-1}|| = 1 misses by 1e-10
        r = 0.001
        inner = r * (1 - 1e-10) ** (1 / 3)
        with pytest.raises(TwoPathMismatchError, match="closed form"):
            verify_extremality(r, (inner, -inner, inner * 1j))

    @staticmethod
    def _scale_model(monkeypatch, factor):
        # factor * M with its exact inverse: only ||M|| = 1 (r at n = 1) is off
        real_model_matrix, real_model_inverse = model_mod._model_matrix, model_mod._inverse_matrix
        monkeypatch.setattr(model_mod, "_model_matrix", lambda lam, s: factor * real_model_matrix(lam, s))
        monkeypatch.setattr(model_mod, "_inverse_matrix", lambda lam, s: real_model_inverse(lam, s) / factor)

    @pytest.mark.parametrize("zeros", [(0.5,), (0.5, -0.5, 0.5j)])
    def test_norm_closed_form_is_checked_to_1e_12(self, zeros, monkeypatch):
        self._scale_model(monkeypatch, 1 + 1e-11)
        with pytest.raises(ExtremalityError, match="expected norm "):
            verify_extremality(0.5, zeros)

    @pytest.mark.parametrize("zeros", [(0.5,), (0.5, -0.5, 0.5j)])
    def test_norm_within_1e_12_passes(self, zeros, monkeypatch):
        self._scale_model(monkeypatch, 1 + 1e-13)
        assert verify_extremality(0.5, zeros).norm == pytest.approx(1.0 if len(zeros) > 1 else 0.5, rel=1e-12)

    def test_disagreeing_paths_raise(self, monkeypatch):
        real_model_inverse = model_mod._inverse_matrix
        monkeypatch.setattr(model_mod, "_inverse_matrix", lambda lam, s: 2.0 * real_model_inverse(lam, s))
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            verify_extremality(0.5, (0.5, -0.5, 0.5j))

    @pytest.mark.parametrize("n, r", [(4, 0.5), (64, 0.05)])
    def test_certificate_of_T_r_is_wrong_for_non_real_zeros(self, n, r, monkeypatch):
        # x_k = r^k attains ||T_r^{-1}|| but not the inverse norm of a model
        # operator whose zeros are not all equal
        monkeypatch.setattr(model_mod, "_extremal_vector", lambda lam, s: r ** np.arange(lam.size))
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        with pytest.raises(TwoPathMismatchError, match="enclosure"):
            verify_extremality(r, zeros)

    def test_certificate_attains_the_inverse_norm_for_random_phases(self):
        # ||M^{-1} x|| = ||M^{-1}|| ||x|| for zeros anywhere on |z| = r
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 33))
            r = float(rng.uniform(0.05, 0.999))
            zeros = tuple(r * np.exp(2j * np.pi * rng.uniform(size=n)))
            x = model_mod._extremal_vector(*model_mod._checked_zeros(zeros)[1:])
            W = model_inverse(zeros)
            top = np.linalg.svd(W, compute_uv=False)[0]
            assert np.linalg.norm(W @ x) / np.linalg.norm(x) == pytest.approx(top, rel=1e-13)
            report = verify_extremality(r, zeros)
            assert report.inv_norm == pytest.approx(top, rel=1e-13)
            assert report.rel_gap <= 1e-12

    def test_gap_is_to_the_printed_bound_and_finite(self):
        # `extremal --model` prints kronecker_bound(n, r) as the bound; the
        # gap is measured to it, e.g. at (40, 0.05) and (8, 0.9), where
        # 1.0 / r**n differs from r ** -n in the last bit
        succeeded = 0
        for n in (1, 2, 8, 16, 32, 40, 52, 64):
            for r in (5e-324, 1e-200, 1e-6, 0.05, 0.5, 0.9, 0.9999, 1.0 - 1e-12):
                zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
                try:
                    report = verify_extremality(r, zeros)
                except SingularMatrixError:
                    continue
                succeeded += 1
                assert report.kronecker == kronecker_bound(n, r)
                assert report.rel_gap == abs(report.inv_norm - report.kronecker) / report.kronecker
                assert math.isfinite(report.rel_gap) and report.rel_gap <= 1e-12
        # the rest overflow: r = 5e-324 at every n, 1e-200 from n = 2, 1e-6 from n = 52
        assert succeeded == 64 - 8 - 7 - 2

    def test_rejects_off_circle_zeros(self):
        with pytest.raises(ValueError):
            verify_extremality(0.5, (0.5, 0.4))
        with pytest.raises(ValueError, match=r"^all zeros must have modulus r = 0.5, got \|z\| = 0.4$"):
            verify_extremality(0.5, (0.5, 0.4j, 0.5j, 0.3))

    def test_zeros_are_validated_once(self, monkeypatch):
        # by model_operator; the inverse and the extremal vector reuse them
        calls = []
        real_checked_zeros = model_mod._checked_zeros
        monkeypatch.setattr(model_mod, "_checked_zeros", lambda zeros: calls.append(zeros) or real_checked_zeros(zeros))
        verify_extremality(0.5, (0.5, -0.5, 0.5j))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", (1, 2, 32))
    def test_a_second_call_at_the_same_n_builds_no_index_grid(self, n, monkeypatch):
        zeros = tuple(0.5 * np.exp(2j * np.pi * k / n) for k in range(n))
        verify_extremality(0.5, zeros)
        grids = mock.Mock(wraps=np.indices)
        monkeypatch.setattr(np, "indices", grids)
        assert np.array_equal(verify_extremality(0.5, zeros).matrix, model_operator(zeros).matrix)
        assert grids.call_count == 0
        assert model_mod._masks(n) is model_mod._masks(n)

    @pytest.mark.parametrize("n", (1, 2, 8))
    def test_cached_masks_are_read_only(self, n):
        # every build at this n shares them
        for mask in model_mod._masks(n):
            with pytest.raises(ValueError):
                mask[0, 0] = True

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            verify_extremality(1.0, (0.5,))
        with pytest.raises(ValueError):
            verify_extremality(0.0, (0.5,))


def equal_modulus_zero_set(rng):
    """(r, zeros) with every |z| within 1e-12 of r: random phases or r times
    the roots of unity, zeros at 0 where r <= 1e-12, and r within 4 ulp of
    the circle, and the program constants that lie in (0, 1)."""
    n = rng.randint(1, 32)
    edges = [1e-13, 5e-13, *CONSTANTS, *(1.0 - k * 2.0**-53 for k in range(2, 5))]
    r = rng.choice([rng.uniform(1e-3, 1.0 - 1e-3), rng.choice(edges)])
    phases = np.array([rng.random() for _ in range(n)]) if rng.random() < 0.5 else np.arange(n) / n
    zeros = r * np.exp(2j * np.pi * phases)
    if r <= 1e-12:
        zeros = np.where([rng.random() < 0.5 for _ in range(n)], 0.0, zeros)
    return r, tuple(complex(z) for z in zeros)


@drawn_from(13, 100, ((), equal_modulus_zero_set))
def test_verify_extremality_checks_the_bits_of_model_operator(case):
    # the one validated pass builds M by the builder model_operator wraps:
    # the matrix the check reads, and the report's, are model_operator's
    r, zeros = case
    expected = model_operator(zeros).matrix
    report = None
    with mock.patch.object(model_mod, "_contraction_terms", wraps=model_mod._contraction_terms) as check:
        try:
            report = verify_extremality(r, zeros)
        except (ToepcondError, ValueError):
            pass
    if check.called:
        assert check.call_args.args[2].tobytes() == expected.tobytes()
    if report is not None:
        assert report.matrix.tobytes() == expected.tobytes()
