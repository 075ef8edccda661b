"""Exact oracles: the float builders against rationals, and the equality
case proven as identities in Z[r].

The builders are checked against the exact rational coefficients of the
float r they are given. The identities I - T_r T_r^T = (1 - r^2) (r^(i+j))
and a g = 1 mod z^64 are checked in integer arithmetic, with polynomials in
r as int64 coefficient arrays (entry p holds the coefficient of r^p). T_r
and its inverse at size n are the leading blocks of those at n = 64, so the
checks hold for every n <= 64 and every r in (0, 1): the singular values of
T_r are 1, ..., 1, r^n, hence ||T_r|| = 1 for n >= 2 and ||T_r^{-1}|| = r^-n.
The model-operator builders are checked likewise, against M, W and x formed
over the Gaussian rationals from the float zeros and weights they are given.

Over Q(i), with a small (re, im) Fraction class, the three model-operator
identities I - M M* = x x*, M W = I and I - M* M = d d* hold exactly on
twelve seeded zero sets with n <= 6. Their zeros are rho omega with
rho^2 + s^2 = 1 for rational rho and s, and omega a rational point on the
circle, so the weights s = sqrt(1 - rho^2) need no square root.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import toepcond.model as model_mod
from toepcond import BlaschkeFactor, build_T_r, reciprocal_series, reciprocal_taylor
from toepcond.blaschke import _one_minus_square
from toepcond.cli import DEFAULT_R_GRID, parse_r_grid

N = 64
EPS = Fraction(sys.float_info.epsilon)
SMALLEST_NORMAL = Fraction(sys.float_info.min)
LARGEST = Fraction(sys.float_info.max)
R_VALUES = parse_r_grid(DEFAULT_R_GRID) + [
    0.001, 0.3, 0.7, 0.99, 0.999, 0.999999, 1 - 1e-9, 1 - 1e-12, 1 - 2**-52, 1e-6,
]


def _exact_taylor(r: Fraction) -> list:
    """a_0 = r, a_k = -(1 - r^2) r^(k-1): the symbol of T_r."""
    return [r] + [-(1 - r * r) * r ** (k - 1) for k in range(1, N)]


def _exact_reciprocal(r: Fraction) -> list:
    """g_0 = 1/r, g_k = (1 - r^2)/r^(k+1): the symbol of T_r^{-1}."""
    return [1 / r] + [(1 - r * r) / r ** (k + 1) for k in range(1, N)]


def _misses(coeffs: np.ndarray, exact: list) -> list:
    """The k whose float coefficient is not real or more than (k + 2) eps
    relative off its exact value, over the k where that value is a normal
    float64."""
    misses = []
    for k, (c, e) in enumerate(zip(coeffs.tolist(), exact)):
        if not SMALLEST_NORMAL <= abs(e) <= LARGEST:
            continue
        if not (c.imag == 0 and math.isfinite(c.real) and abs(Fraction(c.real) - e) <= (k + 2) * EPS * abs(e)):
            misses.append(k)
    return misses


class TestBuildersAgainstRationals:
    @pytest.mark.parametrize("r", R_VALUES)
    def test_coefficients_within_k_plus_2_eps(self, r):
        exact_r = Fraction(r)
        symbol = build_T_r(N, r).symbol
        assert _misses(symbol.coeffs, _exact_taylor(exact_r)) == []
        inverse = _exact_reciprocal(exact_r)
        assert _misses(reciprocal_series(symbol).coeffs, inverse) == []
        assert _misses(reciprocal_taylor(BlaschkeFactor(r), N).coeffs, inverse) == []

    def test_weight_within_seven_sixths_ulp(self):
        # 1 - a*a below 1/2 is within 5/8 ulp; (1 - a)(1 + a) from 1/2 on
        # rounds 1 + a and the product, within 2/3 + 1/2 ulp
        rng = np.random.default_rng(0)
        a = np.concatenate([
            rng.uniform(0.0, 0.5, 400), rng.uniform(0.5, 1.0, 400), 1.0 - rng.uniform(0.0, 1e-6, 200),
            [0.0, 1e-300, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.75, 1 - 1e-9, 1 - 2**-52, 1 - 2**-53, 1.0],
        ])
        weights = _one_minus_square(a)
        for x, w in zip(a.tolist(), weights.tolist()):
            exact = 1 - Fraction(x) ** 2
            assert abs(Fraction(w) - exact) <= Fraction(7, 6) * Fraction(math.ulp(float(exact)))
            assert float(_one_minus_square(x)) == w


def _poly(*terms: tuple) -> np.ndarray:
    """The polynomial sum of c r^p over (p, c) in terms."""
    p = np.zeros(max(power for power, _ in terms) + 1, dtype=np.int64)
    for power, c in terms:
        p[power] += c
    return p


def _add(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.zeros(max(p.size, q.size), dtype=np.int64)
    out[: p.size] += p
    out[: q.size] += q
    return out


def _equal(p: np.ndarray, q: np.ndarray) -> bool:
    return not _add(p, -q).any()


# a_0 = r, a_k = -(1 - r^2) r^(k-1) = -r^(k-1) + r^(k+1)
SYMBOL = [_poly((1, 1))] + [_poly((k - 1, -1), (k + 1, 1)) for k in range(1, N)]


class TestEqualityCaseInZr:
    def test_gram_identity(self):
        # entry (j + d, j) of T T^T is sum_{m <= j} a_(d+m) a_m, a running sum
        # down the d-th subdiagonal; T T^T is symmetric, so these are all
        mismatches = []
        for d in range(N):
            entry = np.zeros(1, dtype=np.int64)
            for j in range(N - d):
                entry = _add(entry, np.convolve(SYMBOL[d + j], SYMBOL[j]))
                # delta - (1 - r^2) r^(i+j) with i + j = 2j + d
                expected = _poly((0, int(d == 0)), (2 * j + d, -1), (2 * j + d + 2, 1))
                if not _equal(entry, expected):
                    mismatches.append((j + d, j))
        assert mismatches == []

    def test_symbol_product_is_one(self):
        # r^64 g_0 = r^63 and r^64 g_k = (1 - r^2) r^(63-k), polynomials in r
        scaled = [_poly((N - 1, 1))] + [_poly((N - 1 - k, 1), (N + 1 - k, -1)) for k in range(1, N)]
        one = _poly((N, 1))
        mismatches = []
        for k in range(N):
            coeff = np.zeros(1, dtype=np.int64)
            for m in range(k + 1):
                coeff = _add(coeff, np.convolve(SYMBOL[m], scaled[k - m]))
            if not _equal(coeff, one if k == 0 else np.zeros(1, dtype=np.int64)):
                mismatches.append(k)
        assert mismatches == []


class Gaussian:
    """re + im i with Fraction parts: exact arithmetic in Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _of(z):
        return z if isinstance(z, Gaussian) else Gaussian(z)

    def __add__(self, other):
        other = self._of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + -self._of(other)

    def __mul__(self, other):
        other = self._of(other)
        return Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        norm = other.re**2 + other.im**2
        return self * Gaussian(other.re / norm, -other.im / norm)

    def conj(self):
        return Gaussian(self.re, -self.im)

    def __eq__(self, other):
        other = self._of(other)
        return self.re == other.re and self.im == other.im


def _prod(factors) -> Gaussian:
    out = Gaussian(1)
    for f in factors:
        out = out * f
    return out


# moduli rho with rational s = sqrt(1 - rho^2): 1 - (12/35)^2 is not a square
PYTHAGOREAN = {
    Fraction(3, 5): Fraction(4, 5), Fraction(5, 13): Fraction(12, 13), Fraction(8, 17): Fraction(15, 17),
    Fraction(7, 25): Fraction(24, 25), Fraction(20, 29): Fraction(21, 29), Fraction(12, 37): Fraction(35, 37),
}


def _model_zero_sets() -> list:
    """Twelve seeded (zeros, weights) pairs, n <= 6: lambda = rho omega with
    rho Pythagorean and omega = ((a^2 - b^2) + 2ab i)/(a^2 + b^2) a rational
    point on the circle; the first four have equal moduli."""
    rng = np.random.default_rng(2026)
    moduli = sorted(PYTHAGOREAN)
    sets = []
    for k in range(12):
        n = int(rng.integers(1, 7))
        rhos = [moduli[k % 6]] * n if k < 4 else [moduli[i] for i in rng.integers(0, 6, n)]
        zeros = []
        for rho in rhos:
            a, b = (int(v) for v in rng.integers(-9, 10, 2))
            a = a or 1
            zeros.append(Gaussian(rho * (a * a - b * b), rho * 2 * a * b) / (a * a + b * b))
        sets.append((zeros, [PYTHAGOREAN[rho] for rho in rhos]))
    return sets


def _model_matrices(zeros, s) -> tuple:
    """M, W = M^{-1}, x and d from the closed forms of the model module."""
    n = len(zeros)
    M = [[Gaussian(0)] * n for _ in range(n)]
    W = [[Gaussian(0)] * n for _ in range(n)]
    for k in range(n):
        M[k][k], W[k][k] = zeros[k], Gaussian(1) / zeros[k]
        for l in range(k + 1, n):
            M[l][k] = s[k] * s[l] * _prod(-zeros[j].conj() for j in range(k + 1, l))
        for l in range(k):
            W[k][l] = Gaussian(-s[k] * s[l]) / _prod(-zeros[j] for j in range(l, k + 1))
    x = [s[k] * _prod(-zeros[j].conj() for j in range(k)) for k in range(n)]
    d = [s[k] * _prod(-zeros[j] for j in range(k + 1, n)) for k in range(n)]
    return M, W, x, d


def _matmul(A, B) -> list:
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), Gaussian(0)) for j in range(n)] for i in range(n)]


def _adjoint(A) -> list:
    return [[a.conj() for a in col] for col in zip(*A)]


def _differing(left, right) -> list:
    """The entries (i, j) where the n x n left and right differ."""
    n = len(left)
    return [(i, j) for i in range(n) for j in range(n) if left[i][j] != right[i][j]]


def _eye(n: int) -> list:
    return [[Gaussian(int(i == j)) for j in range(n)] for i in range(n)]


def _identity_minus(A) -> list:
    return [[e - a for e, a in zip(row_e, row_a)] for row_e, row_a in zip(_eye(len(A)), A)]


def _outer(u) -> list:
    return [[a * b.conj() for b in u] for a in u]


MODEL_ZERO_SETS = _model_zero_sets()


class TestModelOperatorInQi:
    """The three identities of the model operator, exact over Q(i) for
    zeros rho omega as above: I - M M* = x x* is the Gram identity of
    bounds.check_contraction, whose spectrum verify_extremality reads as
    that of I - M* M = d d*, and M W = I is its residual identity."""

    @pytest.mark.parametrize("zeros, s", MODEL_ZERO_SETS)
    def test_gram_identity(self, zeros, s):
        M, _, x, _ = _model_matrices(zeros, s)
        assert _differing(_identity_minus(_matmul(M, _adjoint(M))), _outer(x)) == []

    @pytest.mark.parametrize("zeros, s", MODEL_ZERO_SETS)
    def test_exact_inverse(self, zeros, s):
        M, W, _, _ = _model_matrices(zeros, s)
        assert _differing(_matmul(M, W), _eye(len(zeros))) == []

    @pytest.mark.parametrize("zeros, s", MODEL_ZERO_SETS)
    def test_defect_identity(self, zeros, s):
        M, _, _, d = _model_matrices(zeros, s)
        assert _differing(_identity_minus(_matmul(_adjoint(M), M)), _outer(d)) == []


# Each float entry of M, W and x at gap l - k is a product of at most
# l - k + 1 rounded factors (a complex product, a Smith division, a real
# scaling), each within about one eps; MODEL_GAMMA leaves room over that
MODEL_GAMMA = 2


def _float_zero_sets() -> list:
    """Seeded zero sets, n <= 16, for the float builders: equal moduli at
    random phases, r times the n-th roots of unity, and random moduli."""
    rng = np.random.default_rng(2025)
    sets = []
    for r in (1e-6, 0.001, 0.05, 0.5, 0.9, 0.9999, 1 - 1e-9, 1 - 2**-52):
        n = int(rng.integers(1, 17))
        sets.append(tuple(r * np.exp(2j * np.pi * rng.uniform(size=n))))
        sets.append(tuple(r * np.exp(2j * np.pi * np.arange(16) / 16)))
    for n in (3, 16):
        sets.append(tuple(rng.uniform(0.01, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))))
    return sets


def _float_builder_errors(zeros) -> list:
    """|float - exact| / ((l - k + 2) eps |exact|), normwise, over the entries
    (l, k) of M and W and the entries k of x (gap k) whose exact value is a
    normal float64. The exact values are formed over Q(i) from the float
    lambda and the float s the builders take, so no square root is needed."""
    _, lam, s = model_mod._checked_zeros(zeros)
    M, W, x = (model_mod.model_operator(zeros).matrix.tolist(), model_mod._inverse_matrix(lam, s).tolist(),
               model_mod._extremal_vector(lam, s).tolist())
    zs = [Gaussian(z.real, z.imag) for z in lam.tolist()]
    ss = [Fraction(v) for v in s.tolist()]
    ratios = []

    def compare(value: complex, exact: Gaussian, gap: int) -> None:
        size = exact.re**2 + exact.im**2
        if SMALLEST_NORMAL**2 <= size <= LARGEST**2:
            miss = (Fraction(value.real) - exact.re) ** 2 + (Fraction(value.imag) - exact.im) ** 2
            ratios.append(math.sqrt(miss / size) / ((gap + 2) * sys.float_info.epsilon))

    for k, zk in enumerate(zs):
        compare(M[k][k], zk, 0)
        compare(W[k][k], Gaussian(1) / zk, 0)
        # M_lk = s_k s_l prod_{k<j<l} (-conj lambda_j), W_lk = -s_k s_l / prod_{k<=j<=l} (-lambda_j)
        between, through = Gaussian(1), -zk
        for l in range(k + 1, len(zs)):
            through = through * -zs[l]
            compare(M[l][k], between * (ss[k] * ss[l]), l - k)
            compare(W[l][k], Gaussian(-ss[k] * ss[l]) / through, l - k)
            between = between * -zs[l].conj()
    # x_k = s_k prod_{j<k} (-conj lambda_j)
    before = Gaussian(1)
    for k, zk in enumerate(zs):
        compare(x[k], before * ss[k], k)
        before = before * -zk.conj()
    return ratios


FLOAT_ZERO_SETS = _float_zero_sets()


class TestModelBuildersAgainstRationals:
    @pytest.mark.parametrize("zeros", FLOAT_ZERO_SETS)
    def test_entries_within_gamma_gap_plus_2_eps(self, zeros):
        ratios = _float_builder_errors(zeros)
        assert ratios and max(ratios) <= MODEL_GAMMA

    def test_worst_entry_keeps_half_the_margin(self):
        # the worst over these sets is about 0.47 (gap + 2) eps
        assert max(max(_float_builder_errors(zeros)) for zeros in FLOAT_ZERO_SETS) <= MODEL_GAMMA / 2
