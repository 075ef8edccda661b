"""Exact oracles: the float builders against rationals, and the equality
case proven as identities in Z[r].

The builders are checked against the exact rational coefficients of the
float r they are given. The identities I - T_r T_r^T = (1 - r^2) (r^(i+j))
and a g = 1 mod z^64 are checked in integer arithmetic, with polynomials in
r as int64 coefficient arrays (entry p holds the coefficient of r^p). T_r
and its inverse at size n are the leading blocks of those at n = 64, so the
checks hold for every n <= 64 and every r in (0, 1): the singular values of
T_r are 1, ..., 1, r^n, hence ||T_r|| = 1 for n >= 2 and ||T_r^{-1}|| = r^-n.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

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
