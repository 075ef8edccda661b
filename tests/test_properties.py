"""Property tests: the row-wise matrix printer and the row-wise CSV of
bounds records against their per-entry oracles, every subcommand of the CLI
over its valid domain and outside it, the sequential row sums of a
triangular matrix over its leading blocks, the running norms of a vector
against those of each prefix alone and its exact norm, the first failing
shell of a mask against its running maxima, the reciprocal series of a
stack of symbols against each symbol alone, and the grid sweep against the
single-point check.

The CLI runs cover r over its valid domain, from 5e-324 up to 1 - 2^-53
(1 - 1e-15 and 1 - 2^-52 among the sampled values). Each run exits 0 with
values that meet their closed forms, 1 with the one overflow message, or 2
(only r = 1 outside `bound`), with no traceback and no RuntimeWarning. Every
draw is derandomized by the suite's Hypothesis profile (conftest.py).
"""

import contextlib
import dataclasses
import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from toepcond import BoundsRecord, SingularMatrixError, ToepcondError, bracket_endpoints, grid_sweep, theorem_check
from toepcond.bounds import EPS, TINY, _failed_record, _first_shell, _leading_maxima, _prefix_norms, _row_sums
from toepcond.cli import CSV_HEADER, _bounds_row, _cell, _matrix_lines, _report, main
from toepcond.core import _reciprocal_rows

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308, 0.5e-6, -0.5e-6]
REALS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(min_value=1e299, max_value=1e308))
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4)
MATRICES = st.one_of(
    arrays(np.float64, SHAPES, elements=REALS),
    arrays(np.complex128, SHAPES, elements=st.builds(complex, REALS, REALS)),
)


def per_entry_lines(M):
    return ["  [" + ", ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in row) + "]" for row in M]


@settings(max_examples=100)
@given(MATRICES)
def test_row_wise_lines_match_per_entry_formatting(M):
    assert _matrix_lines(M) == per_entry_lines(M)


RECORDS = st.one_of(
    st.builds(BoundsRecord, n=st.integers(1, 10**6), r=REALS, norm_T=REALS, inv_norm=REALS, scaled=REALS,
              lower=REALS, upper=REALS, passed=st.booleans()),
    # a failed point: NaN norms, passed = False and its error, which reports omit
    st.builds(lambda n, r: _failed_record(n, r, ToepcondError("synthetic failure")),
              st.integers(1, 64), st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)),
)


def per_cell_csv(rows):
    return "\n".join([CSV_HEADER, *(",".join(map(_cell, row)) for row in rows)]) + "\n"


@settings(max_examples=100)
@given(st.lists(RECORDS, max_size=5))
def test_row_wise_csv_matches_per_cell_formatting(records):
    rows = [_bounds_row(rec) for rec in records]
    assert _report("csv", CSV_HEADER, rows) == per_cell_csv(rows)


FINITE = st.one_of(st.sampled_from([v for v in SPECIAL if math.isfinite(v)]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def triangular_systems(draw):
    """A lower-triangular m x m W and an m-vector x, real or complex, with
    finite entries whose products and sums may still overflow."""
    m = draw(st.integers(1, 12))
    dtype, elements = draw(st.sampled_from([(np.float64, FINITE),
                                            (np.complex128, st.builds(complex, FINITE, FINITE))]))
    return np.tril(draw(arrays(dtype, (m, m), elements=elements))), draw(arrays(dtype, m, elements=elements))


# The sweep reads the row sums of every leading block from those of the
# n_max block. Equality as floats, NaN included, is bitwise up to the
# payload of a NaN and the sign of a zero, which the norm of the sums drops.
@settings(max_examples=100)
@given(triangular_systems())
def test_row_sums_of_leading_blocks_are_those_of_the_full_matrix(system):
    W, x = system
    full = _row_sums(W, x)
    for n in range(1, len(x) + 1):
        assert np.array_equal(_row_sums(W[:n, :n], x[:n]), full[:n], equal_nan=True)


# entries whose squares underflow (near 1e-160 and subnormal) or overflow
# (near 1e160 and beyond), zeros, inf and NaN, among any floats
NORM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1.0]),
    st.floats(min_value=1e-170, max_value=1e-150), st.floats(min_value=1e150, max_value=1e170),
    st.floats(min_value=-1e-300, max_value=1e-300), st.floats(min_value=0.5, max_value=2.0),
    st.floats(),
)


def _hexes(values):
    return [float(v).hex() for v in values]


# The sweep reads the lengths of every leading block from one running norm
# of the n_max vector, and check_contraction takes its last entry for the
# block alone: so each prefix's norm must depend on that prefix only. Where
# every square lies in the normal range the norm is within (n/2 + 1) eps of
# the exact one, which Fraction forms from the squares; elsewhere, and
# wherever the norm is beyond float64, it is math.hypot's.
@settings(max_examples=200)
@given(st.lists(NORM_ENTRIES, min_size=1, max_size=24))
def test_prefix_norms_are_those_of_each_prefix_alone(v):
    v = np.array(v)
    norms = _prefix_norms(v)
    assert len(norms) == len(v)
    for n in range(1, len(v) + 1):
        prefix = np.abs(v[:n]).tolist()
        assert _hexes(_prefix_norms(v[:n])) == _hexes(norms[:n])
        norm, hypot = norms[n - 1], math.hypot(*prefix)
        normal = all(a == 0.0 or TINY <= a * a < math.inf for a in prefix)
        if not (normal and math.isfinite(hypot)):
            assert _hexes([norm]) == _hexes([hypot])
            continue
        exact = sum(Fraction(a) ** 2 for a in prefix)
        slack = Fraction(n, 2) + 1
        low, high = Fraction(norm) / (1 + slack * Fraction(EPS)), Fraction(norm) / (1 - slack * Fraction(EPS))
        assert low**2 <= exact <= high**2


def test_complex_row_sums_of_the_corner_are_those_of_the_full_matrix():
    # a 1 x 1 block times a 1-vector must not take numpy's scalar complex
    # product, which rounds the real part twice where its array loop fuses
    rng = np.random.default_rng(3)
    for m in range(2, 9):
        W = np.tril(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        full = _row_sums(W, x)
        for n in range(1, m + 1):
            assert _row_sums(W[:n, :n], x[:n]).tobytes() == full[:n].tobytes()


@st.composite
def coefficient_stacks(draw):
    """An R x n stack of symbol coefficients, real or complex, finite, whose
    reciprocal series may overflow to inf or NaN, and one row index."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    elements = draw(st.sampled_from([st.builds(complex, FINITE), st.builds(complex, FINITE, FINITE)]))
    return draw(arrays(np.complex128, (rows, n), elements=elements)), draw(st.integers(0, rows - 1))


def _same_floats(a, b):
    a, b = a.view(np.float64), b.view(np.float64)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


# The sweep forms the series of every r in one recursion and theorem_check
# that of one r at its own size, so each row's series must not depend on
# the other rows, nor its first k coefficients on the length of the row.
@settings(max_examples=100)
@given(coefficient_stacks())
def test_reciprocal_rows_are_those_of_each_row_alone(stack):
    a, i = stack
    full = _reciprocal_rows(a)
    assert _same_floats(_reciprocal_rows(a[i : i + 1])[0], full[i])
    for k in range(1, a.shape[1] + 1):
        assert _same_floats(_reciprocal_rows(a[:, :k]), full[:, :k])


@st.composite
def sparse_masks(draw):
    """An m x m boolean mask, m up to 64, with each entry True at a density
    of at most 0.2, seeded from the draw."""
    m, density, seed = draw(st.integers(1, 64)), draw(st.floats(0.0, 0.2)), draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((m, m)) < density


# The sweep cuts at the first failing shell of one mask and reads each
# size's A W = I verdict from that of another: the count of leading blocks
# with no True entry, which the running maxima over the shells also give.
@settings(max_examples=100)
@given(sparse_masks())
def test_first_shell_counts_the_clean_leading_blocks(B):
    assert _first_shell(B) == np.count_nonzero(~_leading_maxima(B))


# The CLI over the README's domain: every run ends in a checked result
# (exit 0), the one typed overflow failure (exit 1) or a usage error
# (exit 2, here only r = 1 outside `bound`), never in a traceback or a
# RuntimeWarning.
OVERFLOW = re.compile(r"exact inverse has entries beyond the float64 range, first at \(\d+, \d+\)")
RADII = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-200, 1e-154, 1e-6, 0.05, 0.5, 0.9, 0.9999, 1.0 - 1e-12,
                     1.0 - 1e-15, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0]),
    st.floats(min_value=5e-324, max_value=1.0),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def exact_bound(n, r):
    """1/r^n correctly rounded from exact rational arithmetic; inf past float64."""
    try:
        return float(1 / Fraction(r) ** n)
    except OverflowError:
        return math.inf


def assert_bound(value, n, r):
    expected = exact_bound(n, r)
    assert value == expected if math.isinf(expected) else abs(value - expected) <= 1e-12 * expected


def field(text, name, end):
    return float(text.split(name, 1)[1].split(end, 1)[0])


def succeeded(code, out, err, r):
    """Check a failed point (exit 2 only for r = 1, exit 1 only with
    the overflow message); True on exit 0."""
    assert (code == 2) == (r == 1.0)
    if code == 2:
        assert err == "error: r must lie strictly between 0 and 1\n"
    if code == 1:
        assert out == "" and OVERFLOW.fullmatch(err.removeprefix("error: ").removesuffix("\n"))
    return code == 0


@settings(max_examples=60)
@given(st.integers(1, 8), RADII, RADII)
def test_verify_cli(n_max, a, b):
    a, b = sorted((min(a, 0.999), min(b, 0.999)))
    step = b - a if b - a >= 1e-3 else 1.0
    code, out, err = run(["verify", "--n-max", str(n_max), "--r-grid", f"{a!r}:{b!r}:{step!r}"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows and code == (0 if all(row[-1] == "true" for row in rows) else 1)
    for row in rows:
        if row[-1] == "true":
            assert abs(float(row[4]) - 1.0) <= 1e-8
    fails = [line for line in err.splitlines() if line.startswith("FAIL")]
    assert len(fails) == sum(row[-1] == "false" for row in rows)
    assert all(OVERFLOW.fullmatch(line.split(" error=SingularMatrixError: ", 1)[1]) for line in fails)


@settings(max_examples=60)
@given(st.integers(1, 64), RADII, st.booleans())
def test_extremal_cli(n, r, model):
    code, out, err = run(["extremal", "--n", str(n), "--r", repr(r)] + (["--model"] if model else []))
    if succeeded(code, out, err, r):
        assert abs(field(out, "r^n * inv = ", ",") - 1.0) <= 1e-8
        assert_bound(field(out, "bound 1/r^n = ", ", " if model else ")"), n, r)
        if model:
            assert field(out, "relative gap ", ")") <= 1e-12


@pytest.mark.parametrize("r", [1.0 - 2.0**-53, 1.0 - 2.0**-52])
def test_extremal_model_cli_within_an_ulp_of_the_circle(r):
    # every size reports, with rank 1, where RADII's two sampled radii meet
    # all n the draws above leave out: np.abs rounds some of the zeros
    # r * (roots of unity) up to 1, and their weights are 0
    for n in range(1, 65):
        code, out, err = run(["extremal", "--model", "--n", str(n), "--r", repr(r)])
        assert (code, err) == (0, "") and "\ndefect rank = 1\n" in out
        assert abs(field(out, "r^n * inv = ", ",") - 1.0) <= 1e-8
        assert field(out, "relative gap ", ")") <= 1e-12


@settings(max_examples=40)
@given(st.integers(1, 16), RADII)
def test_search_cli(n, r):
    code, out, err = run(["search", "--n", str(n), "--r", repr(r)])
    if succeeded(code, out, err, r):
        assert abs(field(out, " scaled=", " ") - 1.0) <= 1e-8
        assert_bound(field(out, " estimate=", " "), n, r)


@settings(max_examples=40)
@given(st.integers(1, 64), RADII)
def test_bound_cli(n, r):
    code, out, err = run(["bound", "--n", str(n), "--r", repr(r)])
    assert code == 0 and err == ""
    kron, lower, upper = (float(part.split("=", 1)[1]) for part in out.split())
    assert_bound(kron, n, r)
    # max(r^n, 1 - r^n) lies in [1/2, 1]
    assert upper == 1.0 and 0.5 <= lower <= 1.0


# Outside its domain every subcommand refuses r with exit 2 and its own
# message, before r reaches any arithmetic, so no traceback or RuntimeWarning
# escapes: nan, +-inf, zero, negatives and values past 1 (`bound` takes r = 1).
OUTSIDE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324, -0.5, 1.0, 1.0 + 2.0**-52, 1.5, 1e308]),
    st.floats(max_value=0.0),
    st.floats(min_value=1.0),
)
OPEN_INTERVAL = "r must lie strictly between 0 and 1"


@settings(max_examples=60)
@given(st.integers(1, 16), OUTSIDE)
def test_r_outside_the_domain_is_usage_error(n, r):
    runs = [
        (["verify", "--n-max", str(n), f"--r-grid={r!r}:{r!r}:0.1"], "grid endpoints must lie strictly between 0 and 1"),
        (["extremal", "--n", str(n), f"--r={r!r}"], OPEN_INTERVAL),
        (["extremal", "--n", str(n), f"--r={r!r}", "--model"], OPEN_INTERVAL),
        (["search", "--n", str(n), f"--r={r!r}"], OPEN_INTERVAL),
        (["search", "--n-list", str(n), f"--r-list={r!r}"], OPEN_INTERVAL),
    ]
    if r != 1.0:
        runs.append((["bound", "--n", str(n), f"--r={r!r}"], "r must lie in (0, 1]"))
    for argv, message in runs:
        assert run(argv) == (2, "", f"error: {message}\n")


# The sweep runs the argument checks and forms the identities, the row sums
# and the enclosures once per r, and reads each n from running maxima, sums
# and products over the leading blocks; theorem_check does all of it at n
# alone. Both run under the suite's
# error::RuntimeWarning filter.
@settings(max_examples=40)
@given(st.integers(1, 64), RADII.filter(lambda r: r < 1.0))
def test_grid_sweep_agrees_with_theorem_check(n_max, r):
    for rec in grid_sweep(n_max, (r,)):
        try:
            ref = theorem_check(rec.n, r)
        except SingularMatrixError as exc:
            assert OVERFLOW.fullmatch(str(exc))
            assert rec.error == f"SingularMatrixError: {exc}"
            assert not rec.passed and all(map(math.isnan, (rec.norm_T, rec.inv_norm, rec.scaled)))
            assert (rec.lower, rec.upper) == bracket_endpoints(rec.n, r)
            continue
        assert ref.passed and abs(ref.scaled - 1.0) <= 1e-12
        assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
