"""Property tests: the row-wise matrix printer against its per-entry
oracle, every subcommand of the CLI over its valid domain, and the grid
sweep against the single-point check."""

import contextlib
import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from toepcond import SingularMatrixError, grid_sweep, theorem_check
from toepcond.cli import _matrix_lines, main

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


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(MATRICES)
def test_row_wise_lines_match_per_entry_formatting(M):
    assert _matrix_lines(M) == per_entry_lines(M)


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


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
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


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 64), RADII, st.booleans())
def test_extremal_cli(n, r, model):
    code, out, err = run(["extremal", "--n", str(n), "--r", repr(r)] + (["--model"] if model else []))
    if succeeded(code, out, err, r):
        assert abs(field(out, "r^n * inv = ", ",") - 1.0) <= 1e-8
        assert_bound(field(out, "bound 1/r^n = ", ", " if model else ")"), n, r)
        if model:
            assert field(out, "relative gap ", ")") <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 16), RADII)
def test_search_cli(n, r):
    code, out, err = run(["search", "--n", str(n), "--r", repr(r)])
    if succeeded(code, out, err, r):
        assert abs(field(out, " scaled=", " ") - 1.0) <= 1e-8
        assert_bound(field(out, " estimate=", " "), n, r)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 64), RADII)
def test_bound_cli(n, r):
    code, out, err = run(["bound", "--n", str(n), "--r", repr(r)])
    assert code == 0 and err == ""
    kron, lower, upper = (float(part.split("=", 1)[1]) for part in out.split())
    assert_bound(kron, n, r)
    # max(r^n, 1 - r^n) lies in [1/2, 1]
    assert upper == 1.0 and 0.5 <= lower <= 1.0


# The sweep forms the identities once per r and reads each n from running
# maxima over the leading blocks; theorem_check forms them at n alone. Both
# run under the suite's error::RuntimeWarning filter.
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 64), RADII.filter(lambda r: r < 1.0))
def test_grid_sweep_agrees_with_theorem_check(n_max, r):
    for rec in grid_sweep(n_max, (r,)):
        try:
            ref = theorem_check(rec.n, r)
        except SingularMatrixError as exc:
            assert OVERFLOW.fullmatch(str(exc))
            assert rec.error == f"SingularMatrixError: {exc}"
            continue
        assert ref.passed and abs(ref.scaled - 1.0) <= 1e-12
        assert rec.error is None
        assert (rec.norm_T, rec.inv_norm, rec.scaled) == (ref.norm_T, ref.inv_norm, ref.scaled)
