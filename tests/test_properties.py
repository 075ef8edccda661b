"""Property tests: the row-wise matrix printer and the row-wise CSV of
bounds records against their per-entry oracles, every subcommand of the CLI
over its valid domain and outside it, the sequential row sums of a
triangular matrix over its leading blocks, the running norms of a vector
against those of each prefix alone and its exact norm, the first failing
shell of a mask against its running maxima, the reciprocal series of a
stack of symbols against each symbol alone, and the grid sweep against the
single-point check.

The CLI runs cover r over its valid domain, from 5e-324 up to 1 - 2^-53
(1 - 1e-15 and 1 - 2^-52 among the edges). Each run exits 0 with values
that meet their closed forms, 1 with the one overflow message, or 2 (only
r = 1 outside `bound`), with no traceback and no RuntimeWarning. Each test
runs on what `drawn_from` draws for it alone, from its own seed and from
edges that hold the program constants, whatever else is imported.
"""

import contextlib
import dataclasses
import io
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from toepcond import BoundsRecord, SingularMatrixError, ToepcondError, bracket_endpoints, grid_sweep, theorem_check
from toepcond.bounds import EPS, TINY, _failed_record, _first_shell, _leading_maxima, _prefix_norms, _row_sums
from toepcond.cli import CSV_HEADER, _bounds_row, _cell, _matrix_lines, _report, main
from toepcond.core import _reciprocal_rows


def drawn_from(seed, count, *columns):
    """Run the test count times. Its k-th argument takes each edge of the pair
    columns[k] = (edges, draw) once and draw(rng) the other times, in an order
    that rng, the test's own random.Random(seed), shuffles. test.draws() lists
    the argument tuples; `pytest -l` shows those a failing run was given."""
    def decorate(test):
        def each_draw():
            for args in each_draw.draws():
                test(*args)

        def draws():
            rng = random.Random(seed)
            values = [[*edges, *(draw(rng) for _ in range(count - len(edges)))] for edges, draw in columns]
            return list(zip(*(rng.sample(column, count) for column in values)))

        each_draw.draws = draws
        return each_draw
    return decorate


def ints(low, high):
    return (low, high), lambda rng: rng.randint(low, high)


# TINY, EPS, the switch of _one_minus_square, CLOSED_FORM_RTOL and the float below 1
CONSTANTS = [TINY, EPS, 0.5, 1e-12, 1.0 - 2.0**-53]
SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e300, -1e300, 1.7976931348623157e308, 0.5e-6, -0.5e-6, 1.0, *CONSTANTS]


def any_float(rng):
    """A float of any sign and size from a random bit pattern, now and then
    subnormal, inf or NaN; or, a fifth of the time, one in [-4, 4]."""
    bits = float(np.frombuffer(rng.randbytes(8), "<f8")[0])
    return bits if rng.random() < 0.8 else rng.uniform(-4.0, 4.0)


def real(rng):
    return rng.choice([rng.choice(SPECIAL), any_float(rng), rng.uniform(1e299, 1e308)])


def finite(rng):
    while not math.isfinite(x := real(rng)):
        pass
    return x


def array(rng, shape, part, parts=1):
    """An array of the given shape whose entries have 1 (real) or 2 (complex) parts drawn by part."""
    return np.array([complex(part(rng), part(rng)) if parts == 2 else part(rng)
                     for _ in range(math.prod(shape))]).reshape(shape)


def per_entry_lines(M):
    return ["  [" + ", ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in row) + "]" for row in M]


@drawn_from(1, 100, ((), lambda rng: array(rng, (rng.randint(1, 4), rng.randint(1, 4)), real, rng.randint(1, 2))))
def test_row_wise_lines_match_per_entry_formatting(M):
    assert _matrix_lines(M) == per_entry_lines(M)


def radius(rng):
    """A float in [5e-324, 1): uniform, uniform in its exponent down to the
    subnormals, or 1 - 2^-k for real k from 1 to 53."""
    return rng.choice([max(5e-324, rng.random()), max(5e-324, 10.0 ** rng.uniform(-324, -1)),
                       1.0 - 2.0 ** -rng.uniform(1, 53)])


def record(rng):
    if rng.random() < 0.5:
        return BoundsRecord(rng.randint(1, 10**6), *(real(rng) for _ in range(6)), rng.random() < 0.5)
    # a failed point: NaN norms, passed = False and its error, which reports omit
    return _failed_record(rng.randint(1, 64), radius(rng), ToepcondError("synthetic failure"))


def per_cell_csv(rows):
    return "\n".join([CSV_HEADER, *(",".join(map(_cell, row)) for row in rows)]) + "\n"


@drawn_from(2, 100, ((), lambda rng: [record(rng) for _ in range(rng.randint(0, 5))]))
def test_row_wise_csv_matches_per_cell_formatting(records):
    rows = [_bounds_row(rec) for rec in records]
    assert _report("csv", CSV_HEADER, rows) == per_cell_csv(rows)


def triangular_system(rng):
    """A lower-triangular m x m W and an m-vector x, real or complex, with
    finite entries whose products and sums may still overflow."""
    m, parts = rng.randint(1, 12), rng.randint(1, 2)
    return np.tril(array(rng, (m, m), finite, parts)), array(rng, (m,), finite, parts)


# The sweep reads the row sums of every leading block from those of the
# n_max block. Equality as floats, NaN included, is bitwise up to the
# payload of a NaN and the sign of a zero, which the norm of the sums drops.
@drawn_from(3, 100, ((), triangular_system))
def test_row_sums_of_leading_blocks_are_those_of_the_full_matrix(system):
    W, x = system
    full = _row_sums(W, x)
    for n in range(1, len(x) + 1):
        assert np.array_equal(_row_sums(W[:n, :n], x[:n]), full[:n], equal_nan=True)


# entries whose squares underflow (near 1e-160 and subnormal) or overflow
# (near 1e160 and beyond), zeros, inf and NaN, among any floats
NORM_ENTRIES = [lambda rng: rng.choice(SPECIAL), lambda rng: 10.0 ** rng.uniform(-170, -150),
                lambda rng: 10.0 ** rng.uniform(150, 170), lambda rng: rng.uniform(0.5, 2.0), any_float,
                lambda rng: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-324, -300)]  # 0 and subnormals too


def _hexes(values):
    return [float(v).hex() for v in values]


# The sweep reads the lengths of every leading block from one running norm
# of the n_max vector, and check_contraction takes its last entry for the
# block alone: so each prefix's norm must depend on that prefix only. Where
# every square lies in the normal range the norm is within (n/2 + 1) eps of
# the exact one, which Fraction forms from the squares; elsewhere, and
# wherever the norm is beyond float64, it is math.hypot's.
@drawn_from(4, 200, ((), lambda rng: [rng.choice(NORM_ENTRIES)(rng) for _ in range(rng.randint(1, 24))]))
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


def coefficient_stack(rng):
    """An R x n stack of symbol coefficients, real or complex, finite, whose
    reciprocal series may overflow to inf or NaN, and one row index."""
    rows, n = rng.randint(1, 6), rng.randint(1, 12)
    return array(rng, (rows, n), finite, rng.randint(1, 2)).astype(complex), rng.randint(0, rows - 1)


def _same_floats(a, b):
    a, b = a.view(np.float64), b.view(np.float64)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


# The sweep forms the series of every r in one recursion and theorem_check
# that of one r at its own size, so each row's series must not depend on
# the other rows, nor its first k coefficients on the length of the row.
@drawn_from(5, 100, ((), coefficient_stack))
def test_reciprocal_rows_are_those_of_each_row_alone(stack):
    a, i = stack
    full = _reciprocal_rows(a)
    assert _same_floats(_reciprocal_rows(a[i : i + 1])[0], full[i])
    for k in range(1, a.shape[1] + 1):
        assert _same_floats(_reciprocal_rows(a[:, :k]), full[:, :k])


# The sweep cuts at the first failing shell of one mask and reads each
# size's A W = I verdict from that of another: the count of leading blocks
# with no True entry, which the running maxima over the shells also give.
@drawn_from(6, 100, ints(1, 64), ((0.0, 0.2), lambda rng: rng.uniform(0.0, 0.2)), ((), lambda rng: rng.getrandbits(64)))
def test_first_shell_counts_the_clean_leading_blocks(m, density, seed):
    B = np.random.default_rng(seed).random((m, m)) < density
    assert _first_shell(B) == np.count_nonzero(~_leading_maxima(B))


# The CLI over the README's domain: every run ends in a checked result
# (exit 0), the one typed overflow failure (exit 1) or a usage error
# (exit 2, here only r = 1 outside `bound`), never in a traceback or a
# RuntimeWarning.
OVERFLOW = re.compile(r"exact inverse has entries beyond the float64 range, first at \(\d+, \d+\)")
RADII = list(dict.fromkeys([5e-324, 1e-300, 1e-200, 1e-154, 1e-6, 0.05, 0.5, 0.9, 0.9999, 1.0 - 1e-12,
                            1.0 - 1e-15, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0, *CONSTANTS]))


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


@drawn_from(7, 60, ints(1, 8), (RADII, radius), (RADII, radius))
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


@drawn_from(8, 60, ints(1, 64), (RADII, radius), ((False, True), lambda rng: rng.random() < 0.5))
def test_extremal_cli(n, r, model):
    code, out, err = run(["extremal", "--n", str(n), "--r", repr(r)] + (["--model"] if model else []))
    if succeeded(code, out, err, r):
        assert abs(field(out, "r^n * inv = ", ",") - 1.0) <= 1e-8
        assert_bound(field(out, "bound 1/r^n = ", ", " if model else ")"), n, r)
        if model:
            assert field(out, "relative gap ", ")") <= 1e-12


@pytest.mark.parametrize("r", [1.0 - 2.0**-53, 1.0 - 2.0**-52])
def test_extremal_model_cli_within_an_ulp_of_the_circle(r):
    # every size reports, with rank 1, where two of RADII meet all n the
    # draws above leave out: np.abs rounds some of the zeros
    # r * (roots of unity) up to 1, and their weights are 0
    for n in range(1, 65):
        code, out, err = run(["extremal", "--model", "--n", str(n), "--r", repr(r)])
        assert (code, err) == (0, "") and "\ndefect rank = 1\n" in out
        assert abs(field(out, "r^n * inv = ", ",") - 1.0) <= 1e-8
        assert field(out, "relative gap ", ")") <= 1e-12


@drawn_from(9, 40, ints(1, 16), (RADII, radius))
def test_search_cli(n, r):
    code, out, err = run(["search", "--n", str(n), "--r", repr(r)])
    if succeeded(code, out, err, r):
        assert abs(field(out, " scaled=", " ") - 1.0) <= 1e-8
        assert_bound(field(out, " estimate=", " "), n, r)


@drawn_from(10, 40, ints(1, 64), (RADII, radius))
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
OUTSIDE = [math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324, -0.5, 1.0, 1.0 + 2.0**-52, 1.5, 1e308,
           *(-c for c in CONSTANTS if c != 0.5)]
OPEN_INTERVAL = "r must lie strictly between 0 and 1"


@drawn_from(11, 60, ints(1, 16),
            (OUTSIDE, lambda rng: -abs(finite(rng)) if rng.random() < 0.5 else 1.0 + abs(finite(rng))))
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
@drawn_from(12, 40, ints(1, 64), ([r for r in RADII if r < 1.0], radius))
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


def test_draws_do_not_depend_on_imported_constants(tmp_path, monkeypatch):
    # a draw from a pool of the float constants of the modules loaded so far
    # would change with the module below, and with any edit to src/
    (tmp_path / "extra_constants.py").write_text("SCALE = 0.3183098861837907\nFLOOR = -7.25e-201\n")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(tmp_path), *sys.path]))
    # import the named modules, then print each test's count of inputs and a digest of them all
    script = """import hashlib, pickle, sys
*_, props, model = [__import__(name) for name in sys.argv[1:] + ["test_properties", "test_model"]]
draws = [test.draws() for module in (props, model) for test in vars(module).values() if hasattr(test, "draws")]
print(*map(len, draws), hashlib.sha256(pickle.dumps(draws)).hexdigest())"""
    runs = [subprocess.run([sys.executable, "-c", script, *extra], capture_output=True, text=True, check=True,
                           timeout=120).stdout.split() for extra in ([], ["extra_constants"])]
    assert runs[0] == runs[1]
    assert runs[0][:-1] == "100 100 100 200 100 100 60 60 40 40 60 40 100".split()
